"""Viewpoint-aligned rendering: root propagation, anchor ordering, folds."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import golden
import reference_align
import retroroute.align as align
from generators import rand_route_record
from isomorphism import is_isomorphic
from retroroute.align import (
    AlignedSequence,
    align_route,
    augment_roots,
    default_root,
    render_sequence,
)
from retroroute.routes import Reaction, Route, to_tree
from retroroute.smiles import (
    RootedWriter,
    canonical_key,
    canonical_ranks,
    parse_smiles,
    write_rooted,
)


def mol(text: str):
    return parse_smiles(text)[0]


def key_of(text: str):
    return canonical_key(mol(text))


def tree_for(target: str, *reactions: Reaction):
    return to_tree(Route(mol(target), tuple(reactions)))


def test_default_root_is_rank_zero_atom():
    m = mol("OCC")
    assert canonical_ranks(m)[default_root(m)] == 0
    # The canonical key starts from the same atom, so rendering there
    # reproduces it.
    assert canonical_key(m).key.startswith(m.atoms[default_root(m)].element)


def test_single_mapped_atom_forces_precursor_root():
    r = Reaction.from_molecules(
        mol("[CH3:1]CO"), (mol("[CH3:1]C=O"),)
    )
    tree = tree_for("CCO", r)
    seq = align_route(tree, 0)
    step = seq.steps[0]
    assert step.product_text.startswith("C")
    assert step.inherited_roots == (0,)
    assert step.anchor_positions == (0.0,)
    assert step.precursor_texts[0].startswith("C")


def test_precursor_root_is_argmin_over_mapped_positions():
    # Product rooted at the oxygen: water's atom lands at product position 0
    # and wins the first slot; the bromide roots at its CH2, whose image
    # sits at position 1, not at its lower-index CH3.
    r = Reaction.from_molecules(
        mol("[CH3:1][CH2:2][OH:3]"), (mol("[CH3:1][CH2:2]Br"), mol("[OH2:3]"))
    )
    tree = tree_for("CCO", r)
    step = align_route(tree, 2).steps[0]
    assert step.product_text == "OCC"
    assert step.precursor_texts == ("O", "C(Br)C")
    assert step.anchor_positions == (0.0, 1.0)
    assert step.inherited_roots == (0, 1)


def test_unmapped_precursor_sorts_last_with_infinite_anchor():
    r = Reaction.from_molecules(
        mol("[CH3:1][C:2](=[O:3])OCC"),
        (mol("CCO"), mol("[CH3:1][C:2](=[O:3])Cl")),
    )
    tree = tree_for("CC(=O)OCC", r)
    step = align_route(tree, 0).steps[0]
    assert step.anchor_positions[-1] == float("inf")
    assert key_of(step.precursor_texts[-1]) == key_of("CCO")
    # The reagent renders from its own canonical rank-0 atom.
    reagent = mol("CCO")
    assert step.inherited_roots[-1] == default_root(reagent)


def test_anchor_positions_non_decreasing_everywhere():
    rng = random.Random(23)
    for i in range(25):
        record = rand_route_record(rng, index=i, convergence=0.25)
        tree = to_tree(record.route)
        for root in range(0, len(tree.root.molecule.atoms), 2):
            for step in align_route(tree, root).steps:
                anchors = list(step.anchor_positions)
                assert anchors == sorted(anchors)


def test_alignment_preserves_chemistry():
    rng = random.Random(29)
    for i in range(15):
        record = rand_route_record(rng, index=i, convergence=0.25)
        tree = to_tree(record.route)
        seq = align_route(tree, 0)
        originals = {canonical_key(r.product) for r in record.route.reactions}
        for step in seq.steps:
            assert canonical_key(mol(step.product_text)) in originals
            for text in step.precursor_texts:
                parsed = parse_smiles(text)
                assert len(parsed) == 1


def test_precursor_input_order_does_not_matter():
    # Same reaction with precursors given in every permutation: anchored
    # output order must not move (anchors differ, so ties never decide).
    product = "[CH3:1][C:2](=[O:3])[O:4][CH2:5][CH3:6]"
    precursors = ["[CH3:1][C:2](=[O:3])Cl", "[O:4]([CH2:5][CH3:6])", "CC(C)N"]
    expected = None
    for perm in permutations(precursors):
        r = Reaction.from_molecules(mol(product), tuple(mol(p) for p in perm))
        tree = tree_for("CC(=O)OCC", r)
        step = align_route(tree, 0).steps[0]
        if expected is None:
            expected = step.precursor_texts
        assert step.precursor_texts == expected


def test_equal_anchor_tie_breaks_by_input_index():
    # Two unmapped reagents share anchor inf; input order decides.
    r = Reaction.from_molecules(mol("CCO"), (mol("CC=O"), mol("NCC"), mol("OCO")))
    tree = tree_for("CCO", r)
    step = align_route(tree, 0).steps[0]
    assert [key_of(t) for t in step.precursor_texts] == [
        key_of("CC=O"),
        key_of("NCC"),
        key_of("OCO"),
    ]


def test_root_inheritance_is_byte_exact():
    """A molecule rendered as a precursor at step k is rendered again as the
    next product from the same atom, so the two strings must match."""
    rng = random.Random(31)
    for i in range(20):
        record = rand_route_record(rng, index=i, convergence=0.3)
        tree = to_tree(record.route)
        for root in range(0, len(tree.root.molecule.atoms), 3):
            seq = align_route(tree, root)
            seen: set[str] = set()
            for k, step in enumerate(seq.steps):
                if k > 0:
                    assert step.product_text in seen
                seen.update(step.precursor_texts)


def test_align_requires_valid_target_root():
    r = Reaction.from_molecules(mol("[CH3:1]CO"), (mol("[CH3:1]C=O"),))
    tree = tree_for("CCO", r)
    with pytest.raises(IndexError):
        align_route(tree, 99)


@pytest.mark.parametrize("target_root", [-1, -3])
def test_align_rejects_a_negative_target_root(target_root):
    # A negative root must not wrap around to an atom counted from the end.
    r = Reaction.from_molecules(mol("[CH3:1][CH2:2][OH:3]"), (mol("[CH3:1][CH:2]=[O:3]"),))
    tree = tree_for("OCC", r)
    with pytest.raises(IndexError):
        align_route(tree, target_root)


# ---------------------------------------------------------------------------
# Golden route
# ---------------------------------------------------------------------------


def golden_alignment(target_root: int) -> AlignedSequence:
    tree = to_tree(golden.build_record().route)
    return align_route(tree, target_root)


@pytest.mark.parametrize("target_root", [0, 1])
def test_golden_step_and_precursor_order(target_root):
    seq = golden_alignment(target_root)
    assert len(seq.steps) == 9
    products = [canonical_key(mol(s.product_text)).key for s in seq.steps]
    assert products == golden.step_product_keys()
    precursors = [
        [canonical_key(mol(t)).key for t in s.precursor_texts] for s in seq.steps
    ]
    assert precursors == golden.step_precursor_keys()


def test_golden_texts_isomorphic_to_box_strings():
    seq = golden_alignment(0)
    for step, (product, precursors) in zip(seq.steps, golden.ALIGNED_STEPS):
        assert is_isomorphic(mol(step.product_text), mol(product))
        assert len(step.precursor_texts) == len(precursors)
        for mine, box in zip(step.precursor_texts, precursors):
            assert is_isomorphic(mol(mine), mol(box))


def test_golden_main_chain_inherits_boc_nitrogen_view():
    # Rooted at the target's ring nitrogen, the deprotected amine of the
    # seventh step keeps the nitrogen-first viewpoint down the chain.
    seq = golden_alignment(1)
    assert seq.steps[6].precursor_texts[0].startswith("N1CCC(CC1)")


def test_golden_root_inheritance_byte_exact():
    for target_root in (0, 1):
        seq = golden_alignment(target_root)
        seen: set[str] = set()
        for k, step in enumerate(seq.steps):
            if k > 0:
                assert step.product_text in seen
            seen.update(step.precursor_texts)


# ---------------------------------------------------------------------------
# augment_roots
# ---------------------------------------------------------------------------


def test_augment_caps_at_heavy_atom_count():
    r = Reaction.from_molecules(mol("c1ccccc1"), (mol("c1ccccc1Br"),))
    tree = tree_for("c1ccccc1", r)
    sequences = augment_roots(tree, 20, seed=4)
    assert len(sequences) == 6
    assert len({seq.target_root for seq in sequences}) == 6


def test_augment_single_fold():
    r = Reaction.from_molecules(mol("CCO"), (mol("CC=O"),))
    tree = tree_for("CCO", r)
    sequences = augment_roots(tree, 1, seed=9)
    assert len(sequences) == 1
    assert 0 <= sequences[0].target_root < 3


def test_augment_rejects_zero_folds():
    r = Reaction.from_molecules(mol("CCO"), (mol("CC=O"),))
    with pytest.raises(ValueError):
        augment_roots(tree_for("CCO", r), 0, seed=1)


def test_augment_is_seed_deterministic():
    tree = to_tree(golden.build_record().route)
    first = augment_roots(tree, 5, seed=77)
    second = augment_roots(tree, 5, seed=77)
    assert [s.target_root for s in first] == [s.target_root for s in second]
    assert [render_sequence(a) for a in first] == [render_sequence(b) for b in second]
    different = augment_roots(tree, 5, seed=78)
    assert [s.target_root for s in first] != [s.target_root for s in different]


def test_augment_roots_are_distinct_heavy_atoms():
    tree = to_tree(golden.build_record().route)
    target = tree.root.molecule
    sequences = augment_roots(tree, 12, seed=3)
    roots = [s.target_root for s in sequences]
    assert len(set(roots)) == len(roots) == 12
    heavy = set(target.heavy_atom_indices())
    assert all(r in heavy for r in roots)


# ---------------------------------------------------------------------------
# render / parse
# ---------------------------------------------------------------------------


def test_render_empty_sequence():
    assert render_sequence(AlignedSequence((), 0)) == ""


def test_render_and_parse_round_trip():
    seq = golden_alignment(0)
    text = render_sequence(seq)
    lines = text.splitlines()
    assert len(lines) == 9
    assert all(">>" in line for line in lines)
    assert lines == [
        f"{s.product_text}>>{'.'.join(s.precursor_texts)}" for s in seq.steps
    ]


def test_augment_roots_equals_align_route_on_each_root():
    trees = [to_tree(golden.build_record().route)]
    rng = random.Random(61)
    trees += [to_tree(rand_route_record(rng, index=i, convergence=0.3).route) for i in range(12)]
    for seed, tree in enumerate(trees):
        sequences = augment_roots(tree, 20, seed=seed)
        assert sequences == [align_route(tree, s.target_root) for s in sequences]


def test_align_route_reuses_the_writers_it_is_given():
    tree = to_tree(golden.build_record().route)
    writers = {}
    first = align_route(tree, 3, writers=writers)
    kept = dict(writers)
    assert kept and all(writer is writers[m] for m, writer in kept.items())
    assert align_route(tree, 3, writers=writers) == first == align_route(tree, 3)
    assert writers == kept


# ---------------------------------------------------------------------------
# Each step writes its node's molecule, once per (node, root)
# ---------------------------------------------------------------------------


def convergent_trees(count: int):
    """The first `count` generated routes that duplicate a molecule."""
    rng = random.Random(67)
    trees = []
    while len(trees) < count:
        tree = to_tree(rand_route_record(rng, index=len(trees), convergence=0.3).route)
        keys = [canonical_key(node.molecule) for node in tree_nodes(tree)]
        if len(set(keys)) < len(keys):
            trees.append(tree)
    return trees


def tree_nodes(tree):
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def test_reference_corresponding_atom_transfers_by_rank():
    a = mol("CCO")
    b = mol("OCC")
    assert reference_align.corresponding_atom(a, 2, b) == 0
    assert reference_align.corresponding_atom(b, 0, a) == 2


def test_reference_corresponding_atom_requires_same_structure():
    with pytest.raises(ValueError):
        reference_align.corresponding_atom(mol("CCO"), 0, mol("CCN"))


def test_golden_alignment_matches_reference_from_every_heavy_atom():
    tree = to_tree(golden.build_record().route)
    for root in tree.root.molecule.heavy_atom_indices():
        assert align_route(tree, root) == reference_align.align_route(tree, root)


def test_augment_roots_matches_reference_on_convergent_routes():
    for seed, tree in enumerate(convergent_trees(12)):
        sequences = augment_roots(tree, 20, seed=seed)
        assert len(sequences) == min(20, len(tree.root.molecule.heavy_atom_indices()))
        assert sequences == [reference_align.align_route(tree, s.target_root) for s in sequences]


def test_no_reaction_product_gets_a_writer(monkeypatch):
    made = []

    class SpyWriter(RootedWriter):
        def __init__(self, m, **flags):
            made.append(m)
            super().__init__(m, **flags)

    monkeypatch.setattr(align, "RootedWriter", SpyWriter)
    trees = [to_tree(golden.build_record().route), *convergent_trees(4)]
    for seed, tree in enumerate(trees):
        made.clear()
        augment_roots(tree, 20, seed=seed)
        nodes = tree_nodes(tree)
        # A node's molecule is the target or one of its parent's precursors.
        molecules = {id(node.molecule) for node in nodes}
        products = {id(node.reaction.product) for node in nodes if not node.is_leaf}
        assert made and len({id(m) for m in made}) == len(made)
        assert {id(m) for m in made} <= molecules
        assert not {id(m) for m in made} & (products - molecules)


def test_augment_roots_builds_each_node_and_root_step_once(monkeypatch):
    built, renderings = [], []
    real_step, real_linearize = align.AlignedStep, align.linearize_nodes

    def counted_step(*fields):
        built.append(fields)
        return real_step(*fields)

    def logged_linearize(tree, children):
        visits = []
        renderings.append(visits)

        def logged(node):
            ordered = children(node)
            visits.append((node, ordered))
            return ordered

        return real_linearize(tree, logged)

    monkeypatch.setattr(align, "AlignedStep", counted_step)
    monkeypatch.setattr(align, "linearize_nodes", logged_linearize)
    tree = convergent_trees(1)[0]
    sequences = augment_roots(tree, 20, seed=5)
    steps_by_pair: dict[tuple[int, int], set[int]] = {}
    for sequence, visits in zip(sequences, renderings, strict=True):
        roots = {tree.root.node_id: sequence.target_root}
        for step, (node, ordered) in zip(sequence.steps, visits, strict=True):
            steps_by_pair.setdefault((node.node_id, roots[node.node_id]), set()).add(id(step))
            roots.update((child.node_id, r) for child, r in zip(ordered, step.inherited_roots))
    assert len(built) == len(steps_by_pair) < sum(len(s.steps) for s in sequences)
    assert all(len(ids) == 1 for ids in steps_by_pair.values())


def test_product_lines_keep_the_stereo_marks_of_the_previous_precursor():
    # Keys ignore stereo, so the step-2 product spelled [C@H] is paired with
    # the step-1 precursor spelled [C@@H]; the product line is the latter.
    esterify = Reaction.from_molecules(
        mol("[CH3:1][O:2][C:3](=[O:4])[C@@H:5]([CH3:6])[NH2:7]"),
        (mol("[OH:2][C:3](=[O:4])[C@@H:5]([CH3:6])[NH2:7]"), mol("[CH3:1]I")),
    )
    deprotect = Reaction.from_molecules(
        mol("[OH:2][C:3](=[O:4])[C@H:5]([CH3:6])[NH2:7]"),
        (mol("[OH:2][C:3](=[O:4])[C@H:5]([CH3:6])[NH:7]C(=O)OC(C)(C)C"),),
    )
    tree = tree_for("COC(=O)[C@@H](C)N", esterify, deprotect)
    for root in range(len(tree.root.molecule.atoms)):
        seq = align_route(tree, root)
        assert seq.steps[0].product_text == write_rooted(tree.root.molecule, root)[0]
        for previous, step in zip(seq.steps, seq.steps[1:]):
            assert step.product_text in previous.precursor_texts
    assert align_route(tree, 0).steps[1].product_text == "OC([C@@H](C)N)=O"
    # Writing the reaction's own product gave the other spelling.
    assert reference_align.align_route(tree, 0).steps[1].product_text == "OC([C@H](C)N)=O"
