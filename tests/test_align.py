"""Viewpoint-aligned rendering: root propagation, anchor ordering, folds."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import golden
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
    canonical_key,
    canonical_ranks,
    parse_smiles,
)


def mol(text: str):
    return parse_smiles(text)[0]


def key_of(text: str):
    return canonical_key(mol(text))


def tree_for(target: str, *reactions: Reaction):
    return to_tree(Route.build(mol(target), tuple(reactions)))


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
