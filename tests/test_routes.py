"""Route DAG model: reactions, validation, tree decoupling, depth, datasets."""

from __future__ import annotations

import json
import random
import re
import sys

import pytest

import golden
from generators import rand_dataset, rand_route_record, write_dataset
from retroroute.errors import CycleError, RouteError, SchemaError
from retroroute.routes import (
    Reaction,
    Route,
    answers_by_target,
    ingest_dataset,
    linearize_nodes,
    load_stock,
    read_answers,
    route_depth,
    to_tree,
    validate_route,
)
from retroroute.smiles import canonical_key, parse_smiles


def mol(text: str):
    return parse_smiles(text)[0]


def key(text: str):
    return canonical_key(mol(text))


def rxn(product: str, *precursors: str) -> Reaction:
    return Reaction.from_molecules(mol(product), tuple(mol(p) for p in precursors))


def route(target: str, *reactions: Reaction) -> Route:
    return Route(mol(target), tuple(reactions))


def stock_of(*texts: str) -> frozenset:
    return frozenset(key(t) for t in texts)


# ---------------------------------------------------------------------------
# Reaction
# ---------------------------------------------------------------------------


def test_reaction_map_from_map_numbers():
    r = Reaction.from_molecules(
        mol("[CH3:1][C:2](=[O:3])[OH:4]"),
        (mol("[CH3:1][C:2](=[O:3])Cl"), mol("[OH2:4]")),
    )
    assert r.maps == ({0: 0, 1: 1, 2: 2}, {0: 3})


def test_reaction_unmapped_atoms_absent():
    r = rxn("CCO", "CC=O")
    assert r.maps == ({},)


def test_reaction_precursor_map_without_product_counterpart():
    # Map numbers present only on the precursor side stay unmapped.
    r = Reaction.from_molecules(mol("CCO"), (mol("[CH3:5]C=O"),))
    assert r.maps == ({},)


def test_reaction_duplicate_map_numbers_rejected():
    with pytest.raises(ValueError):
        Reaction.from_molecules(mol("[CH3:1][CH2:1]O"), (mol("CC=O"),))
    with pytest.raises(ValueError):
        Reaction.from_molecules(mol("CCO"), (mol("[CH3:2][CH:2]=O"),))


def test_reaction_needs_a_precursor():
    with pytest.raises(ValueError):
        Reaction(mol("CCO"), (), ())


def test_reaction_keys():
    r = rxn("OCC", "CC=O", "O")
    assert r.product_key == key("CCO")
    assert r.precursor_keys() == [key("CC=O"), key("O")]


# ---------------------------------------------------------------------------
# Route
# ---------------------------------------------------------------------------


def test_route_leaves_exclude_intermediates():
    r = route("CCCO", rxn("CCCO", "CCC=O"), rxn("CCC=O", "CCC", "O=O"))
    assert r.stock_refs == frozenset({key("CCC"), key("O=O")})
    assert r.target_key == key("CCCO")


def test_route_without_reactions_is_its_own_leaf():
    r = route("CCO")
    assert r.stock_refs == frozenset({key("CCO")})


def test_build_keeps_first_producer_and_analyses_the_route():
    first = rxn("CCO", "CC=O")
    second = rxn("CCO", "CCBr")
    r = route("CCO", first, second, rxn("CC=O", "C=C"))
    assert r.producers == {key("CCO"): first, key("CC=O"): r.reactions[2]}
    assert r.made_twice == (key("CCO"),)
    assert r.cycle == ()
    assert r.depth == 2
    cyclic = route("CCO", rxn("CCO", "CC=O"), rxn("CC=O", "CCO"))
    assert set(cyclic.cycle) == {key("CCO").key, key("CC=O").key}
    assert cyclic.made_twice == ()


# ---------------------------------------------------------------------------
# validate_route
# ---------------------------------------------------------------------------


def test_validate_one_step_all_pass():
    r = route("CC(=O)OCC", rxn("CC(=O)OCC", "CC(=O)O", "CCO"))
    report = validate_route(r, stock_of("CC(=O)O", "CCO"))
    assert report.ok
    assert report == ((), (), ())


def test_validate_missing_stock_names_the_leaf():
    r = route("CC(=O)OCC", rxn("CC(=O)OCC", "CC(=O)O", "CCO"))
    report = validate_route(r, stock_of("CC(=O)O"))
    assert not report.ok
    assert report.grounding == (key("CCO").key,)
    assert report.target_convergence == ()


def test_validate_target_must_not_be_consumed():
    r = route("CCO", rxn("CCO", "CC=O"), rxn("CC=O", "CCO", "O=O"))
    report = validate_route(r, stock_of("CCO", "O=O"))
    assert key("CCO").key in report.target_convergence


def test_validate_unproduced_target_fails_convergence():
    r = Route(mol("CCCCCC"), (rxn("CCO", "CC=O"),))
    report = validate_route(r, stock_of("CC=O"))
    assert key("CCCCCC").key in report.target_convergence


def test_validate_extra_sink_fails_convergence():
    r = route("CCO", rxn("CCO", "CC=O"), rxn("CCCCO", "CCCC=O"))
    report = validate_route(r, stock_of("CC=O", "CCCC=O"))
    assert report.target_convergence == (key("CCCCO").key,)


def test_validate_duplicate_producer_fails_stepwise():
    r = Route(mol("CCO"), (rxn("CCO", "CC=O"), rxn("CCO", "CCBr")))
    report = validate_route(r, stock_of("CC=O", "CCBr"))
    assert key("CCO").key in report.stepwise_linkage


def test_validate_cycle_fails_stepwise():
    r = Route(mol("CCO"), (rxn("CCO", "CC=O"), rxn("CC=O", "CCO")))
    report = validate_route(r, stock_of("CCO"))
    assert set(report.stepwise_linkage) == {key("CCO").key, key("CC=O").key}


def test_validate_golden_route_against_its_leaves():
    record = golden.build_record()
    report = validate_route(record.route, record.route.stock_refs)
    assert report.ok
    assert len(record.route.stock_refs) == 7


def test_validate_empty_route_grounds_on_target():
    r = route("CCO")
    assert validate_route(r, stock_of("CCO")).ok
    assert validate_route(r, stock_of("CCN")).grounding


# ---------------------------------------------------------------------------
# to_tree / linearize
# ---------------------------------------------------------------------------


def test_tree_linear_route_shape():
    r = route("CCCO", rxn("CCCO", "CCC=O"), rxn("CCC=O", "CCC", "O=O"))
    root = to_tree(r).root
    assert not root.is_leaf and len(root.children) == 1
    grand = root.children[0].children
    assert [canonical_key(n.molecule) for n in grand] == [key("CCC"), key("O=O")]
    assert all(n.is_leaf for n in grand)


def test_tree_node_ids_are_preorder():
    r = route("CCCO", rxn("CCCO", "CCC=O"), rxn("CCC=O", "CCC", "O=O"))
    ids = []

    def walk(node):
        ids.append(node.node_id)
        for child in node.children:
            walk(child)

    walk(to_tree(r).root)
    assert ids == list(range(4))


def test_tree_duplicates_convergent_intermediate():
    diamond = route(
        "CCCOC",
        rxn("CCCOC", "CCCO", "COC"),
        rxn("CCCO", "CCO"),
        rxn("COC", "CCO"),
        rxn("CCO", "CC=O"),
    )
    tree = to_tree(diamond)
    # CCO appears under both branches; so does its leaf CC=O.
    keys = []
    occurrences = []

    def walk(node):
        keys.append(canonical_key(node.molecule))
        if keys[-1] == key("CCO"):
            occurrences.append(node)
        for child in node.children:
            walk(child)

    walk(tree.root)
    assert len(keys) == 7 and keys.count(key("CC=O")) == 2
    # Both occurrences of CCO are expanded identically.
    assert len(occurrences) == 2
    for node in occurrences:
        assert [canonical_key(c.molecule) for c in node.children] == [key("CC=O")]


def test_tree_rejects_cycles_and_duplicate_producers():
    cyclic = Route(mol("CCO"), (rxn("CCO", "CC=O"), rxn("CC=O", "CCO")))
    with pytest.raises(CycleError):
        to_tree(cyclic)
    doubled = Route(mol("CCO"), (rxn("CCO", "CC=O"), rxn("CCO", "CCBr")))
    with pytest.raises(ValueError):
        to_tree(doubled)


def test_first_molecule_made_twice_is_named_and_all_are_listed():
    # CCO's first producer comes first; CCCO sorts first and is seen made
    # twice first, so neither ordering may stand in for reaction order.
    r = route(
        "CCO",
        rxn("CCO", "CC=O"),
        rxn("CCCO", "CCC=O"),
        rxn("CCCO", "CCCBr"),
        rxn("CCO", "CCBr"),
    )
    with pytest.raises(RouteError) as raised:
        to_tree(r)
    assert str(raised.value) == f"molecule {key('CCO').key} has more than one producing reaction"
    report = validate_route(r, stock_of("CC=O", "CCC=O", "CCCBr", "CCBr"))
    assert report.stepwise_linkage == tuple(sorted([key("CCO").key, key("CCCO").key]))


def test_linearize_main_chain_before_branches():
    r = route(
        "CCCCOC",
        rxn("CCCCOC", "CCCCO", "COC"),
        rxn("CCCCO", "CCCC"),
        rxn("COC", "CO"),
        rxn("CCCC", "CC"),
    )
    products = [canonical_key(x.reaction.product) for x in linearize_nodes(to_tree(r))]
    # Chase the first branch to its end, then pick up the queued one.
    assert products == [key("CCCCOC"), key("CCCCO"), key("CCCC"), key("COC")]


def test_linearize_branches_emit_in_fifo_order():
    r = route(
        "CCCCCO",
        rxn("CCCCCO", "CCCCC", "OCO"),
        rxn("CCCCC", "CCC"),
        rxn("OCO", "OC"),
        rxn("CCC", "CC"),
        rxn("OC", "O"),
    )
    products = [canonical_key(x.reaction.product) for x in linearize_nodes(to_tree(r))]
    assert products == [
        key("CCCCCO"),
        key("CCCCC"),
        key("CCC"),
        key("OCO"),
        key("OC"),
    ]


def test_linearize_trivial_routes():
    assert linearize_nodes(to_tree(route("CCO"))) == []
    one_step = route("CCO", rxn("CCO", "CC=O"))
    assert len(linearize_nodes(to_tree(one_step))) == 1


def test_linearize_golden_route_matches_box_order():
    record = golden.build_record()
    products = [
        canonical_key(x.reaction.product).key for x in linearize_nodes(to_tree(record.route))
    ]
    assert products == golden.step_product_keys()


# ---------------------------------------------------------------------------
# route_depth
# ---------------------------------------------------------------------------


def test_depth_linear_chain():
    r = route("CCCO", rxn("CCCO", "CCC=O"), rxn("CCC=O", "CCC", "O=O"))
    assert route_depth(r) == 2


def test_depth_takes_longest_branch():
    r = route(
        "CCCCOC",
        rxn("CCCCOC", "CCCCO", "COC"),
        rxn("CCCCO", "CCCC"),
        rxn("CCCC", "CC"),
    )
    assert route_depth(r) == 3


def test_depth_convergent_counts_paths_not_reactions():
    diamond = route(
        "CCCOC",
        rxn("CCCOC", "CCCO", "COC"),
        rxn("CCCO", "CCO"),
        rxn("COC", "CCO"),
        rxn("CCO", "CC=O"),
    )
    # Four reactions, but the longest path is 3 steps.
    assert route_depth(diamond) == 3


def test_depth_of_bare_target_is_zero():
    assert route_depth(route("CCO")) == 0


def test_depth_golden_route():
    assert route_depth(golden.build_record().route) == 7


def test_depth_rejects_cycles():
    cyclic = Route(mol("CCO"), (rxn("CCO", "CC=O"), rxn("CC=O", "CCO")))
    with pytest.raises(CycleError):
        route_depth(cyclic)


def test_depth_rejects_a_cycle_the_target_does_not_reach():
    r = route("CCCO", rxn("CCCO", "CCC=O"), rxn("CCN", "CC#N"), rxn("CC#N", "CCN"))
    with pytest.raises(CycleError, match="cycle through"):
        route_depth(r)


# Twelve distinct molecules for random reaction graphs.
_GRAPH_MOLECULES = [
    "CCO", "CC=O", "c1ccccc1", "CC(=O)O", "N", "O=C=O",
    "CCN", "CCCl", "C1CC1", "OC", "CC#N", "NC=O",
]


def _first_cycle(reactions: tuple[Reaction, ...]) -> tuple[str, ...]:
    """The first cycle that a recursive depth-first search meets, from each
    product in reaction order and each molecule's precursors in order: the
    trail from the repeated key on."""
    producers: dict = {}
    for reaction in reactions:
        producers.setdefault(reaction.product_key, reaction)
    done = set()

    def visit(k, trail):
        if k in trail:
            return trail[trail.index(k) :]
        if k in done:
            return None
        trail.append(k)
        for child in producers[k].precursor_keys() if k in producers else ():
            cycle = visit(child, trail)
            if cycle:
                return cycle
        trail.pop()
        done.add(k)
        return None

    for reaction in reactions:
        cycle = visit(reaction.product_key, [])
        if cycle:
            return tuple(k.key for k in cycle)
    return ()


def _longest_path(reactions: tuple[Reaction, ...], k) -> int:
    """Reaction steps on the longest path from a leaf to k, memoised."""
    producers: dict = {}
    for reaction in reactions:
        producers.setdefault(reaction.product_key, reaction)
    depth: dict = {}

    def longest(k) -> int:
        if k not in depth:
            precursors = producers[k].precursor_keys() if k in producers else []
            depth[k] = max((longest(p) + 1 for p in precursors), default=0)
        return depth[k]

    return longest(k)


def test_depth_and_first_cycle_match_a_recursive_search():
    rng = random.Random(15)
    cyclic = 0
    for _ in range(1_000):
        names = rng.sample(_GRAPH_MOLECULES, rng.randint(1, 12))
        reactions = tuple(
            rxn(rng.choice(names), *rng.choices(names, k=rng.randint(1, 3)))
            for _ in range(rng.randint(0, 8))
        )
        target = mol(rng.choice(names))
        r = Route(target, reactions)
        assert r.cycle == _first_cycle(reactions)
        if r.cycle:
            cyclic += 1
        else:
            assert r.depth == _longest_path(reactions, canonical_key(target))
    assert 100 < cyclic < 900


def test_generated_routes_validate_and_have_requested_depth():
    rng = random.Random(3)
    for wanted in (1, 2, 4, 6):
        record = rand_route_record(rng, depth=wanted)
        assert route_depth(record.route) == wanted
        assert validate_route(record.route, record.route.stock_refs).ok


# ---------------------------------------------------------------------------
# load_stock
# ---------------------------------------------------------------------------


def test_load_stock_reads_lines(tmp_path):
    path = tmp_path / "stock.smi"
    path.write_text("CCO\n\nCC=O.O\n", encoding="utf-8")
    assert load_stock(path) == frozenset({key("CCO"), key("CC=O"), key("O")})


def test_load_stock_rejects_empty(tmp_path):
    path = tmp_path / "stock.smi"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_stock(path)


def test_load_stock_reports_bad_line(tmp_path):
    path = tmp_path / "stock.smi"
    path.write_text("CCO\nC(C\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        load_stock(path)


# ---------------------------------------------------------------------------
# ingest / write
# ---------------------------------------------------------------------------


def make_raw(**overrides) -> dict:
    raw = {
        "target": "CCO",
        "reactions": [{"product": "CCO", "precursors": ["CC=O"]}],
        "references": [["CC=O"]],
        "ref_depth": 1,
    }
    raw.update(overrides)
    return raw


def test_ingest_minimal_record(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps([make_raw()]), encoding="utf-8")
    records = ingest_dataset(path)
    assert len(records) == 1
    record = records[0]
    assert record.index == 0
    assert record.route.target_key == key("CCO")
    assert len(record.route.reactions) == 1
    assert answers_by_target(path) == {key("CCO"): ((frozenset({key("CC=O")}),), 1)}


def test_reference_text_counts_as_its_components(tmp_path):
    path = tmp_path / "data.json"
    raws = [make_raw(references=[["CC=O.O"]]), make_raw(references=[["O", "CC=O"]])]
    path.write_text(json.dumps(raws), encoding="utf-8")
    assert len(ingest_dataset(path)) == 2
    dotted, listed = (read_answers(raw, "record")[1] for raw in raws)
    assert dotted == listed == (frozenset({key("CC=O"), key("O")}),)


def test_ingest_write_fixpoint(tmp_path):
    rng = random.Random(17)
    records = [rand_route_record(rng, index=i) for i in range(6)]
    path = tmp_path / "data.json"
    write_dataset(records, path)
    loaded = ingest_dataset(path)
    assert [(r.index, r.route.target_key, r.route.stock_refs) for r in loaded] == [
        (r.index, r.route.target_key, r.route.stock_refs) for r in records
    ]
    assert answers_by_target(path) == {
        r.route.target_key: (r.references, r.ref_depth) for r in records
    }


@pytest.mark.parametrize("seed, convergence", [(3, 0.0), (4, 0.4), (5, 0.8)])
def test_answers_reader_agrees_with_ingest(tmp_path, seed, convergence):
    rng = random.Random(seed)
    records = rand_dataset(rng, 8, convergence=convergence)
    raws = [record.raw for record in records]
    # A later record for a target already seen, with other answers: it wins.
    repeated = dict(raws[2], references=raws[5]["references"], ref_depth=9)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(raws + [repeated, raws[6]]), encoding="utf-8")
    written = [(r.references, r.ref_depth) for r in records]
    written += [(records[5].references, 9), written[6]]
    expected = {
        record.route.target_key: answers
        for record, answers in zip(ingest_dataset(path), written, strict=True)
    }
    answers = answers_by_target(path)
    assert list(answers.items()) == list(expected.items())
    assert answers[key(raws[2]["target"])][1] == 9


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda raw: raw.pop("target"), "missing 'target'"),
        (lambda raw: raw.update(target=7), "target must be a string"),
        (lambda raw: raw.update(reactions={}), "reactions must be an array"),
        (lambda raw: raw.update(references=[]), "references"),
        (lambda raw: raw.update(references=[[]]), "reference 0"),
        (lambda raw: raw.update(ref_depth=-1), "ref_depth"),
        (lambda raw: raw.update(ref_depth="2"), "ref_depth"),
        (lambda raw: raw["reactions"].append({"product": "CC"}), "reaction 1"),
        (
            lambda raw: raw["reactions"].append({"product": "CC", "precursors": []}),
            "empty precursor list",
        ),
        (lambda raw: raw.update(target="C.C"), "single-component"),
        (lambda raw: raw["reactions"][0].update(product=42), "reaction 0 product"),
        (lambda raw: raw["reactions"][0].update(precursors=[42]), "reaction 0 precursor 0"),
        (lambda raw: raw["reactions"][0].update(precursors="CCO"), "precursors must be an array"),
        (lambda raw: raw.update(references=[["CC=O", 42]]), "reference 0: expected a list of SMILES strings"),
        (lambda raw: raw.update(ref_depth=True), "ref_depth must be a non-negative integer"),
        (lambda raw: raw.update(references=[["CC=O", "C("]]), "reference 0: unclosed branch"),
        (lambda raw: raw.update(target="C(C"), "record 1 target: unclosed branch"),
        (lambda raw: raw["reactions"][0].update(product="C(C"), "reaction 0 product: unclosed branch"),
        (
            lambda raw: raw["reactions"][0].update(precursors=["CC=O", "C1CC"]),
            "reaction 0 precursor 1: unclosed ring closure",
        ),
        (
            lambda raw: raw["reactions"][0].update(product="[CH3:1][CH2:1]O"),
            "record 1 reaction 0: duplicate map number",
        ),
    ],
)
def test_ingest_schema_errors_name_the_record(tmp_path, mutate, needle):
    raw = make_raw()
    mutate(raw)
    path = tmp_path / "data.json"
    path.write_text(json.dumps([make_raw(), raw]), encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        ingest_dataset(path)
    assert "record 1" in str(excinfo.value)
    assert needle in str(excinfo.value)


def test_ingest_bad_smiles_keeps_record_index(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps([make_raw(target="C(C")]), encoding="utf-8")
    with pytest.raises(SchemaError, match="record 0 target: unclosed branch"):
        ingest_dataset(path)


def test_ingest_duplicate_map_number_is_schema_error(tmp_path):
    raw = make_raw(reactions=[{"product": "[CH3:1][CH2:1]O", "precursors": ["CC=O"]}])
    path = tmp_path / "data.json"
    path.write_text(json.dumps([raw]), encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate map number"):
        ingest_dataset(path)


def test_ingest_rejects_non_array_and_bad_json(tmp_path):
    path = tmp_path / "data.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(SchemaError, match="array"):
        ingest_dataset(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="JSON"):
        ingest_dataset(path)


@pytest.mark.parametrize("case", ["deep", "long-integer"])
def test_ingest_rejects_json_that_python_cannot_load(tmp_path, case):
    if case == "long-integer" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    path = tmp_path / "data.json"
    if case == "deep":
        path.write_text("[" * 100_000, encoding="utf-8")
    else:
        raw = json.dumps([make_raw()]).replace('"ref_depth": 1', '"ref_depth": ' + "1" * 5_000)
        assert "1" * 5_000 in raw
        path.write_text(raw, encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not valid JSON"):
        ingest_dataset(path)


def test_golden_record_survives_persistence(tmp_path):
    record = golden.build_record()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps([golden.record_raw(record.route, record.references)]))
    loaded = ingest_dataset(path)[0]
    assert loaded.route.target_key == record.route.target_key
    assert loaded.route.stock_refs == record.route.stock_refs
    assert route_depth(loaded.route) == 7
    assert answers_by_target(path) == {record.route.target_key: (record.references, 7)}
