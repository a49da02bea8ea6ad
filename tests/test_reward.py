"""Plan parsing and the hierarchical reward: gate, exact branch, penalties."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import rand_dataset, rand_route_record, write_dataset
from retroroute import reward, routes, smiles
from retroroute.align import align_route, render_sequence
from retroroute.cli import main
from retroroute.errors import ConfigError
from retroroute.reward import (
    DEFAULT_DELIMITERS,
    PlanScore,
    RewardConfig,
    jaccard,
    parse_plan,
    score_plan,
)
from retroroute.routes import route_depth, to_tree
from retroroute.smiles import canonical_key, parse_smiles

TOL = 1e-12


def mol(text: str):
    return parse_smiles(text)[0]


def key_of(text: str):
    return canonical_key(mol(text))


def keys_of(*texts: str) -> frozenset:
    return frozenset(key_of(t) for t in texts)


def wrapped(*lines: str) -> str:
    return "<think>considering disconnections</think>\n" + "\n".join(lines)


# Distinct, parsable, valence-broken molecules for invalid-line counting.
INVALID_POOL = ["Cl(C)C", "OO(O)O", "[CH4]C", "[O+]C", "I(C)C"]


def chain_plan(steps: int, invalid_lines: int) -> tuple[str, frozenset]:
    """A linear plan of the given depth whose first `invalid_lines` lines each
    carry one valence-invalid leaf. Returns (text, leaf key set)."""
    assert invalid_lines <= steps <= 5
    molecules = ["C" * (i + 2) + "O" for i in range(steps + 1)]
    lines = []
    leaves = {key_of(molecules[-1])}
    for i in range(steps):
        rhs = molecules[i + 1]
        if i < invalid_lines:
            rhs += "." + INVALID_POOL[i]
            leaves.add(key_of(INVALID_POOL[i]))
        lines.append(f"{molecules[i]}>>{rhs}")
    return wrapped(*lines), frozenset(leaves)


# ---------------------------------------------------------------------------
# parse_plan
# ---------------------------------------------------------------------------


def test_parse_one_step_plan():
    plan = parse_plan(wrapped("CCO>>CC=O.O"), mol("CCO"))
    assert plan.delimiters_ok
    assert plan.parsed_route is not None
    assert plan.parsed_route.stock_refs == keys_of("CC=O", "O")
    assert plan.parse_failures == ()
    assert plan.invalid_line_count == 0


def test_parse_garbage_text():
    plan = parse_plan("no reactions here", mol("CCO"))
    assert plan.parsed_route is None
    assert plan.parse_failures


def test_parse_dangling_second_step():
    plan = parse_plan(wrapped("CCO>>CC=O", "CCF>>CC"), mol("CCO"))
    assert plan.parsed_route is None
    assert any("never requested" in f.message for f in plan.parse_failures)


def test_parse_first_product_must_be_target():
    plan = parse_plan(wrapped("CCN>>CC=O"), mol("CCO"))
    assert plan.parsed_route is None
    assert any("not the queried target" in f.message for f in plan.parse_failures)


def test_parse_unparsable_product_is_fatal():
    plan = parse_plan(wrapped("C(>>CC=O"), mol("CCO"))
    assert plan.parsed_route is None


def test_product_of_two_components_names_the_count():
    plan = parse_plan("CCO.O>>CC", mol("CCO"))
    assert plan.parsed_route is None
    assert [(f.line_number, f.kind, f.message) for f in plan.parse_failures] == [
        (1, "syntax", "product: expected a single-component SMILES, got 2")
    ]


def test_parse_line_without_any_usable_precursor_is_fatal():
    plan = parse_plan(wrapped("CCO>>C("), mol("CCO"))
    assert plan.parsed_route is None
    assert any(f.kind == "structure" for f in plan.parse_failures)


def test_parse_drops_broken_precursor_keeps_line():
    plan = parse_plan(wrapped("CCO>>CC=O.C("), mol("CCO"))
    assert plan.parsed_route is not None
    assert plan.parsed_route.stock_refs == keys_of("CC=O")
    assert plan.invalid_line_count == 1


def test_empty_precursor_is_a_syntax_failure_on_its_line():
    plan = parse_plan(wrapped("CCO>>CC..O"), mol("CCO"))
    assert [(f.line_number, f.kind, f.message) for f in plan.parse_failures] == [
        (2, "syntax", "empty precursor")
    ]
    assert plan.invalid_line_count == 1
    score = score_plan(plan, [keys_of("CC", "O")], ref_depth=1)
    assert score.exact and math.isclose(score.penalty, 0.1, abs_tol=TOL)
    assert math.isclose(score.total, 1.9, abs_tol=TOL)


def test_parse_empty_answer_reports_no_lines():
    plan = parse_plan("<think>hm</think>\n\n", mol("CCO"))
    assert plan.parsed_route is None
    assert any("no reaction lines" in f.message for f in plan.parse_failures)


def test_parse_missing_delimiters_still_reads_answer():
    plan = parse_plan("CCO>>CC=O", mol("CCO"))
    assert not plan.delimiters_ok
    assert plan.parsed_route is not None


def test_parse_delimiters_out_of_order():
    plan = parse_plan("</think>x<think>\nCCO>>CC=O", mol("CCO"))
    assert not plan.delimiters_ok


def test_parse_finds_the_close_mark_after_the_open_mark():
    # A stray close mark before the pair hides nothing; the thought is a line
    # that would fail to parse if it leaked into the answer.
    plan = parse_plan("</think>x<think>C>>N</think>\nCCO>>CC=O", mol("CCO"))
    assert plan.delimiters_ok
    assert plan.parse_failures == () and plan.parsed_route is not None


def test_parse_identical_open_and_close_marks():
    plan = parse_plan("###C>>N###\nCCO>>CC=O.O", mol("CCO"), ("###", "###"))
    assert plan.delimiters_ok
    assert plan.parse_failures == () and plan.parsed_route is not None
    # The format bonus is paid under a strict config.
    score = score_plan(plan, [keys_of("CC=O", "O")], 1, RewardConfig(strict_format=True))
    assert score.format_applied is True
    assert math.isclose(score.total, 2.0, abs_tol=TOL)
    assert not parse_plan("###hm\nCCO>>CC=O", mol("CCO"), ("###", "###")).delimiters_ok


def test_parse_custom_delimiters():
    plan = parse_plan("[[plan]]...[[/plan]]\nCCO>>CC=O", mol("CCO"), ("[[plan]]", "[[/plan]]"))
    assert plan.delimiters_ok
    assert plan.parsed_route is not None


def test_parse_benign_duplicate_expansion_merges():
    plan = parse_plan(
        wrapped(
            "CCCOC>>CCCO.COC",
            "CCCO>>CCO",
            "COC>>CCO",
            "CCO>>CC=O",
            "CCO>>CC=O",
        ),
        mol("CCCOC"),
    )
    assert plan.parsed_route is not None
    assert len(plan.parsed_route.reactions) == 4
    assert route_depth(plan.parsed_route) == 3
    assert plan.parsed_route.stock_refs == keys_of("CC=O")


def test_parse_conflicting_duplicate_expansion_fails():
    plan = parse_plan(
        wrapped("CCCOC>>CCCO.COC", "CCCO>>CCO", "COC>>CCO", "CCO>>CC=O", "CCO>>CCBr"),
        mol("CCCOC"),
    )
    assert plan.parsed_route is None
    assert any("expanded twice" in f.message for f in plan.parse_failures)


def test_parse_rejects_cyclic_plan():
    plan = parse_plan(wrapped("CCO>>CC=O", "CC=O>>CCO"), mol("CCO"))
    assert plan.parsed_route is None
    assert any("cycle" in f.message for f in plan.parse_failures)


def test_thousand_line_chain_plan_gets_a_score():
    # [1001CH4]>>[1000CH4], ..., [2CH4]>>[1CH4]: one-atom molecules told apart
    # by isotope, so keying is cheap and only the depth is long.
    lines = [f"[{k + 1}CH4]>>[{k}CH4]" for k in range(1000, 0, -1)]
    plan = parse_plan(wrapped(*lines), mol("[1001CH4]"))
    assert plan.parsed_route is not None
    assert route_depth(plan.parsed_route) == 1000
    result = score_plan(plan, [keys_of("[1CH4]")], ref_depth=999)
    assert result.exact and result.depth_excess == 1
    assert math.isclose(result.total, 0.5 + 1.5 - 0.2)


def test_invalid_line_count_is_per_line():
    # Line one holds two broken molecules, line two one; a line counts once.
    plan = parse_plan(wrapped("CCO>>Cl(C)C.OO(O)O", "Cl(C)C>>CC"), mol("CCO"))
    assert plan.parsed_route is not None
    assert plan.invalid_line_count == 2


def test_a_prose_line_in_an_exact_plan_costs_nothing():
    plan = parse_plan(wrapped("Here is the route:", "CCO>>CC=O"), mol("CCO"))
    assert [(f.line_number, f.kind) for f in plan.parse_failures] == [(2, "prose")]
    assert plan.invalid_line_count == 0
    score = score_plan(plan, [keys_of("CC=O")], ref_depth=1)
    assert score.exact is True and score.invalid_lines == 0
    assert math.isclose(score.total, 2.0, abs_tol=TOL)


def test_prose_before_between_and_after_reaction_lines_is_never_charged():
    lines = ["First:", "CCO>>CC=O.Cl(C)C", "then", "CC=O>>CC.O", "Done, 2 steps."]
    plan = parse_plan(wrapped(*lines), mol("CCO"))
    assert plan.parsed_route is not None
    kinds = [(f.line_number, f.kind) for f in plan.parse_failures]
    assert kinds == [(2, "prose"), (3, "valence"), (4, "prose"), (6, "prose")]
    assert plan.invalid_line_count == 1
    score = score_plan(plan, [keys_of("CC", "O", "Cl(C)C")], ref_depth=2)
    assert score.exact is True and score.invalid_lines == 1
    assert math.isclose(score.total, 1.9, abs_tol=TOL)
    # Prose alone is still no plan, and an empty precursor still a syntax failure.
    only_prose = parse_plan(wrapped("No idea.", "Sorry."), mol("CCO"))
    assert only_prose.parsed_route is None
    assert [f.kind for f in only_prose.parse_failures] == ["prose", "prose", "structure"]
    assert only_prose.parse_failures[-1].message == "no reaction lines"
    assert score_plan(only_prose, [keys_of("CC=O")], ref_depth=1).total == 0.0
    empty = parse_plan(wrapped("Route:", "CCO>>"), mol("CCO"))
    assert [f.kind for f in empty.parse_failures] == ["prose", "syntax", "structure"]


def test_repeated_bad_precursor_is_a_failure_on_each_line():
    plan = parse_plan(wrapped("CCO>>CC=O.C(", "CC=O>>CC.C("), mol("CCO"))
    assert plan.parsed_route is not None
    assert [(f.line_number, f.kind) for f in plan.parse_failures] == [(2, "syntax"), (3, "syntax")]
    plan = parse_plan(wrapped("CCO>>CC=O.Cl(C)C", "CC=O>>CC.Cl(C)C"), mol("CCO"))
    assert [(f.line_number, f.kind) for f in plan.parse_failures] == [(2, "valence"), (3, "valence")]
    assert plan.invalid_line_count == 2


def test_non_ascii_digit_is_a_syntax_failure_on_its_line():
    plan = parse_plan(wrapped("CCO>>C\u00b2.O"), mol("CCO"))
    assert plan.parsed_route is not None
    assert plan.parsed_route.stock_refs == keys_of("O")
    assert [(f.line_number, f.kind) for f in plan.parse_failures] == [(2, "syntax")]
    assert score_plan(plan, [keys_of("CC", "O")], ref_depth=1).invalid_lines == 1


def test_each_text_is_parsed_once_per_plan(monkeypatch):
    texts = []

    def counting(text):
        texts.append(text)
        return parse_smiles(text)

    monkeypatch.setattr(reward, "parse_smiles", counting)
    text = wrapped("CCO>>CC=O.O", "CC=O>>CC.O", "CC>>C.C")
    plan = parse_plan(text, mol("CCO"))
    assert sorted(texts) == ["C", "CC", "CC=O", "CCO", "O"]
    assert plan.parsed_route.stock_refs == keys_of("O", "C")
    texts.clear()
    assert parse_plan(text, mol("CCO")).parsed_route.stock_refs == keys_of("O", "C")
    assert len(texts) == 5  # the per-plan dict dies with the call


def test_a_plan_is_walked_once_from_parse_to_score(monkeypatch):
    walks = []
    depths = routes._depths

    def counting(*args):
        walks.append(args)
        return depths(*args)

    monkeypatch.setattr(routes, "_depths", counting)
    plan = parse_plan(wrapped("CCCO>>CCC=O", "CCC=O>>CCC.O=O"), mol("CCCO"))
    result = score_plan(plan, [keys_of("CCC", "O=O")], ref_depth=1)
    assert result.exact and result.depth_excess == 1
    assert len(walks) == 1


def test_score_output_is_the_same_with_the_key_table_cold_or_warm(tmp_path, capsys):
    records = rand_dataset(random.Random(3), 3, convergence=0.2, max_depth=4)
    dataset = tmp_path / "dataset.json"
    write_dataset(records, dataset)
    rows = [
        {"target": r.raw["target"], "plan_text": wrapped(render_sequence(align_route(to_tree(r.route), 0)))}
        for r in records
    ] + [{"target": "CCO", "plan_text": wrapped("CCO>>CC=O.O"), "references": [["CC=O", "O"]], "ref_depth": 1}]
    plans = tmp_path / "plans.jsonl"
    plans.write_text("".join(json.dumps(row) + "\n" for row in rows + rows), encoding="utf-8")
    outputs = []
    for label in ("cold", "warm"):
        if label == "cold":
            smiles._KEYS.clear()
        out = tmp_path / f"{label}.jsonl"
        assert main(["score", str(plans), str(dataset), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert smiles._KEYS
    assert outputs[0] == outputs[1]
    assert [json.loads(line)["total"] for line in outputs[0].splitlines()] == [2.0] * 8
    assert capsys.readouterr().out.count("mean_reward 2.0") == 2


# ---------------------------------------------------------------------------
# the reward is total
# ---------------------------------------------------------------------------

# SMILES characters, reaction and component separators, line breaks, and
# digits that str.isdigit accepts but SMILES does not.
_PLAN_TOKENS = list("CNOSBrcln[]()=#@+-:%/\\0123456789H") + [">>", ".", "\n", "\u00b2", "\u0663", "\u0661"]
# Valid fragments: molecules spelled several ways, and one that breaks valence.
_FRAGMENTS = ["CCO", "OCC", "CC=O", "O=CC", "CC", "O", "CCBr", "BrCC", "c1ccccc1", "C1CC1", "Cl(C)C"]
_TOTAL_TARGET = mol("CCO")
_TOTAL_REFERENCES = [keys_of("CCBr", "O")]


def _assert_scored(text: str) -> None:
    result = score_plan(parse_plan(text, _TOTAL_TARGET), _TOTAL_REFERENCES, ref_depth=1)
    assert isinstance(result, PlanScore)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_PLAN_TOKENS), max_size=60).map("".join))
@example("CCO>>[" + "1" * 5_000 + "C].O")  # an isotope int() may refuse to read
def test_any_plan_text_gets_a_score(text):
    _assert_scored(text)


_LINE = st.tuples(
    st.sampled_from(_FRAGMENTS), st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=3)
).map(lambda line: line[0] + ">>" + ".".join(line[1]))


# A 2,000-step chain from the target, each step adding one more fragment
# other than the target itself.
_ROLLS = random.Random(12)
_LONGEST = ["CCO>>[1999CH4].O"] + [
    f"[{k + 1}CH4]>>[{k}CH4].{_ROLLS.choice(_FRAGMENTS[2:])}" for k in range(1998, -1, -1)
]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(_LINE, max_size=2000), st.booleans())
@example(_LONGEST, True)
def test_long_plans_of_valid_fragments_get_a_score(lines, wrap):
    text = "\n".join(lines)
    _assert_scored(wrapped(text) if wrap else text)


# ---------------------------------------------------------------------------
# score_plan: the five worked cases
# ---------------------------------------------------------------------------


def test_score_unparsable_is_zero():
    plan = parse_plan("nothing to see", mol("CCO"))
    score = score_plan(plan, [keys_of("CC=O")], 1)
    assert score.total == 0.0
    assert score.format_applied is False
    assert score.exact is None
    assert score.similarity is None
    assert score.invalid_lines is None
    assert score.depth_excess is None
    assert score.penalty is None


def test_score_perfect_exact_match():
    plan = parse_plan(wrapped("CCO>>CC=O.O"), mol("CCO"))
    score = score_plan(plan, [keys_of("CC=O", "O")], 1)
    assert math.isclose(score.total, 2.0, abs_tol=TOL)
    assert score.exact is True
    assert score.penalty == 0.0
    assert score.depth_excess == 0


def test_score_exact_plan_with_an_aromatic_carbonyl_has_no_invalid_line():
    # 2-pyridone: an aromatic C=O carbon and an [nH] pass the valence check.
    plan = parse_plan(wrapped("O=c1cccc[nH]1>>Oc1ccccn1"), mol("O=c1cccc[nH]1"))
    score = score_plan(plan, [keys_of("Oc1ccccn1")], 1)
    assert score.exact is True and score.invalid_lines == 0
    assert math.isclose(score.total, 2.0, abs_tol=TOL)


def test_score_exact_with_two_invalid_lines_and_one_extra_depth():
    text, leaves = chain_plan(steps=2, invalid_lines=2)
    plan = parse_plan(text, mol("CCO"))
    score = score_plan(plan, [leaves], ref_depth=1)
    assert score.exact is True
    assert score.invalid_lines == 2
    assert score.depth_excess == 1
    assert math.isclose(score.penalty, 0.4, abs_tol=TOL)
    assert math.isclose(score.total, 1.6, abs_tol=TOL)


def test_score_similarity_one_third():
    plan = parse_plan(wrapped("CCO>>CC=O.O"), mol("CCO"))
    score = score_plan(plan, [keys_of("CC=O", "CCBr")], 1)
    assert score.exact is False
    assert math.isclose(score.similarity, 1.0 / 3.0, abs_tol=TOL)
    assert math.isclose(score.total, 0.5 + 0.5 / 3.0, abs_tol=TOL)


def test_score_worst_exact_still_matches_similarity_ceiling():
    text, leaves = chain_plan(steps=5, invalid_lines=5)
    plan = parse_plan(text, mol("CCO"))
    score = score_plan(plan, [leaves], ref_depth=1)
    assert score.exact is True
    assert score.invalid_lines == 5
    assert score.depth_excess == 4
    assert math.isclose(score.penalty, 1.0, abs_tol=TOL)
    assert math.isclose(score.total, 1.0, abs_tol=TOL)
    # The floor of the exact branch equals the ceiling of the similarity
    # branch: 1.5 - 1.0 == 0.5.
    ceiling = RewardConfig().format_score + RewardConfig().similarity_weight
    assert math.isclose(score.total, ceiling, abs_tol=TOL)


# ---------------------------------------------------------------------------
# score_plan: branches and properties
# ---------------------------------------------------------------------------


def test_score_disjoint_leaves_earns_format_only():
    plan = parse_plan(wrapped("CCO>>CC=O"), mol("CCO"))
    score = score_plan(plan, [keys_of("CCBr")], 1)
    assert score.similarity == 0.0
    assert math.isclose(score.total, 0.5, abs_tol=TOL)


def test_score_takes_best_reference():
    plan = parse_plan(wrapped("CCO>>CC=O.O"), mol("CCO"))
    refs = [keys_of("CCBr"), keys_of("CC=O", "O"), keys_of("CC=O")]
    score = score_plan(plan, refs, 1)
    assert score.exact is True
    assert math.isclose(score.total, 2.0, abs_tol=TOL)
    singles = [score_plan(plan, [r], 1).similarity for r in refs]
    assert score.similarity == max(singles)


def test_score_monotone_in_invalid_lines():
    totals = []
    for c_inv in range(6):
        text, leaves = chain_plan(steps=5, invalid_lines=c_inv)
        score = score_plan(parse_plan(text, mol("CCO")), [leaves], ref_depth=5)
        assert score.exact is True and score.depth_excess == 0
        totals.append(score.total)
    assert totals == sorted(totals, reverse=True)
    # Cap: beyond four invalid lines nothing more is lost.
    assert math.isclose(totals[4], totals[5], abs_tol=TOL)
    assert math.isclose(totals[0] - totals[4], 0.4, abs_tol=TOL)


def test_score_monotone_in_depth_excess():
    text, leaves = chain_plan(steps=5, invalid_lines=0)
    plan = parse_plan(text, mol("CCO"))
    totals = [score_plan(plan, [leaves], ref_depth=d).total for d in (5, 4, 3, 2, 1, 0)]
    assert totals == sorted(totals, reverse=True)
    assert math.isclose(totals[3], totals[5], abs_tol=TOL)
    assert math.isclose(totals[0] - totals[3], 0.6, abs_tol=TOL)


def test_score_monotone_in_similarity():
    plan = parse_plan(wrapped("CCO>>CC=O.O.NC.SC"), mol("CCO"))
    overlaps = [
        keys_of("CCBr"),
        keys_of("CC=O", "CCBr", "CCI"),
        keys_of("CC=O", "O", "CCBr"),
        keys_of("CC=O", "O", "NC", "CCBr"),
        keys_of("CC=O", "O", "NC", "SC"),
    ]
    scores = [score_plan(plan, [ref], 1) for ref in overlaps]
    similarities = [s.similarity for s in scores]
    assert similarities == sorted(similarities)
    totals = [s.total for s in scores]
    assert totals == sorted(totals)
    assert scores[-1].exact is True


def test_score_parsable_range_under_default_config():
    rng = random.Random(41)
    for i in range(20):
        record = rand_route_record(rng, index=i)
        text = render_sequence(align_route(to_tree(record.route), 0))
        plan = parse_plan(wrapped(text), record.route.target)
        perturbed = [keys_of("CCCCCCCCCC")] + list(record.references)
        for refs in ([record.references[0]], perturbed, [keys_of("CCCCCCCCCC")]):
            score = score_plan(plan, refs, record.ref_depth)
            assert 0.5 <= score.total <= 2.0


def test_score_round_trip_of_generated_routes_is_perfect():
    rng = random.Random(43)
    for i in range(15):
        record = rand_route_record(rng, index=i, convergence=0.2)
        text = render_sequence(align_route(to_tree(record.route), 0))
        plan = parse_plan(wrapped(text), record.route.target)
        score = score_plan(plan, record.references, record.ref_depth)
        assert math.isclose(score.total, 2.0, abs_tol=TOL), (i, score)


def test_strict_format_withholds_bonus_without_delimiters():
    config = RewardConfig(strict_format=True)
    with_delims = parse_plan(wrapped("CCO>>CC=O.O"), mol("CCO"))
    without = parse_plan("CCO>>CC=O.O", mol("CCO"))
    refs = [keys_of("CC=O", "O")]
    assert math.isclose(score_plan(with_delims, refs, 1, config).total, 2.0, abs_tol=TOL)
    bare = score_plan(without, refs, 1, config)
    assert bare.format_applied is False
    assert math.isclose(bare.total, 1.5, abs_tol=TOL)
    # Default config pays the bonus to any parsable plan.
    assert math.isclose(score_plan(without, refs, 1).total, 2.0, abs_tol=TOL)


def test_score_requires_references():
    plan = parse_plan(wrapped("CCO>>CC=O"), mol("CCO"))
    with pytest.raises(ValueError):
        score_plan(plan, [], 1)


def test_config_invariant_enforced():
    bad = RewardConfig(exact_weight=1.0)
    with pytest.raises(ConfigError):
        bad.validate()
    plan = parse_plan("junk", mol("CCO"))
    with pytest.raises(ConfigError):
        score_plan(plan, [keys_of("CC=O")], 1, bad)


def test_config_default_sits_on_the_boundary():
    config = RewardConfig()
    config.validate()
    assert math.isclose(
        config.exact_weight - config.max_penalty(), config.similarity_weight, abs_tol=TOL
    )


# ---------------------------------------------------------------------------
# jaccard
# ---------------------------------------------------------------------------


def test_jaccard_examples():
    a, b = key_of("CCO"), key_of("CC=O")
    c = key_of("CCBr")
    assert jaccard(frozenset({a, b}), frozenset({a, b})) == 1.0
    assert math.isclose(jaccard(frozenset({a, b}), frozenset({a, c})), 1.0 / 3.0, abs_tol=TOL)
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({a}), frozenset()) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.integers(0, 12)), st.frozensets(st.integers(0, 12)))
def test_jaccard_matches_naive_oracle(a, b):
    both = sum(1 for x in a if x in b)
    either = len(set(list(a) + list(b)))
    expected = 1.0 if either == 0 else both / either
    assert math.isclose(jaccard(a, b), expected, abs_tol=TOL)


def test_default_delimiters_are_think_tags():
    assert DEFAULT_DELIMITERS == ("<think>", "</think>")
