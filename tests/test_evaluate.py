"""Top-k exact-match evaluation, depth slicing, and the edit-distance profile."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from retroroute.align import align_route, render_sequence
from retroroute.evaluate import (
    DEPTH_BUCKETS,
    EvalCandidate,
    EvalRecord,
    depth_bucket,
    is_success,
    levenshtein,
    nld_profile,
    topk_accuracy,
)
from retroroute.routes import to_tree
from retroroute.smiles import canonical_key, parse_smiles


def key_of(text: str):
    return canonical_key(parse_smiles(text)[0])


def keys_of(*texts: str) -> frozenset:
    return frozenset(key_of(t) for t in texts)


REF = keys_of("CC=O", "O")


# ---------------------------------------------------------------------------
# is_success
# ---------------------------------------------------------------------------


def test_success_exact_set_equal_depth():
    assert is_success(REF, 3, [REF], 3)


def test_success_shallower_candidate():
    assert is_success(REF, 1, [REF], 3)


def test_success_depth_bound_is_strict():
    assert not is_success(REF, 4, [REF], 3)


def test_success_superset_fails():
    assert not is_success(REF | keys_of("CCBr"), 1, [REF], 3)
    assert not is_success(keys_of("CC=O"), 1, [REF], 3)


def test_success_any_reference_counts():
    refs = [keys_of("CCBr"), REF]
    assert is_success(REF, 2, refs, 2)
    assert is_success(REF, 2, list(reversed(refs)), 2)


def test_success_compares_keys_not_strings():
    rendered_differently = keys_of("O=CC", "O")
    assert is_success(rendered_differently, 1, [REF], 1)


# ---------------------------------------------------------------------------
# topk_accuracy
# ---------------------------------------------------------------------------


def candidate(solved: bool, rank_set=None, depth: int = 1) -> EvalCandidate:
    precursors = REF if solved else (rank_set or keys_of("CCBr"))
    return EvalCandidate(precursors=precursors, depth=depth)


def record_with_hit_at(rank: int | None, ref_depth: int = 1) -> EvalRecord:
    candidates = []
    for position in range(1, 6):
        candidates.append(candidate(solved=(rank == position), depth=1))
    return EvalRecord(
        candidates=tuple(candidates),
        references=(REF,),
        ref_depth=ref_depth,
    )


def test_topk_all_rank_one():
    report = topk_accuracy([record_with_hit_at(1) for _ in range(4)])
    assert report.total == 4
    assert all(value == 1.0 for value in report.top_k.values())


def test_topk_hit_at_rank_three():
    report = topk_accuracy([record_with_hit_at(3)])
    assert report.top_k == {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0, 5: 1.0}


def test_topk_monotone_and_planted_frequencies():
    rng = random.Random(5)
    planted = [rng.choice([1, 2, 3, 4, 5, None]) for _ in range(400)]
    report = topk_accuracy([record_with_hit_at(r) for r in planted])
    values = [report.top_k[k] for k in sorted(report.top_k)]
    assert values == sorted(values)
    for k in range(1, 6):
        expected = sum(1 for r in planted if r is not None and r <= k) / len(planted)
        assert report.top_k[k] == pytest.approx(expected)


def test_topk_order_of_records_is_irrelevant():
    records = [record_with_hit_at(r) for r in (1, None, 3, 2, None)]
    forward = topk_accuracy(records)
    backward = topk_accuracy(list(reversed(records)))
    assert forward == backward


def test_topk_depth_buckets():
    records = [
        record_with_hit_at(1, ref_depth=1),
        record_with_hit_at(None, ref_depth=1),
        record_with_hit_at(1, ref_depth=4),
        record_with_hit_at(1, ref_depth=7),
        record_with_hit_at(2, ref_depth=9),
    ]
    report = topk_accuracy(records)
    assert report.depth_counts == {"1": 2, "2": 0, "3": 0, "4": 1, ">=5": 2}
    assert report.depth_accuracy["1"] == 0.5
    assert report.depth_accuracy["2"] is None
    assert report.depth_accuracy["4"] == 1.0
    # Only the rank-1 hit counts for the bucket split.
    assert report.depth_accuracy[">=5"] == 0.5


def test_topk_respects_k_max():
    report = topk_accuracy([record_with_hit_at(3)], k_max=2)
    assert set(report.top_k) == {1, 2}
    assert report.top_k[2] == 0.0
    with pytest.raises(ValueError):
        topk_accuracy([], k_max=0)


def test_topk_empty_input():
    report = topk_accuracy([])
    assert report.total == 0
    assert all(value == 0.0 for value in report.top_k.values())
    assert all(value is None for value in report.depth_accuracy.values())


def test_depth_bucket_labels():
    assert [depth_bucket(d) for d in (1, 2, 3, 4, 5, 9)] == [
        "1",
        "2",
        "3",
        "4",
        ">=5",
        ">=5",
    ]
    assert DEPTH_BUCKETS == ("1", "2", "3", "4", ">=5")


def test_candidate_too_deep_never_hits():
    record = EvalRecord(
        candidates=(EvalCandidate(REF, depth=5),),
        references=(REF,),
        ref_depth=2,
    )
    assert topk_accuracy([record]).top_k[5] == 0.0


# ---------------------------------------------------------------------------
# levenshtein
# ---------------------------------------------------------------------------


def oracle_levenshtein(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[len(a)][len(b)]


def test_levenshtein_examples():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("ab", "b") == 1
    assert levenshtein("", "xyz") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("CCO", "OCC") == 2


@settings(max_examples=250, deadline=None)
@given(st.text("CNO()=#123cn", max_size=30), st.text("CNO()=#123cn", max_size=30))
def test_levenshtein_matches_full_matrix_oracle(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=25), st.text(max_size=25))
def test_levenshtein_symmetry_and_bounds(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


# The bit vectors are as wide as `a`: cross one, two and four 64-bit words.
LONG_LENGTHS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300)


def mutated(rng: random.Random, text: str, edits: int, alphabet: str) -> str:
    """`text` after `edits` random insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(edits):
        kind = rng.choice("ids") if chars else "i"
        at = rng.randrange(len(chars) + (kind == "i"))
        if kind == "i":
            chars.insert(at, rng.choice(alphabet))
        elif kind == "d":
            del chars[at]
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


@pytest.mark.parametrize("n", LONG_LENGTHS)
@pytest.mark.parametrize("alphabet", ["CNO()=#123cn", "\u00e9\u6f22\U0001f600\u03a9-"])
def test_levenshtein_long_inputs_match_oracle(n, alphabet):
    rng = random.Random(n)
    a = "".join(rng.choice(alphabet) for _ in range(n))
    partners = [
        mutated(rng, a, rng.randint(1, 12), alphabet),
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300))),
        a[: n // 2],
        a + a[: n // 3],
    ]
    for b in partners:
        expected = oracle_levenshtein(a, b)
        assert levenshtein(a, b) == expected, (len(a), len(b))
        assert levenshtein(b, a) == expected, (len(b), len(a))


@pytest.mark.parametrize("n", LONG_LENGTHS)
def test_levenshtein_one_letter_alphabet(n):
    for m in sorted({0, n // 2, max(n - 1, 0), n, n + 1, 2 * n + 3}):
        assert levenshtein("C" * n, "C" * m) == oracle_levenshtein("C" * n, "C" * m) == abs(n - m)
        assert levenshtein("C" * n, "N" * m) == oracle_levenshtein("C" * n, "N" * m)


@pytest.mark.parametrize("steps", ["aligned", "canonical"])
def test_levenshtein_matches_oracle_on_golden_route_lines(steps):
    pairs = golden.ALIGNED_STEPS if steps == "aligned" else golden.CANONICAL_STEPS
    target = pairs[0][0]
    for _, precursors in pairs:
        rhs = ".".join(precursors)
        assert levenshtein(target, rhs) == oracle_levenshtein(target, rhs)
        assert levenshtein(rhs, target) == oracle_levenshtein(rhs, target)


# ---------------------------------------------------------------------------
# nld_profile
# ---------------------------------------------------------------------------


def test_nld_identity_step_is_zero():
    profile = nld_profile(["CCO>>CCO"])
    assert profile == [(1, 0.0)]


def test_nld_bounded_by_one():
    target = "CCCCC"
    rhs = "NNNNNNNNNN"
    profile = nld_profile([f"{target}>>{rhs}"])
    assert profile[0][1] == 1.0


def test_nld_empty_sequence():
    assert nld_profile([]) == []


def test_nld_of_two_empty_sides_is_zero():
    # As jaccard counts two empty sets as identical.
    assert nld_profile([">>"]) == [(1, 0.0)]
    assert nld_profile([">>", ">>C"]) == [(1, 0.0), (2, 1.0)]


def test_nld_uses_first_product_as_anchor():
    lines = ["CCO>>CC=O", "CC=O>>CC"]
    profile = nld_profile(lines)
    assert profile[0] == (1, levenshtein("CCO", "CC=O") / 4)
    assert profile[1] == (2, levenshtein("CCO", "CC") / 3)


def test_nld_accepts_rendered_lines():
    tree = to_tree(golden.build_record().route)
    profile = nld_profile(render_sequence(align_route(tree, 0)).splitlines())
    assert len(profile) == 9
    assert all(0.0 <= value <= 1.0 for _, value in profile)
    assert [k for k, _ in profile] == list(range(1, 10))


def test_nld_aligned_mean_below_canonical_mean_on_golden_route():
    aligned = [f"{p}>>{'.'.join(ps)}" for p, ps in golden.ALIGNED_STEPS]
    canonical = [f"{p}>>{'.'.join(ps)}" for p, ps in golden.CANONICAL_STEPS]
    aligned_values = [v for _, v in nld_profile(aligned)]
    canonical_values = [v for _, v in nld_profile(canonical)]
    assert sum(aligned_values) / 9 < sum(canonical_values) / 9
