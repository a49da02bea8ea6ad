"""Majority voting over sampled plans and ranking-pair construction."""

from __future__ import annotations

import math
import random
from collections import Counter

from retroroute.consensus import (
    RankingPair,
    SlateEntry,
    build_ranking_pairs,
    margin_rank_loss,
    vote,
)
from retroroute.smiles import canonical_key, parse_smiles


def key_of(text: str):
    return canonical_key(parse_smiles(text)[0])


def keys_of(*texts: str) -> frozenset:
    return frozenset(key_of(t) for t in texts)


def entry(plan_id: str, *texts: str, depth: int = 1) -> SlateEntry:
    return SlateEntry(plan_id=plan_id, precursors=keys_of(*texts), depth=depth)


# ---------------------------------------------------------------------------
# vote
# ---------------------------------------------------------------------------


def test_vote_majority_of_two():
    ranked = vote([entry("a", "CC=O"), entry("b", "CC=O"), entry("c", "CCBr")])
    assert len(ranked) == 2
    assert ranked[0].votes == 2
    assert ranked[0].entry.plan_id == "a"
    assert ranked[1].votes == 1
    assert ranked[1].entry.plan_id == "c"


def test_vote_all_distinct_keeps_input_order():
    ranked = vote([entry("a", "CC=O"), entry("b", "CCBr"), entry("c", "CCI")])
    assert [c.entry.plan_id for c in ranked] == ["a", "b", "c"]
    assert all(c.votes == 1 for c in ranked)


def test_vote_planted_majority_of_nine():
    rng = random.Random(13)
    fillers = ["CCBr", "CCI", "CCF", "CCCl", "NCC", "OC=O", "SCC"]
    entries = [entry(f"m{i}", "CC=O", "O") for i in range(9)]
    entries += [entry(f"f{i}", fillers[i]) for i in range(7)]
    rng.shuffle(entries)
    ranked = vote(entries)
    assert ranked[0].votes == 9
    assert ranked[0].entry.precursors == keys_of("CC=O", "O")
    assert len(ranked) == 8


def test_vote_collapses_renderings_of_one_set():
    # The same leaf set written two ways is one candidate.
    ranked = vote([entry("a", "CC=O"), entry("b", "O=CC")])
    assert len(ranked) == 1
    assert ranked[0].votes == 2


def test_vote_scores_sum_to_slate_size_and_top_is_mode():
    rng = random.Random(17)
    pool = ["CC=O", "CCBr", "CCI", "NCC"]
    for trial in range(30):
        entries = tuple(
            entry(f"p{i}", rng.choice(pool)) for i in range(rng.randint(1, 20))
        )
        ranked = vote(entries)
        assert sum(c.votes for c in ranked) == len(entries)
        mode = Counter(e.precursors for e in entries).most_common(1)[0][1]
        assert ranked[0].votes == mode
        votes = [c.votes for c in ranked]
        assert votes == sorted(votes, reverse=True)


def test_vote_tie_prefers_earliest_first_occurrence():
    ranked = vote([entry("a", "CCBr"), entry("b", "CC=O"), entry("c", "CC=O"), entry("d", "CCBr")])
    assert [c.entry.plan_id for c in ranked] == ["a", "b"]
    assert [c.first_index for c in ranked] == [0, 1]


# ---------------------------------------------------------------------------
# margin_rank_loss
# ---------------------------------------------------------------------------


def test_margin_loss_examples():
    assert margin_rank_loss(2.0, 0.0, 1.0) == 0.0
    assert margin_rank_loss(0.0, 0.0, 1.0) == 1.0
    assert margin_rank_loss(0.0, 2.0, 1.0) == 3.0


def test_margin_loss_default_margin_is_one():
    assert margin_rank_loss(0.5, 0.0) == 0.5


def test_margin_loss_zero_iff_separated_by_margin():
    for gap in (-2.0, -0.5, 0.0, 0.5, 0.99, 1.0, 1.5, 3.0):
        loss = margin_rank_loss(gap, 0.0, 1.0)
        assert loss >= 0.0
        if gap >= 1.0:
            assert loss == 0.0
        else:
            assert math.isclose(loss, 1.0 - gap)


# ---------------------------------------------------------------------------
# build_ranking_pairs
# ---------------------------------------------------------------------------


def test_pairs_cross_product_per_target():
    outcomes = [
        ("s1", "t", True),
        ("s2", "t", True),
        ("f1", "t", False),
        ("f2", "t", False),
        ("f3", "t", False),
    ]
    pairs = build_ranking_pairs(outcomes)
    assert len(pairs) == 6
    assert pairs[0] == RankingPair("s1", "f1")
    assert pairs[-1] == RankingPair("s2", "f3")
    assert all(p.label == 1 for p in pairs)


def test_pairs_need_both_outcomes():
    assert build_ranking_pairs([("s1", "t", True), ("s2", "t", True)]) == []
    assert build_ranking_pairs([("f1", "t", False)]) == []
    assert build_ranking_pairs([]) == []


def test_pairs_never_cross_targets():
    outcomes = [
        ("s1", "alpha", True),
        ("f1", "beta", False),
        ("s2", "beta", True),
        ("f2", "alpha", False),
    ]
    pairs = build_ranking_pairs(outcomes)
    assert pairs == [RankingPair("s1", "f2"), RankingPair("s2", "f1")]


def test_pairs_match_grouping_oracle():
    rng = random.Random(19)
    outcomes = [
        (f"n{i}", rng.choice("abcd"), rng.random() < 0.5) for i in range(60)
    ]
    pairs = build_ranking_pairs(outcomes)
    expected = 0
    for target in "abcd":
        wins = sum(1 for _, t, ok in outcomes if t == target and ok)
        losses = sum(1 for _, t, ok in outcomes if t == target and not ok)
        expected += wins * losses
    assert len(pairs) == expected
    for pair in pairs:
        positive_target = next(t for n, t, ok in outcomes if n == pair.positive)
        negative_target = next(t for n, t, ok in outcomes if n == pair.negative)
        assert positive_target == negative_target
