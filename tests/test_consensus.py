"""Majority voting over sampled plans."""

from __future__ import annotations

import random
from collections import Counter

from retroroute.consensus import SlateEntry, vote
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
        # Oracle: each distinct set led by its first entry, ranked by count,
        # ties toward the earlier first appearance.
        counts = Counter(e.precursors for e in entries)
        first: dict = {}
        for index, e in enumerate(entries):
            first.setdefault(e.precursors, (index, e.plan_id))
        expected = sorted(first, key=lambda s: (-counts[s], first[s][0]))
        assert [(c.entry.plan_id, c.entry.precursors, c.votes) for c in ranked] == [
            (first[s][1], s, counts[s]) for s in expected
        ]


def test_vote_tie_prefers_earliest_first_occurrence():
    ranked = vote([entry("a", "CCBr"), entry("b", "CC=O"), entry("c", "CC=O"), entry("d", "CCBr")])
    assert [c.entry.plan_id for c in ranked] == ["a", "b"]

