"""Consensus over sampled plans and training pairs for a ranking model.

Plans that agree on the final precursor set vote together regardless of how
their routes were written down. Ranking pairs contrast scored successes with
failures on the same target."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .smiles import CanonicalKey


class SlateEntry(NamedTuple):
    """One sampled plan reduced to its outcome."""

    plan_id: str
    precursors: frozenset[CanonicalKey]
    depth: int
    notation_id: str = ""


class RankedCandidate(NamedTuple):
    entry: SlateEntry
    votes: int
    first_index: int


def vote(entries: Sequence[SlateEntry]) -> list[RankedCandidate]:
    """Collapse entries sharing a precursor set and rank the survivors by
    vote count, breaking ties toward the earliest entry."""
    counts: dict[frozenset[CanonicalKey], int] = {}
    first_entry: dict[frozenset[CanonicalKey], tuple[int, SlateEntry]] = {}
    for index, entry in enumerate(entries):
        counts[entry.precursors] = counts.get(entry.precursors, 0) + 1
        if entry.precursors not in first_entry:
            first_entry[entry.precursors] = (index, entry)
    ranked = [
        RankedCandidate(entry, counts[key], index)
        for key, (index, entry) in first_entry.items()
    ]
    ranked.sort(key=lambda c: (-c.votes, c.first_index))
    return ranked


def margin_rank_loss(
    positive_score: float, negative_score: float, margin: float = 1.0
) -> float:
    """Hinge on the score gap: zero once positive leads by the margin."""
    return max(0.0, -(positive_score - negative_score) + margin)


class RankingPair(NamedTuple):
    """A notation that led to a solved route paired with one that did not,
    for the same target."""

    positive: str
    negative: str
    label: int = 1


def build_ranking_pairs(
    outcomes: Sequence[tuple[str, str, bool]],
) -> list[RankingPair]:
    """Cross successes with failures per target. `outcomes` rows are
    (notation text, target id, solved); pair order follows input order,
    successes outermost."""
    by_target: dict[str, tuple[list[str], list[str]]] = {}
    order: list[str] = []
    for notation, target_id, solved in outcomes:
        if target_id not in by_target:
            by_target[target_id] = ([], [])
            order.append(target_id)
        by_target[target_id][0 if solved else 1].append(notation)
    pairs: list[RankingPair] = []
    for target_id in order:
        successes, fails = by_target[target_id]
        for positive in successes:
            for negative in fails:
                pairs.append(RankingPair(positive, negative))
    return pairs
