"""Consensus over sampled plans.

Plans that agree on the final precursor set vote together regardless of how
their routes were written down."""

from __future__ import annotations

from collections import Counter
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


def vote(entries: Sequence[SlateEntry]) -> list[RankedCandidate]:
    """Collapse entries sharing a precursor set and rank the survivors by
    vote count, breaking ties toward the earliest entry."""
    counts: Counter[frozenset[CanonicalKey]] = Counter()
    first_entry: dict[frozenset[CanonicalKey], SlateEntry] = {}
    for entry in entries:
        counts[entry.precursors] += 1
        first_entry.setdefault(entry.precursors, entry)
    # counts keeps the order of first appearance, and most_common() sorts stably.
    return [RankedCandidate(first_entry[key], votes) for key, votes in counts.most_common()]
