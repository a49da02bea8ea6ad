"""Search-free evaluation: top-k accuracy over ranked candidate plans,
accuracy sliced by reference depth, and edit-distance profiles of rendered
routes."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .smiles import CanonicalKey

DEPTH_BUCKETS = ("1", "2", "3", "4", ">=5")


class EvalCandidate(NamedTuple):
    """One ranked prediction: its leaf set and route depth."""

    precursors: frozenset[CanonicalKey]
    depth: int


class EvalRecord(NamedTuple):
    """One target: ranked candidates plus the reference answers."""

    candidates: tuple[EvalCandidate, ...]
    references: tuple[frozenset[CanonicalKey], ...]
    ref_depth: int


class EvalReport(NamedTuple):
    top_k: dict[int, float]
    depth_accuracy: dict[str, float | None]
    depth_counts: dict[str, int]
    total: int


def is_success(
    candidate_set: frozenset[CanonicalKey],
    candidate_depth: int,
    references: Sequence[frozenset[CanonicalKey]],
    ref_depth: int,
) -> bool:
    """A candidate solves the target when its leaf set equals some reference
    set (a frozenset) and it is no deeper than the reference route."""
    if candidate_depth > ref_depth:
        return False
    return candidate_set in references


def depth_bucket(ref_depth: int) -> str:
    return str(ref_depth) if ref_depth < 5 else ">=5"


def topk_accuracy(records: Sequence[EvalRecord], k_max: int = 5) -> EvalReport:
    """Cumulative accuracy at ranks 1..k_max, plus top-1 accuracy per
    reference-depth bucket."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    hits = {k: 0 for k in range(1, k_max + 1)}
    bucket_hits = {label: 0 for label in DEPTH_BUCKETS}
    bucket_counts = {label: 0 for label in DEPTH_BUCKETS}
    for record in records:
        first_hit: int | None = None
        for rank, candidate in enumerate(record.candidates[:k_max], start=1):
            if is_success(
                candidate.precursors,
                candidate.depth,
                record.references,
                record.ref_depth,
            ):
                first_hit = rank
                break
        for k in hits:
            if first_hit is not None and first_hit <= k:
                hits[k] += 1
        label = depth_bucket(record.ref_depth)
        bucket_counts[label] += 1
        if first_hit == 1:
            bucket_hits[label] += 1
    total = len(records)
    return EvalReport(
        top_k={k: (hits[k] / total if total else 0.0) for k in hits},
        depth_accuracy={
            label: (bucket_hits[label] / bucket_counts[label] if bucket_counts[label] else None)
            for label in DEPTH_BUCKETS
        },
        depth_counts=dict(bucket_counts),
        total=total,
    )


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance by the bit-parallel algorithm of Myers (1999),
    in Hyyrö's (2001) form for global distance. Bit i of `pv`/`mv` is set
    where the current column of the edit-distance matrix rises/falls by one
    from row i to row i + 1; the columns follow `b` one character at a time,
    each a Python int as wide as `a`, and `score` tracks the bottom cell."""
    if not a or not b:
        return len(a) + len(b)
    positions: dict[str, int] = {}
    for i, char in enumerate(a):
        positions[char] = positions.get(char, 0) | 1 << i
    mask = (1 << len(a)) - 1
    top = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for char in b:
        eq = positions.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 is 0, 1, 2, ...: a +1 step enters at the low end.
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return score


def nld_profile(lines: Sequence[str]) -> list[tuple[int, float]]:
    """Per-step normalized edit distance between the first product (the
    target as written) and each step's full precursor side, over rendered
    `product>>precursors` lines. Two empty sides count as identical (0.0)."""
    parts = [line.partition(">>") for line in lines]
    if not parts:
        return []
    target_text = parts[0][0]
    profile: list[tuple[int, float]] = []
    for k, (_, _, rhs) in enumerate(parts, start=1):
        denominator = max(len(target_text), len(rhs))
        profile.append((k, levenshtein(target_text, rhs) / denominator if denominator else 0.0))
    return profile
