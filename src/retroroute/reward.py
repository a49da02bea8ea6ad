"""Scoring of generated multi-step plans.

A plan is free text: an optional thought segment wrapped in delimiters, then
reaction lines (product>>precursors). Parsing rebuilds the route graph by
matching each line's product to a precursor of an earlier line. The score is
0 for unparsable plans; otherwise a format term plus either a capped
exact-match bonus with penalties, or a similarity term over leaf sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, DomainError, SmilesSyntaxError
from .routes import Reaction, Route, route_depth
from .smiles import (
    CanonicalKey,
    Molecule,
    canonical_key,
    molecule_is_valid,
    parse_smiles,
)

DEFAULT_DELIMITERS = ("<think>", "</think>")


@dataclass(frozen=True)
class RewardConfig:
    """Score constants. Defaults satisfy the ordering constraint that a
    worst-case penalized exact match still beats any similarity score."""

    format_score: float = 0.5
    exact_weight: float = 1.5
    similarity_weight: float = 0.5
    invalid_weight: float = 0.1
    depth_weight: float = 0.2
    invalid_cap: int = 4
    depth_cap: int = 3
    strict_format: bool = False

    def max_penalty(self) -> float:
        return self.invalid_weight * self.invalid_cap + self.depth_weight * self.depth_cap

    def validate(self) -> None:
        if self.exact_weight - self.max_penalty() < self.similarity_weight:
            raise ConfigError(
                "exact_weight minus the worst-case penalty must stay at or above "
                f"similarity_weight ({self.exact_weight} - {self.max_penalty()} "
                f"< {self.similarity_weight})"
            )


@dataclass(frozen=True)
class PlanLineIssue:
    line_number: int
    kind: str  # "syntax" | "valence" | "structure"
    message: str


@dataclass(eq=False)
class GeneratedPlan:
    raw_text: str
    thought_segment: str | None
    answer_segment: str
    parsed_route: Route | None
    parse_failures: tuple[PlanLineIssue, ...]
    delimiters_ok: bool

    @property
    def invalid_line_count(self) -> int:
        """Reaction lines containing at least one syntactically or chemically
        invalid SMILES."""
        return len(
            {f.line_number for f in self.parse_failures if f.kind in ("syntax", "valence")}
        )


@dataclass(frozen=True)
class PlanScore:
    total: float
    format_applied: bool
    exact: bool | None
    similarity: float | None
    invalid_lines: int | None
    depth_excess: int | None
    penalty: float | None


def _try_parse(text: str) -> tuple[Molecule | None, str | None, str | None]:
    """Parse one component; return (molecule, failure kind, message)."""
    try:
        molecules = parse_smiles(text)
    except SmilesSyntaxError as exc:
        return None, "syntax", str(exc)
    if len(molecules) != 1:
        return None, "syntax", "expected a single component"
    molecule = molecules[0]
    if not molecule_is_valid(molecule):
        return molecule, "valence", f"valence check failed for {text!r}"
    return molecule, None, None


def parse_plan(
    text: str,
    target: Molecule,
    delimiters: tuple[str, str] = DEFAULT_DELIMITERS,
) -> GeneratedPlan:
    """Split thought from answer, parse reaction lines, and reconstruct the
    route. Unparsable products or an unlinkable graph leave parsed_route None;
    bad precursors are dropped but their lines are recorded as failures."""
    open_mark, close_mark = delimiters
    start = text.find(open_mark)
    end = text.find(close_mark)
    delimiters_ok = start != -1 and end != -1 and start < end
    if delimiters_ok:
        thought = text[start + len(open_mark) : end]
        answer = text[end + len(close_mark) :]
    else:
        thought = None
        answer = text

    failures: list[PlanLineIssue] = []
    parsed_lines: list[tuple[int, Molecule, list[Molecule]]] = []
    fatal: str | None = None
    # One parse per distinct text of this plan (a line's product is usually an
    # earlier line's precursor); every line still records its own failures.
    parse = functools.cache(_try_parse)

    for line_number, line in enumerate(answer.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if ">>" not in line:
            failures.append(PlanLineIssue(line_number, "syntax", "missing '>>'"))
            continue
        product_text, _, rhs = line.partition(">>")
        product, kind, message = parse(product_text.strip())
        if kind == "syntax" or product is None:
            failures.append(
                PlanLineIssue(line_number, "syntax", f"product: {message}")
            )
            fatal = fatal or f"line {line_number}: unparsable product"
            continue
        if kind is not None:
            failures.append(PlanLineIssue(line_number, kind, f"product: {message}"))
        precursors: list[Molecule] = []
        for part in rhs.split("."):
            part = part.strip()
            if not part:
                failures.append(
                    PlanLineIssue(line_number, "syntax", "empty precursor")
                )
                continue
            molecule, kind, message = parse(part)
            if molecule is None:
                failures.append(PlanLineIssue(line_number, "syntax", message))
                continue
            if kind is not None:
                failures.append(PlanLineIssue(line_number, kind, message))
            precursors.append(molecule)
        if not precursors:
            failures.append(
                PlanLineIssue(line_number, "structure", "no usable precursor")
            )
            fatal = fatal or f"line {line_number}: no usable precursor"
            continue
        parsed_lines.append((line_number, product, precursors))

    route: Route | None = None
    if fatal is None and parsed_lines:
        route = _reconstruct(target, parsed_lines, failures)
    elif fatal is None:
        failures.append(PlanLineIssue(0, "structure", "no reaction lines"))

    return GeneratedPlan(
        raw_text=text,
        thought_segment=thought,
        answer_segment=answer,
        parsed_route=route,
        parse_failures=tuple(failures),
        delimiters_ok=delimiters_ok,
    )


def _reconstruct(
    target: Molecule,
    lines: list[tuple[int, Molecule, list[Molecule]]],
    failures: list[PlanLineIssue],
) -> Route | None:
    """Link lines into a DAG: the first product must be the target, every
    later product must already be demanded as a precursor, and repeated
    expansions of one molecule must agree."""
    target_key = canonical_key(target)
    first_line, first_product, _ = lines[0]
    if canonical_key(first_product) != target_key:
        failures.append(
            PlanLineIssue(
                first_line, "structure", "first product is not the queried target"
            )
        )
        return None

    expanded: dict[CanonicalKey, frozenset[CanonicalKey]] = {}
    reactions: list[Reaction] = []
    demanded: set[CanonicalKey] = {target_key}
    for line_number, product, precursors in lines:
        product_key = canonical_key(product)
        if product_key not in demanded:
            failures.append(
                PlanLineIssue(
                    line_number,
                    "structure",
                    "product was never requested by an earlier line",
                )
            )
            return None
        keys = frozenset(canonical_key(m) for m in precursors)
        if product_key in expanded:
            if expanded[product_key] != keys:
                failures.append(
                    PlanLineIssue(
                        line_number,
                        "structure",
                        "molecule expanded twice with different precursors",
                    )
                )
                return None
            continue
        expanded[product_key] = keys
        demanded.update(keys)
        reactions.append(Reaction(product, tuple(precursors), {}))

    route = Route.build(target, tuple(reactions))
    # Demand order alone cannot rule out cycles (T>>A then A>>T passes it).
    try:
        route_depth(route)
    except ValueError:
        failures.append(PlanLineIssue(0, "structure", "plan graph contains a cycle"))
        return None
    return route


def jaccard(a: frozenset, b: frozenset) -> float:
    """Intersection over union; two empty sets count as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def score_plan(
    plan: GeneratedPlan,
    references: Sequence[frozenset[CanonicalKey]],
    ref_depth: int,
    config: RewardConfig = RewardConfig(),
) -> PlanScore:
    """Score one plan against reference leaf sets at a reference depth."""
    config.validate()
    if not references:
        raise ValueError("at least one reference leaf set is required")
    if plan.parsed_route is None:
        return PlanScore(0.0, False, None, None, None, None, None)

    leaves = frozenset(plan.parsed_route.stock_refs)
    similarity = max(jaccard(leaves, frozenset(ref)) for ref in references)
    exact = any(leaves == frozenset(ref) for ref in references)

    format_applied = plan.delimiters_ok if config.strict_format else True
    total = config.format_score if format_applied else 0.0

    invalid_lines = plan.invalid_line_count
    depth_excess = max(route_depth(plan.parsed_route) - ref_depth, 0)
    if exact:
        penalty = config.invalid_weight * min(invalid_lines, config.invalid_cap)
        penalty += config.depth_weight * min(depth_excess, config.depth_cap)
        total += config.exact_weight - penalty
    else:
        penalty = 0.0
        total += config.similarity_weight * similarity
    return PlanScore(
        total=total,
        format_applied=format_applied,
        exact=exact,
        similarity=similarity,
        invalid_lines=invalid_lines,
        depth_excess=depth_excess,
        penalty=penalty,
    )


def weighted_loss(thought_loss: float, answer_loss: float, alpha: float) -> float:
    """Convex blend of the two segment losses."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * thought_loss + (1.0 - alpha) * answer_loss
