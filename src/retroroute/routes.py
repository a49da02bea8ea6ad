"""Retrosynthetic routes as DAGs: validation, tree decoupling, linearization,
depth, and dataset/stock persistence.

A route is a set of reactions over molecules identified by canonical key.
Edges run precursor -> product; the target is the unique sink. Convergent
(shared) intermediates make the graph a DAG; `to_tree` decouples them into a
tree by duplicating each extra occurrence.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CycleError, SchemaError, SmilesSyntaxError
from .smiles import CanonicalKey, Molecule, canonical_key, parse_smiles, smiles_keys


@dataclass(eq=False)
class Reaction:
    """One retro step: product decomposed into precursors.

    atom_map sends (precursor index, atom index) to the product atom index;
    pairs are built from shared map numbers and missing entries mean the
    precursor atom has no product counterpart.
    """

    product: Molecule
    precursors: tuple[Molecule, ...]
    atom_map: dict[tuple[int, int], int]
    _per_precursor: tuple[dict[int, int], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.precursors:
            raise ValueError("a reaction needs at least one precursor")

    @classmethod
    def from_molecules(cls, product: Molecule, precursors: tuple[Molecule, ...]) -> "Reaction":
        """Build the atom map from matching map numbers."""
        product_by_map: dict[int, int] = {}
        for j, atom in enumerate(product.atoms):
            if atom.map_number is not None:
                if atom.map_number in product_by_map:
                    raise ValueError(
                        f"duplicate map number {atom.map_number} on product atoms"
                    )
                product_by_map[atom.map_number] = j
        atom_map: dict[tuple[int, int], int] = {}
        for i, mol in enumerate(precursors):
            seen: set[int] = set()
            for a, atom in enumerate(mol.atoms):
                if atom.map_number is None:
                    continue
                if atom.map_number in seen:
                    raise ValueError(
                        f"duplicate map number {atom.map_number} on precursor {i}"
                    )
                seen.add(atom.map_number)
                if atom.map_number in product_by_map:
                    atom_map[(i, a)] = product_by_map[atom.map_number]
        return cls(product, tuple(precursors), atom_map)

    def map_for_precursor(self, i: int) -> dict[int, int]:
        if self._per_precursor is None:
            per: list[dict[int, int]] = [{} for _ in self.precursors]
            for (pi, ai), pj in self.atom_map.items():
                per[pi][ai] = pj
            self._per_precursor = tuple(per)
        return self._per_precursor[i]

    @property
    def product_key(self) -> CanonicalKey:
        return canonical_key(self.product)

    def precursor_keys(self) -> list[CanonicalKey]:
        return [canonical_key(m) for m in self.precursors]


@dataclass(eq=False)
class Route:
    """A retrosynthetic DAG rooted at `target`. stock_refs is the leaf key set."""

    target: Molecule
    reactions: tuple[Reaction, ...]
    stock_refs: frozenset[CanonicalKey]

    @classmethod
    def build(cls, target: Molecule, reactions: tuple[Reaction, ...]) -> "Route":
        produced = {r.product_key for r in reactions}
        leaves: set[CanonicalKey] = set()
        for reaction in reactions:
            for key in reaction.precursor_keys():
                if key not in produced:
                    leaves.add(key)
        if not reactions:
            leaves = {canonical_key(target)}
        return cls(target, tuple(reactions), frozenset(leaves))

    @property
    def target_key(self) -> CanonicalKey:
        return canonical_key(self.target)

    def producer_of(self) -> dict[CanonicalKey, Reaction]:
        """First producing reaction per key; duplicate producers are a
        validation failure reported by validate_route."""
        producers: dict[CanonicalKey, Reaction] = {}
        for reaction in self.reactions:
            producers.setdefault(reaction.product_key, reaction)
        return producers


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    offenders: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    target_convergence: CheckResult
    grounding: CheckResult
    stepwise_linkage: CheckResult

    @property
    def ok(self) -> bool:
        return (
            self.target_convergence.passed
            and self.grounding.passed
            and self.stepwise_linkage.passed
        )


@dataclass(frozen=True)
class StockSet:
    keys: frozenset[CanonicalKey]
    source_path: str


def load_stock(path: str | Path) -> StockSet:
    """Read a newline-delimited SMILES file into canonical keys."""
    keys: set[CanonicalKey] = set()
    text = Path(path).read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            keys.update(smiles_keys(line))
        except SmilesSyntaxError as exc:
            raise SchemaError(f"stock line {line_number}: {exc}") from exc
    if not keys:
        raise SchemaError(f"stock file {path} contains no molecules")
    return StockSet(frozenset(keys), str(path))


def _find_cycle(route: Route) -> list[str]:
    """Return keys on a cycle of the precursor->product graph, if any."""
    producers = route.producer_of()
    WHITE, GRAY, BLACK = 0, 1, 2
    state: dict[CanonicalKey, int] = {}

    def visit(key: CanonicalKey, trail: list[CanonicalKey]) -> list[str]:
        state[key] = GRAY
        trail.append(key)
        reaction = producers.get(key)
        if reaction is not None:
            for child in reaction.precursor_keys():
                mark = state.get(child, WHITE)
                if mark == GRAY:
                    start = trail.index(child)
                    return [k.key for k in trail[start:]]
                if mark == WHITE:
                    cycle = visit(child, trail)
                    if cycle:
                        return cycle
        trail.pop()
        state[key] = BLACK
        return []

    for reaction in route.reactions:
        key = reaction.product_key
        if state.get(key, WHITE) == WHITE:
            cycle = visit(key, [])
            if cycle:
                return cycle
    return []


def validate_route(route: Route, stock: StockSet) -> ValidationReport:
    """Check the three structural route properties against a stock set."""
    target_key = route.target_key
    produced_counts: dict[CanonicalKey, int] = {}
    for reaction in route.reactions:
        key = reaction.product_key
        produced_counts[key] = produced_counts.get(key, 0) + 1
    consumed: set[CanonicalKey] = set()
    for reaction in route.reactions:
        consumed.update(reaction.precursor_keys())

    # Target convergence: the target is the unique sink. It must never be
    # consumed, and every other product must feed some reaction.
    convergence_offenders: list[str] = []
    if target_key in consumed:
        convergence_offenders.append(target_key.key)
    if route.reactions and target_key not in produced_counts:
        convergence_offenders.append(target_key.key)
    for key in produced_counts:
        if key != target_key and key not in consumed:
            convergence_offenders.append(key.key)

    # Stepwise linkage: exactly one producer per non-leaf, and no cycles.
    stepwise_offenders = [
        key.key for key, count in produced_counts.items() if count > 1
    ]
    stepwise_offenders.extend(_find_cycle(route))

    leaves = {key for key in consumed if key not in produced_counts}
    if not route.reactions:
        leaves = {target_key}
    grounding_offenders = [key.key for key in leaves if key not in stock.keys]

    return ValidationReport(
        target_convergence=CheckResult(
            not convergence_offenders, tuple(sorted(set(convergence_offenders)))
        ),
        grounding=CheckResult(
            not grounding_offenders, tuple(sorted(set(grounding_offenders)))
        ),
        stepwise_linkage=CheckResult(
            not stepwise_offenders, tuple(sorted(set(stepwise_offenders)))
        ),
    )


# ---------------------------------------------------------------------------
# Tree decoupling and linearization
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RouteNode:
    """One molecule occurrence in the decoupled tree."""

    node_id: int
    molecule: Molecule
    reaction: Reaction | None
    children: tuple["RouteNode", ...]
    depth: int

    @property
    def is_leaf(self) -> bool:
        return self.reaction is None


@dataclass(eq=False)
class RouteTree:
    root: RouteNode
    duplication_log: tuple[Molecule, ...]
    route: Route


def to_tree(route: Route) -> RouteTree:
    """Decouple convergent intermediates by duplicating every occurrence
    beyond the first. Raises CycleError on cyclic routes."""
    cycle = _find_cycle(route)
    if cycle:
        raise CycleError(f"route contains a cycle through {cycle}")
    producers = route.producer_of()
    counts = Counter(r.product_key for r in route.reactions)
    for key, count in counts.items():
        if count > 1:
            raise ValueError(
                f"molecule {key.key} has more than one producing reaction"
            )

    counter = itertools.count()
    occurrences: dict[CanonicalKey, list[RouteNode]] = {}

    def build(molecule: Molecule, depth: int) -> RouteNode:
        key = canonical_key(molecule)
        reaction = producers.get(key)
        children: tuple[RouteNode, ...] = ()
        node_id = next(counter)
        if reaction is not None:
            children = tuple(
                build(precursor, depth + 1) for precursor in reaction.precursors
            )
        node = RouteNode(node_id, molecule, reaction, children, depth)
        occurrences.setdefault(key, []).append(node)
        return node

    root = build(route.target, 0)

    duplicates: list[tuple[str, int, int, Molecule]] = []
    for key, nodes in occurrences.items():
        if len(nodes) > 1:
            ordered = sorted(nodes, key=lambda n: (n.depth, n.node_id))
            for node in ordered[1:]:
                duplicates.append((key.key, node.depth, node.node_id, node.molecule))
    duplicates.sort(key=lambda item: (item[0], item[1], item[2]))
    return RouteTree(root, tuple(m for *_, m in duplicates), route)


def linearize_nodes(tree: RouteTree) -> list[RouteNode]:
    """Non-leaf nodes in main-chain-first order: from each reaction keep
    descending into its first non-leaf precursor; the remaining non-leaf
    precursors queue up as branches emitted afterward, each expanded the
    same way. Child order is the stored precursor order."""
    emitted: list[RouteNode] = []
    if tree.root.is_leaf:
        return emitted
    queue: deque[RouteNode] = deque([tree.root])
    while queue:
        node = queue.popleft()
        while node is not None and not node.is_leaf:
            emitted.append(node)
            non_leaf = [child for child in node.children if not child.is_leaf]
            queue.extend(non_leaf[1:])
            node = non_leaf[0] if non_leaf else None
    return emitted


def linearize(tree: RouteTree) -> list[Reaction]:
    return [node.reaction for node in linearize_nodes(tree)]


def route_depth(route: Route) -> int:
    """Longest leaf-to-target distance in reaction steps."""
    producers = route.producer_of()
    memo: dict[CanonicalKey, int] = {}

    def depth_of(key: CanonicalKey, pending: set[CanonicalKey]) -> int:
        if key in memo:
            return memo[key]
        reaction = producers.get(key)
        if reaction is None:
            return 0
        if key in pending:
            raise CycleError(f"route contains a cycle through {key.key}")
        pending.add(key)
        value = 1 + max(depth_of(k, pending) for k in reaction.precursor_keys())
        pending.discard(key)
        memo[key] = value
        return value

    return depth_of(route.target_key, set())


# ---------------------------------------------------------------------------
# Dataset ingestion / persistence
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RouteRecord:
    """One dataset entry: the route plus its reference answer sets."""

    route: Route
    references: tuple[frozenset[CanonicalKey], ...]
    ref_depth: int
    index: int
    raw: dict


def _parse_single(text: str, where: str) -> Molecule:
    molecules = parse_smiles(text)
    if len(molecules) != 1:
        raise SchemaError(f"{where}: expected a single-component SMILES, got {len(molecules)}")
    return molecules[0]


def _record_from_raw(raw: dict, index: int) -> RouteRecord:
    where = f"record {index}"
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected an object")
    for field_name in ("target", "reactions", "references", "ref_depth"):
        if field_name not in raw:
            raise SchemaError(f"{where}: missing {field_name!r}")
    if not isinstance(raw["target"], str):
        raise SchemaError(f"{where}: target must be a string")
    if not isinstance(raw["reactions"], list):
        raise SchemaError(f"{where}: reactions must be a list")
    if not isinstance(raw["references"], list) or not raw["references"]:
        raise SchemaError(f"{where}: references must be a non-empty list of lists")
    if not isinstance(raw["ref_depth"], int) or raw["ref_depth"] < 0:
        raise SchemaError(f"{where}: ref_depth must be a non-negative integer")

    try:
        target = _parse_single(raw["target"], f"{where} target")
        reactions: list[Reaction] = []
        for j, entry in enumerate(raw["reactions"]):
            if not isinstance(entry, dict) or "product" not in entry or "precursors" not in entry:
                raise SchemaError(
                    f"{where} reaction {j}: expected object with product and precursors"
                )
            product = _parse_single(entry["product"], f"{where} reaction {j} product")
            if not entry["precursors"]:
                raise SchemaError(f"{where} reaction {j}: empty precursor list")
            precursors = tuple(
                _parse_single(text, f"{where} reaction {j} precursor {k}")
                for k, text in enumerate(entry["precursors"])
            )
            reactions.append(Reaction.from_molecules(product, precursors))
        references = []
        for j, group in enumerate(raw["references"]):
            if not isinstance(group, list) or not group:
                raise SchemaError(f"{where} reference {j}: expected a non-empty list")
            references.append(
                frozenset(
                    canonical_key(_parse_single(text, f"{where} reference {j}"))
                    for text in group
                )
            )
    except SmilesSyntaxError as exc:
        raise SmilesSyntaxError(f"{where}: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"{where}: {exc}") from exc

    route = Route.build(target, tuple(reactions))
    return RouteRecord(route, tuple(references), raw["ref_depth"], index, raw)


def ingest_dataset(path: str | Path) -> list[RouteRecord]:
    """Load a dataset file. Raises SchemaError / SmilesSyntaxError annotated
    with the failing record index."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise SchemaError(f"{path}: top level must be a JSON array")
    return [_record_from_raw(raw, index) for index, raw in enumerate(payload)]


def write_dataset(records: list[RouteRecord], path: str | Path) -> None:
    """Persist records in the dataset schema. Inverse of ingest_dataset."""
    payload = [record.raw for record in records]
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
