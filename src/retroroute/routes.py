"""Retrosynthetic routes as DAGs: validation, tree decoupling, linearization,
depth, dataset and stock reading, and the readers that check every input.

A route is a set of reactions over molecules identified by canonical key.
Edges run precursor -> product; the target is the unique sink. Convergent
(shared) intermediates make the graph a DAG; `to_tree` decouples them into a
tree by duplicating each extra occurrence.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple

from .errors import CycleError, RouteError, SchemaError, SmilesSyntaxError
from .smiles import CanonicalKey, Molecule, canonical_key, parse_smiles, smiles_keys


class Reaction:
    """One retro step: product decomposed into precursors.

    maps[i] sends each atom index of precursor i to its product atom index;
    pairs are built from shared map numbers and a missing entry means the
    precursor atom has no product counterpart.
    """

    def __init__(
        self, product: Molecule, precursors: tuple[Molecule, ...], maps: tuple[dict[int, int], ...]
    ) -> None:
        if not precursors:
            raise ValueError("a reaction needs at least one precursor")
        self.product = product
        self.precursors = precursors
        self.maps = maps

    @classmethod
    def from_molecules(cls, product: Molecule, precursors: tuple[Molecule, ...]) -> "Reaction":
        """Build the atom maps from matching map numbers."""
        product_by_map: dict[int, int] = {}
        for j, atom in enumerate(product.atoms):
            number = atom.map_number
            if number is not None:
                if number in product_by_map:
                    raise ValueError(f"duplicate map number {number} on product atoms")
                product_by_map[number] = j
        maps: list[dict[int, int]] = []
        for i, mol in enumerate(precursors):
            seen: set[int] = set()
            mapping: dict[int, int] = {}
            for a, atom in enumerate(mol.atoms):
                number = atom.map_number
                if number is None:
                    continue
                if number in seen:
                    raise ValueError(f"duplicate map number {number} on precursor {i}")
                seen.add(number)
                if number in product_by_map:
                    mapping[a] = product_by_map[number]
            maps.append(mapping)
        return cls(product, tuple(precursors), tuple(maps))

    @property
    def product_key(self) -> CanonicalKey:
        return canonical_key(self.product)

    def precursor_keys(self) -> list[CanonicalKey]:
        return [canonical_key(m) for m in self.precursors]


class Route:
    """A retrosynthetic DAG rooted at `target`, analysed once when built:
    producers maps each product key to its first producing reaction;
    made_twice lists the keys with more than one producer, in order of first
    appearance; stock_refs is the leaf key set; cycle holds the keys on the
    first cycle met, if any; depth is the longest leaf-to-target distance in
    reaction steps, meaningful only when cycle is empty."""

    def __init__(self, target: Molecule, reactions: tuple[Reaction, ...]) -> None:
        producers: dict[CanonicalKey, Reaction] = {}
        repeated: set[CanonicalKey] = set()
        for reaction in reactions:
            key = reaction.product_key
            if key in producers:
                repeated.add(key)
            else:
                producers[key] = reaction
        leaves = {k for r in reactions for k in r.precursor_keys() if k not in producers}
        if not reactions:
            leaves = {canonical_key(target)}
        depths, cycle = _depths(producers)
        self.target = target
        self.reactions = tuple(reactions)
        self.producers = producers
        self.made_twice = tuple(key for key in producers if key in repeated)
        self.stock_refs = frozenset(leaves)
        self.cycle = cycle
        self.depth = depths.get(canonical_key(target), 0)

    @property
    def target_key(self) -> CanonicalKey:
        return canonical_key(self.target)


class ValidationReport(NamedTuple):
    """The sorted offending keys of each check; a check passes when it has
    none."""

    target_convergence: tuple[str, ...]
    grounding: tuple[str, ...]
    stepwise_linkage: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not any(self)


# ---------------------------------------------------------------------------
# Input files and fields: the readers through which datasets, stock files,
# the config and command rows are checked. Each failure is a SchemaError
# that names where it is.
# ---------------------------------------------------------------------------


_TYPE_NAMES = {
    str: "a string", list: "an array", dict: "an object", int: "an integer",
    float: "a number", bool: "a boolean",
}


def read_text(path: str | Path) -> str:
    """The text of an input file, which must be UTF-8; otherwise SchemaError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc


def parse_json(text: str, where: str, kind: type):
    """The JSON value of text, which must be of type `kind`. Text that json
    rejects (also for nesting too deep or an integer too long to read) is a
    SchemaError naming where."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
    if type(value) is not kind:
        raise SchemaError(f"{where}: expected {_TYPE_NAMES[kind]}")
    return value


def read_json(path: str | Path, kind: type):
    """The JSON value of a whole file, which must be of type `kind`."""
    return parse_json(read_text(path), str(path), kind)


def read_rows(path: str | Path) -> list[tuple[str, dict]]:
    """The objects of a JSON-lines file, one per non-blank line, each with
    its locator `PATH line N` (N counts every line from 1). Only a newline
    ends a line, so a JSON string may hold U+2028 or another separator."""
    rows = []
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            where = f"{path} line {line_number}"
            rows.append((where, parse_json(line, where, dict)))
    return rows


def read_field(row, name: str, where: str, *kinds: type):
    """row[name], which must be present and, when kinds are given, of one of
    those JSON types; the first names the expectation. Types match exactly,
    so a bool is never taken for a number."""
    if type(row) is not dict:
        raise SchemaError(f"{where}: expected an object")
    if name not in row:
        raise SchemaError(f"{where}: missing {name!r}")
    value = row[name]
    if kinds and type(value) not in kinds:
        raise SchemaError(f"{where}: {name} must be {_TYPE_NAMES[kinds[0]]}")
    return value


def read_count(row, name: str, where: str) -> int:
    """row[name], which must be a non-negative integer."""
    value = read_field(row, name, where)
    if type(value) is not int or value < 0:
        raise SchemaError(f"{where}: {name} must be a non-negative integer")
    return value


def _smiles(read: Callable[[str], list], text: str, where: str) -> list:
    """read(text), where read is parse_smiles or smiles_keys: one item per
    '.'-component, with a SMILES fault raised as a SchemaError naming where."""
    try:
        return read(text)
    except SmilesSyntaxError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _single(components: list, where: str):
    """The one component of a text that must spell a single molecule."""
    if len(components) != 1:
        raise SchemaError(f"{where}: expected a single-component SMILES, got {len(components)}")
    return components[0]


def read_molecule(text, where: str) -> Molecule:
    """The one Molecule that the SMILES string text spells."""
    if type(text) is not str:
        raise SchemaError(f"{where}: expected a SMILES string")
    return _single(_smiles(parse_smiles, text, where), where)


def read_keys(texts, where: str) -> frozenset[CanonicalKey]:
    """Keys of every '.'-component of a list of SMILES texts."""
    if type(texts) is not list or any(type(text) is not str for text in texts):
        raise SchemaError(f"{where}: expected a list of SMILES strings")
    return frozenset(key for text in texts for key in _smiles(smiles_keys, text, where))


def read_target(row, where: str) -> CanonicalKey:
    """Key of row["target"], which must be the SMILES of one molecule."""
    at = f"{where} target"
    return _single(_smiles(smiles_keys, read_field(row, "target", where, str), at), at)


def read_references(row, where: str) -> tuple[frozenset[CanonicalKey], ...]:
    """row["references"]: a non-empty array of reference groups, each a
    non-empty list of SMILES texts read as by read_keys."""
    groups = read_field(row, "references", where, list)
    if not groups:
        raise SchemaError(f"{where}: references must be a non-empty list of lists")
    references = []
    for j, group in enumerate(groups):
        keys = read_keys(group, f"{where} reference {j}")
        if not keys:
            raise SchemaError(f"{where} reference {j}: expected a non-empty list")
        references.append(keys)
    return tuple(references)


def load_stock(path: str | Path) -> frozenset[CanonicalKey]:
    """Read a newline-delimited SMILES file into canonical keys."""
    keys: set[CanonicalKey] = set()
    for line_number, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if line:
            keys.update(_smiles(smiles_keys, line, f"stock line {line_number}"))
    if not keys:
        raise SchemaError(f"stock file {path} contains no molecules")
    return frozenset(keys)


def _depths(
    producers: dict[CanonicalKey, Reaction],
) -> tuple[dict[CanonicalKey, int], tuple[str, ...]]:
    """One depth-first walk of the precursor->product graph, from each
    product in reaction order. Returns the depth in reaction steps of each
    molecule reached (0 for a leaf) and the keys on the first cycle met, if
    any; the walk stops there, and then the depths are not to be used."""

    def precursor_keys(key: CanonicalKey) -> list[CanonicalKey]:
        reaction = producers.get(key)
        return reaction.precursor_keys() if reaction is not None else []

    depth: dict[CanonicalKey, int] = {}  # -1 while the key is on the stack
    for start in producers:
        if start in depth:
            continue
        # Each key on the walk, with the precursors it has yet to yield.
        depth[start] = -1
        stack = [(start, iter(precursor_keys(start)))]
        while stack:
            key, pending = stack[-1]
            child = next(pending, None)
            if child is None:
                stack.pop()
                depth[key] = max((depth[k] + 1 for k in precursor_keys(key)), default=0)
                continue
            seen = depth.get(child)
            if seen is None:
                depth[child] = -1
                stack.append((child, iter(precursor_keys(child))))
            elif seen < 0:
                trail = [k for k, _ in stack]
                return depth, tuple(k.key for k in trail[trail.index(child):])
    return depth, ()


def validate_route(route: Route, stock: frozenset[CanonicalKey]) -> ValidationReport:
    """Check the three structural route properties against a stock set."""
    target_key = route.target_key
    consumed: set[CanonicalKey] = set()
    for reaction in route.reactions:
        consumed.update(reaction.precursor_keys())

    # Target convergence: the target is the unique sink. It must never be
    # consumed, and every other product must feed some reaction.
    convergence_offenders: list[str] = []
    if target_key in consumed:
        convergence_offenders.append(target_key.key)
    if route.reactions and target_key not in route.producers:
        convergence_offenders.append(target_key.key)
    for key in route.producers:
        if key != target_key and key not in consumed:
            convergence_offenders.append(key.key)

    # Stepwise linkage: exactly one producer per non-leaf, and no cycles.
    stepwise_offenders = [key.key for key in route.made_twice] + list(route.cycle)

    grounding_offenders = [key.key for key in route.stock_refs if key not in stock]

    return ValidationReport(
        *(
            tuple(sorted(set(offenders)))
            for offenders in (convergence_offenders, grounding_offenders, stepwise_offenders)
        )
    )


# ---------------------------------------------------------------------------
# Tree decoupling and linearization
# ---------------------------------------------------------------------------


class RouteNode:
    """One molecule occurrence in the decoupled tree."""

    def __init__(
        self,
        node_id: int,
        molecule: Molecule,
        reaction: Reaction | None,
        children: tuple[RouteNode, ...],
    ) -> None:
        self.node_id = node_id
        self.molecule = molecule
        self.reaction = reaction
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.reaction is None


class RouteTree(NamedTuple):
    root: RouteNode


# Stacked convergent intermediates double a tree at each level: to_tree stops here.
_MAX_TREE_NODES = 100_000


def to_tree(route: Route) -> RouteTree:
    """Decouple convergent intermediates by duplicating every occurrence
    beyond the first. Raises CycleError on cyclic routes, and RouteError when
    a molecule has more than one producing reaction or when the tree would
    have more than 100,000 nodes (molecule occurrences)."""
    if route.cycle:
        raise CycleError(f"route contains a cycle through {list(route.cycle)}")
    if route.made_twice:
        raise RouteError(
            f"molecule {route.made_twice[0].key} has more than one producing reaction"
        )

    # Preorder with an explicit stack: a node's id is its position in
    # `preorder`, and it joins its parent's children when it is taken.
    preorder: list[RouteNode] = []
    stack: list[tuple[Molecule, RouteNode | None]] = [(route.target, None)]
    while stack:
        if len(preorder) == _MAX_TREE_NODES:
            molecules = len(route.producers) + len(route.stock_refs)
            message = f"route tree passes {_MAX_TREE_NODES} nodes ({molecules} distinct molecules)"
            raise RouteError(message)
        molecule, parent = stack.pop()
        reaction = route.producers.get(canonical_key(molecule))
        node = RouteNode(len(preorder), molecule, reaction, ())
        preorder.append(node)
        if parent is not None:
            parent.children += (node,)
        if reaction is not None:
            stack.extend((m, node) for m in reversed(reaction.precursors))
    return RouteTree(preorder[0])


def linearize_nodes(
    tree: RouteTree,
    children: Callable[[RouteNode], Iterable[RouteNode]] = lambda node: node.children,
) -> list[RouteNode]:
    """Non-leaf nodes in main-chain-first order: from each reaction keep
    descending into its first non-leaf precursor; the remaining non-leaf
    precursors queue up as branches emitted afterward, each expanded the
    same way. `children` gives a node's precursor nodes in the order to
    follow (by default the stored precursor order); it is called once for
    each emitted node, after the call for its parent."""
    emitted: list[RouteNode] = []
    if tree.root.is_leaf:
        return emitted
    queue: deque[RouteNode] = deque([tree.root])
    while queue:
        node = queue.popleft()
        while node is not None:
            emitted.append(node)
            non_leaf = [child for child in children(node) if not child.is_leaf]
            queue.extend(non_leaf[1:])
            node = non_leaf[0] if non_leaf else None
    return emitted


def route_depth(route: Route) -> int:
    """Longest leaf-to-target distance in reaction steps. Raises CycleError
    when a molecule is its own precursor, directly or through others, also
    on a cycle the target does not reach."""
    if route.cycle:
        raise CycleError(f"route contains a cycle through {list(route.cycle)}")
    return route.depth


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


class RouteRecord(NamedTuple):
    """One dataset entry's route and its position in the file."""

    route: Route
    index: int


def read_answers(raw, where: str) -> tuple[CanonicalKey, tuple[frozenset[CanonicalKey], ...], int]:
    """A dataset entry's target key, reference groups and ref_depth, checked;
    its reactions are not read."""
    return read_target(raw, where), read_references(raw, where), read_count(raw, "ref_depth", where)


def read_route(raw, index: int) -> Route:
    """A dataset entry's route, its target and reactions, checked and parsed;
    its answers are not read. Raises SchemaError for any fault, naming the
    record and the field, as in
    `record 3 reaction 2 precursor 1: unclosed branch`."""
    where = f"record {index}"
    target = read_molecule(read_field(raw, "target", where, str), f"{where} target")
    entries = read_field(raw, "reactions", where, list)
    reactions: list[Reaction] = []
    for j, entry in enumerate(entries):
        at = f"{where} reaction {j}"
        product = read_molecule(read_field(entry, "product", at), f"{at} product")
        texts = read_field(entry, "precursors", at, list)
        if not texts:
            raise SchemaError(f"{at}: empty precursor list")
        precursors = tuple(
            read_molecule(text, f"{at} precursor {k}") for k, text in enumerate(texts)
        )
        try:
            reactions.append(Reaction.from_molecules(product, precursors))
        except ValueError as exc:  # a map number repeated within one molecule
            raise SchemaError(f"{at}: {exc}") from exc

    return Route(target, tuple(reactions))


def read_dataset(path: str | Path) -> list:
    """The raw entries of a dataset file: a JSON array, otherwise SchemaError."""
    return read_json(path, list)


def ingest_dataset(path: str | Path) -> list[RouteRecord]:
    """Load a dataset file. Raises SchemaError naming the failing record and
    field."""
    records = []
    for index, raw in enumerate(read_dataset(path)):
        route = read_route(raw, index)
        # read_route keyed the target, so read_answers takes its key unparsed.
        read_answers(raw, f"record {index}")
        records.append(RouteRecord(route, index))
    return records


def answers_by_target(path: str | Path) -> dict[CanonicalKey, tuple[tuple, int]]:
    """(references, ref_depth) of each entry of a dataset file by target key,
    read by read_answers; a later entry for a target replaces an earlier one."""
    entries = enumerate(read_dataset(path))
    answers = (read_answers(raw, f"record {index}") for index, raw in entries)
    return {key: (references, ref_depth) for key, references, ref_depth in answers}
