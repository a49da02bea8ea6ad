"""Random molecule, route and slate generators used across the tests.

Everything is driven by an explicit random.Random so failures replay from a
seed. Molecules are built as graphs with a per-atom free-valence budget, so
every generated structure passes the valence check by construction.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

from reference_writer import write_rooted as reference_write_rooted
from retroroute.routes import Reaction, Route, route_depth
from retroroute.smiles import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    CanonicalKey,
    Molecule,
    canonical_key,
    write_rooted,
)

# (element, max valence, weight); only neutral organic-subset atoms so the
# writer stays bracket-free unless an isotope forces one.
_ELEMENT_POOL = (
    ("C", 4, 12),
    ("N", 3, 4),
    ("O", 2, 4),
    ("S", 2, 2),
    ("P", 3, 1),
    ("F", 1, 2),
    ("Cl", 1, 2),
    ("Br", 1, 1),
)
_WEIGHTED_ELEMENTS = [
    (element, valence) for element, valence, weight in _ELEMENT_POOL for _ in range(weight)
]


class _Builder:
    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.free: list[int] = []

    def add_atom(self, atom: Atom, valence: int) -> int:
        self.atoms.append(atom)
        self.free.append(valence)
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order: str) -> None:
        cost = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}[order]
        self.bonds.append(Bond(a, b, order))
        self.free[a] -= cost
        self.free[b] -= cost

    def bonded(self, a: int, b: int) -> bool:
        return any(
            (bond.a == a and bond.b == b) or (bond.a == b and bond.b == a)
            for bond in self.bonds
        )

    def molecule(self) -> Molecule:
        return Molecule(tuple(self.atoms), tuple(self.bonds), "")


def rand_molecule(rng: random.Random, min_atoms: int = 3, max_atoms: int = 12) -> Molecule:
    """A random connected molecule with occasional rings, aromatic rings,
    multiple bonds and isotopes."""
    target_size = rng.randint(min_atoms, max_atoms)
    builder = _Builder()
    element, valence = rng.choice(_WEIGHTED_ELEMENTS)
    builder.add_atom(Atom(element), valence)

    while len(builder.atoms) < target_size:
        if rng.random() < 0.12 and len(builder.atoms) + 6 <= max_atoms:
            _attach_aromatic_ring(rng, builder)
            continue
        anchors = [i for i, f in enumerate(builder.free) if f >= 1]
        if not anchors:
            break
        anchor = rng.choice(anchors)
        element, valence = rng.choice(_WEIGHTED_ELEMENTS)
        order = SINGLE
        if valence >= 2 and builder.free[anchor] >= 2 and rng.random() < 0.15:
            order = DOUBLE
        if valence >= 3 and builder.free[anchor] >= 3 and rng.random() < 0.05:
            order = TRIPLE
        isotope = rng.choice((2, 13, 15)) if rng.random() < 0.03 else None
        new = builder.add_atom(Atom(element, isotope=isotope), valence)
        builder.add_bond(anchor, new, order)

    # Close an extra ring or two when the budget allows it; aliphatic only,
    # aromatic atoms already carry their ring.
    for _ in range(2):
        if rng.random() >= 0.25:
            continue
        open_atoms = [
            i
            for i, f in enumerate(builder.free)
            if f >= 1 and not builder.atoms[i].aromatic
        ]
        rng.shuffle(open_atoms)
        for a in open_atoms:
            partners = [b for b in open_atoms if b != a and not builder.bonded(a, b)]
            if partners:
                builder.add_bond(a, rng.choice(partners), SINGLE)
                break
    return builder.molecule()


def _attach_aromatic_ring(rng: random.Random, builder: _Builder) -> None:
    """Six-membered aromatic ring joined to an existing atom by a single
    bond; without a free anchor the ring is skipped to keep the graph
    connected."""
    anchors = [
        i
        for i, f in enumerate(builder.free)
        if f >= 1 and (not builder.atoms[i].aromatic or builder.atoms[i].element == "C")
    ]
    if not anchors:
        return
    members: list[int] = []
    for position in range(6):
        element = "N" if position > 0 and rng.random() < 0.2 else "C"
        # Two ring bonds plus at most one substituent.
        members.append(builder.add_atom(Atom(element, aromatic=True), 3))
    for position in range(6):
        builder.add_bond(members[position], members[(position + 1) % 6], AROMATIC)
    ring_slots = [i for i in members if builder.atoms[i].element == "C"]
    builder.add_bond(rng.choice(anchors), rng.choice(ring_slots), SINGLE)


def rand_smiles(rng: random.Random, **kwargs) -> str:
    molecule = rand_molecule(rng, **kwargs)
    root = rng.randrange(len(molecule.atoms))
    text, _ = write_rooted(molecule, root)
    return text


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------


def _free_slots(molecule: Molecule) -> list[int]:
    """Hydrogens available for replacement by new bonds, per atom."""
    return [
        0 if atom.explicit_hydrogens is not None else molecule._implicit[i]
        for i, atom in enumerate(molecule.atoms)
    ]


def _mapped(atom: Atom, map_number: int | None) -> Atom:
    """atom with its map number set, built directly: Atom._replace
    takes about twice as long, and the generators re-map every atom."""
    return Atom(
        atom.element, atom.aromatic, atom.charge, atom.explicit_hydrogens,
        atom.isotope, map_number, atom.chirality,
    )


def _with_maps(molecule: Molecule, mapping: dict[int, int]) -> Molecule:
    """Copy with map_number = mapping[i] + 1 where defined, cleared elsewhere."""
    atoms = tuple(
        _mapped(atom, mapping[i] + 1 if i in mapping else None)
        for i, atom in enumerate(molecule.atoms)
    )
    return Molecule(atoms, molecule.bonds, "")


def _join(
    rng: random.Random, parts: list[Molecule], min_decorations: int = 0
) -> tuple[Molecule, list[dict[int, int]]]:
    """Union of the parts chained together by single bonds, plus decoration
    atoms. Returns the product and, per part, the embedding part-atom-index
    -> product-atom-index. The product always keeps at least two free
    hydrogen slots so it can itself be joined later."""
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    embeddings: list[dict[int, int]] = []
    free: list[int] = []
    for part in parts:
        offset = len(atoms)
        embeddings.append({i: offset + i for i in range(len(part.atoms))})
        for atom in part.atoms:
            atoms.append(_mapped(atom, None))
        free.extend(_free_slots(part))
        for bond in part.bonds:
            bonds.append(Bond(bond.a + offset, bond.b + offset, bond.order))

    for left, right in zip(embeddings, embeddings[1:]):
        a_options = [i for i in left.values() if free[i] >= 1]
        b_options = [i for i in right.values() if free[i] >= 1]
        if not a_options or not b_options:
            raise ValueError("parts have no free valence to join on")
        a = rng.choice(a_options)
        b = rng.choice(b_options)
        bonds.append(Bond(a, b, SINGLE))
        free[a] -= 1
        free[b] -= 1

    decorations = 0
    while decorations < min_decorations or rng.random() < 0.4:
        anchors = [i for i, f in enumerate(free) if f >= 1]
        if not anchors:
            break
        anchor = rng.choice(anchors)
        element, valence = rng.choice(_WEIGHTED_ELEMENTS)
        if sum(free) + valence - 2 < 2:
            element, valence = "C", 4
        atoms.append(Atom(element))
        free.append(valence - 1)
        bonds.append(Bond(anchor, len(atoms) - 1, SINGLE))
        free[anchor] -= 1
        decorations += 1
    # Keep the product joinable: a methyl adds two net free slots.
    while sum(free) < 2:
        anchors = [i for i, f in enumerate(free) if f >= 1]
        if not anchors:
            raise ValueError("product is saturated")
        anchor = rng.choice(anchors)
        atoms.append(Atom("C"))
        free.append(3)
        bonds.append(Bond(anchor, len(atoms) - 1, SINGLE))
        free[anchor] -= 1
    return Molecule(tuple(atoms), tuple(bonds), ""), embeddings


class FixtureRecord(NamedTuple):
    """A generated dataset entry: its route, answers, position and the
    dataset-schema dict that write_dataset writes. ingest_dataset reads back
    only the route and the position."""

    route: Route
    references: tuple[frozenset[CanonicalKey], ...]
    ref_depth: int
    index: int
    raw: dict


def rand_route_record(
    rng: random.Random,
    index: int = 0,
    depth: int | None = None,
    max_depth: int = 6,
    convergence: float = 0.0,
) -> FixtureRecord:
    """A random well-formed route of exactly the requested depth (default:
    uniform on [2, max_depth]). With convergence > 0 completed subtrees are
    sometimes consumed a second time, making the route a proper DAG; reuse of
    a deep subtree can push the depth past the request."""
    budget = depth if depth is not None else rng.randint(2, max_depth)
    reactions: list[Reaction] = []
    used_keys: set = set()
    reusable: list[Molecule] = []

    def fresh_leaf() -> Molecule:
        for _ in range(100):
            molecule = rand_molecule(rng, 3, 7)
            key = canonical_key(molecule)
            if key not in used_keys and sum(_free_slots(molecule)) >= 2:
                used_keys.add(key)
                reusable.append(molecule)
                return molecule
        raise RuntimeError("could not generate a distinct leaf")

    def grow(remaining: int) -> Molecule:
        if remaining == 0:
            return fresh_leaf()
        parts: list[Molecule] = [grow(remaining - 1)]
        if rng.random() < 0.55:
            if convergence > 0 and reusable and rng.random() < convergence:
                parts.append(rng.choice(reusable))
            else:
                parts.append(grow(rng.randint(0, remaining - 1)))
        for _ in range(100):
            product, embeddings = _join(
                rng, parts, min_decorations=1 if len(parts) == 1 else 0
            )
            if canonical_key(product) not in used_keys:
                break
        else:
            raise RuntimeError("could not generate a distinct product")
        used_keys.add(canonical_key(product))
        precursors = [_with_maps(part, embeddings[i]) for i, part in enumerate(parts)]
        if rng.random() < 0.15:
            precursors.append(_with_maps(fresh_leaf(), {}))
        rng.shuffle(precursors)
        mapped_product = _with_maps(product, {i: i for i in range(len(product.atoms))})
        reactions.append(Reaction.from_molecules(mapped_product, tuple(precursors)))
        reusable.append(product)
        return product

    target = grow(budget)
    route = Route(target, tuple(reactions))
    references = (frozenset(route.stock_refs),)
    return FixtureRecord(
        route=route,
        references=references,
        ref_depth=route_depth(route),
        index=index,
        raw=record_raw(route, references),
    )


def record_raw(route: Route, references) -> dict:
    """Dataset-schema dict for a route, its reaction texts written with map
    numbers by the reference writer (the library writes none)."""

    def mapped_text(molecule: Molecule) -> str:
        text, _ = reference_write_rooted(molecule, 0, include_maps=True)
        return text

    return {
        "target": write_rooted(route.target, 0)[0],
        "reactions": [
            {
                "product": mapped_text(reaction.product),
                "precursors": [mapped_text(m) for m in reaction.precursors],
            }
            for reaction in route.reactions
        ],
        "references": [sorted(key.key for key in group) for group in references],
        "ref_depth": route_depth(route),
    }


def write_dataset(records: list[FixtureRecord], path: str | Path) -> None:
    """Persist records in the dataset schema, the inverse of ingest_dataset."""
    payload = [record.raw for record in records]
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def rand_dataset(
    rng: random.Random, count: int, convergence: float = 0.15, max_depth: int = 6
) -> list[FixtureRecord]:
    return [
        rand_route_record(rng, index=i, convergence=convergence, max_depth=max_depth)
        for i in range(count)
    ]
