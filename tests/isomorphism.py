"""Reference graph-isomorphism check for the tests.

An exact backtracking match, independent of canonical ranking, so key
equality can be compared against it.
"""

from __future__ import annotations

from molgraph import incidence, other
from retroroute.smiles import Bond, Molecule


def _node_invariant(m: Molecule, adjacency: list[list[Bond]], i: int) -> tuple:
    atom = m.atoms[i]
    return (
        atom.element,
        atom.charge,
        atom.isotope or 0,
        atom.aromatic,
        m._effective[i],
        len(adjacency[i]),
        tuple(sorted(bond.order for bond in adjacency[i])),
    )


def is_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exact VF2-style graph match on element, charge, isotope, aromaticity,
    hydrogen count and bond order. Map numbers and stereo are ignored."""
    n = len(a.atoms)
    if n != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    adj_a, adj_b = incidence(a), incidence(b)
    inv_a = [_node_invariant(a, adj_a, i) for i in range(n)]
    inv_b = [_node_invariant(b, adj_b, i) for i in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return False

    # Connected query order so every atom after the first is anchored.
    order: list[int] = [0]
    seen = {0}
    cursor = 0
    while cursor < len(order):
        for bond in adj_a[order[cursor]]:
            end = other(bond, order[cursor])
            if end not in seen:
                seen.add(end)
                order.append(end)
        cursor += 1
    if len(order) != n:
        raise ValueError("molecule graph is not connected")

    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}

    def edges_to_mapped(
        adjacency: list[list[Bond]], i: int, placed: dict[int, int]
    ) -> list[tuple[int, int]]:
        return [
            (placed[other(bond, i)], bond.order)
            for bond in adjacency[i]
            if other(bond, i) in placed
        ]

    def extend(k: int) -> bool:
        if k == n:
            return True
        u = order[k]
        required = sorted(edges_to_mapped(adj_a, u, mapping))
        if required:
            anchor_image, _ = required[0]
            candidates = [other(bond, anchor_image) for bond in adj_b[anchor_image]]
        else:
            candidates = range(n)
        for v in candidates:
            if v in reverse or inv_b[v] != inv_a[u]:
                continue
            if sorted((mapping[x], o) for x, o in (
                (other(bond, u), bond.order) for bond in adj_a[u]
            ) if x in mapping) != sorted(
                (x2, o2)
                for x2, o2 in (
                    (other(bond, v), bond.order) for bond in adj_b[v]
                )
                if x2 in reverse
            ):
                continue
            mapping[u] = v
            reverse[v] = u
            if extend(k + 1):
                return True
            del mapping[u]
            del reverse[v]
        return False

    return extend(0)
