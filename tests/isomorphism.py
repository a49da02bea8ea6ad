"""Reference graph-isomorphism check for the tests.

An exact backtracking match, independent of canonical ranking, so key
equality can be compared against it.
"""

from __future__ import annotations

from retroroute.smiles import BOND_CODE, Molecule


def _node_invariant(m: Molecule, i: int) -> tuple:
    atom = m.atoms[i]
    return (
        atom.element,
        atom.charge,
        atom.isotope or 0,
        atom.aromatic,
        m.effective_hydrogens(i),
        m.degree(i),
        tuple(sorted(BOND_CODE[bond.order] for bond in m.adjacency[i])),
    )


def is_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exact VF2-style graph match on element, charge, isotope, aromaticity,
    hydrogen count and bond order. Map numbers and stereo are ignored."""
    n = len(a.atoms)
    if n != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    inv_a = [_node_invariant(a, i) for i in range(n)]
    inv_b = [_node_invariant(b, i) for i in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return False

    # Connected query order so every atom after the first is anchored.
    order: list[int] = [0]
    seen = {0}
    cursor = 0
    while cursor < len(order):
        for bond in a.adjacency[order[cursor]]:
            other = bond.other(order[cursor])
            if other not in seen:
                seen.add(other)
                order.append(other)
        cursor += 1
    if len(order) != n:
        raise ValueError("molecule graph is not connected")

    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}

    def edges_to_mapped(m_: Molecule, i: int, placed: dict[int, int]) -> list[tuple[int, str]]:
        return [
            (placed[bond.other(i)], bond.order)
            for bond in m_.adjacency[i]
            if bond.other(i) in placed
        ]

    def extend(k: int) -> bool:
        if k == n:
            return True
        u = order[k]
        required = sorted(edges_to_mapped(a, u, mapping))
        if required:
            anchor_image, _ = required[0]
            candidates = [bond.other(anchor_image) for bond in b.adjacency[anchor_image]]
        else:
            candidates = range(n)
        for v in candidates:
            if v in reverse or inv_b[v] != inv_a[u]:
                continue
            if sorted((mapping[x], o) for x, o in (
                (bond.other(u), bond.order) for bond in a.adjacency[u]
            ) if x in mapping) != sorted(
                (x2, o2)
                for x2, o2 in (
                    (bond.other(v), bond.order) for bond in b.adjacency[v]
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
