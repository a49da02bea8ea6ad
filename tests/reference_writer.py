"""The rooted SMILES writer as it was before writing was split into a
per-molecule RootedWriter, kept verbatim as a test oracle.

Test-only: the library must never import it. tests/test_smiles.py asserts
that RootedWriter and write_rooted give the same text and atom order from
every root, with and without stereo marks, as this writer with map numbers
off. It keeps its include_maps flag, which the library writer no longer
has: tests/generators.py writes the mapped reaction texts of its datasets
with it.
"""

from __future__ import annotations

from molgraph import incidence, other
from retroroute.smiles import (
    DOUBLE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    Bond,
    Molecule,
    canonical_ranks,
)


def _atom_token(m: Molecule, i: int, include_maps: bool, include_stereo: bool) -> str:
    atom = m.atoms[i]
    effective = m._effective[i]
    bare_allowed = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and (atom.map_number is None or not include_maps)
        and (atom.chirality is None or not include_stereo)
        and (not atom.aromatic or atom.element in ("B", "C", "N", "O", "P", "S"))
        and effective == m._implicit[i]
    )
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if bare_allowed:
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if include_stereo and atom.chirality:
        parts.append(atom.chirality)
    if effective == 1:
        parts.append("H")
    elif effective > 1:
        parts.append(f"H{effective}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 0:
        parts.append(f"+{atom.charge}")
    elif atom.charge < 0:
        parts.append(str(atom.charge))
    if include_maps and atom.map_number is not None:
        parts.append(f":{atom.map_number}")
    parts.append("]")
    return "".join(parts)


def _bond_token(m: Molecule, bond: Bond, include_stereo: bool) -> str:
    if bond.order == SINGLE:
        if include_stereo and bond.direction:
            return bond.direction
        if m.atoms[bond.a].aromatic and m.atoms[bond.b].aromatic:
            return "-"
        return ""
    if bond.order == DOUBLE:
        return "="
    if bond.order == TRIPLE:
        return "#"
    if m.atoms[bond.a].aromatic and m.atoms[bond.b].aromatic:
        return ""
    return ":"


def _digit_token(number: int) -> str:
    return str(number) if number <= 9 else f"%{number:02d}"


def write_rooted(
    m: Molecule,
    root: int,
    *,
    include_maps: bool = False,
    include_stereo: bool = True,
) -> tuple[str, list[int]]:
    """Write m as SMILES starting at atom `root`.

    Neighbors are visited in ascending canonical-rank order; ring-closure
    digits are assigned in discovery order starting at 1 and never reused.
    Returns the text and the emission order: atom_order[k] is the atom index
    whose token was written k-th (so atom_order[0] == root).
    """
    n = len(m.atoms)
    if not 0 <= root < n:
        raise IndexError(f"root {root} out of range for {n} atoms")
    ranks = canonical_ranks(m)
    adjacency = incidence(m)
    ordered_bonds = [
        sorted(adjacency[i], key=lambda bond: ranks[other(bond, i)]) for i in range(n)
    ]

    # First traversal: spanning tree and ring (back) edges in discovery order.
    visited = [False] * n
    position = [0] * n
    atom_order: list[int] = []
    tree_children: list[list[Bond]] = [[] for _ in range(n)]
    ring_digits: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
    back_edges: list[Bond] = []
    used = [False] * len(m.bonds)
    bond_index = {id(bond): k for k, bond in enumerate(m.bonds)}

    visited[root] = True
    position[root] = 0
    atom_order.append(root)
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        current, cursor = stack[-1]
        advanced = False
        neighbors = ordered_bonds[current]
        while cursor < len(neighbors):
            bond = neighbors[cursor]
            cursor += 1
            k = bond_index[id(bond)]
            if used[k]:
                continue
            end = other(bond, current)
            if not visited[end]:
                used[k] = True
                visited[end] = True
                position[end] = len(atom_order)
                atom_order.append(end)
                tree_children[current].append(bond)
                stack[-1] = (current, cursor)
                stack.append((end, 0))
                advanced = True
                break
            used[k] = True
            back_edges.append(bond)
        if not advanced:
            stack.pop()

    # Number ring closures by the emission position of their first mention so
    # digits appear in increasing order along the string.
    back_edges.sort(
        key=lambda bond: (
            min(position[bond.a], position[bond.b]),
            max(position[bond.a], position[bond.b]),
        )
    )
    for digit, bond in enumerate(back_edges, start=1):
        ring_digits[bond.a].append((digit, bond))
        ring_digits[bond.b].append((digit, bond))

    # Second traversal writes the text. The stack holds (text before the
    # atom, atom) pairs and the ")" that closes each branch; a node's branches
    # come first in order, each in parentheses, then its last child.
    pieces: list[str] = []
    stack: list[tuple[str, int] | str] = [("", root)]
    while stack:
        item = stack.pop()
        if item == ")":
            pieces.append(item)
            continue
        prefix, atom = item
        pieces.append(prefix)
        pieces.append(_atom_token(m, atom, include_maps, include_stereo))
        for digit, bond in sorted(ring_digits[atom]):
            late_end = bond.a if position[bond.a] > position[bond.b] else bond.b
            if atom == late_end:
                pieces.append(_bond_token(m, bond, include_stereo))
            pieces.append(_digit_token(digit))
        children = tree_children[atom]
        if children:
            bond = children[-1]
            stack.append((_bond_token(m, bond, include_stereo), other(bond, atom)))
            for bond in reversed(children[:-1]):
                stack.append(")")
                stack.append(("(" + _bond_token(m, bond, include_stereo), other(bond, atom)))
    return "".join(pieces), atom_order
