"""Graph helpers for the test oracles, built from a Molecule's bond tuple
alone, so an oracle reads none of the library's own graph structure."""

from __future__ import annotations

from retroroute.smiles import Bond, Molecule


def incidence(m: Molecule) -> list[list[Bond]]:
    """Each atom's bonds, in bond order."""
    rows: list[list[Bond]] = [[] for _ in m.atoms]
    for bond in m.bonds:
        rows[bond.a].append(bond)
        rows[bond.b].append(bond)
    return rows


def other(bond: Bond, i: int) -> int:
    """The end of bond that is not atom i."""
    return bond.b if i == bond.a else bond.a
