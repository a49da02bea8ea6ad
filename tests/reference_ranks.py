"""Canonical ranking as it was before refinement split only the tied cells
over an integer neighbour table, kept verbatim as a test oracle.

Test-only: the library must never import it. tests/test_smiles.py asserts
that canonical_ranks gives the same tuple as canonical_ranks here.
"""

from __future__ import annotations

from molgraph import incidence, other
from retroroute.smiles import Molecule


def _dense_rank(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(m: Molecule, colors: list[int]) -> list[int]:
    adjacency = incidence(m)
    n_colors = len(set(colors))
    while True:
        signatures = [
            (
                colors[i],
                tuple(
                    sorted(
                        (bond.order, colors[other(bond, i)])
                        for bond in adjacency[i]
                    )
                ),
            )
            for i in range(len(m.atoms))
        ]
        refined = _dense_rank(signatures)
        if len(set(refined)) == n_colors:
            return refined
        colors, n_colors = refined, len(set(refined))


def canonical_ranks(m: Molecule) -> tuple[int, ...]:
    """Deterministic atom ranks, 0..n-1, stable across equivalent input orderings.

    Iterative invariant refinement seeded by (element, charge, isotope,
    aromatic flag, degree, hydrogen count); remaining ties are broken by
    promoting the smallest input index and re-refining. Map numbers and
    stereo marks play no part. Unlike the library's, nothing is kept on the
    molecule: every call ranks afresh.
    """
    if not m.atoms:
        raise ValueError("cannot rank an empty molecule")
    adjacency = incidence(m)
    seeds = [
        (
            atom.element,
            atom.charge,
            atom.isotope or 0,
            atom.aromatic,
            len(adjacency[i]),
            m._effective[i],
        )
        for i, atom in enumerate(m.atoms)
    ]
    colors = _refine(m, _dense_rank(seeds))
    n = len(m.atoms)
    while len(set(colors)) < n:
        counts: dict[int, int] = {}
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
        tied = min(color for color, count in counts.items() if count > 1)
        chosen = min(i for i in range(n) if colors[i] == tied)
        colors = _dense_rank(
            [(color, 0 if i == chosen else 1) for i, color in enumerate(colors)]
        )
        colors = _refine(m, colors)
    return tuple(colors)
