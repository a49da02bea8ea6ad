"""Root-aligned rendering of route trees.

Given a root atom for the target, every step's product is written rooted at
the atom its parent step chose for it, and precursors are ordered by where
their mapped atoms land in the product text. Precursor roots propagate the
same way, so the whole linearized route reads from a single viewpoint.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .routes import RouteNode, RouteTree, linearize_nodes
from .smiles import Molecule, RootedWriter, canonical_ranks, corresponding_atom


class AlignedStep(NamedTuple):
    """One rendered reaction. Parallel tuples are in emission order:
    anchor_positions[i] is the first product-text position taken by a mapped
    atom of precursor i (inf when nothing maps), inherited_roots[i] the atom
    index the precursor was rooted at."""

    product_text: str
    precursor_texts: tuple[str, ...]
    anchor_positions: tuple[float, ...]
    inherited_roots: tuple[int, ...]


class AlignedSequence(NamedTuple):
    steps: tuple[AlignedStep, ...]
    target_root: int


def default_root(molecule) -> int:
    """Fallback root for molecules with no mapped atoms: the canonical
    rank-0 atom, the same one canonical keys start from."""
    return canonical_ranks(molecule).index(0)


def align_route(
    tree: RouteTree, target_root: int, *, writers: dict[Molecule, RootedWriter] | None = None
) -> AlignedSequence:
    """Render every reaction of the tree from the viewpoint fixed by rooting
    the target at atom index `target_root`, main chain first over the
    aligned precursor order.

    Each molecule is written by its RootedWriter in `writers`, keyed by the
    Molecule object and made on first use. By default the dict is this
    call's own and is dropped when it returns; augment_roots passes one dict
    to all its renderings of a tree, so each molecule is prepared once and
    each (molecule, root) text written once."""
    root_map: dict[int, int] = {tree.root.node_id: target_root}
    steps: list[AlignedStep] = []
    if writers is None:
        writers = {}

    def write(molecule: Molecule, root: int) -> tuple[str, list[int]]:
        writer = writers.get(molecule)
        if writer is None:
            writer = writers[molecule] = RootedWriter(molecule)
        return writer.write(root)

    def render(node: RouteNode) -> list[RouteNode]:
        """Append the node's step; return its children in aligned order."""
        reaction = node.reaction
        product = reaction.product
        product_root = root_map[node.node_id]
        if node.molecule is not product:
            product_root = corresponding_atom(node.molecule, product_root, product)
        product_text, atom_order = write(product, product_root)
        position_of = {atom: pos for pos, atom in enumerate(atom_order)}

        entries: list[tuple[float, int, str, int, RouteNode]] = []
        for i, child in enumerate(node.children):
            precursor = reaction.precursors[i]
            mapping = reaction.maps[i]
            if mapping:
                # The map is one-to-one, so no two atoms tie on position.
                child_root = min(mapping, key=lambda atom: position_of[mapping[atom]])
                anchor = float(position_of[mapping[child_root]])
            else:
                anchor = float("inf")
                child_root = default_root(precursor)
            root_map[child.node_id] = child_root
            text, _ = write(precursor, child_root)
            entries.append((anchor, i, text, child_root, child))

        entries.sort(key=lambda e: (e[0], e[1]))
        steps.append(
            AlignedStep(
                product_text=product_text,
                precursor_texts=tuple(e[2] for e in entries),
                anchor_positions=tuple(e[0] for e in entries),
                inherited_roots=tuple(e[3] for e in entries),
            )
        )
        return [e[4] for e in entries]

    linearize_nodes(tree, render)
    return AlignedSequence(tuple(steps), target_root)


def augment_roots(tree: RouteTree, n: int, seed: int) -> list[AlignedSequence]:
    """Render the route from n distinct random heavy-atom roots of the target
    (fewer when the target is smaller). n=1 gives a single seeded choice.

    The renderings share one RootedWriter per molecule of the tree, so each
    molecule's tables are built once and a text that several roots lead to
    (often a precursor's) is written once; the writers are dropped when the
    call returns. The result equals align_route called on each root alone."""
    if n < 1:
        raise ValueError("n must be at least 1")
    heavy = tree.root.molecule.heavy_atom_indices()
    rng = random.Random(seed)
    roots = rng.sample(heavy, min(n, len(heavy)))
    writers: dict[Molecule, RootedWriter] = {}
    return [align_route(tree, root, writers=writers) for root in roots]


def render_sequence(sequence: AlignedSequence) -> str:
    """One reaction per line: product, '>>', '.'-joined precursors."""
    return "\n".join(
        f"{step.product_text}>>{'.'.join(step.precursor_texts)}"
        for step in sequence.steps
    )

