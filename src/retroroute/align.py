"""Root-aligned rendering of route trees.

Given a root atom for the target, every step writes its node's molecule
from the atom its parent step chose, and precursors are ordered by where
their mapped atoms land in that text. Precursor roots propagate the same
way, so the whole linearized route reads from a single viewpoint.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .routes import RouteNode, RouteTree, linearize_nodes
from .smiles import Molecule, RootedWriter, canonical_ranks


class AlignedStep(NamedTuple):
    """One rendered reaction. product_text is the target, then the parent
    step's precursor text, stereo marks included. Parallel tuples are in
    emission order: anchor_positions[i] is the first product-text position
    taken by a mapped atom of precursor i (inf when nothing maps),
    inherited_roots[i] the atom index the precursor was rooted at."""

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
    tree: RouteTree, target_root: int, *, writers: dict | None = None, built: dict | None = None
) -> AlignedSequence:
    """Render every reaction of the tree from the viewpoint fixed by rooting
    the target at atom index `target_root`, main chain first over the
    aligned precursor order.

    A step writes its node's molecule, not the reaction's product, whose
    atoms take the positions of the node's atoms of equal canonical rank.
    `writers` holds a RootedWriter per Molecule, so a product line is the
    text the parent step wrote; `built` holds each step by (node id, root).
    Both are this call's own by default; augment_roots shares them."""
    root_map: dict[int, int] = {tree.root.node_id: target_root}
    steps: list[AlignedStep] = []
    writers = {} if writers is None else writers
    built = {} if built is None else built

    def write(molecule: Molecule, root: int) -> tuple[str, list[int]]:
        writer = writers.get(molecule)
        if writer is None:
            writer = writers[molecule] = RootedWriter(molecule)
        return writer.write(root)

    def build(node: RouteNode, root: int) -> tuple:
        reaction = node.reaction
        product_text, atom_order = write(node.molecule, root)
        # Positions in rank order: the product atom of rank r takes the r-th.
        ranks = canonical_ranks(node.molecule)
        by_rank = sorted(range(len(atom_order)), key=lambda pos: ranks[atom_order[pos]])
        position_of = [by_rank[rank] for rank in canonical_ranks(reaction.product)]
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
            text, _ = write(precursor, child_root)
            entries.append((anchor, i, text, child_root, child))

        entries.sort()
        anchors, _, texts, roots, children = zip(*entries)
        return AlignedStep(product_text, texts, anchors, roots), children

    def render(node: RouteNode) -> tuple[RouteNode, ...]:
        """Append the node's step; return its children in aligned order."""
        key = (node.node_id, root_map[node.node_id])
        step, children = built.get(key) or built.setdefault(key, build(node, key[1]))
        for child, child_root in zip(children, step.inherited_roots):
            root_map[child.node_id] = child_root
        steps.append(step)
        return children

    linearize_nodes(tree, render)
    return AlignedSequence(tuple(steps), target_root)


def augment_roots(tree: RouteTree, n: int, seed: int) -> list[AlignedSequence]:
    """Render the route from n distinct random heavy-atom roots of the target
    (fewer when the target is smaller). n=1 gives a single seeded choice.

    The renderings share the writers and built steps, so each molecule's
    tables are built once, each (molecule, root) text written once and each
    (node, root) step built once; both are dropped on return. The result
    equals align_route called on each root alone."""
    if n < 1:
        raise ValueError("n must be at least 1")
    heavy = tree.root.molecule.heavy_atom_indices()
    rng = random.Random(seed)
    roots = rng.sample(heavy, min(n, len(heavy)))
    writers, built = {}, {}
    return [align_route(tree, root, writers=writers, built=built) for root in roots]


def render_sequence(sequence: AlignedSequence) -> str:
    """One reaction per line: product, '>>', '.'-joined precursors."""
    return "\n".join(
        f"{step.product_text}>>{'.'.join(step.precursor_texts)}"
        for step in sequence.steps
    )
