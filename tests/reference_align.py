"""Root-aligned rendering as it was before each step wrote its node's own
molecule: it writes the reaction's product from the node's root carried over
with corresponding_atom, both kept verbatim as a test oracle.

Test-only: the library must never import it. tests/test_align.py asserts
that align_route and augment_roots give the same AlignedSequences as
align_route here on inputs without stereo marks.
"""

from __future__ import annotations

from retroroute.align import AlignedSequence, AlignedStep, default_root
from retroroute.routes import RouteNode, RouteTree, linearize_nodes
from retroroute.smiles import Molecule, RootedWriter, canonical_key, canonical_ranks


def corresponding_atom(src: Molecule, index: int, dst: Molecule) -> int:
    """Map an atom of `src` to the atom of `dst` holding the same canonical
    rank. Both molecules must share a canonical key."""
    if canonical_key(src) != canonical_key(dst):
        raise ValueError("molecules are not the same structure")
    rank = canonical_ranks(src)[index]
    return canonical_ranks(dst).index(rank)


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
