"""Golden nine-reaction route fixture (seven main-path steps plus a
two-step branch) with hand-checked atom maps.

The same route is kept in two renderings: the root-aligned one whose step
and precursor order the aligner must reproduce, and a conventional one used
as the divergence baseline. Atom maps are built from token-signature
matching where the product and precursor share a long literal backbone, and
spelled out by hand where a leaving group or functional-group swap would
confuse the matcher.
"""

from __future__ import annotations

import difflib

from generators import FixtureRecord, record_raw
from retroroute.routes import Reaction, Route, route_depth
from retroroute.smiles import Molecule, canonical_key, parse_smiles

TARGET = "CN1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(=N)O)n3)cc2)CC1"

# Aligned rendering, steps in emission order: (product, [precursors]).
ALIGNED_STEPS: list[tuple[str, list[str]]] = [
    (
        TARGET,
        [
            "N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1",
            "C(C)(=O)O[BH-](OC(C)=O)OC(C)=O",
        ],
    ),
    (
        "N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1",
        ["N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1"],
    ),
    (
        "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1",
        [
            "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(=O)OCC)n3)cc2)CC1",
            "n1nn(O)c2ccccc12",
        ],
    ),
    (
        "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(=O)OCC)n3)cc2)CC1",
        ["N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(C#Cc4nccnc4CC(=O)OCC)n3)cc2)CC1"],
    ),
    (
        "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(C#Cc4nccnc4CC(=O)OCC)n3)cc2)CC1",
        [
            "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(Cl)n3)cc2)CC1",
            "C#Cc1nccnc1CC(=O)OCC",
        ],
    ),
    (
        "N1(C(=O)OC(C)(C)C)CCC(c2ccc(Nc3ncc(C(F)(F)F)c(Cl)n3)cc2)CC1",
        ["N1(C(=O)OC(C)(C)C)CCC(c2ccc(N)cc2)CC1", "c1(Cl)ncc(C(F)(F)F)c(Cl)n1"],
    ),
    (
        "N1(C(=O)OC(C)(C)C)CCC(c2ccc(N)cc2)CC1",
        ["N1CCC(c2ccc([N+](=O)[O-])cc2)CC1", "C(=O)(OC(C)(C)C)OC(C)(C)C"],
    ),
    (
        "C#Cc1nccnc1CC(=O)OCC",
        ["C(#Cc1nccnc1CC(=O)OCC)[Si](C)(C)C"],
    ),
    (
        "C(#Cc1nccnc1CC(=O)OCC)[Si](C)(C)C",
        ["C(#C)[Si](C)(C)C", "c1(Cl)nccnc1CC(=O)OCC"],
    ),
]

# Conventional rendering of the same route (independent canonicalization),
# used as the divergence baseline and extra round-trip material.
CANONICAL_STEPS: list[tuple[str, list[str]]] = [
    (
        TARGET,
        [
            "NC(=O)Cc1nccnc1CCc1nc(Nc2ccc(C3CCNCC3)cc2)ncc1C(F)(F)F",
            "CC(=O)O[BH-](OC(C)=O)OC(C)=O",
        ],
    ),
    (
        "NC(=O)Cc1nccnc1CCc1nc(Nc2ccc(C3CCNCC3)cc2)ncc1C(F)(F)F",
        ["CC(C)(C)OC(=O)N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1"],
    ),
    (
        "CC(C)(C)OC(=O)N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(CCc4nccnc4CC(N)=O)n3)cc2)CC1",
        [
            "CCOC(=O)Cc1nccnc1CCc1nc(Nc2ccc(C3CCN(C(=O)OC(C)(C)C)CC3)cc2)ncc1C(F)(F)F",
            "On1nnc2ccccc21",
        ],
    ),
    (
        "CCOC(=O)Cc1nccnc1CCc1nc(Nc2ccc(C3CCN(C(=O)OC(C)(C)C)CC3)cc2)ncc1C(F)(F)F",
        ["CCOC(=O)Cc1nccnc1C#Cc1nc(Nc2ccc(C3CCN(C(=O)OC(C)(C)C)CC3)cc2)ncc1C(F)(F)F"],
    ),
    (
        "CCOC(=O)Cc1nccnc1C#Cc1nc(Nc2ccc(C3CCN(C(=O)OC(C)(C)C)CC3)cc2)ncc1C(F)(F)F",
        [
            "C#Cc1nccnc1CC(=O)OCC",
            "CC(C)(C)OC(=O)N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(Cl)n3)cc2)CC1",
        ],
    ),
    (
        "CC(C)(C)OC(=O)N1CCC(c2ccc(Nc3ncc(C(F)(F)F)c(Cl)n3)cc2)CC1",
        ["CC(C)(C)OC(=O)N1CCC(c2ccc(N)cc2)CC1", "FC(F)(F)c1cnc(Cl)nc1Cl"],
    ),
    (
        "CC(C)(C)OC(=O)N1CCC(c2ccc(N)cc2)CC1",
        ["CC(C)(C)OC(=O)OC(C)(C)C", "O=[N+]([O-])c1ccc(C2CCNCC2)cc1"],
    ),
    (
        "C#Cc1nccnc1CC(=O)OCC",
        ["CCOC(=O)Cc1nccnc1C#C[Si](C)(C)C"],
    ),
    (
        "CCOC(=O)Cc1nccnc1C#C[Si](C)(C)C",
        ["CCOC(=O)Cc1nccnc1Cl", "C#C[Si](C)(C)C"],
    ),
]


def all_box_smiles() -> list[str]:
    """Every distinct SMILES string appearing in either rendering."""
    seen: list[str] = []
    for steps in (ALIGNED_STEPS, CANONICAL_STEPS):
        for product, precursors in steps:
            for text in [product, *precursors]:
                if text not in seen:
                    seen.append(text)
    return seen


# Atom-map construction. Modes per precursor: "auto" matches the token
# signature streams, "none" leaves a reagent unmapped, a dict is an explicit
# precursor-atom -> product-atom table.
_MANUAL_DICHLOROPYRIMIDINE = {
    0: 16, 2: 17, 3: 18, 4: 19, 5: 20, 6: 21, 7: 22, 8: 23, 9: 24, 10: 25, 11: 26
}
_MANUAL_NITRO_PIPERIDINE = {
    0: 0, 1: 8, 2: 9, 3: 10, 4: 11, 5: 12, 6: 13, 7: 14, 8: 15,
    11: 16, 12: 17, 13: 18, 14: 19,
}
_MANUAL_BOC_ANHYDRIDE = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7}
# The silyl alkyne's C-C-Si-C-C-C token run coincidentally also occurs along
# the product's ethyl ester tail, so signature matching anchors it there;
# spell out the real correspondence instead.
_MANUAL_SILYL_ALKYNE = {0: 0, 1: 1, 2: 14, 3: 15, 4: 16, 5: 17}

_MAP_MODES: list[list[object]] = [
    ["auto", "none"],
    ["auto"],
    ["auto", "none"],
    ["auto"],
    ["auto", "auto"],
    ["auto", _MANUAL_DICHLOROPYRIMIDINE],
    [_MANUAL_NITRO_PIPERIDINE, _MANUAL_BOC_ANHYDRIDE],
    ["auto"],
    [_MANUAL_SILYL_ALKYNE, "auto"],
]


def _signature(molecule: Molecule) -> list[tuple[str, bool]]:
    return [(atom.element, atom.aromatic) for atom in molecule.atoms]


def auto_map(precursor: Molecule, product: Molecule) -> dict[int, int]:
    """Precursor-atom -> product-atom pairs from common token runs."""
    matcher = difflib.SequenceMatcher(
        a=_signature(precursor), b=_signature(product), autojunk=False
    )
    mapping: dict[int, int] = {}
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            mapping[block.a + offset] = block.b + offset
    return mapping


def _with_maps(molecule: Molecule, mapping: dict[int, int]) -> Molecule:
    atoms = tuple(
        atom._replace(map_number=mapping[i] + 1 if i in mapping else None)
        for i, atom in enumerate(molecule.atoms)
    )
    return Molecule(atoms, molecule.bonds, "")


def _parse_one(text: str) -> Molecule:
    molecules = parse_smiles(text)
    assert len(molecules) == 1, text
    return molecules[0]


def build_reactions() -> list[Reaction]:
    reactions: list[Reaction] = []
    for (product_text, precursor_texts), modes in zip(ALIGNED_STEPS, _MAP_MODES):
        product = _parse_one(product_text)
        mapped_product = _with_maps(product, {i: i for i in range(len(product.atoms))})
        precursors = []
        for text, mode in zip(precursor_texts, modes):
            precursor = _parse_one(text)
            if mode == "auto":
                mapping = auto_map(precursor, product)
            elif mode == "none":
                mapping = {}
            else:
                mapping = dict(mode)
            precursors.append(_with_maps(precursor, mapping))
        reactions.append(Reaction.from_molecules(mapped_product, tuple(precursors)))
    return reactions


def build_record(index: int = 0) -> FixtureRecord:
    target = _parse_one(TARGET)
    route = Route(target, tuple(build_reactions()))
    references = (frozenset(route.stock_refs),)
    return FixtureRecord(
        route=route,
        references=references,
        ref_depth=route_depth(route),
        index=index,
        raw=record_raw(route, references),
    )


def step_product_keys() -> list[str]:
    """Canonical product keys of the aligned steps, in box order."""
    return [canonical_key(_parse_one(product)).key for product, _ in ALIGNED_STEPS]


def step_precursor_keys() -> list[list[str]]:
    return [
        [canonical_key(_parse_one(text)).key for text in precursors]
        for _, precursors in ALIGNED_STEPS
    ]
