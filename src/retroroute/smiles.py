"""SMILES molecular graphs: parsing, rooted writing, canonical ranks, isomorphism.

The dialect is the organic subset plus bracket atoms (isotope, charge,
explicit hydrogens, atom maps), ring closures including %nn, and the bond
symbols - = # : / \\. Aromaticity is taken as written (lowercase atoms),
never re-perceived, and nothing is kekulized, except that an aromatic bond
between two aromatic atoms that lies on no ring (the unwritten ring-to-ring
bond of c1ccccc1c1ccccc1) is read as single. Stereo marks are carried through
verbatim but take no part in ranking or isomorphism.

Key table: the module keeps one process-wide dict from the exact text of a
component that parse_smiles read to the CanonicalKey that canonical_key
computed for it. parse_smiles presets a molecule's key from it, and
smiles_keys answers from it without parsing, so a text repeated across plan
lines, rows or commands is keyed once per process. It holds key strings
only, never molecules; it grows by one entry per distinct component text the
process reads and keys, and is never cleared. Hand-built Molecules neither
read nor fill it. Each pool worker has its own copy.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from .errors import SmilesSyntaxError

# Single/double/triple/aromatic as strings keeps the graph readable in dumps;
# the code table below is used wherever a sortable form is needed.
SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
_BOND_CHAR = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC, "/": SINGLE, "\\": SINGLE}

# All 118 element symbols; membership check only, no other periodic data needed.
ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn "
    "Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La "
    "Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po "
    "At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg "
    "Cn Nh Fl Mc Lv Ts Og".split()
)

ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S", "Se", "As"})

# Smallest normal valence >= the bond sum decides the implicit hydrogen count
# of a bare organic-subset atom.
_NORMAL_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# (element, charge) -> allowed total valences, for the validity check that
# feeds the reward's invalid-reaction count. Combinations not listed are
# accepted rather than penalized.
_ALLOWED_VALENCES: dict[tuple[str, int], frozenset[int]] = {
    ("B", 0): frozenset({3}),
    ("B", -1): frozenset({4}),
    ("C", 0): frozenset({4}),
    ("C", 1): frozenset({3}),
    ("C", -1): frozenset({3}),
    ("N", 0): frozenset({3, 5}),
    ("N", 1): frozenset({4}),
    ("N", -1): frozenset({2}),
    ("O", 0): frozenset({2}),
    ("O", 1): frozenset({3}),
    ("O", -1): frozenset({1}),
    ("P", 0): frozenset({3, 5}),
    ("P", 1): frozenset({4}),
    ("S", 0): frozenset({2, 4, 6}),
    ("S", 1): frozenset({3, 5}),
    ("S", -1): frozenset({1}),
    ("F", 0): frozenset({1}),
    ("Cl", 0): frozenset({1}),
    ("Br", 0): frozenset({1}),
    ("I", 0): frozenset({1}),
    ("F", -1): frozenset({0}),
    ("Cl", -1): frozenset({0}),
    ("Br", -1): frozenset({0}),
    ("I", -1): frozenset({0}),
    ("Si", 0): frozenset({4}),
    ("Se", 0): frozenset({2, 4, 6}),
    ("As", 0): frozenset({3, 5}),
    ("H", 0): frozenset({1}),
}


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_hydrogens: int | None = None
    isotope: int | None = None
    map_number: int | None = None
    chirality: str | None = None


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str
    direction: str | None = None

    def other(self, i: int) -> int:
        return self.b if i == self.a else self.a


@dataclass(eq=False)
class Molecule:
    """One connected molecular graph. Atom order follows the source token order."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source_text: str = ""
    _adjacency: tuple[tuple[Bond, ...], ...] | None = field(
        default=None, repr=False, compare=False
    )
    _ranks: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    _key: "CanonicalKey | None" = field(default=None, repr=False, compare=False)
    # Set by parse_smiles only: the key of source_text may enter the key table.
    _from_text: bool = field(default=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def adjacency(self) -> tuple[tuple[Bond, ...], ...]:
        if self._adjacency is None:
            adj: list[list[Bond]] = [[] for _ in self.atoms]
            for bond in self.bonds:
                adj[bond.a].append(bond)
                adj[bond.b].append(bond)
            self._adjacency = tuple(tuple(row) for row in adj)
        return self._adjacency

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def implicit_hydrogens(self, i: int) -> int:
        """Hydrogen count a bare rendering of atom i would imply."""
        atom = self.atoms[i]
        sigma = 0
        for bond in self.adjacency[i]:
            sigma += 1 if bond.order == AROMATIC else BOND_CODE[bond.order]
        if atom.aromatic:
            # One ring bond's worth of valence is absorbed by the pi system
            # for carbon and boron; bare aromatic heteroatoms carry no H.
            if atom.element in ("C", "B"):
                return max(0, 3 - sigma)
            return 0
        for valence in _NORMAL_VALENCES.get(atom.element, ()):
            if valence >= sigma:
                return valence - sigma
        return 0

    def effective_hydrogens(self, i: int) -> int:
        atom = self.atoms[i]
        if atom.explicit_hydrogens is not None:
            return atom.explicit_hydrogens
        return self.implicit_hydrogens(i)

    def heavy_atom_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.atoms) if a.element != "H"]


@dataclass(frozen=True)
class CanonicalKey:
    """Identifier equal between two molecules iff they are graph-isomorphic."""

    key: str

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return self.key


# Exact component text -> key; see the module docstring.
_KEYS: dict[str, CanonicalKey] = {}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_BRACKET_RE = re.compile(
    r"(?P<isotope>\d+)?"
    r"(?P<symbol>[A-Z][a-z]?|[a-z][a-z]?)"
    r"(?P<chirality>@@|@)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>\+\d+|-\d+|\++|-+)?"
    r"(?::(?P<map>\d+))?$"
)


def _parse_bracket(body: str, position: int) -> Atom:
    match = _BRACKET_RE.match(body)
    if not match:
        raise SmilesSyntaxError(f"bad bracket atom [{body}] at position {position}")
    symbol = match.group("symbol")
    aromatic = symbol[0].islower()
    element = symbol.capitalize() if aromatic else symbol
    if element not in ELEMENTS:
        raise SmilesSyntaxError(f"unknown element {symbol!r} at position {position}")
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise SmilesSyntaxError(f"{element} cannot be aromatic (position {position})")
    hcount = match.group("hcount")
    hydrogens = 0 if hcount is None else (1 if hcount == "H" else int(hcount[1:]))
    charge_text = match.group("charge")
    if charge_text is None:
        charge = 0
    elif len(charge_text) > 1 and charge_text[1].isdigit():
        charge = int(charge_text)  # "+2" / "-3"
    else:
        charge = len(charge_text) * (1 if charge_text[0] == "+" else -1)  # "+" / "--"
    isotope = match.group("isotope")
    map_text = match.group("map")
    map_number = int(map_text) if map_text else None
    if map_number == 0:
        map_number = None
    return Atom(
        element=element,
        aromatic=aromatic,
        charge=charge,
        explicit_hydrogens=hydrogens,
        isotope=int(isotope) if isotope else None,
        map_number=map_number,
        chirality=match.group("chirality"),
    )


def parse_smiles(text: str) -> list[Molecule]:
    """Parse SMILES into one Molecule per '.'-separated component.

    Raises SmilesSyntaxError on unbalanced ring closures or branches, bad
    brackets, unknown elements, and wildcard atoms.
    """
    if not text:
        raise SmilesSyntaxError("empty SMILES")
    molecules: list[Molecule] = []

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    aromatic_chain: list[int] = []  # aromatic chain bonds between aromatic atoms
    closures: list[int] = []  # ring-closure bonds
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, str | None]] = {}
    previous: int | None = None
    pending_bond: str | None = None
    component_start = 0

    def make_bond(i: int, j: int, symbol: str | None) -> Bond:
        if symbol is None:
            return Bond(i, j, AROMATIC if atoms[i].aromatic and atoms[j].aromatic else SINGLE)
        return Bond(i, j, _BOND_CHAR[symbol], symbol if symbol in "/\\" else None)

    def close_component(end: int) -> None:
        nonlocal atoms, bonds, aromatic_chain, closures, previous
        if branch_stack:
            raise SmilesSyntaxError("unclosed branch")
        if open_rings:
            raise SmilesSyntaxError(f"unclosed ring closure(s): {sorted(open_rings)}")
        if pending_bond is not None:
            raise SmilesSyntaxError("dangling bond symbol")
        if not atoms:
            raise SmilesSyntaxError("empty component")
        if aromatic_chain:
            _demote_aromatic_bridges(len(atoms), bonds, aromatic_chain, closures)
        source = text[component_start:end]
        molecules.append(
            Molecule(tuple(atoms), tuple(bonds), source, _key=_KEYS.get(source), _from_text=True)
        )
        atoms, bonds, aromatic_chain, closures = [], [], [], []
        previous = None

    def add_atom(atom: Atom) -> None:
        nonlocal previous, pending_bond
        atoms.append(atom)
        index = len(atoms) - 1
        if previous is not None:
            bond = make_bond(previous, index, pending_bond)
            if bond.order == AROMATIC and atoms[previous].aromatic and atom.aromatic:
                aromatic_chain.append(len(bonds))
            bonds.append(bond)
        elif pending_bond is not None:
            raise SmilesSyntaxError("bond symbol before first atom of a component")
        pending_bond = None
        previous = index

    def ring_closure(number: int, position: int) -> None:
        nonlocal pending_bond
        if previous is None:
            raise SmilesSyntaxError(f"ring closure before any atom at position {position}")
        if number in open_rings:
            other, sym_open = open_rings.pop(number)
            sym_close = pending_bond
            if sym_open is not None and sym_close is not None and sym_open != sym_close:
                raise SmilesSyntaxError(
                    f"conflicting bond symbols on ring closure {number}"
                )
            symbol = sym_close if sym_close is not None else sym_open
            if other == previous:
                raise SmilesSyntaxError(f"ring closure {number} bonds an atom to itself")
            if any({b.a, b.b} == {other, previous} for b in bonds):
                raise SmilesSyntaxError(f"duplicate bond via ring closure {number}")
            closures.append(len(bonds))
            bonds.append(make_bond(other, previous, symbol))
        else:
            open_rings[number] = (previous, pending_bond)
        pending_bond = None

    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "*":
            raise SmilesSyntaxError(f"wildcard atom at position {i} is not supported")
        if ch == ".":
            close_component(i)
            component_start = i + 1
            i += 1
            continue
        if ch == "(":
            if previous is None:
                raise SmilesSyntaxError(f"branch before any atom at position {i}")
            branch_stack.append(previous)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError(f"unmatched ')' at position {i}")
            if pending_bond is not None:
                raise SmilesSyntaxError(f"dangling bond symbol before ')' at position {i}")
            previous = branch_stack.pop()
            i += 1
            continue
        if ch in _BOND_CHAR:
            if pending_bond is not None:
                raise SmilesSyntaxError(f"doubled bond symbol at position {i}")
            pending_bond = ch
            i += 1
            continue
        if ch.isdigit():
            ring_closure(int(ch), i)
            i += 1
            continue
        if ch == "%":
            if i + 2 >= length + 1 or not text[i + 1 : i + 3].isdigit():
                raise SmilesSyntaxError(f"bad %nn ring closure at position {i}")
            ring_closure(int(text[i + 1 : i + 3]), i)
            i += 3
            continue
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(f"unterminated bracket at position {i}")
            add_atom(_parse_bracket(text[i + 1 : end], i))
            i = end + 1
            continue
        # Bare organic-subset atom; try the two-character symbols first.
        two = text[i : i + 2]
        if two in ("Cl", "Br"):
            add_atom(Atom(element=two))
            i += 2
            continue
        if ch in "BCNOPSFI":
            add_atom(Atom(element=ch))
            i += 1
            continue
        if ch in "bcnops":
            add_atom(Atom(element=ch.upper(), aromatic=True))
            i += 1
            continue
        raise SmilesSyntaxError(f"unexpected character {ch!r} at position {i}")

    close_component(length)
    return molecules


def _demote_aromatic_bridges(
    n: int, bonds: list[Bond], candidates: list[int], closures: list[int]
) -> None:
    """Make each candidate chain bond that lies on no ring single, in place.

    The chain bonds (all but the ring closures) form a spanning tree whose
    atoms are numbered in preorder, so the subtree under atom x is the index
    range [x, end[x]). The chain bond into x lies on a ring exactly when some
    ring-closure bond has one end inside that range and one outside: linear
    time, one pass from the last atom back to the first.
    """
    parent = [0] * n
    closure_set = set(closures)
    for k, bond in enumerate(bonds):
        if k not in closure_set:
            parent[bond.b] = bond.a
    low, high, end = list(range(n)), list(range(n)), list(range(1, n + 1))
    for k in closures:
        a, b = bonds[k].a, bonds[k].b
        low[a], high[a] = min(low[a], b), max(high[a], b)
        low[b], high[b] = min(low[b], a), max(high[b], a)
    for x in range(n - 1, 0, -1):
        p = parent[x]
        low[p], high[p], end[p] = min(low[p], low[x]), max(high[p], high[x]), max(end[p], end[x])
    for k in candidates:
        x = bonds[k].b
        if low[x] >= x and high[x] < end[x]:
            bonds[k] = Bond(bonds[k].a, x, SINGLE)


# ---------------------------------------------------------------------------
# Canonical ranking
# ---------------------------------------------------------------------------


def _dense_rank(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(m: Molecule, colors: list[int]) -> list[int]:
    adjacency = m.adjacency
    n_colors = len(set(colors))
    while True:
        signatures = [
            (
                colors[i],
                tuple(
                    sorted(
                        (BOND_CODE[bond.order], colors[bond.other(i)])
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


def canonical_ranks(m: Molecule) -> list[int]:
    """Deterministic atom ranks, 0..n-1, stable across equivalent input orderings.

    Iterative invariant refinement seeded by (element, charge, isotope,
    aromatic flag, degree, hydrogen count); remaining ties are broken by
    promoting the smallest input index and re-refining. Map numbers and
    stereo marks play no part.
    """
    if m._ranks is not None:
        return list(m._ranks)
    if not m.atoms:
        raise ValueError("cannot rank an empty molecule")
    seeds = [
        (
            atom.element,
            atom.charge,
            atom.isotope or 0,
            atom.aromatic,
            m.degree(i),
            m.effective_hydrogens(i),
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
    m._ranks = tuple(colors)
    return list(colors)


# ---------------------------------------------------------------------------
# Rooted writing
# ---------------------------------------------------------------------------


def _atom_token(m: Molecule, i: int, include_maps: bool, include_stereo: bool) -> str:
    atom = m.atoms[i]
    effective = m.effective_hydrogens(i)
    bare_allowed = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and (atom.map_number is None or not include_maps)
        and (atom.chirality is None or not include_stereo)
        and (not atom.aromatic or atom.element in ("B", "C", "N", "O", "P", "S"))
        and effective == m.implicit_hydrogens(i)
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
    adjacency = m.adjacency
    ordered_bonds = [
        sorted(adjacency[i], key=lambda bond: ranks[bond.other(i)]) for i in range(n)
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
            other = bond.other(current)
            if not visited[other]:
                used[k] = True
                visited[other] = True
                position[other] = len(atom_order)
                atom_order.append(other)
                tree_children[current].append(bond)
                stack[-1] = (current, cursor)
                stack.append((other, 0))
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

    pieces: list[str] = []

    def emit(atom: int) -> None:
        pieces.append(_atom_token(m, atom, include_maps, include_stereo))
        for digit, bond in sorted(ring_digits[atom]):
            late_end = bond.a if position[bond.a] > position[bond.b] else bond.b
            if atom == late_end:
                pieces.append(_bond_token(m, bond, include_stereo))
            pieces.append(_digit_token(digit))
        children = tree_children[atom]
        for bond in children[:-1]:
            pieces.append("(")
            pieces.append(_bond_token(m, bond, include_stereo))
            emit(bond.other(atom))
            pieces.append(")")
        if children:
            bond = children[-1]
            pieces.append(_bond_token(m, bond, include_stereo))
            emit(bond.other(atom))

    if n + 10 > sys.getrecursionlimit():
        sys.setrecursionlimit(n * 2 + 100)
    emit(root)
    return "".join(pieces), atom_order


def canonical_key(m: Molecule) -> CanonicalKey:
    """Canonical identifier: rooted rendering at the rank-0 atom, map numbers
    and stereo marks stripped."""
    if m._key is None:
        ranks = canonical_ranks(m)
        root = ranks.index(0)
        text, _ = write_rooted(m, root, include_maps=False, include_stereo=False)
        m._key = CanonicalKey(text)
        if m._from_text:
            _KEYS[m.source_text] = m._key
    return m._key


def smiles_keys(text: str) -> list[CanonicalKey]:
    """Canonical key of each '.'-separated component of text, in order: from
    the key table when every component is in it, else parsed (and raising) as
    by parse_smiles."""
    keys = [_KEYS.get(part) for part in text.split(".")]
    if None in keys:
        keys = [canonical_key(m) for m in parse_smiles(text)]
    return keys


def corresponding_atom(src: Molecule, index: int, dst: Molecule) -> int:
    """Map an atom of `src` to the atom of `dst` holding the same canonical
    rank. Both molecules must share a canonical key."""
    if canonical_key(src) != canonical_key(dst):
        raise ValueError("molecules are not the same structure")
    rank = canonical_ranks(src)[index]
    return canonical_ranks(dst).index(rank)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


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


def molecule_is_valid(m: Molecule) -> bool:
    """Standard-valence check used for the invalid-reaction count.

    Aromatic atoms receive a pi-bond contribution (carbon always one;
    nitrogen/phosphorus/arsenic one when two-coordinate, pyridine style).
    Element/charge combinations outside the tables pass by default.
    """
    for i, atom in enumerate(m.atoms):
        allowed = _ALLOWED_VALENCES.get((atom.element, atom.charge))
        if allowed is None:
            continue
        sigma = 0
        for bond in m.adjacency[i]:
            sigma += 1 if bond.order == AROMATIC else BOND_CODE[bond.order]
        hydrogens = m.effective_hydrogens(i)
        pi = 0
        if atom.aromatic:
            if atom.element == "C":
                pi = 1
            elif atom.element in ("N", "P", "As") and m.degree(i) + hydrogens == 2:
                pi = 1
        if sigma + hydrogens + pi not in allowed:
            return False
    return True
