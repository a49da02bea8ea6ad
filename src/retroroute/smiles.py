"""SMILES molecular graphs: parsing, rooted writing, canonical ranks and keys.

The dialect is the organic subset plus bracket atoms (isotope, charge,
explicit hydrogens, atom maps), ring closures including %nn, and %(n) past
99, and the bond symbols - = # : / \\. Aromaticity is taken as written
(lowercase atoms), never re-perceived, and nothing is kekulized, except that
an aromatic bond between two aromatic atoms that lies on no ring (the
unwritten ring-to-ring bond of c1ccccc1c1ccccc1) is read as single. Stereo
marks are carried through verbatim but take no part in ranking or keys. Only
0-9 are digits: in ring closures, %nn, %(n), isotopes, hydrogen counts,
charges and map numbers. A number with more digits than int() will read is a
syntax error.

Key table: the module keeps one process-wide dict from the exact text of a
component that parse_smiles read to the CanonicalKey that canonical_key
computed for it. parse_smiles presets a molecule's key from it, and
smiles_keys answers from it without parsing, so a text repeated across plan
lines, rows or commands is keyed once per process. It holds key strings
only, never molecules; it grows by one entry per distinct component text the
process reads and keys, and is never cleared. Hand-built Molecules neither
read nor fill it. Each pool worker has its own copy.

Atom table: a process-wide dict from each atom token as written, a bare
symbol (C, c, Cl, ...) or a whole bracket token ([CH3:1]), to its frozen Atom,
shared by every molecule. It starts with the bare symbols and gains each
bracket token that parses, so each is matched once per process; whoever
clears it must re-enter the bare symbols.

Kind table: a process-wide dict from an atom's kind, its (element, aromatic
flag, charge, isotope as written), to one _Kind holding every fact those
fields decide: a code (its index of first use), the rank seed, the implicit
hydrogens for each bond sum, the valence rule and the written forms. Map
numbers, chirality and pinned hydrogens are per atom, so [CH3:1] and
[CH3:2] are two tokens of one kind. A Molecule, parsed or hand-built, looks
its atoms' kinds up when it is built, and sets each atom's degree, bond sum
and hydrogen counts then. The table is never cleared, so codes stay unique;
a pickled kind is looked up again by its fields where it is loaded.

Bond orders are the integers SINGLE, DOUBLE, TRIPLE and AROMATIC (1-4), the
codes that ranks, shapes and bond sums compute with. Shared bonds:
_shared_bond is functools.cache(Bond), so parse_smiles gives every bond with
the same (a, b, order, direction) one frozen Bond and allocates no Bond it
has built before. Its cache grows by one entry per distinct tuple the
process parses (bounded by the atom index pairs its texts bond, a few
thousand for a reward round) and is never cleared. Bonds are equal by value
whether shared or built by hand; Bond._replace on one builds a new Bond.
Each pool worker has its own copy.

Shape table: a process-wide dict from the shape of a molecule's
rank-labelled graph to its CanonicalKey, so canonical_key writes a molecule
only the first time its shape is seen. A shape is one string holding the
atom count; per atom, in rank order, its kind's code and effective hydrogen
count; and the sorted (lower rank, higher rank, bond order) triples. With
stereo off, the key's root (rank 0), each atom's neighbour order (by rank),
the ring digits and the tokens read these fields and nothing else (implicit
hydrogens follow from them and the bonds), so equal shapes give byte-equal
keys for graphs that bond no pair of atoms twice, as parse_smiles
guarantees. Map numbers, chirality and bond directions are left out, as the
key never writes them, so [CH3:1]C and CC share one entry. Parsed and
hand-built molecules share the table; it grows by one entry per distinct
ranked graph the process keys and is never cleared. Each pool worker has its
own copy of every table.

Rooted writing: a RootedWriter builds the tables for one molecule, with or
without stereo marks, and keeps each root's text; write_rooted is a one-shot
writer. Neither writes map numbers. Writer state lives only as long as the
writer; nothing of it is kept on the Molecule or in the module.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import NamedTuple

from .errors import SmilesSyntaxError

# Bond orders, as the integer codes that ranks, shapes and bond sums use.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4
_BOND_CHAR = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC, "/": SINGLE, "\\": SINGLE}

# All 118 element symbols; membership check only, no other periodic data needed.
ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn "
    "Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La "
    "Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po "
    "At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg "
    "Cn Nh Fl Mc Lv Ts Og".split()
)

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

ORGANIC_SUBSET = frozenset(_NORMAL_VALENCES)
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S", "Se", "As"})
# The elements written bare in lowercase when aromatic.
_BARE_AROMATIC = frozenset("BCNOPS")

# (element, charge) -> allowed total valences, for the validity check that
# feeds the reward's invalid-reaction count: a neutral organic-subset atom's
# normal valences, and the charged states and other elements listed below.
# Combinations not listed are accepted rather than penalized.
_ALLOWED_VALENCES: dict[tuple[str, int], tuple[int, ...]] = {
    **{(element, 0): valences for element, valences in _NORMAL_VALENCES.items()},
    ("B", -1): (4,),
    ("C", 1): (3,),
    ("C", -1): (3,),
    ("N", 1): (4,),
    ("N", -1): (2,),
    ("O", 1): (3,),
    ("O", -1): (1,),
    ("P", 1): (4,),
    ("S", 1): (3, 5),
    ("S", -1): (1,),
    ("F", -1): (0,),
    ("Cl", -1): (0,),
    ("Br", -1): (0,),
    ("I", -1): (0,),
    ("Si", 0): (4,),
    ("Se", 0): (2, 4, 6),
    ("As", 0): (3, 5),
    ("H", 0): (1,),
}


class Atom(NamedTuple):
    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_hydrogens: int | None = None
    isotope: int | None = None
    map_number: int | None = None
    chirality: str | None = None


class _Kind:
    """Every fact an atom's (element, aromatic flag, charge, isotope) decides;
    one object per kind in the kind table, see the module docstring."""

    __slots__ = ("fields", "code", "seed", "implicit", "allowed", "pi", "bare", "head", "tail")

    def __init__(self, fields: tuple[str, bool, int, int | None], code: int) -> None:
        element, aromatic, charge, isotope = self.fields = fields
        self.code = code
        self.seed = (element, charge, isotope or 0, aromatic)
        # The hydrogens a bare rendering implies at each bond sum 0-7 (none
        # past 7). The pi system takes one bond of an aromatic C's or B's
        # valence; other aromatic atoms carry none.
        aromatic_valences = (3,) if element in ("C", "B") else ()
        valences = aromatic_valences if aromatic else _NORMAL_VALENCES.get(element, ())
        self.implicit = tuple(next((v - s for v in valences if v >= s), 0) for s in range(8))
        self.allowed = _ALLOWED_VALENCES.get((element, charge))
        # molecule_is_valid's aromatic pi rule: "bonds" for C; for N, P and As
        # the degree plus hydrogens that gives a pi unit; -1, which none has,
        # for the rest.
        rules = {"C": "bonds", "N": 2 + charge, "P": 2 + charge, "As": 2 + charge}
        self.pi = rules.get(element, -1) if aromatic else -1
        # Bare exactly when the parser reads the bare symbol back as this kind.
        symbol = element.lower() if aromatic else element
        self.bare = _ATOMS.get(symbol) == Atom(element, aromatic, charge, None, isotope) and symbol
        self.head = "[" + symbol if isotope is None else f"[{isotope}{symbol}"
        self.tail = {0: "", 1: "+", -1: "-"}.get(charge, f"{charge:+}") + "]"

    def __reduce__(self):
        # Codes are per process: a copy finds its kind again by its fields.
        return _kind, (self.fields,)


class _KindTable(dict):
    """(element, aromatic, charge, isotope) -> _Kind, made at first lookup."""

    def __missing__(self, fields: tuple[str, bool, int, int | None]) -> _Kind:
        kind = self[fields] = _Kind(fields, len(self))
        return kind


_KINDS = _KindTable()
# An Atom's (element, aromatic, charge, isotope), as one tuple.
_KIND_FIELDS = operator.itemgetter(0, 1, 2, 4)


def _kind(fields: tuple[str, bool, int, int | None]) -> _Kind:
    """This process's kind of fields: what a pickled _Kind loads as."""
    return _KINDS[fields]


class Bond(NamedTuple):
    a: int
    b: int
    order: int
    direction: str | None = None


# The shared Bond parse_smiles gives each (a, b, order, direction); see the
# module docstring.
_shared_bond = functools.cache(Bond)


class Molecule:
    """One connected molecular graph. Atom order follows the source token order.
    Each atom's kind, degree, bond sum and hydrogen counts are set once, when
    it is built.
    Equal only to itself. `_from_text` is set by parse_smiles only: the key of
    source_text may enter the key table."""

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        source_text: str = "",
        _key: CanonicalKey | None = None,
        _from_text: bool = False,
    ) -> None:
        self.atoms = atoms
        self.bonds = bonds
        self.source_text = source_text
        self._ranks: tuple[int, ...] | None = None
        self._key = _key
        self._from_text = _from_text
        degrees = [0] * len(atoms)
        sums = [0] * len(atoms)
        for a, b, order, _ in bonds:
            share = 1 if order == AROMATIC else order
            degrees[a] += 1
            degrees[b] += 1
            sums[a] += share
            sums[b] += share
        self._degrees = tuple(degrees)
        self._bond_sums = tuple(sums)
        self._kinds = kinds = tuple(map(_KINDS.__getitem__, map(_KIND_FIELDS, atoms)))
        self._implicit = tuple([k.implicit[s if s < 8 else 7] for k, s in zip(kinds, sums)])
        pinned = [a.explicit_hydrogens for a in atoms]
        self._effective = tuple([h if p is None else p for p, h in zip(pinned, self._implicit)])

    def heavy_atom_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.atoms) if a.element != "H"]


class CanonicalKey(NamedTuple):
    """Identifier equal between two molecules iff they are graph-isomorphic.
    A named tuple, so dicts and sets of keys hash and compare it in C."""

    key: str


# Exact component text -> key; see the module docstring.
_KEYS: dict[str, CanonicalKey] = {}

# Rank-labelled graph shape -> key; see the module docstring.
_SHAPES: dict[str, CanonicalKey] = {}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Only ASCII digits are SMILES digits: \d and str.isdigit also take other
# Unicode digits, which int() reads or rejects.
_DIGITS = frozenset("0123456789")
_BRACKET_RE = re.compile(
    r"(?P<isotope>[0-9]+)?"
    r"(?P<symbol>[A-Z][a-z]?|[a-z][a-z]?)"
    r"(?P<chirality>@@|@)?"
    r"(?P<hcount>H[0-9]*)?"
    r"(?P<charge>\+[0-9]+|-[0-9]+|\++|-+)?"
    r"(?::(?P<map>[0-9]+))?"
)
# A ring closure number past 9: %nn, or %(n) with any number of digits.
_RING_RE = re.compile(r"%(?:([0-9]{2})|\(([0-9]+)\))")


# Atom token as written -> its shared Atom; see the module docstring.
_ATOMS: dict[str, Atom] = {symbol: Atom(symbol) for symbol in ORGANIC_SUBSET} | {
    symbol.lower(): Atom(symbol, aromatic=True) for symbol in _BARE_AROMATIC
}


def _parse_bracket(token: str, position: int) -> Atom:
    """The Atom of a bracket token the atom table lacks, entered there."""
    match = _BRACKET_RE.fullmatch(token, 1, len(token) - 1)
    if not match:
        raise SmilesSyntaxError(f"bad bracket atom {token} at position {position}")
    isotope, symbol, chirality, hcount, charge_text, map_text = match.groups()
    aromatic = symbol[0].islower()
    element = symbol.capitalize() if aromatic else symbol
    if element not in ELEMENTS:
        raise SmilesSyntaxError(f"unknown element {symbol!r} at position {position}")
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise SmilesSyntaxError(f"{element} cannot be aromatic (position {position})")
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        hydrogens = 0 if hcount is None else (1 if hcount == "H" else int(hcount[1:]))
        if charge_text is None:
            charge = 0
        elif len(charge_text) > 1 and charge_text[1].isdigit():
            charge = int(charge_text)  # "+2" / "-3"
        else:
            charge = len(charge_text) * (1 if charge_text[0] == "+" else -1)  # "+" / "--"
        isotope_number = int(isotope) if isotope else None
        map_number = int(map_text) if map_text else None
    except ValueError:
        raise SmilesSyntaxError(f"bracket atom number too long at position {position}") from None
    atom = _ATOMS[token] = Atom(
        element=element,
        aromatic=aromatic,
        charge=charge,
        explicit_hydrogens=hydrogens,
        isotope=isotope_number,
        map_number=map_number or None,  # :0 is no map number
        chirality=chirality,
    )
    return atom


def parse_smiles(text: str) -> list[Molecule]:
    """Parse SMILES into one Molecule per '.'-separated component.

    Raises SmilesSyntaxError on unbalanced ring closures or branches, bad
    brackets, unknown elements, and wildcard atoms.
    """
    if not text:
        raise SmilesSyntaxError("empty SMILES")
    molecules: list[Molecule] = []
    end = -1  # where the last component read ended
    while end < len(text):
        molecule, end = _parse_component(text, end + 1)
        molecules.append(molecule)
    return molecules


def _bond(aromatic: list[bool], i: int, j: int, symbol: str | None) -> Bond:
    """The shared Bond from atom i to atom j written with symbol (None when
    no bond symbol was written), given each atom's aromatic flag."""
    if symbol is None:
        return _shared_bond(i, j, AROMATIC if aromatic[i] and aromatic[j] else SINGLE, None)
    return _shared_bond(i, j, _BOND_CHAR[symbol], symbol if symbol in "/\\" else None)


def _parse_component(text: str, start: int) -> tuple[Molecule, int]:
    """The Molecule of the component of text that begins at start, and where
    it ends: at the next '.' outside a bracket, or at len(text). Error
    positions count from the beginning of text."""
    atoms: list[Atom] = []
    aromatic: list[bool] = []  # each atom's flag, read once
    bonds: list[Bond] = []
    aromatic_chain: list[int] = []  # aromatic chain bonds between aromatic atoms
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, str | None]] = {}
    parents: list[int | None] = []  # each atom's chain-bonded atom before it, if any
    closed: set[tuple[int, int]] = set()  # (lower, higher) atoms of each ring closure
    previous: int | None = None
    pending_bond: str | None = None
    i = start
    length = len(text)
    while i < length:
        ch = text[i]
        # Bare organic-subset atom; the two-character symbols start with B or C.
        atom = _ATOMS.get(ch)
        if atom is not None:
            two = text[i : i + 2]
            if two == "Cl" or two == "Br":
                atom = _ATOMS[two]
                i += 1
            i += 1
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(f"unterminated bracket at position {i}")
            token = text[i : end + 1]
            atom = _ATOMS.get(token) or _parse_bracket(token, i)
            i = end + 1
        elif ch in _DIGITS or ch == "%":
            if ch == "%":
                match = _RING_RE.match(text, i)
                if match is None:
                    raise SmilesSyntaxError(f"bad %nn ring closure at position {i}")
                try:  # int() refuses more digits than sys.get_int_max_str_digits()
                    number = int(match[1] or match[2])
                except ValueError:
                    message = f"ring closure number too long at position {i}"
                    raise SmilesSyntaxError(message) from None
                end = match.end()
            else:
                number, end = int(ch), i + 1
            if previous is None:
                raise SmilesSyntaxError(f"ring closure before any atom at position {i}")
            if number in open_rings:
                other, sym_open = open_rings.pop(number)
                sym_close = pending_bond
                if sym_open is not None and sym_close is not None and sym_open != sym_close:
                    raise SmilesSyntaxError(f"conflicting bond symbols on ring closure {number}")
                symbol = sym_close if sym_close is not None else sym_open
                if other == previous:
                    raise SmilesSyntaxError(f"ring closure {number} bonds an atom to itself")
                pair = (other, previous) if other < previous else (previous, other)
                if parents[pair[1]] == pair[0] or pair in closed:
                    raise SmilesSyntaxError(f"duplicate bond via ring closure {number}")
                closed.add(pair)
                bonds.append(_bond(aromatic, other, previous, symbol))
            else:
                open_rings[number] = (previous, pending_bond)
            pending_bond = None
            i = end
            continue
        elif ch == "(":
            if previous is None:
                raise SmilesSyntaxError(f"branch before any atom at position {i}")
            branch_stack.append(previous)
            i += 1
            continue
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError(f"unmatched ')' at position {i}")
            if pending_bond is not None:
                raise SmilesSyntaxError(f"dangling bond symbol before ')' at position {i}")
            previous = branch_stack.pop()
            i += 1
            continue
        elif ch in _BOND_CHAR:
            if pending_bond is not None:
                raise SmilesSyntaxError(f"doubled bond symbol at position {i}")
            pending_bond = ch
            i += 1
            continue
        elif ch == ".":
            break
        elif ch == "*":
            raise SmilesSyntaxError(f"wildcard atom at position {i} is not supported")
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r} at position {i}")
        # The atom read above, and its chain bond.
        index = len(atoms)
        atoms.append(atom)
        aromatic.append(atom.aromatic)
        parents.append(previous)
        if previous is not None:
            bond = _bond(aromatic, previous, index, pending_bond)
            if bond.order == AROMATIC and aromatic[previous] and aromatic[index]:
                aromatic_chain.append(len(bonds))
            bonds.append(bond)
        elif pending_bond is not None:
            raise SmilesSyntaxError("bond symbol before first atom of a component")
        pending_bond = None
        previous = index

    if branch_stack:
        raise SmilesSyntaxError("unclosed branch")
    if open_rings:
        raise SmilesSyntaxError(f"unclosed ring closure(s): {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesSyntaxError("dangling bond symbol")
    if not atoms:
        raise SmilesSyntaxError("empty component")
    if aromatic_chain:
        _demote_aromatic_bridges(bonds, parents, aromatic_chain, closed)
    source = text[start:i]
    key = _KEYS.get(source)
    return Molecule(tuple(atoms), tuple(bonds), source, _key=key, _from_text=True), i


def _demote_aromatic_bridges(
    bonds: list[Bond], parents: list[int | None], candidates: list[int], closed: set[tuple[int, int]]
) -> None:
    """Make each candidate chain bond that lies on no ring single, in place.

    The chain bonds (parents[x] to x) form a spanning tree whose atoms are
    numbered in preorder, so the subtree under atom x is the index range
    [x, end[x]). The chain bond into x lies on a ring exactly when some
    ring-closure bond has one end inside that range and one outside: one
    pass from the last atom back to the first candidate's, with plain
    comparisons rather than a min/max call per atom. Without ring closures
    no range is crossed, so every candidate is demoted.
    """
    n = len(parents)
    low, high, end = list(range(n)), list(range(n)), list(range(1, n + 1))
    for a, b in closed:
        low[a], high[a] = min(low[a], b), max(high[a], b)
        low[b], high[b] = min(low[b], a), max(high[b], a)
    for x in range(n - 1, bonds[candidates[0]].b, -1):
        p = parents[x]
        if low[x] < low[p]:
            low[p] = low[x]
        if high[x] > high[p]:
            high[p] = high[x]
        if end[x] > end[p]:
            end[p] = end[x]
    for k in candidates:
        if low[x := bonds[k].b] >= x and high[x] < end[x]:
            bonds[k] = _shared_bond(bonds[k].a, bonds[k].b, SINGLE, None)


# ---------------------------------------------------------------------------
# Canonical ranking
# ---------------------------------------------------------------------------


def canonical_ranks(m: Molecule) -> tuple[int, ...]:
    """Deterministic atom ranks, 0..n-1, stable across equivalent input orderings.

    Iterative invariant refinement seeded by ((element, charge, isotope,
    aromatic flag), degree, hydrogen count). A cell's colour is its offset, the
    number of atoms in the cells before it. Each round signs only the atoms of
    the tied cells (of two or more atoms, listed in offset order) by their
    (bond code, neighbour colour) pairs packed as code * n + colour: one such
    integer at degree 1, the pair (low, high) at degree 2, the sorted tuple at
    any other degree, all of which order as the sorted tuples would. Each cell
    splits by its distinct signatures in sorted order, each piece in index
    order at its own offset. Once the round is over, only the atoms of pieces
    after a cell's first are relabelled. When a round splits nothing,
    remaining ties are broken by promoting the smallest input index of the
    first tied cell (its smallest colour) to a cell of its own ahead of the
    rest, and refinement resumes. Once no cell is tied, each offset is a rank.
    Map numbers and stereo marks play no part. The tuple is computed once per
    molecule and the same object is returned on every call.
    """
    if m._ranks is not None:
        return m._ranks
    if not m.atoms:
        raise ValueError("cannot rank an empty molecule")
    n = len(m.atoms)
    degrees = m._degrees
    # Every colour is below n, so code * n + colour sorts as (code, colour).
    # One pass over the bonds: a named tuple's fields are slower to read
    # than a plain object's, so each bond is read once.
    table: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, order, _ in m.bonds:
        code = order * n
        table[a].append((code, b))
        table[b].append((code, a))
    by_seed: dict[tuple, list[int]] = {}
    for i, seed in enumerate(zip([kind.seed for kind in m._kinds], degrees, m._effective)):
        by_seed.setdefault(seed, []).append(i)
    colour = [0] * n
    tied: list[tuple[int, list[int]]] = []  # (offset, atoms in index order)
    offset = 0
    for seed in sorted(by_seed):
        cell = by_seed[seed]
        for i in cell:
            colour[i] = offset
        if len(cell) > 1:
            tied.append((offset, cell))
        offset += len(cell)
    while tied:
        refined: list[tuple[int, list[int]]] = []
        moved: list[tuple[int, list[int]]] = []  # pieces to relabel after the round
        for offset, cell in tied:
            groups: dict[int | tuple[int, ...], list[int]] = {}
            if (degree := degrees[cell[0]]) == 1:
                for i in cell:
                    ((code, j),) = table[i]
                    groups.setdefault(code + colour[j], []).append(i)
            elif degree == 2:
                for i in cell:
                    (code, j), (other, k) = table[i]
                    x, y = code + colour[j], other + colour[k]
                    groups.setdefault((x, y) if x < y else (y, x), []).append(i)
            else:
                for i in cell:
                    signature = tuple(sorted([code + colour[j] for code, j in table[i]]))
                    groups.setdefault(signature, []).append(i)
            if len(groups) == 1:
                refined.append((offset, cell))
                continue
            pieces = [groups[signature] for signature in sorted(groups)]
            for piece in pieces:
                if len(piece) > 1:
                    refined.append((offset, piece))
                if piece is not pieces[0]:
                    moved.append((offset, piece))
                offset += len(piece)
        if not moved:  # promote the first atom of the first tied cell
            offset, cell = tied[0]
            moved.append((offset + 1, cell[1:]))
            refined[:1] = moved if len(cell) > 2 else []
        for offset, piece in moved:
            for i in piece:
                colour[i] = offset
        tied = refined
    m._ranks = tuple(colour)
    return m._ranks


# ---------------------------------------------------------------------------
# Rooted writing
# ---------------------------------------------------------------------------


def _atom_token(m: Molecule, i: int, include_stereo: bool) -> str:
    kind = m._kinds[i]
    effective = m._effective[i]
    chirality = m.atoms[i].chirality if include_stereo else None
    if kind.bare and chirality is None and effective == m._implicit[i]:
        return kind.bare
    hydrogens = "" if effective == 0 else "H" if effective == 1 else f"H{effective}"
    return f"{kind.head}{chirality or ''}{hydrogens}{kind.tail}"


def _bond_token(order: int, direction: str | None, aromatic_ends: bool, include_stereo: bool) -> str:
    """The token of a bond of `order` and `direction`; `aromatic_ends` says
    whether both its atoms are aromatic."""
    if include_stereo and direction and order == SINGLE:
        return direction
    return ("-", "=", "#", "")[order - 1] if aromatic_ends else ("", "=", "#", ":")[order - 1]


class RootedWriter:
    """Writes one molecule as SMILES from any root, with or without stereo
    marks, and never with map numbers.

    The tables are built once: each atom's token, and each atom's neighbours
    in ascending canonical-rank order as (rank, other, bond index, bond
    token), sorted as plain tuples since ranks are distinct. The
    text and atom order written from each root are kept, so asking for the
    same root again costs a lookup. Tables and texts live as long as the
    writer; nothing is stored on the Molecule beyond the canonical ranks that
    any writing computes.
    """

    def __init__(self, m: Molecule, *, include_stereo: bool = True):
        ranks = canonical_ranks(m)
        self._tokens = [_atom_token(m, i, include_stereo) for i in range(len(m.atoms))]
        neighbors: list[list[tuple[int, int, int, str]]] = [[] for _ in m.atoms]
        # Each field read once: a named tuple's fields are slow to read.
        aromatic = [atom.aromatic for atom in m.atoms]
        for k, (a, b, order, direction) in enumerate(m.bonds):
            token = _bond_token(order, direction, aromatic[a] and aromatic[b], include_stereo)
            neighbors[a].append((ranks[b], b, k, token))
            neighbors[b].append((ranks[a], a, k, token))
        for row in neighbors:
            row.sort()
        self._neighbors = neighbors
        self._n_bonds = len(m.bonds)
        self._written: dict[int, tuple[str, tuple[int, ...]]] = {}

    def write(self, root: int) -> tuple[str, list[int]]:
        """The text rooted at atom `root` and its emission order, as
        write_rooted returns them; the list is a fresh copy on every call."""
        written = self._written.get(root)
        if written is None:
            written = self._written[root] = self._write(root)
        return written[0], list(written[1])

    def _write(self, root: int) -> tuple[str, tuple[int, ...]]:
        tokens = self._tokens
        n = len(tokens)
        if not 0 <= root < n:
            raise IndexError(f"root {root} out of range for {n} atoms")
        neighbors = self._neighbors

        # One depth-first walk writes the text as it goes. Each atom adds its
        # token and then an empty ring-digit slot; a branch opens with "(" and
        # its bond token and closes with ")". slot[i] is the index in pieces
        # of atom i's slot, 0 while i is unreached; slots, like atoms, are
        # added in emission order. A frame on the stack is (atom, cursor in its
        # neighbour row, index of the piece that opened its latest branch).
        pieces = [tokens[root], ""]
        slot = [0] * n
        slot[root] = 1
        atom_order = [root]
        back_edges: list[tuple[int, int, str]] = []
        used = [False] * self._n_bonds
        stack = [(root, 0, 0)]
        while stack:
            current, cursor, opened = stack[-1]
            row = neighbors[current]
            while cursor < len(row):
                _, other, k, token = row[cursor]
                cursor += 1
                if used[k]:
                    continue
                used[k] = True
                if not slot[other]:
                    stack[-1] = (current, cursor, len(pieces))
                    pieces.append("(" + token)
                    pieces.append(tokens[other])
                    slot[other] = len(pieces)
                    pieces.append("")
                    atom_order.append(other)
                    stack.append((other, 0, 0))
                    break
                # A ring (back) edge is met first from its later end.
                back_edges.append((slot[other], slot[current], token))
            else:
                stack.pop()
                if opened:
                    # The last branch is written bare: drop its "(" and its
                    # ")", which is the last piece since nothing followed it.
                    pieces[opened] = pieces[opened][1:]
                    pieces.pop()
                if stack:
                    pieces.append(")")

        # Number ring closures by the emission position of their first mention
        # so digits appear in increasing order along the string; the later end
        # writes the bond token before the digit. Two atoms share at most one
        # bond, so the (earlier slot, later slot) pairs are distinct.
        back_edges.sort()
        for digit, (early, late, token) in enumerate(back_edges, start=1):
            digit_text = (
                str(digit) if digit <= 9 else f"%{digit}" if digit <= 99 else f"%({digit})"
            )
            pieces[early] += digit_text
            pieces[late] += token + digit_text
        return "".join(pieces), tuple(atom_order)


def write_rooted(m: Molecule, root: int, *, include_stereo: bool = True) -> tuple[str, list[int]]:
    """Write m as SMILES starting at atom `root`.

    Neighbors are visited in ascending canonical-rank order; ring-closure
    digits are assigned in discovery order starting at 1 and never reused.
    Returns the text and the emission order: atom_order[k] is the atom index
    whose token was written k-th (so atom_order[0] == root). A one-shot
    RootedWriter: to write one molecule from several roots, keep a writer.
    """
    return RootedWriter(m, include_stereo=include_stereo).write(root)


def _shape(m: Molecule, ranks: tuple[int, ...]) -> str:
    """Everything the key text of m reads, labelled by rank: the atom count,
    each atom's kind code and hydrogen count in rank order, then the sorted
    bonds as (lower rank * n + higher rank) * 4 + bond code; as the repr of
    that list of integers, which is compact and exact at any size."""
    n = len(ranks)
    values = [n] * (2 * n + 1)
    for rank, kind, hydrogens in zip(ranks, m._kinds, m._effective):
        values[2 * rank + 1] = kind.code
        values[2 * rank + 2] = hydrogens
    n4 = n * 4
    values += sorted(
        [
            x * n4 + y * 4 + order
            if (x := ranks[a]) < (y := ranks[b])
            else y * n4 + x * 4 + order
            for a, b, order, _ in m.bonds
        ]
    )
    return repr(values)


def canonical_key(m: Molecule) -> CanonicalKey:
    """Canonical identifier: rooted rendering at the rank-0 atom, without
    stereo marks. A molecule whose rank-labelled graph was keyed before in
    the process takes that key from the shape table unwritten."""
    if m._key is None:
        ranks = canonical_ranks(m)
        shape = _shape(m, ranks)
        key = _SHAPES.get(shape)
        if key is None:
            text, _ = write_rooted(m, ranks.index(0), include_stereo=False)
            key = _SHAPES[shape] = CanonicalKey(text)
        m._key = key
        if m._from_text:
            _KEYS[m.source_text] = key
    return m._key


def smiles_keys(text: str) -> list[CanonicalKey]:
    """Canonical key of each '.'-separated component of text, in order: from
    the key table when every component is in it, else parsed (and raising) as
    by parse_smiles."""
    keys = [_KEYS.get(part) for part in text.split(".")]
    if None in keys:
        keys = [canonical_key(m) for m in parse_smiles(text)]
    return keys


def molecule_is_valid(m: Molecule) -> bool:
    """Standard-valence check used for the invalid-reaction count.

    Aromatic atoms receive one pi-bond unit: carbon when none of its bonds is
    double or triple (the C of c=O has its pi bond outside the ring);
    nitrogen, phosphorus and arsenic when degree plus hydrogens is 2 plus the
    charge (pyridine n, pyridinium [nH+] and [n+]C style).
    Element/charge combinations outside the tables pass by default.
    """
    for kind, sigma, degree, hydrogens in zip(m._kinds, m._bond_sums, m._degrees, m._effective):
        allowed = kind.allowed
        if allowed is None:
            continue
        pi = sigma == degree if kind.pi == "bonds" else degree + hydrogens == kind.pi
        if sigma + hydrogens + pi not in allowed:
            return False
    return True
