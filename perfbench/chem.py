"""The benchmark's own molecule model: graphs, a SMILES writer and a SMILES
atom reader that counts molecular formulas.

Nothing here imports the program under test, so the inputs and the checks
built on it stay the same when the program's parser, ranks or writer change.
Molecules are kept distinct by molecular formula, so no canonical form is
needed: two texts name the same molecule of a workload exactly when their
formulas are equal.
"""

from __future__ import annotations

from collections import Counter

# Lowest normal valence of each organic-subset element.
VALENCE = {"B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2, "F": 1, "Cl": 1, "Br": 1, "I": 1}
# Higher normal valences, used only when reading texts written by others.
_MORE_VALENCES = {"N": (5,), "P": (5,), "S": (4, 6)}
AROMATIC = 4  # bond order code; 1, 2 and 3 are single, double and triple


class Mol:
    """A connected heavy-atom graph. Hydrogens are implicit and follow from
    the normal valence, so every generated molecule is valence-correct."""

    __slots__ = ("elements", "aromatic", "bonds", "nbrs")

    def __init__(self) -> None:
        self.elements: list[str] = []
        self.aromatic: list[bool] = []
        self.bonds: dict[frozenset, int] = {}
        self.nbrs: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.elements)

    def add_atom(self, element: str, aromatic: bool = False) -> int:
        self.elements.append(element)
        self.aromatic.append(aromatic)
        self.nbrs.append([])
        return len(self.elements) - 1

    def add_bond(self, a: int, b: int, order: int) -> None:
        if a == b or frozenset((a, b)) in self.bonds:
            raise ValueError(f"bad bond {a}-{b}")
        self.bonds[frozenset((a, b))] = order
        self.nbrs[a].append(b)
        self.nbrs[b].append(a)

    def order(self, a: int, b: int) -> int:
        return self.bonds[frozenset((a, b))]

    def hydrogens(self, i: int) -> int:
        used = sum(1 if self.order(i, j) == AROMATIC else self.order(i, j) for j in self.nbrs[i])
        if self.aromatic[i]:
            used += 1  # the atom's share of the pi system
        h = VALENCE[self.elements[i]] - used
        if h < 0:
            raise ValueError(f"atom {i} ({self.elements[i]}) is over its valence")
        return h

    def formula(self) -> str:
        counts = Counter(self.elements)
        counts["H"] += sum(self.hydrogens(i) for i in range(len(self)))
        return hill(counts)

    def merged(self, parts: list["Mol"]) -> tuple["Mol", list[int]]:
        """A copy of self with the atoms and bonds of `parts` appended.
        Returns the copy and each part's atom offset in it."""
        out = Mol()
        offsets = []
        for part in [self, *parts]:
            offset = len(out)
            offsets.append(offset)
            for element, aromatic in zip(part.elements, part.aromatic):
                out.add_atom(element, aromatic)
            for pair, order in part.bonds.items():
                a, b = sorted(pair)
                out.add_bond(a + offset, b + offset, order)
        return out, offsets[1:]


def hill(counts: Counter) -> str:
    """Hill-order formula text: C, then H, then the rest alphabetically."""
    keys = sorted(counts, key=lambda e: (e != "C", e != "H", e))
    return "".join(f"{e}{counts[e] if counts[e] != 1 else ''}" for e in keys if counts[e])


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write(
    mol: Mol,
    root: int,
    maps: dict[int, int] | None = None,
    shuffle=None,
    implicit_biaryl: bool = False,
) -> str:
    """SMILES of `mol` starting at atom `root`.

    `maps` gives atom map numbers (mapped atoms are written in brackets with
    their hydrogen count). `shuffle`, a random.Random, varies the neighbour
    order so one molecule gets many spellings. `implicit_biaryl` leaves out
    the '-' on single bonds between aromatic atoms, which spells the same
    molecule in a form SMILES readers must still take as a single bond.
    """
    order: list[int] = []
    position: dict[int, int] = {}
    children: dict[int, list[int]] = {i: [] for i in range(len(mol))}
    ring_bonds: set[frozenset] = set()

    def visit(i: int, parent: int | None) -> None:
        position[i] = len(order)
        order.append(i)
        neighbours = list(mol.nbrs[i])
        if shuffle is not None:
            shuffle.shuffle(neighbours)
        for j in neighbours:
            if j not in position:
                children[i].append(j)
                visit(j, i)
            elif j != parent:
                ring_bonds.add(frozenset((i, j)))

    visit(root, None)
    if len(order) != len(mol):
        raise ValueError("molecule is not connected")

    opens: dict[int, list[int]] = {i: [] for i in order}
    closes: dict[int, list[int]] = {i: [] for i in order}
    for pair in ring_bonds:
        a, b = sorted(pair, key=position.__getitem__)
        opens[a].append(b)
        closes[b].append(a)

    def bond_symbol(a: int, b: int) -> str:
        code = mol.order(a, b)
        if code == 1:
            both = mol.aromatic[a] and mol.aromatic[b]
            return "-" if both and not implicit_biaryl else ""
        return {2: "=", 3: "#", AROMATIC: ""}[code]

    def atom_token(i: int) -> str:
        element = mol.elements[i]
        symbol = element.lower() if mol.aromatic[i] else element
        if maps is None or i not in maps:
            return symbol
        h = mol.hydrogens(i)
        hydrogens = "" if h == 0 else ("H" if h == 1 else f"H{h}")
        return f"[{symbol}{hydrogens}:{maps[i]}]"

    pieces: list[str] = []
    free_digits: list[int] = []
    next_digit = [1]
    digit_of: dict[frozenset, int] = {}

    def digit_text(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    def emit(i: int) -> None:
        pieces.append(atom_token(i))
        for j in sorted(closes[i], key=position.__getitem__):
            d = digit_of.pop(frozenset((i, j)))
            pieces.append(bond_symbol(i, j) + digit_text(d))
            free_digits.append(d)
            free_digits.sort()
        for j in sorted(opens[i], key=position.__getitem__):
            if free_digits:
                d = free_digits.pop(0)
            else:
                d = next_digit[0]
                next_digit[0] += 1
            digit_of[frozenset((i, j))] = d
            pieces.append(digit_text(d))
        kids = children[i]
        for k, j in enumerate(kids):
            last = k == len(kids) - 1
            if not last:
                pieces.append("(")
            pieces.append(bond_symbol(i, j))
            emit(j)
            if not last:
                pieces.append(")")

    emit(root)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

_ORGANIC = ("Cl", "Br", "B", "C", "N", "O", "P", "S", "F", "I", "b", "c", "n", "o", "p", "s")
_BOND = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}


def read_atoms(text: str) -> list[tuple[str, bool, int, int]]:
    """(element, aromatic, heavy degree, hydrogen count) for each atom of a
    single-component SMILES, in text order. Implicit hydrogens follow the
    normal valences, with one valence unit taken by the pi system of an
    aromatic atom. Raises ValueError on text it cannot read."""
    atoms: list[list] = []  # element, aromatic, bracket hydrogens or None
    bond_sum: list[int] = []
    degree: list[int] = []
    stack: list[int] = []
    rings: dict[int, tuple[int, int | None]] = {}
    previous: int | None = None
    pending: int | None = None

    def bond(a: int, b: int, code: int | None) -> None:
        if code is None:
            code = AROMATIC if atoms[a][1] and atoms[b][1] else 1
        for end in (a, b):
            bond_sum[end] += 1 if code == AROMATIC else code
            degree[end] += 1

    def add(element: str, aromatic: bool, hydrogens: int | None) -> None:
        nonlocal previous, pending
        atoms.append([element, aromatic, hydrogens])
        bond_sum.append(0)
        degree.append(0)
        if previous is not None:
            bond(previous, len(atoms) - 1, pending)
        pending = None
        previous = len(atoms) - 1

    def ring(number: int) -> None:
        nonlocal pending
        if previous is None:
            raise ValueError("ring digit before any atom")
        if number in rings:
            other, code = rings.pop(number)
            bond(other, previous, pending if pending is not None else code)
        else:
            rings[number] = (previous, pending)
        pending = None

    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if previous is None:
                raise ValueError("branch before any atom")
            stack.append(previous)
            i += 1
        elif ch == ")":
            if not stack:
                raise ValueError("unmatched ')'")
            previous = stack.pop()
            i += 1
        elif ch in _BOND:
            pending = _BOND[ch]
            i += 1
        elif ch.isdigit():
            ring(int(ch))
            i += 1
        elif ch == "%":
            ring(int(text[i + 1 : i + 3]))
            i += 3
        elif ch == "[":
            end = text.index("]", i)
            body = text[i + 1 : end]
            k = 0
            while k < len(body) and body[k].isdigit():
                k += 1  # isotope
            symbol = body[k : k + 2] if body[k : k + 2] in ("Cl", "Br", "Se", "se") else body[k]
            k += len(symbol)
            while k < len(body) and body[k] == "@":
                k += 1
            hydrogens = 0
            if k < len(body) and body[k] == "H":
                k += 1
                start = k
                while k < len(body) and body[k].isdigit():
                    k += 1
                hydrogens = int(body[start:k]) if k > start else 1
            add(symbol.capitalize() if symbol.islower() else symbol, symbol.islower(), hydrogens)
            i = end + 1
        else:
            for symbol in _ORGANIC:
                if text.startswith(symbol, i):
                    break
            else:
                raise ValueError(f"unexpected {ch!r} at {i} in {text!r}")
            add(symbol.upper() if symbol.islower() else symbol, symbol.islower(), None)
            i += len(symbol)
    if stack or rings or not atoms:
        raise ValueError(f"incomplete SMILES {text!r}")

    out = []
    for (element, aromatic, bracket_h), used, deg in zip(atoms, bond_sum, degree):
        if bracket_h is None:
            used += 1 if aromatic else 0
            h = 0
            for valence in (VALENCE.get(element, 0), *_MORE_VALENCES.get(element, ())):
                if valence >= used:
                    h = valence - used
                    break
            if aromatic and element not in ("C", "B"):
                h = 0
            bracket_h = h
        out.append((element, aromatic, deg, bracket_h))
    return out


def formula(text: str) -> str:
    """Hill formula of a single-component SMILES."""
    counts: Counter = Counter()
    for element, _, _, hydrogens in read_atoms(text):
        counts[element] += 1
        counts["H"] += hydrogens
    return hill(counts)
