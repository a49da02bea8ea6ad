"""Seeded input files for the three workloads, with what the generator knows
about them (the truth the checks compare the program's outputs against).

Every molecule of a workload has its own molecular formula, so the truth
names molecules by formula. Only `chem` is used: the program under test is
never imported, so a change to its parser, ranks or writer cannot change the
inputs it is given.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from chem import AROMATIC, Mol, write

# Element draw weights for chain atoms of building blocks.
_CHAIN = ["C"] * 14 + ["N"] * 3 + ["O"] * 3 + ["S", "F", "Cl", "Br"]
# Syntactically bad precursor parts; each makes its line count as invalid.
BAD_PARTS = ("C1CC", "C(C", "CC)", "[Xx]")
THOUGHT = (
    "<think>\nWork back from the target: cut the bond formed last, then keep "
    "the fragment that carries the target root and expand it the same way.\n"
    "</think>\n"
)
# Seed of the fixed block of biaryl plans in `reward`. These rows do not depend
# on the workload seed, so the share of failed rows is the same in every run.
BIARYL_SEED = 0xB1A
BIARYL_TARGETS = 2
BIARYL_ROWS_PER_TARGET = 2


class Generator:
    """Molecules and routes for one workload. `used` holds every formula
    handed out so far, so no two distinct molecules share a formula."""

    def __init__(self, rng: random.Random, used: set[str] | None = None) -> None:
        self.rng = rng
        self.used = used if used is not None else set()

    # -- molecules ---------------------------------------------------------

    def _ring(self, mol: Mol, anchor: int | None) -> None:
        """Six-membered aromatic ring (benzene, or pyridine), joined to the
        non-aromatic atom `anchor` by a single bond."""
        rng = self.rng
        n_at = rng.randrange(1, 6) if rng.random() < 0.3 else -1
        members = [mol.add_atom("N" if k == n_at else "C", True) for k in range(6)]
        for k in range(6):
            mol.add_bond(members[k], members[(k + 1) % 6], AROMATIC)
        if anchor is not None:
            mol.add_bond(anchor, members[0], 1)

    def fragment(self, size: int) -> Mol:
        """A connected building block of about `size` heavy atoms."""
        rng = self.rng
        mol = Mol()
        if size >= 7 and rng.random() < 0.3:
            self._ring(mol, None)
        else:
            mol.add_atom("C")
        while len(mol) < size:
            free = [i for i in range(len(mol)) if mol.hydrogens(i) > 0]
            if not free:
                break
            aliphatic = [i for i in free if not mol.aromatic[i] and mol.elements[i] == "C"]
            if aliphatic and len(mol) + 6 <= size and rng.random() < 0.15:
                self._ring(mol, rng.choice(aliphatic))
                continue
            element = rng.choice(_CHAIN)
            anchors = [i for i in free if element == "C" or mol.elements[i] == "C"]
            if not anchors:
                continue
            anchor = rng.choice(anchors)
            order = 1
            if (
                element in ("C", "O", "N")
                and not mol.aromatic[anchor]
                and mol.hydrogens(anchor) >= 2
                and rng.random() < 0.15
            ):
                order = 2
            new = mol.add_atom(element)
            mol.add_bond(anchor, new, order)
        if rng.random() < 0.25:
            self._close_ring(mol)
        return mol

    def _close_ring(self, mol: Mol) -> None:
        """Bond two aliphatic carbons four or five bonds apart (a five- or
        six-membered ring), when such a pair has hydrogens to spare."""
        carbons = [
            i
            for i in range(len(mol))
            if mol.elements[i] == "C" and not mol.aromatic[i] and mol.hydrogens(i) > 0
        ]
        self.rng.shuffle(carbons)
        for a in carbons:
            distance = {a: 0}
            frontier = [a]
            while frontier:
                nxt = []
                for i in frontier:
                    for j in mol.nbrs[i]:
                        if j not in distance:
                            distance[j] = distance[i] + 1
                            nxt.append(j)
                frontier = nxt
            partners = [b for b in carbons if distance.get(b) in (4, 5)]
            if partners:
                mol.add_bond(a, self.rng.choice(partners), 1)
                return

    def leaf(self, size: int) -> Mol:
        """A building block of `size` heavy atoms with a formula not used
        before."""
        for _ in range(1000):
            mol = self.fragment(size)
            if len(mol) != size:
                continue
            aliphatic_h = sum(
                mol.hydrogens(i)
                for i in range(len(mol))
                if mol.elements[i] == "C" and not mol.aromatic[i]
            )
            # Two C-H on aliphatic carbon let every join find a C-C bond.
            if aliphatic_h >= 2 and mol.formula() not in self.used:
                self.used.add(mol.formula())
                return mol
        raise RuntimeError("could not draw a distinct building block")

    def spell(self, mol: Mol, maps: dict[int, int] | None = None, **kwargs) -> str:
        """One spelling of `mol`, from a random root with shuffled neighbours."""
        return write(mol, self.rng.randrange(len(mol)), maps, self.rng, **kwargs)

    # -- routes --------------------------------------------------------------

    def route(self, depth: int, leaf_size: tuple[int, int], shape: random.Random) -> "Route":
        """A route whose longest leaf-to-target path has `depth` steps.

        Each reaction bonds its main precursor to a building block, to the
        product of a branch of depth 1 or 2, or to a small intermediate
        already made for this route, which makes that intermediate
        convergent (consumed twice). `shape` draws these choices and the
        building-block sizes, and the generator's own seed draws the atoms
        and bonds: a workload keeps its amount of work from seed to seed
        while its molecules change.
        """
        route = Route()
        reusable: list[int] = []
        sub_depth: dict[int, int] = {}

        def new_leaf(size: int) -> int:
            mid = route.add(self.leaf(size))
            sub_depth[mid] = 0
            return mid

        def grow(levels: int) -> int:
            if levels == 0:
                return new_leaf(shape.randint(*leaf_size))
            main = grow(levels - 1)
            r = shape.random()
            candidates = [m for m in reusable if m != main and sub_depth[m] <= levels - 1]
            fresh_side = False
            if candidates and r < 0.12:
                side = shape.choice(candidates)
            elif levels >= 2 and r < 0.4:
                side = grow(shape.randint(1, min(levels - 1, 2)))
            else:
                side = new_leaf(shape.randint(*leaf_size))
                fresh_side = True
            extra = [new_leaf(shape.randint(*leaf_size))] if shape.random() < 0.1 else []
            for _ in range(100):
                product = self.join([route.mols[p] for p in [main, side, *extra]])
                if product is not None:
                    break
                # The formula depends only on the parts: redraw a building
                # block of the same size.
                if extra:
                    extra = [new_leaf(len(route.mols[extra[0]]))]
                elif fresh_side:
                    side = new_leaf(len(route.mols[side]))
                else:
                    extra = [new_leaf(leaf_size[0])]
            else:
                raise RuntimeError("could not make a distinct product")
            mol, offsets = product
            mid = route.add(mol)
            sub_depth[mid] = levels
            route.reactions[mid] = ([main, side, *extra], offsets)
            if len(mol) <= 16:
                reusable.append(mid)
            return mid

        route.target = grow(depth)
        return route

    def join(self, parts: list[Mol], biaryl: bool = False):
        """Product of bonding each part to the next by one single bond, and
        each part's atom offset in it; None when its formula is taken or the
        parts have no atoms to bond."""
        product, offsets = parts[0].merged(parts[1:])
        starts = [0, *offsets]
        for k in range(len(parts) - 1):
            pairs = [
                (a, b)
                for a in (starts[k] + i for i in _joinable(parts[k], biaryl))
                for b in (starts[k + 1] + i for i in _joinable(parts[k + 1], biaryl))
                if product.hydrogens(a) > 0
                and product.hydrogens(b) > 0
                and (product.elements[a] == "C" or product.elements[b] == "C")
                and (product.aromatic[a] and product.aromatic[b]) == biaryl
            ]
            if not pairs:
                return None
            product.add_bond(*self.rng.choice(pairs), 1)
        if product.formula() in self.used:
            return None
        self.used.add(product.formula())
        return product, starts


def _joinable(mol: Mol, aromatic_only: bool = False) -> list[int]:
    """Atoms a new bond may be made to: carbons, amines and alcohols that
    still carry a hydrogen."""
    return [
        i
        for i in range(len(mol))
        if mol.hydrogens(i) > 0
        and mol.elements[i] in ("C", "N", "O")
        and (not aromatic_only or (mol.aromatic[i] and mol.elements[i] == "C"))
    ]


class Route:
    """A route as the generator knows it. Molecules are numbered by `add`;
    reactions maps a product id to (precursor ids, atom offsets of each
    precursor in the product)."""

    def __init__(self) -> None:
        self.mols: list[Mol] = []
        self.reactions: dict[int, tuple[list[int], list[int]]] = {}
        self.target = -1

    def add(self, mol: Mol) -> int:
        self.mols.append(mol)
        return len(self.mols) - 1

    def formula(self, mid: int) -> str:
        return self.mols[mid].formula()

    def tree_lines(self) -> list[tuple[int, list[int]]]:
        """(product id, precursor ids) for each reaction node of the route's
        tree, in depth-first order from the target; a convergent
        intermediate's reactions appear once per use."""
        lines: list[tuple[int, list[int]]] = []

        def visit(mid: int) -> None:
            if mid in self.reactions:
                parts = self.reactions[mid][0]
                lines.append((mid, parts))
                for part in parts:
                    visit(part)

        visit(self.target)
        return lines

    def leaves(self) -> list[int]:
        consumed = {p for parts, _ in self.reactions.values() for p in parts}
        return sorted(m for m in consumed if m not in self.reactions)

    def depth(self) -> int:
        def d(mid: int) -> int:
            if mid not in self.reactions:
                return 0
            return 1 + max(d(p) for p in self.reactions[mid][0])

        return d(self.target)

    def record(self, gen: Generator, references: list[list[int]] | None = None) -> dict:
        """The route in the program's dataset schema, with atom maps."""
        reactions = []
        for product, (parts, offsets) in self.reactions.items():
            mol = self.mols[product]
            maps = {i: i + 1 for i in range(len(mol))}
            precursors = [
                gen.spell(self.mols[p], {i: offset + i + 1 for i in range(len(self.mols[p]))})
                for p, offset in zip(parts, offsets)
            ]
            gen.rng.shuffle(precursors)
            reactions.append({"product": gen.spell(mol, maps), "precursors": precursors})
        gen.rng.shuffle(reactions)
        if references is None:
            references = [self.leaves()]
        return {
            "target": gen.spell(self.mols[self.target]),
            "reactions": reactions,
            "references": [[gen.spell(self.mols[m]) for m in group] for group in references],
            "ref_depth": self.depth(),
        }

    def line_formulas(self) -> list[list]:
        return [
            [self.formula(p), sorted(self.formula(c) for c in parts)]
            for p, parts in self.tree_lines()
        ]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

PREP_ROUTES = 40
PREP_WITHHELD_EVERY = 10  # route i loses one stock leaf when i % 10 == 7
REWARD_TARGETS = 7
LONG_ROUTES = 5
SLATE_ENTRIES = 16


def make_prep(seed: int, out: Path) -> dict:
    """Depth 2-6 routes (the depth cycles with the route index), a stock that
    lacks one leaf of every tenth route, and the truth for `ingest` and
    `align`."""
    gen = Generator(random.Random(seed))
    dataset, truth_routes, stock, failing = [], [], [], {}
    for index in range(PREP_ROUTES):
        route = gen.route(2 + index % 5, (5, 9), random.Random(f"prep-{index}"))
        dataset.append(route.record(gen))
        leaves = route.leaves()
        if index % PREP_WITHHELD_EVERY == PREP_WITHHELD_EVERY - 3:
            withheld = gen.rng.choice(leaves)
            failing[str(index)] = [route.formula(withheld)]
            leaves = [m for m in leaves if m != withheld]
        stock.extend(gen.spell(route.mols[m]) for m in leaves)
        truth_routes.append(
            {
                "formula": route.formula(route.target),
                "heavy": len(route.mols[route.target]),
                "lines": route.line_formulas(),
            }
        )
    for index in range(PREP_ROUTES):  # building blocks no route uses
        stock.append(gen.spell(gen.leaf(5 + index % 5)))
    gen.rng.shuffle(stock)
    _write_json(out / "routes.json", dataset)
    (out / "stock.smi").write_text("\n".join(stock) + "\n", encoding="utf-8")
    return {"routes": truth_routes, "failing": failing}


def _plan(gen: Generator, route: Route, lines, first_product=None) -> str:
    """Plan text: thought, then one line per tree node. Each molecule keeps
    one spelling throughout the plan, so a product reads exactly as it did
    among the precursors of the line above."""
    spelled: dict[int, str] = {}

    def text(mid: int) -> str:
        if mid not in spelled:
            spelled[mid] = gen.spell(route.mols[mid])
        return spelled[mid]

    body = []
    for k, (product, parts) in enumerate(lines):
        product_text = first_product if k == 0 and first_product else text(product)
        body.append(f"{product_text}>>{'.'.join(text(p) for p in parts)}")
    return THOUGHT + "\n".join(body) + "\n"


def _plan_truth(route: Route, lines, references, ref_depth, invalid_lines=0) -> dict:
    return {
        "lines": [[route.formula(p), [route.formula(c) for c in parts]] for p, parts in lines],
        "invalid_lines": invalid_lines,
        "references": references,
        "ref_depth": ref_depth,
    }


def _reward_rows(gen: Generator, route: Route, target_text: str) -> tuple[list[dict], list[dict]]:
    """The 16 sampled plans of one target, in a fixed mix: 5 exact, 3 exact
    with a lowered inline ref_depth, 3 exact with bad precursor parts, 2 with
    a leaf swapped, 1 with a line dropped and 2 unparsable."""
    rng = gen.rng
    lines = route.tree_lines()
    depth = route.depth()
    leaf_set = set(route.leaves())
    refs = [sorted(route.formula(m) for m in leaf_set)]
    rows, truth = [], []

    def add(row: dict, plan: dict | None) -> None:
        rows.append({"target": target_text, **row})
        truth.append(plan)

    for _ in range(5):
        add({"plan_text": _plan(gen, route, lines)}, _plan_truth(route, lines, refs, depth))
    for lowered in (1, 2, 4):
        ref_depth = max(depth - lowered, 0)
        add(
            {"plan_text": _plan(gen, route, lines), "ref_depth": ref_depth},
            _plan_truth(route, lines, refs, ref_depth),
        )
    for bad_lines in (1, 2, 1):
        text = _plan(gen, route, lines)
        body = text[len(THOUGHT) :].splitlines()
        picked = rng.sample(range(len(body)), min(bad_lines, len(body)))
        for k in picked:
            body[k] += "." + rng.choice(BAD_PARTS)
        add(
            {"plan_text": THOUGHT + "\n".join(body) + "\n"},
            _plan_truth(route, lines, refs, depth, invalid_lines=len(picked)),
        )
    swap_lines, drop_lines = _jaccard_lines(route)
    # A leaf swapped for a molecule outside the route; the plan still parses.
    for _ in range(2):
        k = rng.choice(swap_lines)
        product, parts = lines[k]
        old = rng.choice([c for c in parts if c in leaf_set])
        new = route.add(gen.leaf(len(route.mols[old])))
        swapped = list(lines)
        swapped[k] = (product, [new if c == old else c for c in parts])
        add({"plan_text": _plan(gen, route, swapped)}, _plan_truth(route, swapped, refs, depth))
    # A line dropped whose precursors are all leaves: its product becomes a leaf.
    k = rng.choice(drop_lines)
    dropped = lines[:k] + lines[k + 1 :]
    add({"plan_text": _plan(gen, route, dropped)}, _plan_truth(route, dropped, refs, depth))
    # Unparsable: a broken first product, and an answer with no reaction line.
    add({"plan_text": _plan(gen, route, lines, first_product="C1CC(")}, None)
    add({"plan_text": THOUGHT + "The target cannot be made from the stock.\n"}, None)
    return rows, truth


def _jaccard_lines(route: Route) -> tuple[list[int], list[int]]:
    """Tree lines, other than the first, whose product occurs once: those
    with a leaf (to swap it) and those whose precursors are all leaves (to
    drop the line). A line that occurs twice cannot change alone, since the
    program rejects a molecule expanded two different ways."""
    lines = route.tree_lines()
    leaves = set(route.leaves())
    once = [k for k, (p, _) in enumerate(lines) if k and sum(q == p for q, _ in lines) == 1]
    swap = [k for k in once if any(c in leaves for c in lines[k][1])]
    drop = [k for k in once if all(c in leaves for c in lines[k][1])]
    return swap, drop


def _biaryl_rows(used: set[str]) -> tuple[list[dict], list[dict]]:
    """Exact plans whose first product spells its aryl-aryl single bond
    without '-'. They are made from BIARYL_SEED alone and carry inline
    references, so they are the same rows whatever the workload seed."""
    gen = Generator(random.Random(BIARYL_SEED), used)
    rows, truth = [], []
    for _ in range(BIARYL_TARGETS):
        route = Route()
        a = route.add(_aryl_leaf(gen))
        b = route.add(_aryl_leaf(gen))
        mol, offsets = gen.join([route.mols[a], route.mols[b]], biaryl=True)
        route.target = route.add(mol)
        route.reactions[route.target] = ([a, b], offsets)
        lines = route.tree_lines()
        refs = [sorted(route.formula(m) for m in route.leaves())]
        for _ in range(BIARYL_ROWS_PER_TARGET):
            first = gen.spell(mol, implicit_biaryl=True)
            rows.append(
                {
                    "target": gen.spell(mol),
                    "plan_text": _plan(gen, route, lines, first_product=first),
                    "references": [[gen.spell(route.mols[m]) for m in route.leaves()]],
                    "ref_depth": route.depth(),
                }
            )
            truth.append(_plan_truth(route, lines, refs, route.depth()))
    return rows, truth


def _aryl_leaf(gen: Generator) -> Mol:
    """A building block that starts from an aromatic ring."""
    for _ in range(1000):
        mol = gen.fragment(gen.rng.randint(7, 10))
        if _joinable(mol, aromatic_only=True) and mol.aromatic[0] and mol.formula() not in gen.used:
            gen.used.add(mol.formula())
            return mol
    raise RuntimeError("could not draw an aryl building block")


def make_reward(seed: int, out: Path) -> dict:
    """Depth 2-8 targets (the depth cycles with the target index), 16 plan
    rows each, then the fixed block of biaryl rows."""
    used: set[str] = set()
    biaryl_rows, biaryl_truth = _biaryl_rows(used)
    gen = Generator(random.Random(seed), used)
    dataset, rows, truth = [], [], []
    for index in range(REWARD_TARGETS):
        shape = random.Random(f"reward-{index}")
        route = gen.route(2 + index % 7, (5, 9), shape)
        while not all(_jaccard_lines(route)):
            route = gen.route(2 + index % 7, (5, 9), shape)
        record = route.record(gen)
        dataset.append(record)
        more_rows, more_truth = _reward_rows(gen, route, record["target"])
        rows.extend(more_rows)
        truth.extend(more_truth)
    biaryl = list(range(len(rows), len(rows) + len(biaryl_rows)))
    rows.extend(biaryl_rows)
    truth.extend(biaryl_truth)
    _write_json(out / "routes.json", dataset)
    _write_jsonl(out / "plans.jsonl", rows)
    return {"plans": truth, "biaryl": biaryl}


def make_long_eval(seed: int, out: Path) -> dict:
    """Depth 8-12 routes with large targets, and one slate of 16 sampled
    outcomes per target whose leaves are spelled from random roots."""
    gen = Generator(random.Random(seed))
    rng = gen.rng
    dataset, slates, truth_routes, truth_slates = [], [], [], []
    for index in range(LONG_ROUTES):
        route = gen.route(8 + index % 5, (5, 8), random.Random(f"long-eval-{index}"))
        leaves = route.leaves()
        depth = route.depth()
        # Outcomes with leaves swapped for same-sized molecules outside the route.
        swapped_one, swapped_two = leaves[:], leaves[:]
        for k, group in ((0, swapped_one), (1, swapped_two), (2, swapped_two)):
            group[k] = route.add(gen.leaf(len(route.mols[leaves[k]])))
        subset = leaves[:]
        del subset[rng.randrange(len(leaves))]
        references = [leaves] + ([swapped_two] if index % 3 == 2 else [])
        record = route.record(gen, references)
        dataset.append(record)
        outcomes = [
            (leaves, depth),
            (leaves, depth + 1),
            (swapped_one, depth),
            (swapped_two, depth - 1),
            (subset, depth),
        ]
        weights = [rng.randint(1, 6) for _ in outcomes]
        entries, truth_entries = [], []
        for j in range(SLATE_ENTRIES):
            group, d = rng.choices(outcomes, weights)[0]
            entries.append(
                {
                    "plan_id": f"p{j}",
                    "precursors": [gen.spell(route.mols[m]) for m in group],
                    "depth": d,
                }
            )
            truth_entries.append([f"p{j}", sorted(route.formula(m) for m in group), d])
        slates.append({"target": record["target"], "entries": entries})
        truth_slates.append(
            {
                "entries": truth_entries,
                "references": [sorted(route.formula(m) for m in g) for g in references],
                "ref_depth": depth,
            }
        )
        truth_routes.append({"formula": route.formula(route.target), "lines": route.line_formulas()})
    _write_json(out / "routes.json", dataset)
    _write_jsonl(out / "slates.jsonl", slates)
    return {"routes": truth_routes, "slates": truth_slates}


WORKLOADS = {"prep": make_prep, "reward": make_reward, "long-eval": make_long_eval}
