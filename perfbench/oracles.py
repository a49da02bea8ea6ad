"""Checks of the program's outputs against computations made apart from it.

Each `check_*` takes an artifact's text and the generator's truth, and
returns a list of problems (empty when the output is right). The expected
values come from the generator's knowledge of its inputs, with molecules
named by formula, and from this module's own reward formula, edit distance,
vote tally and top-k count; no check compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import json
from collections import Counter

from chem import formula, read_atoms

# Reward constants from the top-level README.
FORMAT_SCORE = 0.5
EXACT_WEIGHT = 1.5
SIMILARITY_WEIGHT = 0.5
INVALID_WEIGHT, INVALID_CAP = 0.1, 4
DEPTH_WEIGHT, DEPTH_CAP = 0.2, 3
TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Computations
# ---------------------------------------------------------------------------


def plan_leaves(lines: list) -> frozenset:
    """Leaf formulas of a plan given as [product, [precursors]] lines."""
    products = {product for product, _ in lines}
    return frozenset(c for _, parts in lines for c in parts if c not in products)


def plan_depth(lines: list) -> int:
    """Longest leaf-to-first-product path, in reaction steps."""
    expansion: dict = {}
    for product, parts in lines:
        expansion.setdefault(product, parts)
    depth: dict = {}

    def of(f: str) -> int:
        if f not in expansion:
            return 0
        if f not in depth:
            depth[f] = 1 + max(of(c) for c in expansion[f])
        return depth[f]

    return of(lines[0][0])


def jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b) if a | b else 1.0


def reward_total(plan: dict | None) -> float:
    """README reward of a plan the generator describes: None for an
    unparsable plan, else its formula lines, the number of lines holding an
    invalid molecule, its reference leaf sets and reference depth."""
    if plan is None:
        return 0.0
    leaves = plan_leaves(plan["lines"])
    references = [frozenset(group) for group in plan["references"]]
    if leaves in references:
        excess = max(plan_depth(plan["lines"]) - plan["ref_depth"], 0)
        penalty = INVALID_WEIGHT * min(plan["invalid_lines"], INVALID_CAP)
        penalty += DEPTH_WEIGHT * min(excess, DEPTH_CAP)
        return FORMAT_SCORE + EXACT_WEIGHT - penalty
    return FORMAT_SCORE + SIMILARITY_WEIGHT * max(jaccard(leaves, ref) for ref in references)


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance by the bit-vector method of Myers (1999) in
    Hyyro's form: one machine word per column, held in a Python int."""
    m = len(a)
    if m == 0:
        return len(b)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    peq: dict = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    pv, mv, score = full, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
    return score


def nld(lines: list[str]) -> list[float]:
    """Per step: edit distance between the first product and the step's
    precursor side, over the longer of the two."""
    target = lines[0].partition(">>")[0]
    out = []
    for line in lines:
        rhs = line.partition(">>")[2]
        out.append(levenshtein(target, rhs) / max(len(target), len(rhs)))
    return out


def vote_tally(entries: list) -> list[tuple]:
    """Entries [plan_id, leaf formulas, depth] collapsed by leaf set, most
    votes first and earliest entry first among equals; each survivor keeps
    its first entry's plan_id and depth."""
    counts: Counter = Counter(frozenset(fs) for _, fs, _ in entries)
    first: dict = {}
    for index, (plan_id, fs, depth) in enumerate(entries):
        first.setdefault(frozenset(fs), (index, plan_id, depth))
    ranked = sorted(first.items(), key=lambda item: (-counts[item[0]], item[1][0]))
    return [(plan_id, sorted(key), depth, counts[key]) for key, (_, plan_id, depth) in ranked]


def depth_bucket(ref_depth: int) -> str:
    return str(ref_depth) if ref_depth < 5 else ">=5"


def topk(targets: list, kmax: int) -> dict:
    """Cumulative first-hit accuracy at 1..kmax and top-1 accuracy per
    reference-depth bucket. A target is (ranked [leaf formulas, depth]
    candidates, reference leaf sets, reference depth); a candidate succeeds
    when its leaf set is a reference set and it is no deeper."""
    hits = Counter()
    counts = Counter()
    top1 = Counter()
    for ranked, references, ref_depth in targets:
        refs = [frozenset(group) for group in references]
        first = next(
            (
                rank
                for rank, (fs, depth) in enumerate(ranked[:kmax], start=1)
                if frozenset(fs) in refs and depth <= ref_depth
            ),
            None,
        )
        for k in range(1, kmax + 1):
            hits[k] += first is not None and first <= k
        bucket = depth_bucket(ref_depth)
        counts[bucket] += 1
        top1[bucket] += first == 1
    total = len(targets)
    buckets = ("1", "2", "3", "4", ">=5")
    return {
        "top_k": {str(k): hits[k] / total for k in range(1, kmax + 1)},
        "depth_accuracy": {b: (top1[b] / counts[b] if counts[b] else None) for b in buckets},
        "depth_counts": {b: counts[b] for b in buckets},
        "total": total,
    }


def path_problems(lines: list[str]) -> list[str]:
    """Path coherence: every product after the first appears verbatim among
    the precursors of an earlier line."""
    problems = []
    seen: set[str] = set()
    for k, line in enumerate(lines):
        product, _, rhs = line.partition(">>")
        if k and product not in seen:
            problems.append(f"line {k + 1} product {product!r} is not an earlier precursor")
        seen.update(rhs.split("."))
    return problems


def line_formulas(lines: list[str]) -> list:
    """[product formula, sorted precursor formulas] per rendered line."""
    out = []
    for line in lines:
        product, _, rhs = line.partition(">>")
        out.append([formula(product), sorted(formula(p) for p in rhs.split("."))])
    return out


def _multiset(lines: list) -> Counter:
    return Counter((product, tuple(sorted(parts))) for product, parts in lines)


# ---------------------------------------------------------------------------
# Checks, one per command
# ---------------------------------------------------------------------------


def check_ingest(stdout: str, code: int, truth: dict) -> list[str]:
    """`ingest` names exactly the routes whose leaf was withheld, each with a
    grounding failure on that leaf, and sums up the counts."""
    problems = []
    failing = truth["failing"]
    named: dict[str, list[str]] = {}
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        head, _, offenders = line.partition(" failed: ")
        route, _, check = head.partition(": ")
        if not route.startswith("route ") or check != "grounding":
            problems.append(f"unexpected ingest line {line!r}")
            continue
        named[route[6:]] = sorted(formula(text) for text in offenders.split(", "))
    if named != {k: sorted(v) for k, v in failing.items()}:
        problems.append(f"ingest named {sorted(named)}, withheld leaves are in {sorted(failing)}")
    total = len(truth["routes"])
    summary = f"{total - len(failing)} routes ok, {len(failing)} failed"
    if not lines or lines[-1] != summary:
        problems.append(f"ingest summary {lines[-1:]!r}, expected {summary!r}")
    if code != (1 if failing else 0):
        problems.append(f"ingest exit code {code}")
    return problems


def check_align(text: str, dataset: list, truth: dict, fold: int) -> list[str]:
    """Per route, min(fold, heavy atoms) sequences with distinct roots; each
    has one line per reaction node of the route's tree, with the generator's
    product and precursor formulas, starts at the target-root atom, and is
    path coherent."""
    problems = []
    by_route: dict[int, list] = {}
    for row in map(json.loads, text.splitlines()):
        by_route.setdefault(row["route_id"], []).append(row)
    if sorted(by_route) != list(range(len(truth["routes"]))):
        problems.append(f"align covered routes {sorted(by_route)}")
    for index, route in enumerate(truth["routes"]):
        rows = by_route.get(index, [])
        roots = [row["target_root"] for row in rows]
        if len(rows) != min(fold, route["heavy"]) or len(set(roots)) != len(roots):
            problems.append(f"route {index}: {len(rows)} sequences, roots {roots}")
        target_atoms = read_atoms(dataset[index]["target"])
        expected = _multiset(route["lines"])
        for row in rows:
            lines = row["lines"]
            where = f"route {index} root {row['target_root']}"
            got = line_formulas(lines)
            if got[0][0] != route["formula"] or _multiset(got) != expected:
                problems.append(f"{where}: line formulas differ from the generator's")
            if read_atoms(lines[0].partition(">>")[0])[0] != target_atoms[row["target_root"]]:
                problems.append(f"{where}: first atom is not the target-root atom")
            problems.extend(f"{where}: {p}" for p in path_problems(lines))
    return problems


def check_score(text: str, stdout: str, truth: dict) -> tuple[list[str], int]:
    """Every total equals the README reward of the generator's plan to 1e-9.
    A mismatch on a row of the biaryl block is a failed operation (the
    program's known fault); anywhere else it is a problem. Returns the
    problems and the number of failed rows."""
    problems, failed = [], 0
    rows = [json.loads(line) for line in text.splitlines()]
    plans = truth["plans"]
    if [row["index"] for row in rows] != list(range(len(plans))):
        return [f"score wrote {len(rows)} rows for {len(plans)} plans"], 0
    biaryl = set(truth["biaryl"])
    for row, plan in zip(rows, plans):
        expected = reward_total(plan)
        if abs(row["total"] - expected) <= TOLERANCE:
            continue
        if row["index"] in biaryl:
            failed += 1
        else:
            problems.append(f"plan {row['index']}: total {row['total']!r}, expected {expected!r}")
    totals = [row["total"] for row in rows]
    if stdout.strip() != f"mean_reward {sum(totals) / len(totals)!r}":
        problems.append(f"score printed {stdout.strip()!r}")
    return problems, failed


def check_vote(text: str, truth: dict) -> list[str]:
    """Candidates, votes, order, depths and leaf formulas equal the tally."""
    problems = []
    rows = [json.loads(line) for line in text.splitlines()]
    if len(rows) != len(truth["slates"]):
        return [f"vote wrote {len(rows)} rows for {len(truth['slates'])} slates"]
    for index, (row, slate) in enumerate(zip(rows, truth["slates"])):
        got = [
            (c["plan_id"], sorted(formula(key) for key in c["precursors"]), c["depth"], c["votes"])
            for c in row["candidates"]
        ]
        if got != vote_tally(slate["entries"]):
            problems.append(f"slate {index}: ranking differs from the tally")
    return problems


def expected_report(truth: dict, kmax: int) -> dict:
    targets = []
    for slate in truth["slates"]:
        ranked = [(fs, depth) for _, fs, depth, _ in vote_tally(slate["entries"])]
        targets.append((ranked, slate["references"], slate["ref_depth"]))
    return topk(targets, kmax)


def check_eval(report_text: str, csv_text: str, truth: dict, kmax: int) -> list[str]:
    """The report's top-k and depth table equal the count over the tally."""
    expected = expected_report(truth, kmax)
    problems = []
    if json.loads(report_text) != expected:
        problems.append(f"eval report {report_text.strip()} differs from {expected}")
    rows = ["bucket,count,top1"] + [
        f"{b},{expected['depth_counts'][b]},{'' if v is None else repr(v)}"
        for b, v in expected["depth_accuracy"].items()
    ]
    if csv_text.splitlines() != rows:
        problems.append("eval bucket table differs from the count")
    return problems


def check_nld(csv_text: str, truth: dict, mode: str, samples: dict[int, list[str]]) -> list[str]:
    """One row per tree reaction node with steps 1..n and values in [0, 1];
    for the sampled routes, whose rendered lines are given, the values equal
    this module's normalized edit distance."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "route_id,mode,step,nld":
        return [f"nld {mode}: bad header"]
    values: dict[int, list[tuple[int, float]]] = {}
    for line in lines[1:]:
        route, row_mode, step, value = line.split(",")
        if row_mode != mode:
            return [f"nld {mode}: row of mode {row_mode}"]
        values.setdefault(int(route), []).append((int(step), float(value)))
    problems = []
    for index, route in enumerate(truth["routes"]):
        got = values.get(index, [])
        if [s for s, _ in got] != list(range(1, len(route["lines"]) + 1)):
            problems.append(f"nld {mode} route {index}: steps {[s for s, _ in got]}")
        if not all(0.0 <= v <= 1.0 for _, v in got):
            problems.append(f"nld {mode} route {index}: value outside [0, 1]")
    for index, rendered in samples.items():
        if [v for _, v in values.get(index, [])] != nld(rendered):
            problems.append(f"nld {mode} route {index}: values differ from the edit distance")
        if _multiset(line_formulas(rendered)) != _multiset(truth["routes"][index]["lines"]):
            problems.append(f"nld {mode} route {index}: rendered formulas differ")
        if mode == "aligned":
            problems.extend(f"nld aligned route {index}: {p}" for p in path_problems(rendered))
    return problems
