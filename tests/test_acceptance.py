"""Acceptance gate: one test per release criterion, run with pytest -v for a
pass/fail line each.

The golden-route test asserts the pointwise per-step edit-distance bound as
stated and currently fails at k in {2, 5, 8}; the mean over all steps does
hold. Everything else passes within its stated budget.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

import golden
import retroroute
from generators import rand_dataset, rand_molecule, rand_route_record, write_dataset
from isomorphism import is_isomorphic
from retroroute.align import align_route, default_root, render_sequence
from retroroute.cli import main
from retroroute.consensus import SlateEntry, vote
from retroroute.evaluate import levenshtein, nld_profile
from retroroute.reward import RewardConfig, jaccard, parse_plan, score_plan
from retroroute.routes import linearize_nodes, route_depth, to_tree
from retroroute.smiles import canonical_key, parse_smiles, write_rooted

TOL = 1e-12
WRAP = "<think>retro analysis</think>\n"

# Distinct, parsable, valence-broken molecules for invalid-line counting.
INVALID_POOL = ["Cl(C)C", "OO(O)O", "[CH4]C", "[O+]C", "I(C)C"]


def key_of(text: str):
    return canonical_key(parse_smiles(text)[0])


def chain_case(steps: int, invalid: int):
    """Parsed linear plan of the given depth with `invalid` broken leaves.
    Returns (plan, leaf key set)."""
    molecules = ["C" * (i + 2) + "O" for i in range(steps + 1)]
    lines = []
    leaves = {key_of(molecules[-1])}
    for i in range(steps):
        rhs = molecules[i + 1]
        if i < invalid:
            rhs += "." + INVALID_POOL[i]
            leaves.add(key_of(INVALID_POOL[i]))
        lines.append(f"{molecules[i]}>>{rhs}")
    plan = parse_plan(WRAP + "\n".join(lines), parse_smiles(molecules[0])[0])
    return plan, frozenset(leaves)


def write_jsonl(path, rows) -> str:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def canonical_step_lines(route) -> list[str]:
    lines = []
    for node in linearize_nodes(to_tree(route)):
        product = canonical_key(node.reaction.product).key
        rhs = ".".join(canonical_key(m).key for m in node.reaction.precursors)
        lines.append(f"{product}>>{rhs}")
    return lines


def test_model_scale_results_are_substituted_by_property_suites():
    """Headline planning accuracies, augmentation scaling and training
    ablations need a fine-tuned multi-billion-parameter model and are out of
    scope for this library. The deterministic suites below stand in for them."""
    substitutes = (
        "test_reward_worked_examples_exact",
        "test_self_evaluation_round_trip_is_perfect",
        "test_writer_round_trip_every_root",
        "test_golden_route_alignment_order_anchors_and_nld",
        "test_oracle_equivalence",
        "test_reward_monotonicity_properties",
        "test_alignment_throughput_and_rerun_identity",
        "test_pipeline_outputs_are_deterministic",
    )
    for name in substitutes:
        assert name in globals()


def test_reward_worked_examples_exact():
    started = time.perf_counter()

    unparsable = parse_plan("nothing to see", parse_smiles("CCO")[0])
    assert score_plan(unparsable, [frozenset({key_of("CC=O")})], 1).total == 0.0

    perfect = parse_plan(WRAP + "CCO>>CC=O.O", parse_smiles("CCO")[0])
    refs = [frozenset({key_of("CC=O"), key_of("O")})]
    assert math.isclose(score_plan(perfect, refs, 1).total, 2.0, abs_tol=TOL)

    penalized, leaves = chain_case(2, 2)
    score = score_plan(penalized, [leaves], 1)
    assert math.isclose(score.penalty, 0.4, abs_tol=TOL)
    assert math.isclose(score.total, 1.6, abs_tol=TOL)

    partial = parse_plan(WRAP + "CCO>>CC=O", parse_smiles("CCO")[0])
    third = [frozenset({key_of("CC=O"), key_of("O"), key_of("N")})]
    assert math.isclose(score_plan(partial, third, 1).total, 0.5 + 0.5 / 3, abs_tol=TOL)

    worst, leaves = chain_case(5, 5)
    boundary = score_plan(worst, [leaves], 1)
    assert math.isclose(boundary.penalty, 1.0, abs_tol=TOL)
    assert math.isclose(boundary.total, 1.0, abs_tol=TOL)

    config = RewardConfig()
    config.validate()
    floor = config.exact_weight - (
        config.invalid_weight * config.invalid_cap
        + config.depth_weight * config.depth_cap
    )
    assert floor >= config.similarity_weight
    assert math.isclose(floor, 0.5, abs_tol=TOL)

    assert time.perf_counter() - started < 1.0


def test_self_evaluation_round_trip_is_perfect(tmp_path):
    records = rand_dataset(random.Random(11), 500, convergence=0.15, max_depth=6)
    dataset = tmp_path / "dataset.json"
    write_dataset(records, dataset)

    started = time.perf_counter()
    plan_rows = []
    candidate_rows = []
    for record in records:
        text = WRAP + render_sequence(align_route(to_tree(record.route), 0))
        plan_rows.append({"target": record.raw["target"], "plan_text": text})
        parsed = parse_plan(text, record.route.target).parsed_route
        candidate_rows.append(
            {
                "target": record.raw["target"],
                "candidates": [
                    {
                        "precursors": sorted(k.key for k in parsed.stock_refs),
                        "depth": route_depth(parsed),
                    }
                ],
            }
        )
    plans = write_jsonl(tmp_path / "plans.jsonl", plan_rows)
    scored = tmp_path / "scored.jsonl"
    assert main(["score", plans, str(dataset), "-o", str(scored)]) == 0
    totals = [json.loads(line)["total"] for line in scored.read_text().splitlines()]
    assert len(totals) == 500
    assert all(total == 2.0 for total in totals)
    assert sum(totals) / len(totals) == 2.0

    candidates = write_jsonl(tmp_path / "candidates.jsonl", candidate_rows)
    report_path = tmp_path / "report.json"
    rc = main(["eval", str(candidates), str(dataset), "--kmax", "1", "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["total"] == 500
    assert report["top_k"]["1"] == 1.0

    assert time.perf_counter() - started < 30.0


def test_writer_round_trip_every_root():
    started = time.perf_counter()
    molecules = [
        molecule
        for text in golden.all_box_smiles()
        for molecule in parse_smiles(text)
    ]
    rng = random.Random(13)
    molecules.extend(rand_molecule(rng) for _ in range(1000))
    for molecule in molecules:
        for root in range(len(molecule.atoms)):
            text, _ = write_rooted(molecule, root)
            reparsed = parse_smiles(text)
            assert len(reparsed) == 1
            assert is_isomorphic(molecule, reparsed[0])
            assert canonical_key(reparsed[0]) == canonical_key(molecule)
    assert time.perf_counter() - started < 60.0


def test_golden_route_alignment_order_anchors_and_nld():
    started = time.perf_counter()
    record = golden.build_record()
    tree = to_tree(record.route)
    sequence = align_route(tree, default_root(tree.root.molecule))

    # Emission order: the seven-step main chain first, then the two-step branch.
    assert len(sequence.steps) == 9
    products = [
        canonical_key(parse_smiles(step.product_text)[0]).key
        for step in sequence.steps
    ]
    assert products == golden.step_product_keys()
    step_precursors = [
        {
            canonical_key(molecule).key
            for text in step.precursor_texts
            for molecule in parse_smiles(text)
        }
        for step in sequence.steps
    ]
    assert [sorted(group) for group in step_precursors] == [
        sorted(group) for group in golden.step_precursor_keys()
    ]
    for i in range(1, 7):
        assert products[i] in step_precursors[i - 1]
    assert products[7] not in step_precursors[6]

    # Precursor order within each step follows first-use position in the product.
    for step in sequence.steps:
        assert list(step.anchor_positions) == sorted(step.anchor_positions)

    aligned = dict(nld_profile(render_sequence(sequence).split("\n")))
    canonical = dict(nld_profile(canonical_step_lines(record.route)))
    assert time.perf_counter() - started < 5.0
    offending = [k for k in sorted(aligned) if aligned[k] > canonical[k]]
    assert not offending, (
        f"aligned rendering NLD exceeds canonical at k={offending}: "
        + ", ".join(f"{aligned[k]:.4f}>{canonical[k]:.4f}" for k in offending)
    )


def test_oracle_equivalence():
    rng = random.Random(17)

    def reference_levenshtein(a: str, b: str) -> int:
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + cost,
                )
        return table[len(a)][len(b)]

    alphabet = "CNOcno()=#123"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    for _ in range(10_000):
        a = frozenset(rng.sample(range(12), rng.randint(0, 6)))
        b = frozenset(rng.sample(range(12), rng.randint(0, 6)))
        union = a | b
        expected = len(a & b) / len(union) if union else 1.0
        assert jaccard(a, b) == expected

    def exhaustive_depth(route) -> int:
        producers = {}
        for reaction in route.reactions:
            producers.setdefault(reaction.product_key, reaction)

        def walk(key) -> int:
            reaction = producers.get(key)
            if reaction is None:
                return 0
            return 1 + max(walk(k) for k in reaction.precursor_keys())

        return walk(route.target_key)

    kept = 0
    for attempt in range(2000):
        record = rand_route_record(rng, index=attempt, convergence=0.4, max_depth=4)
        if len(record.route.reactions) > 12:
            continue
        assert route_depth(record.route) == exhaustive_depth(record.route)
        kept += 1
        if kept == 500:
            break
    assert kept == 500

    pool = [key_of(t) for t in ("C", "O", "N", "CC", "CCO", "CN", "CCC", "C=O")]
    for _ in range(1000):
        entries = tuple(
            SlateEntry(
                plan_id=str(j),
                precursors=frozenset(rng.sample(pool, rng.randint(1, 3))),
                depth=rng.randint(1, 4),
                notation_id="",
            )
            for j in range(rng.randint(1, 8))
        )
        counts = Counter(entry.precursors for entry in entries)
        best = max(counts.values())
        winner = next(e.precursors for e in entries if counts[e.precursors] == best)
        ranked = vote(entries)
        assert ranked[0].votes == best
        assert ranked[0].entry.precursors == winner


def test_reward_monotonicity_properties():
    rng = random.Random(19)
    cache = {
        (steps, invalid): chain_case(steps, invalid)
        for steps in range(1, 6)
        for invalid in range(steps + 1)
    }
    spread = parse_plan(WRAP + "CCCCO>>CC=O.OCC.NC", parse_smiles("CCCCO")[0])
    spread_leaves = frozenset({key_of("CC=O"), key_of("OCC"), key_of("NC")})
    foreign = [key_of(t) for t in ("CCCCCCCCCC", "CCCCCCCCC", "CCCCCCCC")]

    def random_reference():
        ordered = sorted(spread_leaves, key=lambda k: k.key)
        members = set(rng.sample(ordered, rng.randint(1, 3)))
        members.update(rng.sample(foreign, rng.randint(0, 3)))
        return frozenset(members)

    for _ in range(10_000):
        axis = rng.choice(("invalid", "depth", "similarity"))
        if axis == "invalid":
            steps = rng.randint(2, 5)
            low, high = sorted(rng.sample(range(steps + 1), 2))
            ref_depth = rng.randint(1, 7)
            plan_low, leaves_low = cache[(steps, low)]
            plan_high, leaves_high = cache[(steps, high)]
            total_low = score_plan(plan_low, [leaves_low], ref_depth).total
            total_high = score_plan(plan_high, [leaves_high], ref_depth).total
            assert total_high <= total_low + TOL
            if min(low, 4) == min(high, 4):
                assert math.isclose(total_low, total_high, abs_tol=TOL)
        elif axis == "depth":
            steps = rng.randint(1, 5)
            invalid = rng.randint(0, steps)
            shallow, deep = sorted(rng.sample(range(1, 8), 2))
            plan, leaves = cache[(steps, invalid)]
            tight = score_plan(plan, [leaves], shallow).total
            slack = score_plan(plan, [leaves], deep).total
            assert tight <= slack + TOL
            excess_tight = min(max(steps - shallow, 0), 3)
            excess_slack = min(max(steps - deep, 0), 3)
            if excess_tight == excess_slack:
                assert math.isclose(tight, slack, abs_tol=TOL)
        else:
            first = random_reference()
            second = random_reference()
            j_first = jaccard(spread_leaves, first)
            j_second = jaccard(spread_leaves, second)
            total_first = score_plan(spread, [first], 1).total
            total_second = score_plan(spread, [second], 1).total
            if j_first < j_second:
                assert total_first <= total_second + TOL
            elif j_first == j_second:
                assert math.isclose(total_first, total_second, abs_tol=TOL)
            both = score_plan(spread, [first, second], 1).total
            assert math.isclose(both, max(total_first, total_second), abs_tol=TOL)


def test_alignment_throughput_and_rerun_identity(tmp_path):
    records = rand_dataset(random.Random(12), 5000, convergence=0.0, max_depth=6)
    depths = [record.ref_depth for record in records]
    assert abs(sum(depths) / len(depths) - 4.0) < 0.2
    dataset = tmp_path / "dataset.json"
    write_dataset(records, dataset)

    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    started = time.perf_counter()
    rc = main(
        ["align", str(dataset), "--fold", "1", "--seed", "0", "--workers", "1", "-o", str(first)]
    )
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert elapsed < 60.0
    rc = main(
        ["align", str(dataset), "--fold", "1", "--seed", "0", "--workers", "1", "-o", str(second)]
    )
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 5000


def test_pipeline_outputs_are_deterministic(tmp_path):
    records = rand_dataset(random.Random(31), 12, convergence=0.2, max_depth=4)
    dataset = tmp_path / "dataset.json"
    write_dataset(records, dataset)
    plan_rows = [
        {
            "target": record.raw["target"],
            "plan_text": WRAP + render_sequence(align_route(to_tree(record.route), 0)),
        }
        for record in records
    ]
    slate_rows = [
        {
            "target": record.raw["target"],
            "entries": [
                {
                    "plan_id": "truth",
                    "precursors": sorted(k.key for k in record.route.stock_refs),
                    "depth": record.ref_depth,
                },
                {"plan_id": "decoy", "precursors": ["CCCCCCCCCC"], "depth": 1},
            ],
        }
        for record in records
    ]

    def run(tag: str) -> bytes:
        out = tmp_path / tag
        out.mkdir()
        plans = write_jsonl(out / "plans.jsonl", plan_rows)
        slates = write_jsonl(out / "slates.jsonl", slate_rows)
        aligned = out / "aligned.jsonl"
        scored = out / "scored.jsonl"
        ranked = out / "ranked.jsonl"
        report = out / "report.json"
        buckets = out / "buckets.csv"
        nld = out / "nld.csv"
        assert main(["align", str(dataset), "--fold", "3", "--seed", "5", "-o", str(aligned)]) == 0
        assert main(["score", plans, str(dataset), "-o", str(scored)]) == 0
        assert main(["vote", slates, "-o", str(ranked)]) == 0
        rc = main(
            ["eval", str(ranked), str(dataset), "--kmax", "3", "-o", str(report), "--csv", str(buckets)]
        )
        assert rc == 0
        assert main(["nld", str(dataset), "-o", str(nld)]) == 0
        digest = hashlib.sha256()
        for path in (aligned, scored, ranked, report, buckets, nld):
            digest.update(path.read_bytes())
        return digest.digest()

    assert run("first") == run("second")


def test_toolkit_imports_only_the_standard_library():
    package = Path(retroroute.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "retroroute", (module.name, name)
