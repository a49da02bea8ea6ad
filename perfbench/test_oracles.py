"""Tests of the benchmark's own oracles, generator and tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each oracle is tested on hand-worked cases, and each checker must accept a
right output and reject a deliberately corrupted one.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import chem  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402


def plan(lines, references, ref_depth, invalid_lines=0):
    return {"lines": lines, "references": references, "ref_depth": ref_depth, "invalid_lines": invalid_lines}


CHAIN = [["T", ["I", "A"]], ["I", ["J", "B"]], ["J", ["C", "D"]]]  # depth 3, leaves A B C D
LEAVES = [["A", "B", "C", "D"]]


class RewardArithmetic(unittest.TestCase):
    def test_exact_plan_scores_two(self):
        self.assertEqual(oracles.reward_total(plan(CHAIN, LEAVES, 3)), 2.0)

    def test_invalid_lines_cost_a_tenth_each_up_to_four(self):
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 3, 1)), 1.9, places=12)
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 3, 2)), 1.8, places=12)
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 3, 9)), 1.6, places=12)

    def test_depth_beyond_reference_costs_a_fifth_each_up_to_three(self):
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 2)), 1.8, places=12)
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 0)), 1.4, places=12)
        self.assertEqual(oracles.reward_total(plan(CHAIN, LEAVES, 5)), 2.0)

    def test_worst_exact_plan_ties_best_similarity(self):
        self.assertAlmostEqual(oracles.reward_total(plan(CHAIN, LEAVES, 0, 4)), 1.0, places=12)

    def test_swapped_leaf_scores_by_jaccard(self):
        swapped = [CHAIN[0], CHAIN[1], ["J", ["C", "E"]]]  # leaves A B C E: J = 3/5
        self.assertAlmostEqual(oracles.reward_total(plan(swapped, LEAVES, 3)), 0.5 + 0.5 * 0.6, places=12)

    def test_dropped_line_turns_its_product_into_a_leaf(self):
        dropped = CHAIN[:2]  # leaves A B J: J = 2/5
        self.assertAlmostEqual(oracles.reward_total(plan(dropped, LEAVES, 3)), 0.5 + 0.5 * 0.4, places=12)

    def test_best_reference_counts(self):
        refs = [["X"], ["A", "B", "C", "D"]]
        self.assertEqual(oracles.reward_total(plan(CHAIN, refs, 3)), 2.0)

    def test_unparsable_plan_scores_zero(self):
        self.assertEqual(oracles.reward_total(None), 0.0)

    def test_plan_depth_follows_the_longest_path(self):
        self.assertEqual(oracles.plan_depth(CHAIN), 3)
        branched = [["T", ["I", "K"]], ["I", ["A", "B"]], ["K", ["L", "C"]], ["L", ["D", "E"]]]
        self.assertEqual(oracles.plan_depth(branched), 3)


def brute_levenshtein(a: str, b: str) -> int:
    table = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            )
    return table[-1][-1]


class EditDistance(unittest.TestCase):
    def test_hand_worked(self):
        for a, b, d in [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
            ("abc", "", 3),
            ("same", "same", 0),
            ("CCO", "OCC", 2),
            ("c1ccccc1", "c1ccncc1", 1),
        ]:
            self.assertEqual(oracles.levenshtein(a, b), d, (a, b))

    def test_matches_the_full_table_beyond_one_word(self):
        rng = random.Random(7)
        for _ in range(300):
            a = "".join(rng.choice("CNO()=1") for _ in range(rng.randint(0, 90)))
            b = "".join(rng.choice("CNO()=1") for _ in range(rng.randint(0, 90)))
            self.assertEqual(oracles.levenshtein(a, b), brute_levenshtein(a, b), (a, b))

    def test_nld_normalizes_by_the_longer_text(self):
        self.assertEqual(oracles.nld(["AB>>AB", "X>>ABC"]), [0.0, 1 / 3])


class Formulas(unittest.TestCase):
    def test_hand_worked(self):
        for text, expected in [
            ("CCO", "C2H6O"),
            ("c1ccccc1", "C6H6"),
            ("c1ccncc1", "C5H5N"),
            ("OC=O", "CH2O2"),
            ("[CH3:1][OH:2]", "CH4O"),
            ("c1ccccc1-c1ccccc1", "C12H10"),
            ("c1ccccc1c1ccccc1", "C12H10"),
            ("ClC(Br)F", "CHBrClF"),
            ("C%12CCCCC%12", "C6H12"),
            ("N#CC(=O)N", "C2H2N2O"),
        ]:
            self.assertEqual(chem.formula(text), expected, text)

    def test_reader_rejects_broken_text(self):
        for text in inputs.BAD_PARTS[:3]:
            with self.assertRaises(ValueError):
                chem.read_atoms(text)

    def test_every_spelling_of_a_generated_molecule_has_its_formula(self):
        gen = inputs.Generator(random.Random(3))
        for size in range(5, 30, 3):
            mol = gen.fragment(size)
            maps = {i: i + 1 for i in range(len(mol))}
            for root in range(len(mol)):
                for text in (chem.write(mol, root), chem.write(mol, root, maps, random.Random(root))):
                    self.assertEqual(chem.formula(text), mol.formula(), text)
                    self.assertEqual(len(chem.read_atoms(text)), len(mol))

    def test_first_atom_of_a_rooted_spelling_is_the_root(self):
        gen = inputs.Generator(random.Random(4))
        mol = gen.fragment(12)
        atoms = chem.read_atoms(chem.write(mol, 0))
        for root in range(len(mol)):
            first = chem.read_atoms(chem.write(mol, root, shuffle=random.Random(root)))[0]
            self.assertEqual(first[:2], (mol.elements[root], mol.aromatic[root]))
            self.assertEqual(first[2:], (len(mol.nbrs[root]), mol.hydrogens(root)))
        self.assertEqual(len(atoms), len(mol))


class PathCoherence(unittest.TestCase):
    def test_later_products_must_be_earlier_precursors_verbatim(self):
        self.assertEqual(oracles.path_problems(["OCCC>>OC.CC", "CC>>C.CBr"]), [])
        self.assertTrue(oracles.path_problems(["OCCC>>OC.CC", "C(C)>>C.CBr"]))
        self.assertTrue(oracles.path_problems(["OCCC>>OC.CC", "CC>>C.CBr", "CO>>C.O"]))


class VoteAndTopK(unittest.TestCase):
    ENTRIES = [["p0", ["CH4"], 2], ["p1", ["C2H6"], 3], ["p2", ["C2H6"], 2], ["p3", ["CH4O"], 1]]

    def test_tally_orders_by_votes_then_first_entry(self):
        self.assertEqual(
            oracles.vote_tally(self.ENTRIES),
            [("p1", ["C2H6"], 3, 2), ("p0", ["CH4"], 2, 1), ("p3", ["CH4O"], 1, 1)],
        )

    def test_topk_needs_a_reference_set_no_deeper_than_the_reference(self):
        targets = [
            ([(["C2H6"], 3), (["CH4"], 2)], [["CH4"]], 2),  # hit at rank 2
            ([(["C2H6"], 3)], [["C2H6"]], 2),  # too deep: miss
            ([(["X"], 1)], [["X"]], 7),  # hit at rank 1, bucket >=5
        ]
        report = oracles.topk(targets, 2)
        self.assertEqual(report["top_k"], {"1": 1 / 3, "2": 2 / 3})
        self.assertEqual(report["depth_counts"], {"1": 0, "2": 2, "3": 0, "4": 0, ">=5": 1})
        self.assertEqual(report["depth_accuracy"]["2"], 0.0)
        self.assertEqual(report["depth_accuracy"][">=5"], 1.0)
        self.assertIsNone(report["depth_accuracy"]["1"])


class Checkers(unittest.TestCase):
    """Each checker accepts a right output and rejects a corrupted one."""

    def test_ingest(self):
        truth = {"routes": [{}, {}, {}], "failing": {"1": ["CH3Br"]}}
        good = "route 1: grounding failed: BrC\n2 routes ok, 1 failed\n"
        self.assertEqual(oracles.check_ingest(good, 1, truth), [])
        self.assertTrue(oracles.check_ingest(good, 0, truth))
        self.assertTrue(oracles.check_ingest("route 2: grounding failed: BrC\n2 routes ok, 1 failed\n", 1, truth))
        self.assertTrue(oracles.check_ingest("route 1: grounding failed: CO\n2 routes ok, 1 failed\n", 1, truth))
        self.assertTrue(oracles.check_ingest("route 1: grounding failed: BrC\n3 routes ok, 0 failed\n", 1, truth))

    ALIGN_TRUTH = {
        "routes": [
            {"formula": "C3H8O", "heavy": 4, "lines": [["C3H8O", ["C2H6", "CH4O"]], ["C2H6", ["CH3Br", "CH4"]]]}
        ]
    }
    ALIGN_DATASET = [{"target": "OCCC"}]
    ALIGN_LINES = {
        0: ["OCCC>>OC.CC", "CC>>C.CBr"],
        1: ["C(O)CC>>CO.CC", "CC>>CBr.C"],
        2: ["C(CO)C>>CC.CO", "CC>>C.CBr"],
        3: ["CCCO>>CC.CO", "CC>>CBr.C"],
    }

    def align_text(self, lines_by_root):
        return "".join(
            json.dumps({"route_id": 0, "target_root": root, "lines": lines}) + "\n"
            for root, lines in lines_by_root.items()
        )

    def check_align(self, lines_by_root, fold=20):
        return oracles.check_align(self.align_text(lines_by_root), self.ALIGN_DATASET, self.ALIGN_TRUTH, fold)

    def test_align_accepts_right_output(self):
        self.assertEqual(self.check_align(self.ALIGN_LINES), [])
        self.assertEqual(self.check_align({0: self.ALIGN_LINES[0], 3: self.ALIGN_LINES[3]}, fold=2), [])

    def test_align_rejects_corruptions(self):
        missing = {k: v for k, v in self.ALIGN_LINES.items() if k != 2}
        wrong_root = {**self.ALIGN_LINES, 1: self.ALIGN_LINES[0]}
        wrong_formula = {**self.ALIGN_LINES, 0: ["OCCC>>OC.CC", "CC>>C.CCBr"]}
        incoherent = {**self.ALIGN_LINES, 0: ["OCCC>>OC.CC", "C(C)>>C.CBr"]}
        extra_line = {**self.ALIGN_LINES, 0: self.ALIGN_LINES[0] + ["CC>>C.CBr"]}
        for corrupted in (missing, wrong_root, wrong_formula, incoherent, extra_line):
            self.assertTrue(self.check_align(corrupted), corrupted)

    def test_score(self):
        truth = {"plans": [plan(CHAIN, LEAVES, 3), None, plan(CHAIN, LEAVES, 3)], "biaryl": [2]}
        rows = lambda totals: "".join(  # noqa: E731
            json.dumps({"index": i, "total": t}) + "\n" for i, t in enumerate(totals)
        )
        mean = lambda totals: f"mean_reward {sum(totals) / len(totals)!r}\n"  # noqa: E731
        self.assertEqual(oracles.check_score(rows([2.0, 0.0, 2.0]), mean([2.0, 0.0, 2.0]), truth), ([], 0))
        self.assertEqual(oracles.check_score(rows([2.0, 0.0, 0.0]), mean([2.0, 0.0, 0.0]), truth), ([], 1))
        problems, failed = oracles.check_score(rows([1.9, 0.0, 2.0]), mean([1.9, 0.0, 2.0]), truth)
        self.assertTrue(problems)
        self.assertEqual(failed, 0)
        self.assertTrue(oracles.check_score(rows([2.0, 0.0, 2.0]), "mean_reward 0.5\n", truth)[0])
        self.assertTrue(oracles.check_score(rows([2.0, 0.0]), mean([2.0, 0.0]), truth)[0])

    SLATES = {
        "slates": [
            {"entries": VoteAndTopK.ENTRIES, "references": [["CH4"]], "ref_depth": 2},
            {"entries": [["q0", ["C2H6", "CH4"], 1]], "references": [["C2H6", "CH4"]], "ref_depth": 1},
        ]
    }

    def test_vote(self):
        good = [
            {"candidates": [
                {"plan_id": "p1", "precursors": ["CC"], "depth": 3, "votes": 2},
                {"plan_id": "p0", "precursors": ["C"], "depth": 2, "votes": 1},
                {"plan_id": "p3", "precursors": ["CO"], "depth": 1, "votes": 1},
            ]},
            {"candidates": [{"plan_id": "q0", "precursors": ["C", "CC"], "depth": 1, "votes": 1}]},
        ]
        text = lambda rows: "".join(json.dumps(r) + "\n" for r in rows)  # noqa: E731
        self.assertEqual(oracles.check_vote(text(good), self.SLATES), [])
        swapped = json.loads(json.dumps(good))
        swapped[0]["candidates"][1:] = swapped[0]["candidates"][:0:-1]
        miscounted = json.loads(json.dumps(good))
        miscounted[0]["candidates"][0]["votes"] = 3
        wrong_key = json.loads(json.dumps(good))
        wrong_key[1]["candidates"][0]["precursors"] = ["C", "CCC"]
        for corrupted in (swapped, miscounted, wrong_key, good[:1]):
            self.assertTrue(oracles.check_vote(text(corrupted), self.SLATES))

    def test_eval(self):
        expected = oracles.expected_report(self.SLATES, 5)
        self.assertEqual(expected["top_k"], {"1": 0.5, "2": 1.0, "3": 1.0, "4": 1.0, "5": 1.0})
        csv = "bucket,count,top1\n1,1,1.0\n2,1,0.0\n3,0,\n4,0,\n>=5,0,\n"
        self.assertEqual(oracles.check_eval(json.dumps(expected), csv, self.SLATES, 5), [])
        corrupted = dict(expected, top_k={**expected["top_k"], "1": 1.0})
        self.assertTrue(oracles.check_eval(json.dumps(corrupted), csv, self.SLATES, 5))
        self.assertTrue(oracles.check_eval(json.dumps(expected), csv.replace("2,1,0.0", "2,1,1.0"), self.SLATES, 5))

    def test_nld(self):
        truth = {"routes": [{"lines": [["C3H8O", ["C2H6", "CH4O"]], ["C2H6", ["CH3Br", "CH4"]]]}]}
        rendered = {0: ["OCCC>>OC.CC", "CC>>C.CBr"]}
        values = oracles.nld(rendered[0])
        good = f"route_id,mode,step,nld\n0,aligned,1,{values[0]!r}\n0,aligned,2,{values[1]!r}\n"
        self.assertEqual(oracles.check_nld(good, truth, "aligned", rendered), [])
        for corrupted in (
            good.replace(f"2,{values[1]!r}", "2,1.5"),
            good.replace(f"2,{values[1]!r}", "2,0.5"),
            "\n".join(good.splitlines()[:2]) + "\n",
            good.replace("aligned", "canonical"),
        ):
            self.assertTrue(oracles.check_nld(corrupted, truth, "aligned", rendered), corrupted)
        self.assertTrue(oracles.check_nld(good, truth, "aligned", {0: ["OCCC>>OC.CC", "C(C)>>C.CBr"]}))


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs_and_biaryl_rows_ignore_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / name for name in ("a", "b", "c")]
            for d, seed in zip(dirs, (1, 1, 2)):
                d.mkdir()
                inputs.make_reward(seed, d)
            read = lambda d: (d / "plans.jsonl").read_text().splitlines()  # noqa: E731
            self.assertEqual(read(dirs[0]), read(dirs[1]))
            self.assertNotEqual(read(dirs[0]), read(dirs[2]))
            block = inputs.BIARYL_TARGETS * inputs.BIARYL_ROWS_PER_TARGET
            self.assertEqual(read(dirs[0])[-block:], read(dirs[2])[-block:])

    def test_molecules_of_a_workload_have_distinct_formulas(self):
        with tempfile.TemporaryDirectory() as tmp:
            inputs.make_prep(5, Path(tmp))
            stock = Path(tmp, "stock.smi").read_text().split()
            self.assertEqual(len({chem.formula(t) for t in stock}), len(stock))

    def test_generation_does_not_import_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            code = (
                "import sys; sys.path.insert(0, sys.argv[1]); import inputs; from pathlib import Path\n"
                "for name, make in inputs.WORKLOADS.items():\n"
                "    (Path(sys.argv[2]) / name).mkdir(); make(0, Path(sys.argv[2]) / name)\n"
                "assert not [m for m in sys.modules if m.startswith('retroroute')]\n"
            )
            subprocess.run([sys.executable, "-c", code, str(HERE), tmp], check=True)


class Tracing(unittest.TestCase):
    def test_self_time_excludes_nested_traced_calls(self):
        tracer = Tracer()

        def inner(a, b):
            return sum(range(20000))

        inner_traced = tracer.wrap("evaluate.levenshtein", inner)

        def outer():
            return [inner_traced("abc", "de") for _ in range(3)]

        outer_traced = tracer.wrap("reward.parse_plan", outer)
        outer_traced()
        stats = tracer.report()
        self.assertEqual(stats["evaluate.levenshtein"]["calls"], 3)
        self.assertEqual(stats["evaluate.levenshtein"]["cells"], 18)
        parse = stats["reward.parse_plan"]
        self.assertAlmostEqual(parse["self_s"], parse["total_s"] - stats["evaluate.levenshtein"]["total_s"], places=9)
        self.assertGreater(parse["self_s"], 0)

    def test_distinct_inputs_are_counted(self):
        tracer = Tracer()
        parse = tracer.wrap("smiles.parse_smiles", lambda text: text)
        for text in ("C", "CC", "C", "C"):
            parse(text)
        self.assertEqual(tracer.report()["smiles.parse_smiles"]["distinct"], 2)


class Runner(unittest.TestCase):
    def test_an_output_of_the_wrong_shape_is_a_problem(self):
        import run

        cmd = run.Command("score", ["score"], 1, ["scored.jsonl"])
        result = run.Result(0, "", "", run.Timing(1.0, 0.1), {"scored.jsonl": b"not json\n"})
        truth = {"plans": [None], "biaryl": []}
        problems, failed = run.check("reward", [cmd], {"score": result}, truth, HERE)
        self.assertTrue(problems)
        self.assertEqual(failed, 0)

    def test_unexpected_exit_code_is_a_problem(self):
        import run

        cmd = run.Command("score", ["score"], 1, ["scored.jsonl"])
        result = run.Result(1, "", "Traceback\nAttributeError: x", run.Timing(1.0, 0.1), {})
        problems, _ = run.check("reward", [cmd], {"score": result}, {}, HERE)
        self.assertIn("AttributeError", problems[0])

    def test_reference_speed_is_the_ratio_of_totals(self):
        import run

        timings = [run.Timing(2.0, 0.2), run.Timing(1.0, 0.05)]
        self.assertAlmostEqual(run.at_reference(timings), run.CALIBRATION_S * 3.0 / 0.25)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_what_the_runner_prints(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
