"""End-to-end command runs against small on-disk datasets.

Commands are invoked in-process through main(argv) so exit codes and printed
output can be asserted directly.
"""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

import golden
from generators import rand_dataset
from retroroute.align import align_route, render_sequence
from retroroute.cli import main
from retroroute.evaluate import depth_bucket
from retroroute.routes import to_tree, write_dataset

WRAP = "<think>pick a disconnection</think>\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Four random routes plus a stock file covering every leaf."""
    base = tmp_path_factory.mktemp("cli")
    records = rand_dataset(random.Random(7), 4, convergence=0.2, max_depth=4)
    dataset = base / "dataset.json"
    write_dataset(records, dataset)
    stock = base / "stock.smi"
    leaves = sorted({k.key for r in records for k in r.route.stock_refs})
    stock.write_text("\n".join(leaves) + "\n", encoding="utf-8")
    return SimpleNamespace(
        base=base, records=records, dataset=str(dataset), stock=str(stock)
    )


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "dataset.json"
    write_dataset([golden.build_record()], path)
    return str(path)


def write_jsonl(path, rows) -> str:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def perfect_plan(record) -> str:
    return WRAP + render_sequence(align_route(to_tree(record.route), 0))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_clean_dataset_passes(work, capsys):
    assert main(["ingest", work.dataset, work.stock]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "4 routes ok, 0 failed"


def test_ingest_names_routes_missing_from_stock(work, tmp_path, capsys):
    leaves = sorted({k.key for r in work.records for k in r.route.stock_refs})
    dropped = leaves[0]
    short = tmp_path / "short.smi"
    short.write_text("\n".join(leaves[1:]) + "\n", encoding="utf-8")
    hit = [
        r.index
        for r in work.records
        if dropped in {k.key for k in r.route.stock_refs}
    ]
    assert main(["ingest", work.dataset, str(short)]) == 1
    out = capsys.readouterr().out
    for index in hit:
        assert f"route {index}: grounding failed: " in out
    assert dropped in out
    assert f"{4 - len(hit)} routes ok, {len(hit)} failed" in out


def test_ingest_without_stock_is_a_config_error(work, capsys):
    assert main(["ingest", work.dataset]) == 2
    assert "no stock file" in capsys.readouterr().err


def test_ingest_rejects_broken_dataset_json(work, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("[not json", encoding="utf-8")
    assert main(["ingest", str(broken), work.stock]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_dataset_file_exits_two(work, tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.json"), work.stock]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def test_align_emits_fold_sequences_per_route_in_order(work, tmp_path):
    out = tmp_path / "aligned.jsonl"
    assert main(["align", work.dataset, "--fold", "3", "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 12
    assert [r["route_id"] for r in rows] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    for row in rows:
        assert set(row) == {"lines", "route_id", "target_root"}
        assert all(">>" in line for line in row["lines"])


def test_align_fold_is_capped_by_target_heavy_atoms(tmp_path):
    raw = {
        "target": "CCO",
        "reactions": [{"product": "CCO", "precursors": ["CC=O"]}],
        "references": [["CC=O"]],
        "ref_depth": 1,
    }
    dataset = tmp_path / "tiny.json"
    dataset.write_text(json.dumps([raw]), encoding="utf-8")
    out = tmp_path / "aligned.jsonl"
    assert main(["align", str(dataset), "--fold", "20", "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    assert sorted(r["target_root"] for r in rows) == [0, 1, 2]


def test_align_reruns_are_byte_identical(work, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    for path in (a, b):
        assert main(["align", work.dataset, "--fold", "4", "--seed", "3", "-o", str(path)]) == 0
    assert main(["align", work.dataset, "--fold", "4", "--seed", "4", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_align_worker_count_does_not_change_output(work, tmp_path):
    serial = tmp_path / "w1.jsonl"
    pooled = tmp_path / "w2.jsonl"
    base = ["align", work.dataset, "--fold", "4", "--seed", "3"]
    assert main(base + ["--workers", "1", "-o", str(serial)]) == 0
    assert main(base + ["--workers", "2", "-o", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_align_reads_config_and_flags_override_it(work, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"dataset": work.dataset, "stock": work.stock, "fold": 2}),
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(["--config", str(config), "align", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8
    assert main(["--config", str(config), "align", "--fold", "1", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_ground_truth_plans_earn_full_reward(work, tmp_path, capsys):
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [
            {"target": r.raw["target"], "plan_text": perfect_plan(r)}
            for r in work.records
        ],
    )
    out = tmp_path / "scored.jsonl"
    assert main(["score", plans, work.dataset, "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    for row in rows:
        assert set(row) == {
            "index",
            "total",
            "format_applied",
            "exact",
            "similarity",
            "invalid_lines",
            "depth_excess",
            "penalty",
        }
        assert row["total"] == 2.0
        assert row["exact"] is True
        assert row["penalty"] == 0.0
    assert "mean_reward 2.0" in capsys.readouterr().out


def test_score_unparsable_plan_scores_zero(work, tmp_path, capsys):
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [{"target": work.records[0].raw["target"], "plan_text": "nothing to see"}],
    )
    out = tmp_path / "scored.jsonl"
    assert main(["score", plans, work.dataset, "-o", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["total"] == 0.0
    assert row["exact"] is None
    assert "mean_reward 0.0" in capsys.readouterr().out


def test_score_mean_over_mixed_plans(work, tmp_path, capsys):
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [
            {"target": work.records[0].raw["target"], "plan_text": perfect_plan(work.records[0])},
            {"target": work.records[1].raw["target"], "plan_text": "nothing to see"},
        ],
    )
    assert main(["score", plans, work.dataset, "-o", str(tmp_path / "s.jsonl")]) == 0
    assert "mean_reward 1.0" in capsys.readouterr().out


def test_score_inline_references_bypass_the_dataset(work, tmp_path, capsys):
    row = {
        "target": "CCO",
        "plan_text": WRAP + "CCO>>CC=O.O",
        "references": [["CC=O", "O"]],
        "ref_depth": 1,
    }
    plans = write_jsonl(tmp_path / "plans.jsonl", [row])
    out = tmp_path / "scored.jsonl"
    assert main(["score", plans, work.dataset, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["total"] == 2.0
    capsys.readouterr()


def test_score_unknown_target_without_references_fails(work, tmp_path, capsys):
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [{"target": "CCCCCCCCCCCCCC", "plan_text": "x"}],
    )
    assert main(["score", plans, work.dataset, "-o", str(tmp_path / "s.jsonl")]) == 2
    assert "target not in dataset and no inline references" in capsys.readouterr().err


def test_score_strict_delimiters_flag_withholds_format_bonus(work, tmp_path, capsys):
    row = {
        "target": "CCO",
        "plan_text": "CCO>>CC=O.O",
        "references": [["CC=O", "O"]],
        "ref_depth": 1,
    }
    plans = write_jsonl(tmp_path / "plans.jsonl", [row])
    out = tmp_path / "scored.jsonl"
    assert main(["score", plans, work.dataset, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["total"] == 2.0
    assert main(["score", plans, work.dataset, "--strict-delimiters", "-o", str(out)]) == 0
    strict = json.loads(out.read_text())
    assert strict["format_applied"] is False
    assert strict["total"] == 1.5
    capsys.readouterr()


def test_score_strict_delimiters_via_config(work, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strict_delimiters": True}), encoding="utf-8")
    row = {
        "target": "CCO",
        "plan_text": "CCO>>CC=O.O",
        "references": [["CC=O", "O"]],
        "ref_depth": 1,
    }
    plans = write_jsonl(tmp_path / "plans.jsonl", [row])
    out = tmp_path / "scored.jsonl"
    assert main(["--config", str(config), "score", plans, work.dataset, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["total"] == 1.5
    capsys.readouterr()


def test_score_plan_text_must_be_a_string(work, tmp_path, capsys):
    row = {"target": "CCO", "plan_text": 42, "references": [["CC"]], "ref_depth": 1}
    plans = write_jsonl(tmp_path / "plans.jsonl", [row])
    assert main(["score", plans, work.dataset, "-o", str(tmp_path / "s.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == "error: plan 0: plan_text must be a JSON string\n"


# Rows each command must reject with exit code 2 and one line, never a traceback.
_ENTRY = {"plan_id": "a", "precursors": ["CC=O", "O"], "depth": 1}
_SCORE = {"target": "CCO", "plan_text": WRAP + "CCO>>CC=O.O", "references": [["CC=O", "O"]], "ref_depth": 1}


@pytest.mark.parametrize(
    "command, row, needle",
    [
        ("eval", {"target": "@", "candidates": [{"depth": 1}]}, "candidate 0: missing 'precursors'"),
        ("eval", {"target": "@", "candidates": {"precursors": ["O"], "depth": 1}}, "candidates must be a JSON array"),
        ("eval", {"target": "@", "candidates": [{"precursors": "O", "depth": 1}]}, "expected a list of SMILES strings"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, precursors="CC=O")]}, "expected a list of SMILES strings"),
        ("vote", {"target": "CCO", "entries": "abc"}, "entries must be a JSON array"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, depth="deep")]}, "depth must be a non-negative integer"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, depth=True)]}, "depth must be a non-negative integer"),
        ("eval", {"target": "@", "candidates": [{"precursors": ["O"], "depth": -1}]}, "depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=True), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=-2), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=1.5), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, references=[["O"], "CC=O"]), "reference 1: expected a list of SMILES strings"),
        ("score", dict(_SCORE, target=["CCO"]), "target must be a JSON string"),
        ("score", dict(_SCORE, references=[["CC=O", "C("]]), "plan 0 reference 0: unclosed branch"),
        ("vote", {"target": "C1CC", "entries": [_ENTRY]}, "slate 0 target: unclosed ring closure"),
    ],
    ids=[
        "eval-candidate-without-precursors",
        "eval-candidates-not-a-list",
        "eval-precursors-not-a-list",
        "vote-precursors-not-a-list",
        "vote-entries-not-a-list",
        "vote-depth-not-an-int",
        "vote-depth-bool",
        "eval-depth-negative",
        "score-ref-depth-bool",
        "score-ref-depth-negative",
        "score-ref-depth-float",
        "score-reference-group-not-a-list",
        "score-target-not-a-string",
        "score-bad-reference-smiles",
        "vote-bad-target-smiles",
    ],
)
def test_bad_row_fields_exit_two_with_one_line(work, tmp_path, capsys, command, row, needle):
    if row.get("target") == "@":
        row = dict(row, target=work.records[0].raw["target"])
    rows = write_jsonl(tmp_path / "rows.jsonl", [row])
    argv = {
        "score": ["score", rows, work.dataset],
        "vote": ["vote", rows],
        "eval": ["eval", rows, work.dataset],
    }[command]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


# ---------------------------------------------------------------------------
# vote and eval
# ---------------------------------------------------------------------------


def test_vote_collapses_renderings_and_ranks_by_count(tmp_path):
    slates = write_jsonl(
        tmp_path / "slates.jsonl",
        [
            {
                "target": "CCO",
                "entries": [
                    {"plan_id": "a", "precursors": ["CC=O", "O"], "depth": 1},
                    {"plan_id": "b", "precursors": ["CCCCCCCCCC"], "depth": 1},
                    {"plan_id": "c", "precursors": ["O=CC", "O"], "depth": 1},
                ],
            }
        ],
    )
    out = tmp_path / "ranked.jsonl"
    assert main(["vote", slates, "-o", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["target"] == "CCO"
    assert [c["plan_id"] for c in row["candidates"]] == ["a", "b"]
    assert row["candidates"][0]["votes"] == 2
    assert row["candidates"][0]["precursors"] == ["CC=O", "O"]
    assert row["candidates"][1]["votes"] == 1


def test_vote_rejects_entry_missing_a_field(tmp_path, capsys):
    slates = write_jsonl(
        tmp_path / "slates.jsonl",
        [{"target": "CCO", "entries": [{"plan_id": "a", "precursors": ["O"]}]}],
    )
    assert main(["vote", slates, "-o", str(tmp_path / "r.jsonl")]) == 2
    assert "missing 'depth'" in capsys.readouterr().err


def test_vote_output_feeds_eval_directly(work, tmp_path, capsys):
    record = work.records[0]
    right = sorted(k.key for k in record.route.stock_refs)
    slates = write_jsonl(
        tmp_path / "slates.jsonl",
        [
            {
                "target": record.raw["target"],
                "entries": [
                    {"plan_id": "a", "precursors": right, "depth": record.ref_depth},
                    {"plan_id": "b", "precursors": ["CCCCCCCCCC"], "depth": 1},
                    {"plan_id": "c", "precursors": right, "depth": record.ref_depth},
                ],
            }
        ],
    )
    ranked = tmp_path / "ranked.jsonl"
    assert main(["vote", slates, "-o", str(ranked)]) == 0
    report_path = tmp_path / "report.json"
    rc = main(["eval", str(ranked), work.dataset, "--kmax", "2", "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["top_k"] == {"1": 1.0, "2": 1.0}
    assert report["total"] == 1
    bucket = depth_bucket(record.ref_depth)
    assert report["depth_accuracy"][bucket] == 1.0
    assert report["depth_counts"][bucket] == 1
    capsys.readouterr()


def test_eval_correct_candidate_ranked_second(work, tmp_path, capsys):
    record = work.records[1]
    right = sorted(k.key for k in record.route.stock_refs)
    candidates = write_jsonl(
        tmp_path / "candidates.jsonl",
        [
            {
                "target": record.raw["target"],
                "candidates": [
                    {"precursors": ["CCCCCCCCCC"], "depth": 1},
                    {"precursors": right, "depth": record.ref_depth},
                ],
            }
        ],
    )
    report_path = tmp_path / "report.json"
    rc = main(["eval", str(candidates), work.dataset, "--kmax", "3", "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["top_k"] == {"1": 0.0, "2": 1.0, "3": 1.0}
    capsys.readouterr()


def test_eval_empty_candidate_list_scores_zero(work, tmp_path, capsys):
    candidates = write_jsonl(
        tmp_path / "candidates.jsonl",
        [{"target": work.records[0].raw["target"], "candidates": []}],
    )
    report_path = tmp_path / "report.json"
    rc = main(["eval", str(candidates), work.dataset, "--kmax", "2", "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["top_k"] == {"1": 0.0, "2": 0.0}
    assert report["total"] == 1
    capsys.readouterr()


def test_eval_prints_payload_and_table_without_out(work, tmp_path, capsys):
    record = work.records[0]
    right = sorted(k.key for k in record.route.stock_refs)
    candidates = write_jsonl(
        tmp_path / "candidates.jsonl",
        [
            {
                "target": record.raw["target"],
                "candidates": [{"precursors": right, "depth": record.ref_depth}],
            }
        ],
    )
    assert main(["eval", str(candidates), work.dataset, "--kmax", "2"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    assert payload["top_k"]["1"] == 1.0
    assert "top-1  1.0000" in out
    assert "depth  count  top-1" in out


def test_eval_writes_depth_csv(work, tmp_path, capsys):
    record = work.records[0]
    right = sorted(k.key for k in record.route.stock_refs)
    candidates = write_jsonl(
        tmp_path / "candidates.jsonl",
        [
            {
                "target": record.raw["target"],
                "candidates": [{"precursors": right, "depth": record.ref_depth}],
            }
        ],
    )
    csv_path = tmp_path / "buckets.csv"
    rc = main(
        ["eval", str(candidates), work.dataset, "--csv", str(csv_path), "-o", str(tmp_path / "r.json")]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "bucket,count,top1"
    assert len(lines) == 6
    assert f"{depth_bucket(record.ref_depth)},1,1.0" in lines
    capsys.readouterr()


def test_eval_unknown_target_fails(work, tmp_path, capsys):
    candidates = write_jsonl(
        tmp_path / "candidates.jsonl",
        [{"target": "CCCCCCCCCCCCCC", "candidates": []}],
    )
    assert main(["eval", str(candidates), work.dataset, "-o", str(tmp_path / "r.json")]) == 2
    assert "target not present in the dataset" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# nld
# ---------------------------------------------------------------------------


def test_nld_csv_shape(golden_dataset, tmp_path):
    out = tmp_path / "nld.csv"
    assert main(["nld", golden_dataset, "--mode", "aligned", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "route_id,mode,step,nld"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    assert [r[0] for r in rows] == ["0"] * 9
    assert [r[1] for r in rows] == ["aligned"] * 9
    assert [int(r[2]) for r in rows] == list(range(1, 10))
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_nld_aligned_beats_canonical_on_average(golden_dataset, tmp_path):
    means = {}
    for mode in ("aligned", "canonical"):
        out = tmp_path / f"{mode}.csv"
        assert main(["nld", golden_dataset, "--mode", mode, "-o", str(out)]) == 0
        values = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        means[mode] = sum(values) / len(values)
    assert means["aligned"] < means["canonical"]


def test_nld_route_flag_selects_one_route(work, tmp_path):
    out = tmp_path / "nld.csv"
    assert main(["nld", work.dataset, "--route", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert lines
    assert all(line.startswith("2,aligned,") for line in lines)


def test_nld_route_index_out_of_range(work, capsys):
    assert main(["nld", work.dataset, "--route", "99"]) == 2
    assert "route index 99 out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"frobnicate": 1}, "unknown config keys ['frobnicate']"),
        ({"reward": {"bogus": 1}}, "unknown reward keys ['bogus']"),
        ({"delimiters": ["only-one"]}, "two non-empty strings"),
        ({"fold": 0}, "at least 1"),
        ({"dataset": "/nonexistent/routes.json"}, "does not exist"),
    ],
)
def test_bad_config_exits_two(work, tmp_path, capsys, payload, needle):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["--config", str(config), "ingest", work.dataset, work.stock]) == 2
    assert needle in capsys.readouterr().err


def test_fold_flag_must_be_positive(work, tmp_path, capsys):
    rc = main(["align", work.dataset, "--fold", "0", "-o", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert "at least 1" in capsys.readouterr().err
