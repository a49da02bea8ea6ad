"""End-to-end command runs against small on-disk datasets.

Commands are invoked in-process through main(argv) so exit codes and printed
output can be asserted directly.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import retroroute.cli
from generators import rand_dataset, write_dataset
from retroroute.align import align_route, default_root, render_sequence
from retroroute.cli import PipelineConfig, load_config, main
from retroroute.evaluate import depth_bucket
from retroroute.reward import RewardConfig
from retroroute.routes import ingest_dataset, linearize_nodes, to_tree
from retroroute.smiles import canonical_key
from test_evaluate import oracle_levenshtein

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


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One 1,000-step chain route [1001CH4] <- [1000CH4] <- ... <- [1CH4]."""
    base = tmp_path_factory.mktemp("chain")
    steps = 1000
    raw = {
        "target": f"[{steps + 1}CH4]",
        "reactions": [
            {"product": f"[{k + 1}CH4]", "precursors": [f"[{k}CH4]"]}
            for k in range(steps, 0, -1)
        ],
        "references": [["[1CH4]"]],
        "ref_depth": steps,
    }
    dataset = base / "chain.json"
    dataset.write_text(json.dumps([raw]), encoding="utf-8")
    stock = base / "stock.smi"
    stock.write_text("[1CH4]\n", encoding="utf-8")
    return SimpleNamespace(dataset=str(dataset), stock=str(stock), steps=steps)


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


@pytest.mark.parametrize("bad", ["config", "dataset", "stock", "rows", "out", "csv"])
def test_directory_given_as_a_file_path_exits_two(work, tmp_path, capsys, bad):
    folder = tmp_path / "folder"
    folder.mkdir()
    record = work.records[0]
    rows = write_jsonl(
        tmp_path / "rows.jsonl",
        [{"target": record.raw["target"], "candidates": [{"precursors": ["C"], "depth": 1}]}],
    )
    report = str(tmp_path / "report.json")
    args = {
        "config": ["--config", str(folder), "ingest", work.dataset, work.stock],
        "dataset": ["ingest", str(folder), work.stock],
        "stock": ["ingest", work.dataset, str(folder)],
        "rows": ["vote", str(folder)],
        "out": ["eval", rows, work.dataset, "-o", str(folder)],
        "csv": ["eval", rows, work.dataset, "-o", report, "--csv", str(folder)],
    }[bad]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(folder) in err


_DEEP = "[" * 100_000
_LONG_DEPTH = (
    '{"target": "CCO", "entries": [{"plan_id": "a", "precursors": ["O"], "depth": '
    + "1" * 5_000
    + "}]}"
)


@pytest.mark.parametrize(
    "command, text",
    [("vote", _DEEP), ("ingest", _DEEP), ("vote", _LONG_DEPTH)],
    ids=["deep-rows", "deep-dataset", "long-integer"],
)
def test_json_that_python_cannot_load_exits_two(work, tmp_path, capsys, command, text):
    if text is _LONG_DEPTH and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    if command == "ingest":
        args, where = ["ingest", str(path), work.stock], f"{path}: "
    else:
        args, where = ["vote", str(path)], f"{path} line 1: "
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}not valid JSON") and err.count("\n") == 1


def test_target_with_a_number_python_cannot_read_exits_two(tmp_path, capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    target = "[" + "1" * 5_000 + "C]"
    entry = {"plan_id": "a", "precursors": ["O"], "depth": 1}
    rows = write_jsonl(tmp_path / "rows.jsonl", [{"target": target, "entries": [entry]}])
    assert main(["vote", rows, "-o", str(tmp_path / "ranked.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {rows} line 1 target: bracket atom number too long at position 0\n"


@pytest.mark.parametrize("command", ["ingest", "align"])
def test_dataset_that_is_not_utf8_exits_two(work, tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('[{"target": "CCO", "note": "\u00e9"}]'.encode("latin-1"))
    args = [command, str(latin1)] + ([work.stock] if command == "ingest" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(latin1) in err


@pytest.mark.parametrize("bad", ["config", "stock", "rows"])
def test_input_file_that_is_not_utf8_is_named(work, tmp_path, capsys, bad):
    latin1 = tmp_path / f"latin1.{bad}"
    latin1.write_bytes('{"note": "\u00e9"}\n'.encode("latin-1"))
    args = {
        "config": ["--config", str(latin1), "ingest", work.dataset, work.stock],
        "stock": ["ingest", work.dataset, str(latin1)],
        "rows": ["vote", str(latin1)],
    }[bad]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(latin1) in err


@pytest.mark.parametrize("command", ["ingest", "align", "nld"])
def test_thousand_step_chain_route_exits_zero(chain, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "ingest": ["ingest", chain.dataset, chain.stock],
        "align": ["align", chain.dataset, "--fold", "1", "-o", str(out)],
        "nld": ["nld", chain.dataset, "-o", str(out)],
    }[command]
    assert main(args) == 0
    if command == "ingest":
        assert capsys.readouterr().out == "1 routes ok, 0 failed\n"
    elif command == "align":
        assert len(json.loads(out.read_text())["lines"]) == chain.steps
    else:
        assert len(out.read_text().splitlines()) == chain.steps + 1


@pytest.mark.parametrize("command", ["align", "nld"])
@pytest.mark.parametrize(
    "steps, needle",
    [
        ([("CCO", "CC=O"), ("CC=O", "CCO")], "route contains a cycle through ['CCO', 'CC=O']"),
        ([("CCO", "CC=O"), ("CCO", "CCBr")], "molecule CCO has more than one producing reaction"),
    ],
    ids=["cycle", "two-producers"],
)
def test_route_that_cannot_become_a_tree_exits_one(tmp_path, capsys, command, steps, needle):
    def record(steps) -> dict:
        reactions = [{"product": p, "precursors": [q]} for p, q in steps]
        return {"target": "CCO", "reactions": reactions, "references": [["CC=O"]], "ref_depth": 1}

    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([record(steps[:1]), record(steps)]), encoding="utf-8")
    assert main([command, str(dataset), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: record 1: {needle}\n"


@pytest.mark.parametrize("mode", ["aligned", "canonical"])
def test_nld_of_a_route_without_reactions_writes_no_steps(tmp_path, mode):
    raw = {"target": "CCO", "reactions": [], "references": [["CCO"]], "ref_depth": 0}
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([raw]), encoding="utf-8")
    out = tmp_path / "nld.csv"
    assert main(["nld", str(dataset), "--mode", mode, "-o", str(out)]) == 0
    assert out.read_text() == "route_id,mode,step,nld\n"


def test_align_of_a_route_without_reactions_writes_no_lines(tmp_path):
    raw = {"target": "B", "reactions": [], "references": [["B"]], "ref_depth": 0}
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([raw]), encoding="utf-8")
    out = tmp_path / "aligned.jsonl"
    assert main(["align", str(dataset), "--fold", "2", "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows == [{"lines": [], "route_id": 0, "target_root": 0}]


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


def test_pool_never_starts_more_processes_than_tasks(work, tmp_path, monkeypatch):
    # A stand-in pool that records its size and runs the tasks in-process.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    serial = tmp_path / "w1.jsonl"
    pooled = tmp_path / "w64.jsonl"
    base = ["align", work.dataset, "--fold", "2"]
    assert main(base + ["--workers", "1", "-o", str(serial)]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(base + ["--workers", "64", "-o", str(pooled)]) == 0
    assert sizes == [len(work.records)]
    assert serial.read_bytes() == pooled.read_bytes()
    assert retroroute.cli._map_ordered(operator.neg, [1, 2, 3], 2) == [-1, -2, -3]
    assert sizes == [len(work.records), 2]


class _AffinityStandIns:
    """os.sched_getaffinity and os.sched_setaffinity stand-ins that count
    reads and record each set asked for; `fail_first` makes the first set
    call raise."""

    def __init__(self, allowed, fail_first=False):
        self.allowed = set(allowed)
        self.calls = []
        self.reads = 0
        self.fail_first = fail_first

    def getaffinity(self, pid):
        self.reads += 1
        return set(self.allowed)

    def setaffinity(self, pid, cpus):
        self.calls.append(set(cpus))
        if self.fail_first and len(self.calls) == 1:
            raise OSError(22, "Invalid argument")


class _InProcessPool:
    """A stand-in pool that runs its initializer once per worker, then the
    tasks, all in-process."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        if initializer is not None:
            for _ in range(max_workers):
                initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("fail_first", [False, True])
def test_pool_workers_start_on_distinct_cpus_in_turn(monkeypatch, fail_first):
    import concurrent.futures

    affinity = _AffinityStandIns({5, 2}, fail_first=fail_first)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", affinity.getaffinity, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", affinity.setaffinity, raising=False)
    assert retroroute.cli._map_ordered(operator.neg, [1, 2, 3, 4], 3) == [-1, -2, -3, -4]
    if fail_first:
        # The first worker stays where it started; the others are placed.
        assert affinity.calls == [{2}, {5}, {2, 5}, {2}, {2, 5}]
    else:
        assert affinity.calls == [{2}, {2, 5}, {5}, {2, 5}, {2}, {2, 5}]


def test_pool_workers_are_not_placed_without_sched_setaffinity(monkeypatch):
    import concurrent.futures

    affinity = _AffinityStandIns({2, 5})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", affinity.getaffinity, raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert retroroute.cli._map_ordered(operator.neg, [1, 2, 3], 3) == [-1, -2, -3]
    assert affinity.calls == [] and affinity.reads == 0


def _allowed_cpus(task):
    return task, os.sched_getaffinity(0)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least two allowed CPUs",
)
def test_placed_pool_workers_are_not_bound_to_their_cpu():
    # Which CPU each worker ran on is up to the kernel; what is fixed is
    # that placement gave every worker back the whole inherited set.
    allowed = os.sched_getaffinity(0)
    tasks = list(range(8))
    results = retroroute.cli._map_ordered(_allowed_cpus, tasks, 2)
    assert [task for task, _ in results] == tasks
    assert all(cpus == allowed for _, cpus in results)


def test_a_one_worker_run_does_not_load_multiprocessing(work, tmp_path):
    # Worker placement lives behind the pool: align with one worker never
    # imports multiprocessing.
    package_root = str(Path(retroroute.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    argv = ["align", work.dataset, "--fold", "2", "--workers", "1", "-o", str(tmp_path / "a.jsonl")]
    code = (
        "import sys; from retroroute.cli import main; "
        f"code = main({argv!r}); print(code, 'multiprocessing' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 False"


def test_importing_the_cli_does_not_load_multiprocessing():
    # Only runs with more than one worker import the process pool.
    package_root = str(Path(retroroute.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    code = "import sys, retroroute.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_process_pool():
    # dataclasses pulls in inspect, ast and dis; no command needs them.
    package_root = str(Path(retroroute.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    code = (
        "import sys, retroroute.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'concurrent.futures') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, layers",
    [
        ("retroroute", ""),
        ("retroroute.errors", ""),
        ("retroroute.smiles", "errors"),
        ("retroroute.routes", "errors smiles"),
        ("retroroute.evaluate", "errors smiles"),
        ("retroroute.consensus", "errors smiles"),
        ("retroroute.align", "errors routes smiles"),
        ("retroroute.reward", "errors routes smiles"),
        # perfbench's tracer wraps all seven layers right after importing the cli.
        ("retroroute.cli", "align consensus errors evaluate reward routes smiles"),
    ],
)
def test_importing_a_module_loads_only_the_layers_it_builds_on(module, layers):
    # The package namespace re-exports nothing, so a bare import loads no submodule.
    package_root = str(Path(retroroute.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    code = (
        f"import sys, {module}; "
        "print(' '.join(sorted(m.removeprefix('retroroute.') for m in sys.modules "
        f"if m.startswith('retroroute.') and m != {module!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == layers


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


@pytest.mark.parametrize(
    "inline, missing",
    [
        ({"ref_depth": 1}, "references"),
        ({"references": [["CC"]]}, "ref_depth"),
        ({}, "references or ref_depth"),
    ],
    ids=["no-references", "no-ref-depth", "neither"],
)
def test_score_unknown_target_names_each_missing_field(work, tmp_path, capsys, inline, missing):
    plans = write_jsonl(
        tmp_path / "plans.jsonl", [{"target": "CCCCCCCCCCCCCC", "plan_text": "x", **inline}]
    )
    assert main(["score", plans, work.dataset, "-o", str(tmp_path / "s.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {plans} line 1: target not in dataset and no inline {missing}\n"


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
    assert err == f"error: {plans} line 1: plan_text must be a string\n"


def test_score_parses_each_target_text_once(work, tmp_path, capsys, monkeypatch):
    rows = [
        {"target": r.raw["target"], "plan_text": perfect_plan(r)} for r in work.records
    ] * 3
    plans = write_jsonl(tmp_path / "plans.jsonl", rows)
    parsed = []
    # cli reads each target through routes.read_molecule, which parses it there.
    real_parse = retroroute.routes.parse_smiles
    monkeypatch.setattr(
        retroroute.routes, "parse_smiles", lambda text: parsed.append(text) or real_parse(text)
    )
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"scored_{workers}.jsonl"
        assert main(["score", plans, work.dataset, "--workers", workers, "-o", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
        if workers == "1":
            assert sorted(parsed) == sorted(r.raw["target"] for r in work.records)
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == "mean_reward 2.0\n"


# Rows each command must reject with exit code 2 and one line, never a traceback.
_ENTRY = {"plan_id": "a", "precursors": ["CC=O", "O"], "depth": 1}
_SCORE = {"target": "CCO", "plan_text": WRAP + "CCO>>CC=O.O", "references": [["CC=O", "O"]], "ref_depth": 1}


@pytest.mark.parametrize(
    "command, row, needle",
    [
        ("eval", {"target": "@", "candidates": [{"depth": 1}]}, "candidate 0: missing 'precursors'"),
        ("eval", {"target": "@", "candidates": {"precursors": ["O"], "depth": 1}}, "candidates must be an array"),
        ("eval", {"target": "@", "candidates": [{"precursors": "O", "depth": 1}]}, "expected a list of SMILES strings"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, precursors="CC=O")]}, "expected a list of SMILES strings"),
        ("vote", {"target": "CCO", "entries": "abc"}, "entries must be an array"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, depth="deep")]}, "depth must be a non-negative integer"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, depth=True)]}, "depth must be a non-negative integer"),
        ("eval", {"target": "@", "candidates": [{"precursors": ["O"], "depth": -1}]}, "depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=True), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=-2), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, ref_depth=1.5), "ref_depth must be a non-negative integer"),
        ("score", dict(_SCORE, references=[["O"], "CC=O"]), "reference 1: expected a list of SMILES strings"),
        ("score", dict(_SCORE, target=["CCO"]), "target must be a string"),
        ("score", dict(_SCORE, references=[["CC=O", "C("]]), "line 1 reference 0: unclosed branch"),
        ("score", dict(_SCORE, references=[[]]), "line 1 reference 0: expected a non-empty list"),
        ("score", dict(_SCORE, references="CC=O"), "references must be an array"),
        ("vote", {"target": "C1CC", "entries": [_ENTRY]}, "line 1 target: unclosed ring closure"),
        ("score", dict(_SCORE, target="CCO.O"), "target: expected a single-component SMILES, got 2"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, plan_id=None)]}, "entry 0: plan_id must be a string"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, plan_id=7)]}, "entry 0: plan_id must be a string"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, plan_id={"a": 1})]}, "entry 0: plan_id must be a string"),
        ("vote", {"target": "CCO", "entries": [dict(_ENTRY, notation_id=None)]}, "entry 0: notation_id must be a string"),
        ("vote", {"target": "CCO", "entries": []}, "a slate needs at least one entry"),
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
        "score-empty-reference-group",
        "score-references-not-a-list",
        "vote-bad-target-smiles",
        "score-two-component-target",
        "vote-plan-id-null",
        "vote-plan-id-integer",
        "vote-plan-id-object",
        "vote-notation-id-null",
        "vote-no-entries",
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


def test_row_fault_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "slates.jsonl"
    entry = dict(_ENTRY, precursors=["C("])
    path.write_text("\n" + json.dumps({"target": "CCO", "entries": [entry]}) + "\n", encoding="utf-8")
    assert main(["vote", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} line 2 entry 0: unclosed branch\n"


def test_only_a_newline_ends_a_row(tmp_path, capsys):
    # U+2028 and U+0085 may stand raw in a JSON string; str.splitlines
    # would break the row there.
    row = dict(_SCORE, plan_text="<think>pick\u2028a\x85disconnection</think>\nCCO>>CC=O.O")
    outputs = []
    for ensure_ascii in (True, False):
        path = tmp_path / f"plans_{ensure_ascii}.jsonl"
        path.write_text(json.dumps(row, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
        out = tmp_path / f"scored_{ensure_ascii}.jsonl"
        assert main(["score", str(path), "-o", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][1] == "mean_reward 2.0\n"
    path = tmp_path / "plans.jsonl"
    bad = dict(_SCORE, ref_depth=-1)
    text = json.dumps(row, ensure_ascii=False) + "\n" + json.dumps(bad) + "\n"
    path.write_text(text, encoding="utf-8")
    assert main(["score", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} line 2: ref_depth must be a non-negative integer\n"


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


@pytest.mark.parametrize("mode", ["aligned", "canonical"])
def test_nld_csv_matches_full_matrix_oracle(golden_dataset, tmp_path, mode):
    out = tmp_path / "nld.csv"
    assert main(["nld", golden_dataset, "--mode", mode, "-o", str(out)]) == 0
    tree = to_tree(ingest_dataset(golden_dataset)[0].route)
    if mode == "aligned":
        sequence = align_route(tree, default_root(tree.root.molecule))
        lines = render_sequence(sequence).split("\n")
    else:
        lines = [
            canonical_key(node.reaction.product).key
            + ">>"
            + ".".join(canonical_key(m).key for m in node.reaction.precursors)
            for node in linearize_nodes(tree)
        ]
    target = lines[0].partition(">>")[0]
    values = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
    assert len(values) == len(lines) == 9
    for value, line in zip(values, lines):
        rhs = line.partition(">>")[2]
        assert value == oracle_levenshtein(target, rhs) / max(len(target), len(rhs))


def test_nld_route_flag_selects_one_route(work, tmp_path):
    out = tmp_path / "nld.csv"
    assert main(["nld", work.dataset, "--route", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert lines
    assert all(line.startswith("2,aligned,") for line in lines)


def test_nld_route_index_out_of_range(work, capsys):
    assert main(["nld", work.dataset, "--route", "99"]) == 2
    assert "route index 99 out of range" in capsys.readouterr().err


def test_nld_route_flag_reads_only_that_record(tmp_path, capsys):
    broken = copy.deepcopy(_CLEAN_INPUTS["dataset"])
    broken["reactions"][0]["product"] = "C("
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([_CLEAN_INPUTS["dataset"], broken]), encoding="utf-8")
    out = tmp_path / "nld.csv"
    assert main(["nld", str(dataset), "--route", "0", "-o", str(out)]) == 0
    assert out.read_text().splitlines() == ["route_id,mode,step,nld", "0,aligned,1,0.5"]
    # Without --route every record is read before any is rendered.
    assert main(["nld", str(dataset), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: record 1 reaction 0 product: unclosed branch\n"


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
        ({"stock": 5}, "stock must be a string"),
        ({"tta": 16}, "unknown config keys ['tta']"),
        ({"out_dir": "out"}, "unknown config keys ['out_dir']"),
        ({"fold": "20"}, "fold must be an integer"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"workers": 1.5}, "workers must be an integer"),
        ({"kmax": True}, "kmax must be an integer"),
        ({"dataset": 5}, "dataset must be a string"),
        ({"reward": []}, "reward must be an object"),
        ({"reward": {"exact_weight": "1"}}, "exact_weight must be a number"),
        ({"reward": {"depth_cap": 1.5}}, "depth_cap must be an integer"),
        ({"strict_delimiters": 1}, "strict_delimiters must be a boolean"),
        ({"delimiters": "ab"}, "delimiters must be an array"),
        ({"reward": {"strict_format": True}}, "unknown reward keys ['strict_format']"),
        ({"reward": {"invalid_cap": 1.5}}, "invalid_cap must be an integer"),
        ({"reward": {"depth_weight": True}}, "depth_weight must be a number"),
    ],
)
def test_bad_config_exits_two(work, tmp_path, capsys, payload, needle):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["--config", str(config), "ingest", work.dataset, work.stock]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["dataset", "stock"])
def test_missing_configured_path_fails_only_when_opened(work, tmp_path, capsys, key):
    missing = str(tmp_path / "missing" / key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: missing}), encoding="utf-8")
    slates = write_jsonl(tmp_path / "slates.jsonl", [{"target": "CCO", "entries": [_ENTRY]}])
    # nld reads the dataset, ingest the stock; the last positional overrides the config.
    reads = ["nld"] if key == "dataset" else ["ingest", work.dataset]
    given = getattr(work, key)
    argv = ["--config", str(config)]

    assert main(argv + reads) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and missing in err
    assert main(argv + reads + [given]) == 0
    assert main(argv + ["vote", slates, "-o", str(tmp_path / "ranked.jsonl")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "name, value",
    [
        ("exact_weight", "NaN"),
        ("exact_weight", "-Infinity"),
        ("depth_weight", "Infinity"),
        ("similarity_weight", "1e400"),
        pytest.param("invalid_cap", "1" + "0" * 400, id="invalid_cap-10**400"),
    ],
)
def test_a_reward_value_that_is_not_a_finite_float_exits_two(work, tmp_path, capsys, name, value):
    # json reads NaN and Infinity; scoring with them wrote "total": NaN, and a
    # cap too large for a float raised OverflowError.
    config = tmp_path / "config.json"
    config.write_text(f'{{"reward": {{"{name}": {value}}}}}', encoding="utf-8")
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [{"target": work.records[0].raw["target"], "plan_text": perfect_plan(work.records[0])}],
    )
    out = tmp_path / "scored.jsonl"
    assert main(["--config", str(config), "score", plans, work.dataset, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: reward {name} must be a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name",
    ["format_score", "exact_weight", "similarity_weight", "invalid_weight", "depth_weight",
     "invalid_cap", "depth_cap"],
)
def test_a_negative_reward_value_exits_two(work, tmp_path, capsys, name):
    # A negative cap or weight turns a penalty into a bonus: with both caps at -1 and -2
    # a clean exact plan would total 2.5, above the 2.0 ceiling.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reward": {name: -1}}), encoding="utf-8")
    plans = write_jsonl(
        tmp_path / "plans.jsonl",
        [{"target": work.records[0].raw["target"], "plan_text": perfect_plan(work.records[0])}],
    )
    out = tmp_path / "scored.jsonl"
    assert main(["--config", str(config), "score", plans, work.dataset, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: reward {name} must not be negative\n"
    assert not out.exists()


def test_config_file_sets_the_keys_it_names_and_no_others(work, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert load_config(empty) == PipelineConfig()
    reward = {
        "format_score": 0.25, "exact_weight": 3.0, "similarity_weight": 0.75,
        "invalid_weight": 0.2, "depth_weight": 0.3, "invalid_cap": 2, "depth_cap": 5,
    }
    full = tmp_path / "full.json"
    full.write_text(
        json.dumps(
            {
                "dataset": work.dataset, "stock": work.stock, "reward": reward,
                "fold": 3, "seed": 9, "kmax": 2, "delimiters": ["<a>", "</a>"],
                "workers": 4, "strict_delimiters": True,
            }
        ),
        encoding="utf-8",
    )
    assert load_config(full) == PipelineConfig(
        dataset=work.dataset,
        stock=work.stock,
        reward=RewardConfig(**reward, strict_format=True),
        fold=3,
        seed=9,
        kmax=2,
        delimiters=("<a>", "</a>"),
        workers=4,
    )


def test_fold_flag_must_be_positive(work, tmp_path, capsys):
    rc = main(["align", work.dataset, "--fold", "0", "-o", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert "at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# any text in any SMILES field
# ---------------------------------------------------------------------------

_SMILES_LIKE = "CNOSBrcln[]()=#@+-:.%/\\0123H "
# One clean route, its stock, and one row of each kind that reads SMILES.
_CLEAN_INPUTS = {
    "dataset": {
        "target": "CCO",
        "reactions": [
            {"product": "[CH3:1][CH2:2][OH:3]", "precursors": ["[CH3:1][CH2:2]Br", "[OH2:3]"]}
        ],
        "references": [["CCBr", "O"]],
        "ref_depth": 1,
    },
    "stock": ["CCBr", "O"],
    "score": {"target": "CCO", "plan_text": WRAP + "CCO>>CCBr.O",
              "references": [["CCBr", "O"]], "ref_depth": 1},
    "vote": {"target": "CCO", "entries": [{"plan_id": "a", "precursors": ["CCBr", "O"], "depth": 1}]},
    "eval": {"target": "CCO", "candidates": [{"precursors": ["CCBr", "O"], "depth": 1}]},
}
_DATASET_COMMANDS = ("ingest", "align", "nld")
# Field -> (paths into _CLEAN_INPUTS where the text goes, commands that read
# it, regexes of which an exit-2 error line must match one after "error: ").
# A repeated map number is named by its reaction, with the molecule in the
# message.
_FIELDS = {
    "dataset-target": ([("dataset", "target")], _DATASET_COMMANDS, ["record 0 target: "]),
    "product": (
        [("dataset", "reactions", 0, "product")],
        _DATASET_COMMANDS,
        ["record 0 reaction 0 product: ",
         r"record 0 reaction 0: duplicate map number \d+ on product atoms$"],
    ),
    "precursor": (
        [("dataset", "reactions", 0, "precursors", 1)],
        _DATASET_COMMANDS,
        ["record 0 reaction 0 precursor 1: ",
         r"record 0 reaction 0: duplicate map number \d+ on precursor 1$"],
    ),
    "reference": ([("dataset", "references", 0, 1)], _DATASET_COMMANDS, ["record 0 reference 0: "]),
    "stock-line": ([("stock", 1)], ("ingest",), ["stock line 2: "]),
    "row-target": (
        [("score", "target"), ("vote", "target"), ("eval", "target")],
        ("score", "vote", "eval"),
        ["{rows} line 1 target: ", "{rows} line 1: target not"],
    ),
    "entry-precursor": (
        [("vote", "entries", 0, "precursors", 1), ("eval", "candidates", 0, "precursors", 1)],
        ("vote", "eval"),
        ["{rows} line 1 entry 0: ", "{rows} line 1 candidate 0: "],
    ),
}


@pytest.fixture(scope="module")
def field_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fields")


@pytest.mark.parametrize("field", sorted(_FIELDS))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=st.text(_SMILES_LIKE, max_size=16))
def test_any_text_in_a_smiles_field_exits_cleanly(field_dir, field, text):
    places, commands, patterns = _FIELDS[field]
    inputs = copy.deepcopy(_CLEAN_INPUTS)
    for *path, last in places:
        functools.reduce(operator.getitem, path, inputs)[last] = text
    dataset, stock, out = field_dir / "dataset.json", field_dir / "stock.smi", field_dir / "out"
    dataset.write_text(json.dumps([inputs["dataset"]]), encoding="utf-8")
    stock.write_text("\n".join(inputs["stock"]) + "\n", encoding="utf-8")
    rows = {name: write_jsonl(field_dir / f"{name}.jsonl", [inputs[name]]) for name in ("score", "vote", "eval")}
    argv = {
        "ingest": ["ingest", str(dataset), str(stock)],
        "align": ["align", str(dataset), "--fold", "2", "-o", str(out)],
        "nld": ["nld", str(dataset), "-o", str(out)],
        "score": ["score", rows["score"], str(dataset), "-o", str(out)],
        "vote": ["vote", rows["vote"], "-o", str(out)],
        "eval": ["eval", rows["eval"], str(dataset), "-o", str(out)],
    }
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv[command])
        assert code in (0, 1, 2), (command, code)
        if code == 2:
            line = err.getvalue()
            named = "|".join(p.format(rows=re.escape(rows.get(command, ""))) for p in patterns)
            assert line.count("\n") == 1 and re.match(f"error: (?:{named})", line), (command, line)


def test_score_counts_a_non_ascii_digit_as_a_syntax_failure(tmp_path, capsys):
    row = dict(_CLEAN_INPUTS["score"], plan_text=WRAP + "CCO>>C\u00b2.O")
    plans = write_jsonl(tmp_path / "plans.jsonl", [row])
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([_CLEAN_INPUTS["dataset"]]), encoding="utf-8")
    out = tmp_path / "scored.jsonl"
    assert main(["score", plans, str(dataset), "-o", str(out)]) == 0
    scored = json.loads(out.read_text(encoding="utf-8"))
    assert scored["invalid_lines"] == 1 and scored["similarity"] == 0.5
    assert capsys.readouterr().err == ""


def test_ingest_of_a_target_with_a_non_ascii_digit_exits_two(tmp_path, capsys):
    record = dict(_CLEAN_INPUTS["dataset"], target="C\u00b2")
    dataset, stock = tmp_path / "dataset.json", tmp_path / "stock.smi"
    dataset.write_text(json.dumps([record]), encoding="utf-8")
    stock.write_text("\n".join(_CLEAN_INPUTS["stock"]) + "\n", encoding="utf-8")
    assert main(["ingest", str(dataset), str(stock)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: record 0 target: "), err


def test_score_reads_the_dataset_only_for_a_row_that_needs_it(work, tmp_path, capsys, monkeypatch):
    read = []
    real_read = retroroute.cli.answers_by_target
    monkeypatch.setattr(
        retroroute.cli, "answers_by_target", lambda path: read.append(path) or real_read(path)
    )
    missing = str(tmp_path / "no-such-dataset.json")
    out = str(tmp_path / "scored.jsonl")
    inline = write_jsonl(tmp_path / "inline.jsonl", [_SCORE, _SCORE])
    assert main(["score", inline, missing, "-o", out]) == 0
    assert main(["score", inline, "-o", out]) == 0
    assert read == [] and capsys.readouterr().out == "mean_reward 2.0\nmean_reward 2.0\n"
    # The first row without both inline fields reads the dataset, once.
    lookup = {"target": work.records[0].raw["target"], "plan_text": perfect_plan(work.records[0])}
    mixed = write_jsonl(tmp_path / "mixed.jsonl", [_SCORE, lookup, lookup])
    assert main(["score", mixed, work.dataset, "-o", out]) == 0
    assert read == [work.dataset] and capsys.readouterr().out == "mean_reward 2.0\n"
    # Faults of a dataset a row needs keep their exit code and wording.
    lookup_only = write_jsonl(tmp_path / "lookup.jsonl", [lookup])
    for plans in (mixed, lookup_only):
        assert main(["score", plans, missing, "-o", out]) == 2
        assert main(["score", plans, "-o", out]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors[:2] == errors[2:] and len(errors) == 4
    assert missing in errors[0] and "no dataset given" in errors[1]


# ---------------------------------------------------------------------------
# eval and score read only a record's target, references and ref_depth;
# align and nld read only its target and reactions
# ---------------------------------------------------------------------------

_EVAL_ROW = _CLEAN_INPUTS["eval"]
_LOOKUP_ROW = {"target": "CCO", "plan_text": _CLEAN_INPUTS["score"]["plan_text"]}


def _answers_commands(tmp_path, record: dict, name: str) -> dict:
    """Each command's argv on a one-record dataset; score's rows take their
    answers from the dataset."""
    dataset, out = tmp_path / f"{name}.json", str(tmp_path / f"{name}.out")
    dataset.write_text(json.dumps([record]), encoding="utf-8")
    stock = tmp_path / "stock.smi"
    stock.write_text("\n".join(_CLEAN_INPUTS["stock"]) + "\n", encoding="utf-8")
    rows = {kind: write_jsonl(tmp_path / f"{kind}.jsonl", [row]) for kind, row in
            (("eval", _EVAL_ROW), ("score", _LOOKUP_ROW))}
    return {
        "eval": ["eval", rows["eval"], str(dataset), "-o", out],
        "score": ["score", rows["score"], str(dataset), "-o", out],
        "ingest": ["ingest", str(dataset), str(stock)],
        "align": ["align", str(dataset), "--fold", "2", "-o", out],
        "nld": ["nld", str(dataset), "-o", out],
    }


def _run(argv: list[str], capsys) -> tuple[int, str, str, bytes | None]:
    code = main(argv)
    captured = capsys.readouterr()
    out = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
    return code, captured.out, captured.err, out.read_bytes() if out and out.exists() else None


@pytest.mark.parametrize(
    "reactions, needle",
    [
        ([{"product": "C(", "precursors": ["CCBr", "O"]}], "record 0 reaction 0 product: unclosed branch"),
        ([{"product": "CCO", "precursors": []}], "record 0 reaction 0: empty precursor list"),
        (5, "record 0: reactions must be an array"),
        ([42], "record 0 reaction 0: expected an object"),
    ],
    ids=["unparsable-product", "no-precursors", "not-an-array", "entry-not-an-object"],
)
def test_eval_and_score_do_not_read_reactions(tmp_path, capsys, reactions, needle):
    clean = _answers_commands(tmp_path, _CLEAN_INPUTS["dataset"], "clean")
    broken = _answers_commands(tmp_path, dict(_CLEAN_INPUTS["dataset"], reactions=reactions), "broken")
    for command in ("eval", "score"):
        expected = _run(clean[command], capsys)
        assert expected[0] == 0 and expected[2] == "" and expected[3]
        assert _run(broken[command], capsys) == expected
    # The commands that read routes still reject the record.
    for command in ("ingest", "align", "nld"):
        assert _run(broken[command], capsys)[:3] == (2, "", f"error: {needle}\n")


@pytest.mark.parametrize(
    "fault, needle",
    [
        ({"references": [["CCBr", "C1C"]]}, "record 0 reference 0: unclosed ring closure(s): [1]"),
        ({"references": []}, "record 0: references must be a non-empty list of lists"),
        ({"ref_depth": -1}, "record 0: ref_depth must be a non-negative integer"),
    ],
    ids=["unparsable-reference", "no-references", "negative-ref-depth"],
)
def test_align_and_nld_do_not_read_answers(tmp_path, capsys, fault, needle):
    clean = _answers_commands(tmp_path, _CLEAN_INPUTS["dataset"], "clean")
    broken = _answers_commands(tmp_path, dict(_CLEAN_INPUTS["dataset"], **fault), "broken")
    for command in ("align", "nld"):
        expected = _run(clean[command], capsys)
        assert expected[0] == 0 and expected[2] == "" and expected[3]
        assert _run(broken[command], capsys) == expected
    # The commands that read answers still reject the record.
    for command in ("ingest", "eval", "score"):
        assert _run(broken[command], capsys)[:3] == (2, "", f"error: {needle}\n")


@pytest.mark.parametrize(
    "fault, needle",
    [
        ({"target": "C("}, "record 0 target: unclosed branch"),
        ({"target": "CCO.O"}, "record 0 target: expected a single-component SMILES, got 2"),
        ({"target": None}, "record 0: target must be a string"),
        ({"references": [["CCBr", "C1C"]]}, "record 0 reference 0: unclosed ring closure(s): [1]"),
        ({"references": [[]]}, "record 0 reference 0: expected a non-empty list"),
        ({"references": []}, "record 0: references must be a non-empty list of lists"),
        ({"ref_depth": -1}, "record 0: ref_depth must be a non-negative integer"),
        ({"ref_depth": True}, "record 0: ref_depth must be a non-negative integer"),
    ],
)
def test_answer_faults_keep_their_wording_in_every_command(tmp_path, capsys, fault, needle):
    commands = _answers_commands(tmp_path, dict(_CLEAN_INPUTS["dataset"], **fault), "bad")
    for command in ("eval", "score", "ingest"):
        assert _run(commands[command], capsys)[:3] == (2, "", f"error: {needle}\n"), command
    for missing in ("target", "references", "ref_depth"):
        record = {k: v for k, v in _CLEAN_INPUTS["dataset"].items() if k != missing}
        commands = _answers_commands(tmp_path, record, "missing")
        for command in ("eval", "score", "ingest"):
            assert _run(commands[command], capsys)[2] == f"error: record 0: missing {missing!r}\n"


def test_flags_applied_to_a_loaded_config_give_an_equal_config(work, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fold": 3, "reward": {"depth_cap": 2}}), encoding="utf-8")
    loaded = load_config(path)
    no_flags = SimpleNamespace(fold=None, seed=None, kmax=None, workers=None)
    assert retroroute.cli._apply_overrides(loaded, no_flags) == loaded
    flags = SimpleNamespace(fold=4, seed=None, kmax=None, workers=2, strict_delimiters=True)
    assert retroroute.cli._apply_overrides(loaded, flags) == PipelineConfig(
        reward=RewardConfig(depth_cap=2, strict_format=True), fold=4, workers=2
    )
    assert loaded == PipelineConfig(reward=RewardConfig(depth_cap=2), fold=3)
