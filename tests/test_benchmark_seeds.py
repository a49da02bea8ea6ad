"""Seeds 2 and 3 of the benchmark's prep and reward inputs through its own
checks: `align --fold 20` and `score` pass `check_align` and `check_score`,
and write the same bytes with two workers as with one. No hashes are pinned
here; tests/test_benchmark_artifacts.py pins seed 1."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from retroroute.cli import main

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    # run.py puts perfbench/ and src/ on sys.path; its dataclasses look
    # their module up in sys.modules.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [2, 3])
def test_align_and_score_pass_the_benchmark_checks_with_one_and_two_workers(run, seed, tmp_path, capsys):
    def outputs(argv: list[str], name: str) -> tuple[str, str]:
        """The stdout and the output file of argv with one and two workers,
        which must be equal; returns those of one worker."""
        written = []
        for workers in ("1", "2"):
            capsys.readouterr()
            out = tmp_path / f"{workers}-{name}"
            assert main([*argv, "--workers", workers, "-o", str(out)]) == 0
            written.append((capsys.readouterr().out, out.read_text(encoding="utf-8")))
        assert written[0] == written[1]
        return written[0]

    prep = tmp_path / "prep"
    prep.mkdir()
    truth = run.inputs.WORKLOADS["prep"](seed, prep)
    routes = str(prep / "routes.json")
    _, aligned = outputs(["align", routes, "--fold", str(run.FOLD), "--seed", str(seed)], "aligned.jsonl")
    dataset = json.loads((prep / "routes.json").read_text(encoding="utf-8"))
    assert run.oracles.check_align(aligned, dataset, truth, run.FOLD) == []

    reward = tmp_path / "reward"
    reward.mkdir()
    truth = run.inputs.WORKLOADS["reward"](seed, reward)
    stdout, scored = outputs(["score", str(reward / "plans.jsonl"), str(reward / "routes.json")], "scored.jsonl")
    assert run.oracles.check_score(scored, stdout, truth) == ([], 0)
