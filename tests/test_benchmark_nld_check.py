"""The benchmark checks `nld` output against lines it renders through the
library's public functions; a change to the shape of what those functions
return fails here rather than in a benchmark run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from retroroute.cli import main

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_nld_check_passes_on_seed_1_long_eval(tmp_path, monkeypatch):
    # run.py puts perfbench/ and src/ on sys.path; its dataclasses look
    # their module up in sys.modules.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

    truth = run.inputs.WORKLOADS["long-eval"](1, tmp_path)
    routes = tmp_path / "routes.json"
    samples = run.render_samples(routes)
    for mode in ("aligned", "canonical"):
        out = tmp_path / f"nld_{mode}.csv"
        assert main(["nld", str(routes), "--mode", mode, "-o", str(out)]) == 0
        csv_text = out.read_text(encoding="utf-8")
        assert run.oracles.check_nld(csv_text, truth, mode, samples[mode]) == []
