"""The seed-1 benchmark outputs, pinned byte for byte.

Runs every benchmarked command in process, with one worker, on the inputs the
benchmark generates for seed 1, checks the outputs with the benchmark's own
oracles, and compares each output's sha256 with the value pinned below. A
change that alters an output on purpose updates its pin here and declares it
in CHANGES.md."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from retroroute.cli import main

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

PINNED = {
    "ingest:stdout": "c42a9de0c12586000b5a77d77789fc49840d474fd2a5f5b5b0952b57b3388ad7",
    "aligned.jsonl": "6b7ab8b81c85d74e2b412261b7fc91d3308a88cbd15cecb5aca0c6b256509399",
    "score:stdout": "943498c6a6ee85fb3efd67f417bde9e8d2de66e08de73c59d6e1f8c6fc24fbff",
    "scored.jsonl": "f767143efd8e48fabe98f3aef877e00597f04f6e969e9029fa787d908bf3ad7f",
    "ranked.jsonl": "021d50e6a954f1d04a659893fd29ba238922c78b6e35c6a2721045c53a9f8e0c",
    "eval:stdout": "c8b6208bca65a14eafe9ceac1ceea19140732d959b7d986490f95953239c2755",
    "report.json": "a2fc0182732f99489220fd5be66fb792f74e32dcc01172f27411faca6c6d541e",
    "buckets.csv": "ec3d63a3553626cef0139bf24c5dd78aa7d0603b1aa119a159d02e1eb0ea93ed",
    "nld_aligned.csv": "990a395cd932844beeb7497566ede659b3fd042b6db7d767f22edb48d354f4c8",
    "nld_canonical.csv": "4acba4e3d5ea01da036404f7e284afff510f733201d1183d3ab8ee25810a5f77",
}


def test_seed_1_outputs_pass_the_benchmark_checks_and_keep_their_hashes(tmp_path, monkeypatch, capsys):
    # run.py puts perfbench/ and src/ on sys.path; its dataclasses look
    # their module up in sys.modules.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    oracles = run.oracles

    digests: dict[str, str] = {}

    def command(label: str, argv: list[str], code: int = 0) -> str:
        capsys.readouterr()
        assert main(argv) == code
        stdout = capsys.readouterr().out
        digests[f"{label}:stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        return stdout

    def output(name: str) -> str:
        data = (out / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        return data.decode()

    out = tmp_path / "out"
    out.mkdir()
    problems: list[str] = []

    prep = tmp_path / "prep"
    prep.mkdir()
    truth = run.inputs.WORKLOADS["prep"](1, prep)
    routes = str(prep / "routes.json")
    code = 1 if truth["failing"] else 0
    stdout = command("ingest", ["ingest", routes, str(prep / "stock.smi")], code)
    problems += oracles.check_ingest(stdout, code, truth)
    align = ["align", routes, "--fold", str(run.FOLD), "--seed", "1", "--workers", "1"]
    command("align", [*align, "-o", str(out / "aligned.jsonl")])
    dataset = json.loads((prep / "routes.json").read_text(encoding="utf-8"))
    problems += oracles.check_align(output("aligned.jsonl"), dataset, truth, run.FOLD)

    reward = tmp_path / "reward"
    reward.mkdir()
    truth = run.inputs.WORKLOADS["reward"](1, reward)
    plans, routes = str(reward / "plans.jsonl"), str(reward / "routes.json")
    stdout = command("score", ["score", plans, routes, "--workers", "1", "-o", str(out / "scored.jsonl")])
    more, failed = oracles.check_score(output("scored.jsonl"), stdout, truth)
    problems += more
    assert failed == 0

    long_eval = tmp_path / "long-eval"
    long_eval.mkdir()
    truth = run.inputs.WORKLOADS["long-eval"](1, long_eval)
    routes = str(long_eval / "routes.json")
    command("vote", ["vote", str(long_eval / "slates.jsonl"), "-o", str(out / "ranked.jsonl")])
    problems += oracles.check_vote(output("ranked.jsonl"), truth)
    report, csv = str(out / "report.json"), str(out / "buckets.csv")
    command("eval", ["eval", str(out / "ranked.jsonl"), routes, "--kmax", str(run.KMAX), "-o", report, "--csv", csv])
    problems += oracles.check_eval(output("report.json"), output("buckets.csv"), truth, run.KMAX)
    for mode in ("aligned", "canonical"):
        command(f"nld-{mode}", ["nld", routes, "--mode", mode, "-o", str(out / f"nld_{mode}.csv")])
        output(f"nld_{mode}.csv")

    assert problems == []
    assert {name: digests[name] for name in PINNED} == PINNED
