"""The process entry point: `python -m retroroute.cli` and the installed
`retroroute` script end through cli.run(), which ends the process without
interpreter teardown once main() has flushed its output. These tests run it
in fresh interpreters and hold it to what main() does in-process."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import retroroute.cli
from generators import rand_dataset, write_dataset
from retroroute.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = str(Path(retroroute.cli.__file__).resolve().parents[1])


def fresh(args: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python3 *args` in a fresh interpreter that imports this package.
    PYTHONUNBUFFERED is removed, so stdout is buffered as it is by default
    when it is not a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = PACKAGE_ROOT
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Four random routes, their stock, and one row per route for each
    command that reads rows."""
    base = tmp_path_factory.mktemp("entry")
    records = rand_dataset(random.Random(7), 4, convergence=0.2, max_depth=4)
    dataset = base / "dataset.json"
    write_dataset(records, dataset)
    stock = base / "stock.smi"
    leaves = sorted({k.key for r in records for k in r.route.stock_refs})
    stock.write_text("\n".join(leaves) + "\n", encoding="utf-8")
    answers = [(r.raw["target"], r.raw["references"][0], r.raw["ref_depth"]) for r in records]

    def rows(name: str, make) -> str:
        path = base / name
        path.write_text("".join(json.dumps(make(*a)) + "\n" for a in answers), encoding="utf-8")
        return str(path)

    return SimpleNamespace(
        base=base,
        dataset=str(dataset),
        stock=str(stock),
        slates=rows("slates.jsonl", lambda t, p, d: {"target": t, "entries": [
            {"plan_id": name, "precursors": q, "depth": d} for name, q in (("a", p), ("b", p[::-1]))
        ]}),
        ranked=rows("ranked.jsonl", lambda t, p, d: {
            "target": t, "candidates": [{"precursors": p, "depth": d}]
        }),
        plans=rows("plans.jsonl", lambda t, p, d: {"target": t, "plan_text": f"{t}>>{'.'.join(p)}"}),
        unfinished_slates=rows("unfinished.jsonl", lambda t, p, d: {
            "target": t, "entries": [{"plan_id": "a", "precursors": p}]
        }),
    )


def _take(paths: list[Path]) -> list[bytes | None]:
    """Each file's bytes (None where there is none), removing the file."""
    contents = []
    for path in paths:
        contents.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return contents


def _cyclic_dataset(base: Path) -> str:
    reactions = [{"product": "CCO", "precursors": ["CC=O"]}, {"product": "CC=O", "precursors": ["CCO"]}]
    record = {"target": "CCO", "reactions": reactions, "references": [["CC=O"]], "ref_depth": 1}
    path = base / "cyclic.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "case, expected_code",
    [("vote", 0), ("eval", 0), ("align-cycle", 1), ("vote-schema-fault", 2), ("eval-csv-fault", 2)],
)
def test_module_entry_point_matches_main(inputs, capsys, case, expected_code):
    out, csv = inputs.base / "out", inputs.base / "out.csv"
    argv = {
        "vote": ["vote", inputs.slates, "-o", str(out)],
        # eval prints its table on stdout as well as writing its report.
        "eval": ["eval", inputs.ranked, inputs.dataset, "-o", str(out), "--csv", str(csv)],
        "align-cycle": ["align", _cyclic_dataset(inputs.base), "--fold", "2", "-o", str(out)],
        "vote-schema-fault": ["vote", inputs.unfinished_slates, "-o", str(out)],
        # The table is printed before the CSV write fails; it is not lost.
        "eval-csv-fault": ["eval", inputs.ranked, inputs.dataset, "-o", str(out), "--csv", str(inputs.base)],
    }[case]
    _take([out, csv])
    result = fresh(["-m", "retroroute.cli", *argv])
    entry = (result.returncode, result.stdout, result.stderr, _take([out, csv]))
    code = main(argv)
    captured = capsys.readouterr()
    assert entry == (code, captured.out, captured.err, _take([out, csv]))
    assert code == expected_code
    assert (captured.err == "") == (code == 0)
    assert code != 0 or entry[3][0] is not None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["eval", "ingest", "score", "help", "vote-help"])
def test_a_failed_write_of_buffered_stdout_exits_two(inputs, command):
    # Block-buffered stdout first fails when it is flushed; that failure is
    # the usual one-line error and exit 2, not Python's exit 120. argparse
    # prints --help and then exits; its exit ends the same way.
    out = str(inputs.base / f"{command}.out")
    argv = {
        "eval": ["eval", inputs.ranked, inputs.dataset, "-o", out],
        "ingest": ["ingest", inputs.dataset, inputs.stock],
        "score": ["score", inputs.plans, inputs.dataset, "-o", out],
        "help": ["--help"],
        "vote-help": ["vote", "--help"],
    }[command]
    with open("/dev/full", "w") as full:
        result = fresh(["-m", "retroroute.cli", *argv], stdout=full)
    assert (result.returncode, result.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_no_pool_worker_outlives_the_command(inputs, tmp_path):
    argv = ["align", inputs.dataset, "--fold", "3", "--workers", "2", "-o"]
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    # No pipes: a worker left behind would hold them open.
    process = subprocess.Popen(
        [sys.executable, "-m", "retroroute.cli", *argv, str(tmp_path / "pool.jsonl")],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert process.wait(timeout=120) == 0
    # The command led its own process group; once it has ended, no process is left in it.
    try:
        os.killpg(process.pid, 0)
    except ProcessLookupError:
        pass
    else:
        os.killpg(process.pid, signal.SIGKILL)
        pytest.fail("a pool worker outlived the command")
    assert main([*argv[:-2], "1", "-o", str(tmp_path / "one.jsonl")]) == 0
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["ingest", "align", "score", "vote", "eval", "nld"])
def test_every_command_closes_what_it_opens(inputs, command):
    # run() ends the process without teardown, so nothing a command opens
    # may be left for teardown to close; -X dev reports any file or pipe
    # collected unclosed. align and score run a pool of two workers.
    out = str(inputs.base / f"{command}.closed")
    argv = {
        "ingest": ["ingest", inputs.dataset, inputs.stock],
        "align": ["align", inputs.dataset, "--fold", "2", "--workers", "2", "-o", out],
        "score": ["score", inputs.plans, inputs.dataset, "--workers", "2", "-o", out],
        "vote": ["vote", inputs.slates, "-o", out],
        "eval": ["eval", inputs.ranked, inputs.dataset, "-o", out, "--csv", out + ".csv"],
        "nld": ["nld", inputs.dataset, "--mode", "canonical", "-o", out],
    }[command]
    code = (
        "import gc, sys\n"
        "from retroroute.cli import main\n"
        f"code = main({argv!r})\n"
        "gc.collect()\n"
        "sys.exit(code)\n"
    )
    result = fresh(["-X", "dev", "-c", code])
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_installed_script_ends_through_run():
    import tomllib

    with (ROOT / "pyproject.toml").open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"retroroute": "retroroute.cli:run"}
