"""Benchmark of the retroroute command line on three seeded workloads.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (with the benchmark's own
generator), then runs the workload's command sequence in whole rounds, each
command a fresh `python3 -m retroroute.cli` process, until --seconds have
passed. The first round's outputs are checked against the generator's truth;
every later round must reproduce them byte for byte. The last line of
standard output is one JSON object: correct, attempted and failed operations,
and the metrics.

Times are given at a reference machine speed (see Clock): the machine the
benchmark was built on is shared, and the speed of its cores drifts by a
fifth or more over seconds to minutes.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: per-command throughput from the untraced rounds, then one more
round run through tracer.py with one worker, whose outputs must equal the
untraced ones, and the tracing overhead. Exit code 2, with no result, when
the program's sources are missing; 1 when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402

SETUP_REPEATS = 9
MIN_ROUNDS = 3
FOLD = 20
KMAX = 5
PREP_WORKERS = 2  # the machine the figures were taken on has two cores
CPUS = sorted(os.sched_getaffinity(0))
CALIBRATION_S = 0.1  # reference time of the calibration loop (calibrate.py)
NLD_SAMPLES = (0, inputs.LONG_ROUTES - 1)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-command throughput: command -> (metric, unit).
THROUGHPUT = {
    "ingest": ("cli.ingest.routes_per_s", "routes/s"),
    "align": ("cli.align.routes_per_s", "routes/s"),
    "score": ("cli.score.plans_per_s", "plans/s"),
    "vote": ("cli.vote.slates_per_s", "slates/s"),
    "eval": ("cli.eval.targets_per_s", "targets/s"),
    "nld": ("cli.nld.routes_per_s", "routes/s"),
}
_COUNTER_METRIC = {"distinct": ("distinct_ratio", "ratio"), "atoms": ("atoms", "count"), "cells": ("cells", "count")}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {metric: unit for metric, unit in THROUGHPUT.values()}
    for layer, names in LAYERS.items():
        for name in names:
            if layer == "cli":
                units[f"cli.{name.removeprefix('cmd_')}.self_pct"] = "%"
                continue
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_pct"] = "%"
            counter = COUNTERS.get(f"{layer}.{name}")
            if counter is not None:
                metric, unit = _COUNTER_METRIC[counter[0]]
                units[f"{layer}.{name}.{metric}"] = unit
    units["trace.round_s"] = "s"
    units["trace.overhead"] = "%"
    return units


@dataclass
class Timing:
    """One timed step: its measured seconds, and the mean time of the
    calibration loop run on the same CPUs just before and just after it."""

    raw_s: float
    calibration_s: float


def at_reference(timings: list[Timing]) -> float:
    """Mean seconds per step at the reference speed: total measured time
    over total calibration time, times the calibration's reference time."""
    return CALIBRATION_S * sum(t.raw_s for t in timings) / sum(t.calibration_s for t in timings)


class Clock:
    """Times steps against a calibration loop that runs on the same CPUs.

    Each step runs pinned to the CPUs it may use (child processes inherit
    the pinning), and calibrate.py, a fixed loop of the benchmark's own
    SMILES writing and formula reading in a fresh interpreter, runs on each
    of those CPUs just before and just after it. A run's time for a step is
    its total measured time over the total calibration time around it (see
    at_reference). In paired runs of `reward` on the machine the benchmark
    was built on, this ratio of totals spread 7.1% over ten runs where raw
    times spread 11% and the same loop run inside the benchmark's own
    process spread 10.8%; a fresh process meets the conditions each command
    meets. The ratio of totals also beat the median of per-round ratios
    (4.5% against 8.6% in another paired test).
    """

    def __init__(self) -> None:
        self._last: tuple[frozenset, float] | None = None

    @staticmethod
    def calibration_loop() -> float:
        argv = [sys.executable, str(HERE / "calibrate.py")]
        return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)

    def calibrate(self, cpus: frozenset) -> float:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(self.calibration_loop())
        self._last = (cpus, sum(times) / len(times))
        return self._last[1]

    def forget(self) -> None:
        """Drop the last calibration, after untimed work."""
        self._last = None

    def time(self, cpus: frozenset, action) -> tuple[Timing, object]:
        """Run action() pinned to `cpus`; returns its timing and result."""
        if self._last is not None and self._last[0] == cpus:
            before = self._last[1]
        else:
            before = self.calibrate(cpus)
        os.sched_setaffinity(0, cpus)
        start = time.perf_counter()
        result = action()
        raw = time.perf_counter() - start
        return Timing(raw, (before + self.calibrate(cpus)) / 2), result


@dataclass
class Command:
    label: str
    argv: list[str]  # command name and arguments
    items: int  # routes, plans, slates or targets it processes
    outputs: list[str]  # files it writes, relative to the output directory
    code: int = 0  # expected exit code
    cpus: frozenset = frozenset(CPUS[:1])


def commands(workload: str, seed: int, truth: dict, inp: Path, out: Path, workers: int) -> list[Command]:
    if workload == "prep":
        routes = len(truth["routes"])
        return [
            Command(
                "ingest",
                ["ingest", str(inp / "routes.json"), str(inp / "stock.smi")],
                routes,
                [],
                1 if truth["failing"] else 0,
            ),
            Command(
                "align",
                ["align", str(inp / "routes.json"), "--fold", str(FOLD), "--seed", str(seed),
                 "--workers", str(workers), "-o", str(out / "aligned.jsonl")],
                routes,
                ["aligned.jsonl"],
                cpus=frozenset(CPUS[:workers]),
            ),
        ]
    if workload == "reward":
        return [
            Command(
                "score",
                ["score", str(inp / "plans.jsonl"), str(inp / "routes.json"), "--workers", "1",
                 "-o", str(out / "scored.jsonl")],
                len(truth["plans"]),
                ["scored.jsonl"],
            )
        ]
    targets = len(truth["slates"])
    return [
        Command("vote", ["vote", str(inp / "slates.jsonl"), "-o", str(out / "ranked.jsonl")], targets, ["ranked.jsonl"]),
        Command(
            "eval",
            ["eval", str(out / "ranked.jsonl"), str(inp / "routes.json"), "--kmax", str(KMAX),
             "-o", str(out / "report.json"), "--csv", str(out / "buckets.csv")],
            targets,
            ["report.json", "buckets.csv"],
        ),
        *(
            Command(f"nld-{mode}", ["nld", str(inp / "routes.json"), "--mode", mode, "-o", str(out / f"nld_{mode}.csv")],
                    targets, [f"nld_{mode}.csv"])
            for mode in ("aligned", "canonical")
        ),
    ]


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    timing: Timing
    files: dict[str, bytes]


def run_round(cmds: list[Command], out: Path, launcher, env, clock: Clock) -> dict[str, Result]:
    results = {}
    out.mkdir(parents=True, exist_ok=True)
    for cmd in cmds:
        argv = [*launcher(cmd), *cmd.argv]
        timing, proc = clock.time(
            cmd.cpus, lambda: subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
        )
        files = {name: (out / name).read_bytes() for name in cmd.outputs if (out / name).exists()}
        results[cmd.label] = Result(proc.returncode, proc.stdout, proc.stderr, timing, files)
    return results


def round_seconds(rounds: list[dict[str, Result]]) -> float:
    """A round's time at the reference speed: the sum over its commands."""
    return sum(at_reference([r[label].timing for r in rounds]) for label in rounds[0])


def fingerprint(results: dict[str, Result]) -> dict[str, str]:
    """sha256 of each command's standard output and output files."""
    out = {}
    for label, r in results.items():
        out[f"{label}:stdout"] = hashlib.sha256(r.stdout.encode()).hexdigest()
        for name, data in r.files.items():
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def render_samples(routes_path: Path) -> dict[str, dict[int, list[str]]]:
    """The program's aligned and canonical lines for the sampled routes,
    taken from its public functions, for the edit-distance check."""
    sys.path.insert(0, str(ROOT / "src"))
    from retroroute.align import align_route, default_root, render_sequence
    from retroroute.routes import ingest_dataset, linearize_nodes, to_tree
    from retroroute.smiles import canonical_key

    records = ingest_dataset(routes_path)
    samples: dict[str, dict[int, list[str]]] = {"aligned": {}, "canonical": {}}
    for index in NLD_SAMPLES:
        tree = to_tree(records[index].route)
        sequence = align_route(tree, default_root(tree.root.molecule))
        samples["aligned"][index] = render_sequence(sequence).split("\n")
        samples["canonical"][index] = [
            canonical_key(node.reaction.product).key
            + ">>"
            + ".".join(canonical_key(m).key for m in node.reaction.precursors)
            for node in linearize_nodes(tree)
        ]
    return samples


def check(workload: str, cmds: list[Command], results: dict[str, Result], truth: dict, inp: Path) -> tuple[list[str], int]:
    """Problems in one round's outputs, and the number of failed operations."""
    problems = []
    for cmd in cmds:
        r = results[cmd.label]
        if r.code != cmd.code:
            tail = r.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"{cmd.label} exited {r.code}, expected {cmd.code}: {tail[0]}")
    if problems:
        return problems, 0
    failed = 0
    try:
        if workload == "prep":
            dataset = json.loads((inp / "routes.json").read_text(encoding="utf-8"))
            problems += oracles.check_ingest(results["ingest"].stdout, results["ingest"].code, truth)
            problems += oracles.check_align(results["align"].files["aligned.jsonl"].decode(), dataset, truth, FOLD)
        elif workload == "reward":
            r = results["score"]
            more, failed = oracles.check_score(r.files["scored.jsonl"].decode(), r.stdout, truth)
            problems += more
        else:
            problems += oracles.check_vote(results["vote"].files["ranked.jsonl"].decode(), truth)
            files = results["eval"].files
            problems += oracles.check_eval(files["report.json"].decode(), files["buckets.csv"].decode(), truth, KMAX)
            samples = render_samples(inp / "routes.json")
            for mode in ("aligned", "canonical"):
                text = results[f"nld-{mode}"].files[f"nld_{mode}.csv"].decode()
                problems += oracles.check_nld(text, truth, mode, samples[mode])
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # an output of the wrong shape
        problems.append(f"unreadable output: {exc!r}")
    return problems, failed


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_timing(env, clock: Clock) -> Timing:
    """Timing of starting a fresh interpreter and importing the CLI."""
    argv = [sys.executable, "-c", "import retroroute.cli"]
    return clock.time(frozenset(CPUS[:1]), lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True))[0]


def layer_metrics(stats: list[tuple[dict, float]], round_s: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands. Each command's
    times are scaled to the reference speed by its factor; a self time is
    given as a share of the traced round's time `round_s`, so a layer a
    workload does not run reads 0% there and no time reads 0 s."""
    totals: dict[str, dict] = {}
    for command, factor in stats:
        for name, fn in command["functions"].items():
            into = totals.setdefault(name, {})
            for key, value in fn.items():
                into[key] = into.get(key, 0) + (value * factor if key.endswith("_s") else value)
    metrics = {}
    for layer, names in LAYERS.items():
        for name in names:
            fn = totals[f"{layer}.{name}"]
            self_pct = 100.0 * fn["self_s"] / round_s
            if layer == "cli":
                metrics[f"cli.{name.removeprefix('cmd_')}.self_pct"] = self_pct
                continue
            metrics[f"{layer}.{name}.calls"] = fn["calls"]
            metrics[f"{layer}.{name}.self_pct"] = self_pct
            if "distinct" in fn:
                metrics[f"{layer}.{name}.distinct_ratio"] = fn["distinct"] / fn["calls"] if fn["calls"] else 0.0
            for key in ("atoms", "cells"):
                if key in fn:
                    metrics[f"{layer}.{name}.{key}"] = fn[key]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli_source = ROOT / "src" / "retroroute" / "cli.py"
    if not cli_source.is_file():
        print(f"error: the program's sources are missing ({cli_source})", file=sys.stderr)
        return 2
    env = program_env()
    where = subprocess.run(
        [sys.executable, "-c", "import retroroute.cli as c; print(c.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    if where.returncode != 0 or Path(where.stdout.strip()).resolve() != cli_source.resolve():
        print(f"error: retroroute.cli does not import from {cli_source}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inp = work / "in"
    inp.mkdir(parents=True)
    start = time.perf_counter()
    truth = inputs.WORKLOADS[args.workload](args.seed, inp)
    generation = time.perf_counter() - start
    digest = hashlib.sha256()
    for path in sorted(inp.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {digest.hexdigest()}, generated in {generation:.2f} s")

    workers = PREP_WORKERS if args.workload == "prep" else 1
    out = work / "out"
    cmds = commands(args.workload, args.seed, truth, inp, out, workers)
    untraced = lambda cmd: [sys.executable, "-m", "retroroute.cli"]  # noqa: E731

    clock = Clock()
    rounds: list[dict[str, Result]] = []
    setup: list[Timing] = []
    problems: list[str] = []
    failed_per_round = 0
    reference: dict[str, str] = {}
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        # Set-up samples spread over the run see the same machine as the rounds.
        setup.append(setup_timing(env, clock))
        results = run_round(cmds, out, untraced, env, clock)
        rounds.append(results)
        if len(rounds) == 1:
            problems, failed_per_round = check(args.workload, cmds, results, truth, inp)
            reference = fingerprint(results)
            clock.forget()
            if problems:
                break
        elif fingerprint(results) != reference:
            problems.append(f"round {len(rounds)} outputs differ from round 1")
            break
    passes = len(rounds)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_timing(env, clock))

    if args.trace and not problems:
        # One worker throughout, so every call is traced in one process.
        baseline = rounds
        if workers != 1:
            single = commands(args.workload, args.seed, truth, inp, work / "single", 1)
            baseline = [run_round(single, work / "single", untraced, env, clock)]
            passes += 1
            if fingerprint(baseline[0]) != reference:
                problems.append("outputs with one worker differ from outputs with several")
        traced_out = work / "traced"
        traced_cmds = commands(args.workload, args.seed, truth, inp, traced_out, 1)
        stats_paths = {cmd.label: work / f"stats-{cmd.label}.json" for cmd in traced_cmds}
        traced_launcher = lambda cmd: [sys.executable, str(HERE / "tracer.py"), str(stats_paths[cmd.label])]  # noqa: E731
        traced = run_round(traced_cmds, traced_out, traced_launcher, env, clock)
        passes += 1
        if fingerprint(traced) != reference:
            problems.append("traced outputs differ from untraced outputs")
    ops = sum(cmd.items for cmd in cmds)
    result = {"correct": not problems, "attempted": ops * passes, "failed": failed_per_round * passes}

    for label in rounds[0]:
        timings = [r[label].timing for r in rounds]
        raw = statistics.median(t.raw_s for t in timings)
        print(f"  {label:14s} {at_reference(timings):.3f} s at reference speed (median {raw:.3f} s measured) over {len(rounds)} rounds")
    if problems:
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"outputs kept in {work}", file=sys.stderr)
        result["metrics"] = {}
        print(json.dumps(result))
        return 1

    if args.trace:
        stats = [
            (json.loads(stats_paths[label].read_text(encoding="utf-8")), CALIBRATION_S / r.timing.calibration_s)
            for label, r in traced.items()
        ]
        traced_wall = round_seconds([traced])
        values = layer_metrics(stats, traced_wall)
        for command, (metric, _) in THROUGHPUT.items():
            labels = [cmd.label for cmd in cmds if cmd.argv[0] == command]
            seconds = sum(at_reference([r[label].timing for r in rounds]) for label in labels)
            items = sum(cmd.items for cmd in cmds if cmd.argv[0] == command)
            values[metric] = items / seconds if labels else 0.0
        values["trace.round_s"] = traced_wall
        values["trace.overhead"] = 100.0 * (traced_wall / round_seconds(baseline) - 1.0)
        print(f"  traced round {traced_wall:.3f} s, tracing overhead {values['trace.overhead']:.1f} %")
        units = per_layer_units()
    else:
        values = {
            "setup_s": statistics.median(t.raw_s * CALIBRATION_S / t.calibration_s for t in setup),
            "wall_s": round_seconds(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for name, digest in sorted(reference.items()):
        print(f"  sha256 {digest} {name}")
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
