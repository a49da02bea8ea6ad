"""Command-line pipeline: ingest, align, score, vote, eval, nld.

Every command is deterministic for a given config and seed: record order is
preserved regardless of worker count, emitted sets are sorted, and all
randomness derives from the configured seed. Exit codes: 0 success,
1 validation failure, 2 schema, config or file error; a failed write of
standard output is a file error too. The process entry point, run(), ends
the process once its output is flushed, without interpreter teardown, so
atexit handlers do not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, NoReturn

from .align import AlignedSequence, align_route, augment_roots, default_root, render_sequence
from .consensus import SlateEntry, vote
from .errors import ConfigError, RouteError, SchemaError, SmilesSyntaxError
from .evaluate import (
    EvalCandidate,
    EvalRecord,
    EvalReport,
    nld_profile,
    topk_accuracy,
)
from .reward import DEFAULT_DELIMITERS, PlanScore, RewardConfig, parse_plan, score_plan
from .routes import (
    Route,
    RouteTree,
    answers_by_target,
    ingest_dataset,
    linearize_nodes,
    load_stock,
    read_count,
    read_dataset,
    read_field,
    read_json,
    read_keys,
    read_molecule,
    read_references,
    read_route,
    read_rows,
    read_target,
    to_tree,
    validate_route,
)
from .smiles import Molecule, canonical_key

ROUTE_SEED_STRIDE = 1_000_003


class PipelineConfig(NamedTuple):
    dataset: str | None = None
    stock: str | None = None
    reward: RewardConfig = RewardConfig()
    fold: int = 20
    seed: int = 0
    kmax: int = 5
    delimiters: tuple[str, str] = DEFAULT_DELIMITERS
    workers: int = 1

    def validate(self) -> None:
        self.reward.validate()
        if self.fold < 1 or self.kmax < 1 or self.workers < 1:
            raise ConfigError("fold, kmax and workers must all be at least 1")


# Accepted JSON types of each config key and each reward key, as read_field
# takes them.
_NUMBER = (float, int)
_CONFIG_TYPES = {
    "dataset": (str, type(None)),
    "stock": (str, type(None)),
    "reward": (dict,),
    "fold": (int,),
    "seed": (int,),
    "kmax": (int,),
    "delimiters": (list,),
    "workers": (int,),
    "strict_delimiters": (bool,),
}
# The top-level strict_delimiters key sets strict_format.
_REWARD_TYPES = {
    name: _NUMBER if type(default) is float else (int,)
    for name, default in RewardConfig._field_defaults.items()
    if name != "strict_format"
}


def _check_types(path: str | Path, data: dict, types: dict, what: str) -> None:
    unknown = set(data) - set(types)
    if unknown:
        raise SchemaError(f"{path}: unknown {what} keys {sorted(unknown)}")
    for name in data:
        read_field(data, name, str(path), *types[name])


def load_config(path: str | Path | None) -> PipelineConfig:
    """The config file's settings, each of its JSON type. The invariants are
    checked by PipelineConfig.validate once flags are applied."""
    if path is None:
        return PipelineConfig()
    data = read_json(path, dict)
    _check_types(path, data, _CONFIG_TYPES, "config")
    reward_data = data.get("reward", {})
    _check_types(path, reward_data, _REWARD_TYPES, "reward")
    reward = RewardConfig(**reward_data, strict_format=data.get("strict_delimiters", False))
    settings = {k: v for k, v in data.items() if k not in ("reward", "strict_delimiters")}
    if "delimiters" in settings:
        delimiters = settings["delimiters"]
        if len(delimiters) != 2 or not all(isinstance(d, str) and d for d in delimiters):
            raise SchemaError(f"{path}: delimiters must be two non-empty strings")
        settings["delimiters"] = tuple(delimiters)
    return PipelineConfig(reward=reward, **settings)


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates: dict = {}
    for name in ("fold", "seed", "kmax", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "strict_delimiters", False):
        updates["reward"] = config.reward._replace(strict_format=True)
    config = config._replace(**updates)
    config.validate()
    return config


def _resolve_dataset(args: argparse.Namespace, config: PipelineConfig) -> str:
    path = getattr(args, "dataset", None) or config.dataset
    if path is None:
        raise ConfigError("no dataset given on the command line or in the config")
    return path


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _place_worker(cpus, allowed: set[int]) -> None:
    """Pool initializer: move this worker onto the next CPU in `cpus`, then
    allow it the `allowed` set it inherited again, so it starts there
    without being bound there. Placement is best effort: an initializer
    that raised would break the whole pool."""
    try:
        os.sched_setaffinity(0, {cpus.get()})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass  # the worker runs where it started


def _map_ordered(worker, tasks: list, workers: int) -> list:
    """worker(task) for each task, in task order. With more than one worker
    and more than one task the tasks run in a process pool. Each pool worker
    starts on its own CPU of the set this process may use (in turn, when
    there are more workers than CPUs), but is not bound to it; forked
    workers would otherwise all start on the parent's CPU and may stay
    there. The results are the same as with one worker."""
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    # Imported here, so a run with one worker never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import SimpleQueue

    size = min(workers, len(tasks))
    placement = {}
    if hasattr(os, "sched_setaffinity"):  # Linux; elsewhere workers start where they start
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        queue = SimpleQueue()
        for k in range(size):
            queue.put(cpus[k % len(cpus)])
        placement = {"initializer": _place_worker, "initargs": (queue, allowed)}
    with ProcessPoolExecutor(max_workers=size, **placement) as executor:
        chunk = max(1, len(tasks) // (workers * 4))
        return list(executor.map(worker, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    stock_path = getattr(args, "stock", None) or config.stock
    if stock_path is None:
        raise ConfigError("no stock file given on the command line or in the config")
    records = ingest_dataset(dataset_path)
    stock = load_stock(stock_path)
    failures = 0
    for record in records:
        report = validate_route(record.route, stock)
        if report.ok:
            continue
        failures += 1
        for name, offenders in report._asdict().items():
            if offenders:
                print(f"route {record.index}: {name} failed: {', '.join(offenders)}")
    print(f"{len(records) - failures} routes ok, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def _tree(route: Route, index: int) -> RouteTree:
    """The route of record `index` as a tree; a route with a cycle or a
    molecule made twice is a validation failure that names the record."""
    try:
        return to_tree(route)
    except RouteError as exc:
        raise RouteError(f"record {index}: {exc}") from exc


def _sequence_lines(sequence: AlignedSequence) -> list[str]:
    """One rendered line per step; none for a route with no steps."""
    return render_sequence(sequence).split("\n") if sequence.steps else []


def _align_worker(task: tuple[int, dict, int, int]) -> list[str]:
    index, raw, fold, base_seed = task
    tree = _tree(read_route(raw, index), index)
    sequences = augment_roots(tree, fold, base_seed + ROUTE_SEED_STRIDE * index)
    lines = []
    for sequence in sequences:
        lines.append(
            _dumps(
                {
                    "route_id": index,
                    "target_root": sequence.target_root,
                    "lines": _sequence_lines(sequence),
                }
            )
        )
    return lines


def cmd_align(args: argparse.Namespace, config: PipelineConfig) -> int:
    payload = read_dataset(_resolve_dataset(args, config))
    tasks = [
        (index, raw, config.fold, config.seed) for index, raw in enumerate(payload)
    ]
    out_lines: list[str] = []
    for lines in _map_ordered(_align_worker, tasks, config.workers):
        out_lines.extend(lines)
    _write_lines(args.out, out_lines)
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _score_worker(task: tuple) -> PlanScore:
    target, plan_text, references, ref_depth, reward, delimiters = task
    return score_plan(parse_plan(plan_text, target, delimiters), references, ref_depth, reward)


def cmd_score(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows = read_rows(args.plans)
    by_key = None  # the dataset's answers by target key, read for the first row that needs one
    targets: dict[str, Molecule] = {}  # each distinct target text parsed once
    tasks = []
    for where, row in rows:
        needs_dataset = "references" not in row or "ref_depth" not in row
        if needs_dataset and by_key is None:
            by_key = answers_by_target(_resolve_dataset(args, config))
        plan_text = read_field(row, "plan_text", where, str)
        text = read_field(row, "target", where, str)
        if text not in targets:
            targets[text] = read_molecule(text, f"{where} target")
        target = targets[text]
        answers = by_key.get(canonical_key(target)) if needs_dataset else None
        if needs_dataset and answers is None:
            missing = " or ".join(name for name in ("references", "ref_depth") if name not in row)
            raise SchemaError(f"{where}: target not in dataset and no inline {missing}")
        references = read_references(row, where) if "references" in row else answers[0]
        ref_depth = read_count(row, "ref_depth", where) if "ref_depth" in row else answers[1]
        tasks.append((target, plan_text, references, ref_depth, config.reward, config.delimiters))
    scores = _map_ordered(_score_worker, tasks, config.workers)
    _write_lines(
        args.out, [_dumps({"index": index, **score._asdict()}) for index, score in enumerate(scores)]
    )
    mean = sum(score.total for score in scores) / len(scores) if scores else 0.0
    print(f"mean_reward {mean!r}")
    return 0


# ---------------------------------------------------------------------------
# vote
# ---------------------------------------------------------------------------


def _slate_from_row(row: dict, where: str) -> tuple[str, tuple[SlateEntry, ...]]:
    read_target(row, where)
    entries = []
    for j, entry in enumerate(read_field(row, "entries", where, list)):
        at = f"{where} entry {j}"
        plan_id = read_field(entry, "plan_id", at, str)
        notation_id = read_field(entry, "notation_id", at, str) if "notation_id" in entry else ""
        entries.append(
            SlateEntry(
                plan_id=plan_id,
                precursors=read_keys(read_field(entry, "precursors", at), at),
                depth=read_count(entry, "depth", at),
                notation_id=notation_id,
            )
        )
    if not entries:
        raise SchemaError(f"{where}: a slate needs at least one entry")
    return row["target"], tuple(entries)


def cmd_vote(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows = read_rows(args.slates)
    out_lines = []
    for where, row in rows:
        target_text, entries = _slate_from_row(row, where)
        candidates = [
            {
                **c.entry._asdict(),
                "precursors": sorted(k.key for k in c.entry.precursors),
                "votes": c.votes,
            }
            for c in vote(entries)
        ]
        out_lines.append(_dumps({"target": target_text, "candidates": candidates}))
    _write_lines(args.out, out_lines)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    rows = read_rows(args.candidates)
    by_key = answers_by_target(dataset_path)
    records: list[EvalRecord] = []
    for where, row in rows:
        key = read_target(row, where)
        if key not in by_key:
            raise SchemaError(f"{where}: target not present in the dataset")
        references, ref_depth = by_key[key]
        candidates = []
        for j, entry in enumerate(read_field(row, "candidates", where, list)):
            at = f"{where} candidate {j}"
            candidates.append(
                EvalCandidate(
                    precursors=read_keys(read_field(entry, "precursors", at), at),
                    depth=read_count(entry, "depth", at),
                )
            )
        records.append(
            EvalRecord(
                candidates=tuple(candidates),
                references=references,
                ref_depth=ref_depth,
            )
        )
    report = topk_accuracy(records, config.kmax)
    payload = _dumps({**report._asdict(), "top_k": {str(k): v for k, v in report.top_k.items()}})
    _write_lines(args.out, [payload])
    print(_format_report(report))
    if args.csv is not None:
        lines = ["bucket,count,top1"]
        for label in report.depth_counts:
            accuracy = report.depth_accuracy[label]
            value = "" if accuracy is None else repr(accuracy)
            lines.append(f"{label},{report.depth_counts[label]},{value}")
        _write_lines(args.csv, lines)
    return 0


def _format_report(report: EvalReport) -> str:
    lines = ["k      accuracy"]
    for k in sorted(report.top_k):
        lines.append(f"top-{k}  {report.top_k[k]:.4f}")
    lines.append("depth  count  top-1")
    for label in report.depth_counts:
        accuracy = report.depth_accuracy[label]
        shown = "-" if accuracy is None else f"{accuracy:.4f}"
        lines.append(f"{label:>5}  {report.depth_counts[label]:>5}  {shown}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# nld
# ---------------------------------------------------------------------------


def _route_lines(tree: RouteTree, mode: str) -> list[str]:
    if mode == "aligned":
        return _sequence_lines(align_route(tree, default_root(tree.root.molecule)))
    lines = []
    for node in linearize_nodes(tree):
        product = canonical_key(node.reaction.product).key
        rhs = ".".join(canonical_key(m).key for m in node.reaction.precursors)
        lines.append(f"{product}>>{rhs}")
    return lines


def cmd_nld(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    entries = read_dataset(dataset_path)
    indices = range(len(entries))
    if args.route is not None:
        if not 0 <= args.route < len(entries):
            raise SchemaError(f"route index {args.route} out of range")
        indices = [args.route]
    # Only the records asked for are read; all of them before any is rendered.
    routes = {index: read_route(entries[index], index) for index in indices}
    rows = ["route_id,mode,step,nld"]
    for index in indices:
        lines = _route_lines(_tree(routes[index], index), args.mode)
        for k, value in nld_profile(lines):
            rows.append(f"{index},{args.mode},{k},{value!r}")
    _write_lines(args.out, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroroute",
        description="Retrosynthetic route alignment, scoring and evaluation.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset against a stock file")
    p.add_argument("dataset", nargs="?")
    p.add_argument("stock", nargs="?")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("align", help="emit root-aligned renderings as JSONL")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--fold", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("score", help="score generated plans against a dataset")
    p.add_argument("plans")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--workers", type=int)
    p.add_argument("--strict-delimiters", action="store_true", default=False)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("vote", help="rank slate entries by precursor-set votes")
    p.add_argument("slates")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("eval", help="top-k accuracy of ranked candidates")
    p.add_argument("candidates")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--kmax", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nld", help="per-step normalized edit distance CSV")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--route", type=int)
    p.add_argument("--mode", choices=("aligned", "canonical"), default="aligned")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_nld)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args, _apply_overrides(load_config(args.config), args))
        finally:
            sys.stdout.flush()  # after an error or argparse's exit too: run() ends without flushing it
    except (ConfigError, SchemaError, SmilesSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry point: main() on the command line, then end the
    process with its exit code. main() has flushed standard output, every
    file is closed and every pool worker joined, so the interpreter's
    teardown would only cost time; atexit handlers do not run. An error
    that main() does not catch (argparse's exit, a bug) ends the process
    the usual way."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
