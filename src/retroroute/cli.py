"""Command-line pipeline: ingest, align, score, vote, eval, nld.

Every command is deterministic for a given config and seed: record order is
preserved regardless of worker count, emitted sets are sorted, and all
randomness derives from the configured seed. Exit codes: 0 success,
1 validation failure, 2 schema or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .align import align_route, augment_roots, default_root, render_sequence
from .consensus import CandidateSlate, SlateEntry, vote
from .errors import ConfigError, SchemaError, SmilesSyntaxError
from .evaluate import (
    EvalCandidate,
    EvalRecord,
    EvalReport,
    nld_profile,
    topk_accuracy,
)
from .reward import DEFAULT_DELIMITERS, RewardConfig, parse_plan, score_plan
from .routes import (
    RouteRecord,
    _record_from_raw,
    ingest_dataset,
    linearize_nodes,
    load_stock,
    to_tree,
    validate_route,
)
from .smiles import CanonicalKey, canonical_key, parse_smiles, smiles_keys

ROUTE_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class PipelineConfig:
    dataset: str | None = None
    stock: str | None = None
    out_dir: str | None = None
    reward: RewardConfig = RewardConfig()
    fold: int = 20
    seed: int = 0
    tta: int = 16
    kmax: int = 5
    delimiters: tuple[str, str] = DEFAULT_DELIMITERS
    workers: int = 1

    def validate(self) -> None:
        self.reward.validate()
        if self.fold < 1 or self.tta < 1 or self.kmax < 1 or self.workers < 1:
            raise ConfigError("fold, tta, kmax and workers must all be at least 1")
        for label, path in (("dataset", self.dataset), ("stock", self.stock)):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"configured {label} path does not exist: {path}")


_CONFIG_KEYS = {
    "dataset",
    "stock",
    "out_dir",
    "reward",
    "fold",
    "seed",
    "tta",
    "kmax",
    "delimiters",
    "workers",
    "strict_delimiters",
}
_REWARD_KEYS = {
    "format_score",
    "exact_weight",
    "similarity_weight",
    "invalid_weight",
    "depth_weight",
    "invalid_cap",
    "depth_cap",
}


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    reward_data = data.get("reward", {})
    if not isinstance(reward_data, dict):
        raise ConfigError(f"{path}: reward must be an object")
    unknown = set(reward_data) - _REWARD_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown reward keys {sorted(unknown)}")
    reward = RewardConfig(
        **reward_data, strict_format=bool(data.get("strict_delimiters", False))
    )
    delimiters = data.get("delimiters", list(DEFAULT_DELIMITERS))
    if (
        not isinstance(delimiters, (list, tuple))
        or len(delimiters) != 2
        or not all(isinstance(d, str) and d for d in delimiters)
    ):
        raise ConfigError(f"{path}: delimiters must be two non-empty strings")
    config = PipelineConfig(
        dataset=data.get("dataset"),
        stock=data.get("stock"),
        out_dir=data.get("out_dir"),
        reward=reward,
        fold=data.get("fold", 20),
        seed=data.get("seed", 0),
        tta=data.get("tta", 16),
        kmax=data.get("kmax", 5),
        delimiters=(delimiters[0], delimiters[1]),
        workers=data.get("workers", 1),
    )
    config.validate()
    return config


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates: dict = {}
    for name in ("fold", "seed", "tta", "kmax", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "strict_delimiters", False):
        updates["reward"] = replace(config.reward, strict_format=True)
    if updates:
        config = replace(config, **updates)
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


def _read_jsonl(path: str) -> list[dict]:
    rows: list[dict] = []
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} line {line_number}: not valid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise SchemaError(f"{path} line {line_number}: expected an object")
        rows.append(row)
    return rows


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _map_ordered(worker, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as executor:
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
        for name in ("target_convergence", "grounding", "stepwise_linkage"):
            check = getattr(report, name)
            if not check.passed:
                offenders = ", ".join(check.offenders)
                print(f"route {record.index}: {name} failed: {offenders}")
    print(f"{len(records) - failures} routes ok, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def _align_worker(task: tuple[int, dict, int, int]) -> list[str]:
    index, raw, fold, base_seed = task
    record = _record_from_raw(raw, index)
    tree = to_tree(record.route)
    sequences = augment_roots(tree, fold, base_seed + ROUTE_SEED_STRIDE * index)
    lines = []
    for sequence in sequences:
        lines.append(
            _dumps(
                {
                    "route_id": index,
                    "target_root": sequence.target_root,
                    "lines": render_sequence(sequence).split("\n"),
                }
            )
        )
    return lines


def cmd_align(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    try:
        payload = json.loads(Path(dataset_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{dataset_path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise SchemaError(f"{dataset_path}: top level must be a JSON array")
    tasks = [
        (index, raw, config.fold, config.seed) for index, raw in enumerate(payload)
    ]
    out_lines: list[str] = []
    for lines in _map_ordered(_align_worker, tasks, config.workers):
        out_lines.extend(lines)
    _write_lines(args.out, out_lines)
    return 0


# ---------------------------------------------------------------------------
# row fields of score, vote and eval
# ---------------------------------------------------------------------------


_JSON_TYPES = {str: "string", list: "array"}


def _field(row, name: str, where: str, kind: type = object):
    """row[name], which must be present and of the JSON type `kind`."""
    if not isinstance(row, dict):
        raise SchemaError(f"{where}: expected an object")
    if name not in row:
        raise SchemaError(f"{where}: missing {name!r}")
    if not isinstance(row[name], kind):
        raise SchemaError(f"{where}: {name} must be a JSON {_JSON_TYPES[kind]}")
    return row[name]


def _depth(row, name: str, where: str) -> int:
    value = _field(row, name, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{where}: {name} must be a non-negative integer")
    return value


def _keys(text: str, where: str) -> list[CanonicalKey]:
    try:
        return smiles_keys(text)
    except SmilesSyntaxError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _target_key(row, where: str) -> CanonicalKey:
    keys = _keys(_field(row, "target", where, str), f"{where} target")
    if len(keys) != 1:
        raise SchemaError(f"{where}: target must be a single molecule")
    return keys[0]


def _key_set(texts, where: str) -> frozenset[CanonicalKey]:
    """Keys of every component of a list of SMILES texts."""
    if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
        raise SchemaError(f"{where}: expected a list of SMILES strings")
    return frozenset(key for text in texts for key in _keys(text, where))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _score_worker(task: tuple) -> str:
    index, target_text, plan_text, references, ref_depth, reward, delimiters = task
    plan = parse_plan(plan_text, parse_smiles(target_text)[0], delimiters)
    return _dumps({"index": index, **asdict(score_plan(plan, references, ref_depth, reward))})


def cmd_score(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    config.reward.validate()
    rows = _read_jsonl(args.plans)
    by_key = {record.route.target_key: record for record in ingest_dataset(dataset_path)}
    tasks = []
    for index, row in enumerate(rows):
        where = f"plan {index}"
        plan_text = _field(row, "plan_text", where, str)
        target_key = _target_key(row, where)
        record = by_key.get(target_key)
        if record is None and ("references" not in row or "ref_depth" not in row):
            raise SchemaError(f"{where}: target not in dataset and no inline references")
        if "references" in row:
            groups = _field(row, "references", where, list)
            if not groups:
                raise SchemaError(f"{where}: references must be a non-empty list of lists")
            references = [_key_set(g, f"{where} reference {j}") for j, g in enumerate(groups)]
        else:
            references = record.references
        ref_depth = _depth(row, "ref_depth", where) if "ref_depth" in row else record.ref_depth
        tasks.append(
            (index, row["target"], plan_text, references, ref_depth, config.reward, config.delimiters)
        )
    out_lines = _map_ordered(_score_worker, tasks, config.workers)
    _write_lines(args.out, out_lines)
    totals = [json.loads(line)["total"] for line in out_lines]
    mean = sum(totals) / len(totals) if totals else 0.0
    print(f"mean_reward {mean!r}")
    return 0


# ---------------------------------------------------------------------------
# vote
# ---------------------------------------------------------------------------


def _slate_from_row(row: dict, index: int) -> tuple[str, CandidateSlate]:
    where = f"slate {index}"
    target_key = _target_key(row, where)
    entries = []
    for j, entry in enumerate(_field(row, "entries", where, list)):
        at = f"{where} entry {j}"
        entries.append(
            SlateEntry(
                plan_id=str(_field(entry, "plan_id", at)),
                precursors=_key_set(_field(entry, "precursors", at), at),
                depth=_depth(entry, "depth", at),
                notation_id=str(entry.get("notation_id", "")),
            )
        )
    if not entries:
        raise SchemaError(f"{where}: a slate needs at least one entry")
    return row["target"], CandidateSlate(target_key, tuple(entries))


def cmd_vote(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows = _read_jsonl(args.slates)
    out_lines = []
    for index, row in enumerate(rows):
        target_text, slate = _slate_from_row(row, index)
        ranked = vote(slate)
        out_lines.append(
            _dumps(
                {
                    "target": target_text,
                    "candidates": [
                        {
                            "plan_id": candidate.entry.plan_id,
                            "notation_id": candidate.entry.notation_id,
                            "precursors": sorted(
                                key.key for key in candidate.entry.precursors
                            ),
                            "depth": candidate.entry.depth,
                            "votes": candidate.votes,
                        }
                        for candidate in ranked
                    ],
                }
            )
        )
    _write_lines(args.out, out_lines)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    rows = _read_jsonl(args.candidates)
    by_key = {record.route.target_key: record for record in ingest_dataset(dataset_path)}
    records: list[EvalRecord] = []
    for index, row in enumerate(rows):
        where = f"candidates line {index}"
        key = _target_key(row, where)
        if key not in by_key:
            raise SchemaError(f"{where}: target not present in the dataset")
        record = by_key[key]
        candidates = []
        for j, entry in enumerate(_field(row, "candidates", where, list)):
            at = f"{where} candidate {j}"
            candidates.append(
                EvalCandidate(
                    precursors=_key_set(_field(entry, "precursors", at), at),
                    depth=_depth(entry, "depth", at),
                    plan_id=str(entry.get("plan_id", "")),
                )
            )
        records.append(
            EvalRecord(
                target_key=key,
                candidates=tuple(candidates),
                references=record.references,
                ref_depth=record.ref_depth,
            )
        )
    report = topk_accuracy(records, config.kmax)
    payload = _dumps(
        {
            "top_k": {str(k): v for k, v in report.top_k.items()},
            "depth_accuracy": report.depth_accuracy,
            "depth_counts": report.depth_counts,
            "total": report.total,
        }
    )
    if args.out is None:
        print(payload)
    else:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(_format_report(report))
    if args.csv is not None:
        lines = ["bucket,count,top1"]
        for label in report.depth_counts:
            accuracy = report.depth_accuracy[label]
            value = "" if accuracy is None else repr(accuracy)
            lines.append(f"{label},{report.depth_counts[label]},{value}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def _route_lines(record: RouteRecord, mode: str) -> list[str]:
    tree = to_tree(record.route)
    if mode == "aligned":
        sequence = align_route(tree, default_root(tree.root.molecule))
        return render_sequence(sequence).split("\n")
    lines = []
    for node in linearize_nodes(tree):
        product = canonical_key(node.reaction.product).key
        rhs = ".".join(canonical_key(m).key for m in node.reaction.precursors)
        lines.append(f"{product}>>{rhs}")
    return lines


def cmd_nld(args: argparse.Namespace, config: PipelineConfig) -> int:
    dataset_path = _resolve_dataset(args, config)
    records = ingest_dataset(dataset_path)
    if args.route is not None:
        if not 0 <= args.route < len(records):
            raise SchemaError(f"route index {args.route} out of range")
        records = [records[args.route]]
    rows = ["route_id,mode,step,nld"]
    for record in records:
        lines = _route_lines(record, args.mode)
        for k, value in nld_profile(lines):
            rows.append(f"{record.index},{args.mode},{k},{value!r}")
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
    p.add_argument("--tta", type=int)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        return args.func(args, config)
    except (ConfigError, SchemaError, SmilesSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
