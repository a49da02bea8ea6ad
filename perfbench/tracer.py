"""Per-layer tracing of one CLI command, from outside the program.

    python3 perfbench/tracer.py STATS.json COMMAND [ARGS...]

runs `retroroute COMMAND ARGS...` in this process after replacing each
traced public function, in every `retroroute` module namespace that holds
it, with a wrapper that counts calls and times them. A call's self time is
its time minus the time of the traced calls nested inside it. STATS.json
gets, per function, calls, total and self seconds, and the work counters
below; the command's exit code is passed through. Run commands with one
worker: pool workers start from a fresh import and are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Module -> traced public functions. cli.cmd_* are the commands.
LAYERS = {
    "cli": ("cmd_ingest", "cmd_align", "cmd_score", "cmd_vote", "cmd_eval", "cmd_nld"),
    "smiles": ("parse_smiles", "canonical_ranks", "canonical_key", "write_rooted", "molecule_is_valid"),
    "routes": ("ingest_dataset", "load_stock", "validate_route", "to_tree", "route_depth"),
    "align": ("align_route", "augment_roots"),
    "reward": ("parse_plan", "score_plan"),
    "evaluate": ("levenshtein", "nld_profile", "topk_accuracy"),
    "consensus": ("vote",),
}


def _text(args) -> str:
    return args[0]


def _molecule_text(args) -> str:
    return args[0].source_text


def _atoms(args) -> int:
    return len(args[0].atoms)


def _cells(args) -> int:
    return len(args[0]) * len(args[1])


# Function -> (counter name, what to add per call). "distinct" collects the
# input texts; a molecule counts by the text it was read from.
COUNTERS = {
    "smiles.parse_smiles": ("distinct", _text),
    "smiles.canonical_key": ("distinct", _molecule_text),
    "smiles.canonical_ranks": ("atoms", _atoms),
    "smiles.write_rooted": ("atoms", _atoms),
    "evaluate.levenshtein": ("cells", _cells),
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.distinct: dict[str, set] = {}
        self._children = [0.0]  # time of traced calls inside each open call

    def wrap(self, name: str, fn):
        stats = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        counter = COUNTERS.get(name)
        if counter is not None and counter[0] == "distinct":
            seen = self.distinct[name] = set()
        elif counter is not None:
            stats[counter[0]] = 0
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - inner
                if counter is not None:
                    if counter[0] == "distinct":
                        seen.add(counter[1](args))
                    else:
                        stats[counter[0]] += counter[1](args)

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a retroroute module binds
        it, so calls between modules go through the wrappers too."""
        modules = {name: sys.modules[f"retroroute.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrappers[id(original)] = self.wrap(f"{layer}.{name}", original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "retroroute" or module_name.startswith("retroroute."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and callable(value):
                        setattr(module, attr, wrappers[id(value)])

    def report(self) -> dict:
        for name, seen in self.distinct.items():
            self.stats[name]["distinct"] = len(seen)
        return self.stats


def main(argv: list[str]) -> int:
    stats_path, command = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import retroroute.cli as cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(command)
    wall = time.perf_counter() - start
    stats_path.write_text(json.dumps({"wall_s": wall, "functions": tracer.report()}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
