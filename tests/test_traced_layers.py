"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, so a rename fails here rather than in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"retroroute.{layer}"), name, None))
    ]
    assert missing == []
