"""Every clckit function the benchmark traces must exist.

The benchmark's own check of this (perfbench/test_perfbench.py) runs traced
workloads for minutes; this one reads the traced-name list from
perfbench/tracing.py and only imports.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_layer_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"clckit.{mod}.{fn}"
        for mod, fns in tracing.LAYER_FUNCTIONS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"clckit.{mod}"), fn, None))
    ]
    assert tracing.LAYER_FUNCTIONS and not missing, missing
