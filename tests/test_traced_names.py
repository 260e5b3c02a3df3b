"""Every clckit function the benchmark traces must exist.

The benchmark's own check of this (perfbench/test_perfbench.py) runs traced
workloads for minutes; this one reads the traced-name list from
perfbench/tracing.py and only imports.
"""
import importlib

from conftest import layer_functions


def test_traced_layer_functions_resolve():
    traced = layer_functions()
    missing = [
        f"clckit.{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"clckit.{mod}"), fn, None))
    ]
    assert traced and not missing, missing
