"""The benchmark's tracing must keep fitting the library.

The benchmark's own checks of this (perfbench/test_perfbench.py) run traced
workloads for minutes; these read perfbench/tracing.py and run two small
traced commands.
"""
import importlib
import json
from collections import Counter

import pytest

from clckit import UniformMatroid, cli, independence_indicator, to_setfunction
from clckit.counterexamples import triangle_table
from conftest import dump_set_function, layer_functions, perfbench_tracing


def test_traced_layer_functions_resolve():
    traced = layer_functions()
    missing = [
        f"clckit.{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"clckit.{mod}"), fn, None))
    ]
    assert traced and not missing, missing


@pytest.mark.parametrize(
    "table",
    [triangle_table(), independence_indicator(to_setfunction(UniformMatroid(2, 5)))],
    ids=["triangle", "U(2,5)"],
)
def test_traced_search_matches_untraced(tmp_path, capsys, table):
    # each derived count reads a traced call's arguments or result, so a
    # changed signature fails here rather than in every traced benchmark op
    path = tmp_path / "f.json"
    path.write_text(json.dumps(dump_set_function(table)))
    argv = ["certify-2cov", "--input", str(path), "--d", "2", "--search", "--format", "json"]
    untraced = cli.run(argv), capsys.readouterr()
    tracing = perfbench_tracing()
    ran = Counter()

    def counted(name, hook):
        def derive(*args):
            ran[name] += 1
            return hook(*args)
        return derive

    tracing._DERIVE.update({name: counted(name, hook) for name, hook in tracing._DERIVE.items()})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = cli.run(argv), capsys.readouterr()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert ran == {name: n for name, n in tracer.calls.items() if name in tracing._DERIVE}
    assert {"simplex.phase1", "jsonio.load_set_function"} <= set(ran) and not tracer.missing
    assert tracer.counts["simplex.phase1.cells"] > 0
