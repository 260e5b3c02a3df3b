"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs on the default seed must give identical call counts and
derived counts, and run.py itself fails an operation whose traced report
bytes differ from its untraced ones. Each traced run takes one untraced and
one traced batch, so the module needs a few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _traced_run(workload: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


@pytest.mark.parametrize("workload", ["certify", "witness", "walk"])
def test_traced_counts_repeat_and_reports_match(workload):
    first, diag_first = _traced_run(workload)
    second, diag_second = _traced_run(workload)
    assert first["correct"] and second["correct"], diag_first["problems"] + diag_second["problems"]
    assert diag_first["traced_batches"] == 1 and not diag_first["missing"]
    assert diag_first["digests"] == diag_second["digests"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts["cli.run.calls"] == len(diag_first["op_s"])


def test_missing_function_is_reported(monkeypatch):
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import clckit.cli  # noqa: F401
    import clckit.polynomials
    import tracing

    monkeypatch.delattr(clckit.polynomials, "scale")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["polynomials.scale"]
        assert clckit.polynomials.derive is not clckit.polynomials.derive.__wrapped__
    finally:
        tracer.uninstall()
    assert not hasattr(clckit.polynomials.derive, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
