"""clckit benchmark: closed-loop batches of CLI invocations, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

The checkout root is the parent of this script's directory, and clckit is
imported from its `src/`, so the working directory does not matter. The seed
generates every input file; clckit only receives those files, through
`clckit.cli.run(argv)` called in-process. After a warm set-up the workload's
fixed batch repeats until `--seconds` would be exceeded (at least once), and
every operation's exit code and report are checked.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over batches). With `--trace 1` untraced and traced batches
alternate, and it reports the per-layer metrics: calls and self time of each
traced clckit function, the derived counts, the command-time split of the
untraced batches and the tracing overhead. The line before it holds
diagnostics: host load and steal ticks before and after the run, process CPU
time, per-operation times and report digests. Every metric is also printed
by name with its unit on stderr. The exit code is 1 when any operation fails
its check, 2 when clckit cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 5
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench"


def _host_state() -> dict:
    steal = None
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/stat") as fh:
            steal = int(fh.readline().split()[8])
    t = os.times()
    return {
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal,
        "cpu_user_s": t.user,
        "cpu_system_s": t.system,
    }


def _import_clckit():
    """Drop any loaded clckit modules and import the CLI afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "clckit"]:
        del sys.modules[name]
    importlib.import_module("clckit.cli")


class Result:
    """One operation's outcome: time, report digest and check verdict."""

    def __init__(self, op, seconds: float, report: bytes, problem: str | None):
        self.op = op
        self.seconds = seconds
        self.digest = hashlib.sha256(report).hexdigest()
        self.problem = problem


def run_op(op) -> Result:
    cli = sys.modules["clckit.cli"]
    out, err = io.StringIO(), io.StringIO()
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    gc.collect()  # so the previous operation's garbage is not charged to this one
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op.argv)
    except Exception as exc:  # a clckit bug: record it and keep measuring
        seconds = perf_counter() - start
        return Result(op, seconds, out.getvalue().encode(), f"raised {exc!r}")
    seconds = perf_counter() - start
    report = out.getvalue().encode()
    if op.output is not None and op.output.exists():
        report += b"\0" + op.output.read_bytes()
    try:
        problem = op.check(rc, json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable report ({exc!r}), exit {rc}"
    if problem is None and err.getvalue():
        problem = f"unexpected stderr: {err.getvalue().strip()}"
    return Result(op, seconds, report, problem)


class Batch:
    def __init__(self, results: list[Result], duration: float):
        self.results = results
        self.duration = duration
        self.wall = sum(r.seconds for r in results)

    def kind_seconds(self) -> dict[str, float]:
        out = Counter()
        for r in self.results:
            out[r.op.kind] += r.seconds
        return out


def run_batch(ops, tracer=None) -> Batch:
    start = perf_counter()
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        results.append(run_op(op))
        if tracer is not None and op.output is not None and op.output.exists():
            tracer.add("jsonio.bytes_written", op.output.stat().st_size)
    return Batch(results, perf_counter() - start)


def _set_up(workload: str, seed: int, workdir: Path):
    """Write the inputs, import clckit afresh and run the warm-up; repeated
    SETUPS times so setup_s is a median."""
    times, warmups = [], []
    for _ in range(SETUPS):
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        warmup, ops = workloads.build(workload, seed, workdir)
        _import_clckit()
        warmups.append(run_op(warmup))
        times.append(perf_counter() - start)
    return ops, times, warmups


def _run_batches(ops, seconds: float, tracer):
    """Repeat the batch while another one is expected to fit in `seconds`.
    With a tracer, untraced and traced batches alternate in pairs."""
    plain, traced, counts = [], [], []
    start = perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_batch(ops, tracer))
            finally:
                tracer.uninstall()
            counts.append((dict(tracer.calls), dict(tracer.counts), dict(tracer.self_s)))
        else:
            plain.append(run_batch(ops))
        if tracer is not None and len(traced) < len(plain):
            continue
        expected = median([b.duration for b in plain + traced])
        if perf_counter() - start + expected > seconds:
            return plain, traced, counts


def _check(workload: str, seed: int, results: list[Result], counts) -> tuple[dict, list[str]]:
    """Mark results whose report bytes differ between repeats, under tracing
    or, for the default seed, from the recorded digests."""
    digests = {}
    for r in results:
        digests.setdefault(r.op.name, r.digest)
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if seed == DEFAULT_SEED else digests
    for r in results:
        if r.problem is None and r.digest != digests[r.op.name]:
            r.problem = "report bytes differ between repeats or under tracing"
        elif r.problem is None and r.digest != recorded.get(r.op.name):
            r.problem = f"report digest {r.digest} does not match the recorded one"
    problems = [f"{r.op.name}: {r.problem}" for r in results if r.problem]
    if any(c[:2] != counts[0][:2] for c in counts[1:]):
        problems.append("traced call counts or derived counts differ between batches")
    return digests, problems


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    ops, setup_times, warmups = _set_up(workload, seed, workdir)
    tracer = tracing.Tracer() if traced else None
    plain, with_trace, counts = _run_batches(ops, seconds, tracer)
    results = warmups + [r for b in plain + with_trace for r in b.results]
    digests, problems = _check(workload, seed, results, counts)

    kinds = [b.kind_seconds() for b in plain]
    command_s = {
        metric: median([k[kind] for k in kinds]) for kind, metric in workloads.KIND_METRICS.items()
    }
    failed = min(len(problems), len(results))
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "batches": len(plain),
        "traced_batches": len(with_trace),
        "batch_wall_s": [b.wall for b in plain],
        "setup_s": setup_times,
        "fail_ratio": failed / len(results),
        "command_s": command_s,
        "op_s": {op.name: [b.results[i].seconds for b in plain] for i, op in enumerate(ops)},
        "digests": digests,
        "problems": problems,
    }
    if not traced:
        metrics = {
            "wall_s": (median([b.wall for b in plain]), "s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        calls, derived, _ = counts[0]
        metrics = {}
        for name in tracing.TRACED:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (median([c[2].get(name, 0.0) for c in counts]), "s")
        for name in tracing.DERIVED:
            metrics[name] = (derived.get(name, 0), "count")
        for metric, value in command_s.items():
            metrics[metric] = (value, "s")
        metrics["trace.overhead"] = (
            median([b.wall for b in with_trace]) / median([b.wall for b in plain]),
            "ratio",
        )
        diagnostics["missing"] = tracer.missing
        tracer.write_spans(WORK / f"spans-{workload}.jsonl")
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "diagnostics": diagnostics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clckit" / "__init__.py").is_file():
        print(f"error: no clckit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    before = _host_state()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    diagnostics = result.pop("diagnostics")
    diagnostics["host_before"] = before
    diagnostics["host_after"] = _host_state()

    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed / attempted':48s} {result['failed']:>7d} / {result['attempted']}", file=sys.stderr)
    for problem in diagnostics["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
