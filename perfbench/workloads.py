"""The three workloads: fixed batches of clckit CLI invocations.

Each operation is one `clckit` command line (always `--format json`) plus a
check of its exit code and report against what holds by construction. The
seed only relabels, rescales or redraws values; sizes are fixed so a batch
does about the same work on every seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import inputs as gen

# Operation kinds; each end-to-end command-time metric sums one kind.
KIND_METRICS = {
    "certify_hom": "certify_hom_s",
    "certify_clc": "certify_clc_s",
    "search": "search_s",
    "synth": "synth_s",
    "verify": "verify_s",
    "sample": "sample_s",
    "mix": "mix_s",
}

WORKLOADS = ("certify", "witness", "walk")


@dataclass
class Op:
    name: str
    kind: str  # a KIND_METRICS key, or "other" for short commands
    argv: list[str]
    check: Callable[[int, dict], str | None]  # (exit code, report) -> problem
    output: Path | None = None  # certificate file the command writes


def _expect(rc_want: int, **fields):
    def check(rc, rep):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        for key, want in fields.items():
            if rep.get(key) != want:
                return f"{key}={rep.get(key)!r}, expected {want!r}"
        return None

    return check


def _certified(checks: int):
    return _expect(0, verdict="certified", checks=checks, failure=None)


def _hom_cells(n: int, full_quadratic_sizes: int) -> int:
    """Cells of a full certify-hom sweep: n - |tau| derivative cells per tau,
    plus one Hessian for each tau whose quadratic cell is nonzero (those
    with |tau| < full_quadratic_sizes)."""
    return n * 2 ** (n - 1) + sum(comb(n, s) for s in range(full_quadratic_sizes))


def _early_exit(full: int):
    def check(rc, rep):
        if rc != 2 or rep.get("verdict") != "conditions-fail":
            return f"exit {rc} verdict {rep.get('verdict')!r}, expected conditions-fail"
        if rep.get("failure") is None or not 0 < rep.get("checks", 0) < full:
            return f"stopped after {rep.get('checks')} of {full} cells without a failing cell"
        return None

    return check


def _clc_cells(n: int, d: int) -> int:
    """Cells of a full certify-clc sweep: every contraction of size < d-1
    plus one Hessian per quadratic cell."""
    return sum(comb(n, s) for s in range(d - 1)) + comb(n, d - 2)


def _strong_checks(n: int) -> int:
    """Equations a strong-certificate verification checks: every singleton
    and pair outside each tau with |tau| <= n-2."""
    return sum(comb(n, s) * ((n - s) + comb(n - s, 2)) for s in range(n - 1))


def _verified(checks: int | None = None):
    def check(rc, rep):
        if rc != 0 or rep.get("ok") is not True or rep.get("failure") is not None:
            return f"exit {rc} ok={rep.get('ok')!r} failure={rep.get('failure')!r}"
        if checks is not None and rep.get("checks") != checks:
            return f"checks={rep.get('checks')}, expected {checks}"
        return None

    return check


def _mobius_coverage(rc, rep):
    if rc != 0 or rep.get("is_coverage") is not True:
        return f"exit {rc} is_coverage={rep.get('is_coverage')!r}"
    if any(v.startswith("-") for v in rep["weights"].values()):
        return "negative coverage weight"
    return None


def _entropy_identity(rc, rep):
    if rc != 0 or not rep.get("max_identity_residual", 1.0) <= 1e-9:
        return f"exit {rc} residual={rep.get('max_identity_residual')!r}"
    return None


def _counterexamples(rc, rep):
    if rc != 0 or len(rep.get("results", [])) != 2 or not all(r["ok"] for r in rep["results"]):
        return f"exit {rc} results={rep.get('results')!r}"
    return None


def _sampled(steps: int, seed: int, d: int):
    def check(rc, rep):
        if rc != 0 or rep.get("steps") != steps or rep.get("seed") != seed:
            return f"exit {rc} steps={rep.get('steps')!r} seed={rep.get('seed')!r}"
        hist = rep["histogram"]
        if sum(hist.values()) != steps + 1:
            return f"histogram holds {sum(hist.values())} visits, expected {steps + 1}"
        if any(len(json.loads(k)) != d for k in hist):
            return "histogram visits a state off the size-d support"
        if json.dumps(rep["final"], separators=(",", ":")) not in hist:
            return "final state never visited"
        if not 0.0 <= rep["histogram_tv"] <= 1.0:
            return f"histogram TV {rep['histogram_tv']} outside [0, 1]"
        return None

    return check


def _mixed(eps: float):
    def check(rc, rep):
        if rc != 0 or rep.get("converged") is not True:
            return f"exit {rc} converged={rep.get('converged')!r}"
        curve = rep["tv_curve"]
        if rep["t_mix"] != len(curve) - 1 or not curve[-1] <= eps < curve[-2]:
            return f"t_mix {rep['t_mix']} does not match the TV curve {curve}"
        if any(b > a + 1e-12 for a, b in zip(curve, curve[1:])):
            return "TV curve increases"
        return None

    return check


def _argv(command: str, *args) -> list[str]:
    return [command, "--format", "json", *map(str, args)]


class _Files:
    """Names the generated inputs inside one work directory."""

    def __init__(self, root: Path):
        self.root = root

    def table(self, name: str, n: int, value_of) -> str:
        return str(gen.write_table(self.root / f"{name}.json", n, value_of))

    def doc(self, name: str, doc) -> str:
        return str(gen.write_json(self.root / f"{name}.json", doc))

    def out(self, name: str) -> Path:
        return self.root / f"{name}.cert.json"


def _certify(rng: random.Random, files: _Files) -> tuple[Op, list[Op]]:
    scale = rng.randint(1, 9)
    cov_universe, cov_sets = gen.random_coverage(rng, 9, 5, full_support=True)
    mob_universe, mob_sets = gen.random_coverage(rng, 14, 6)
    graph = gen.random_connected_graph(rng, 8, 14)
    early = gen.random_table(rng, 9)
    ops = [
        Op("hom-u4-10-rank", "certify_hom",
           _argv("certify-hom", "--input", files.table(
               "u4-10-rank", 10, lambda m: scale * gen.uniform_rank(4)(m))),
           _certified(_hom_cells(10, 10))),
        Op("hom-u4-10-ind", "certify_hom",
           _argv("certify-hom", "--input", files.table("u4-10-ind", 10, gen.uniform_indicator(4))),
           _certified(_hom_cells(10, 5))),
        Op("hom-cov-9", "certify_hom",
           _argv("certify-hom", "--input", files.table(
               "cov-9", 9, gen.coverage_value(cov_universe, cov_sets))),
           _certified(_hom_cells(9, 9))),
        Op("hom-rand-9-early", "certify_hom",
           _argv("certify-hom", "--input", files.table("rand-9", 9, early)),
           _early_exit(_hom_cells(9, 9))),
        Op("clc-u5-14-ind", "certify_clc",
           _argv("certify-clc", "--d", 5, "--input", files.table("u5-14-ind", 14, gen.uniform_indicator(5))),
           _certified(_clc_cells(14, 5))),
        Op("clc-budget-additive", "certify_clc",
           _argv("certify-clc", "--d", 2, "--input", files.table("budget-additive", 12, gen.budget_additive)),
           _expect(1, verdict="refuted", checks=2,
                   failure={"tau": [], "k": None, "reason": "inertia", "n_pos": 2})),
        Op("mobius-cov-14", "other",
           _argv("mobius", "--input", files.table("cov-14", 14, gen.coverage_value(mob_universe, mob_sets))),
           _mobius_coverage),
        Op("ulc-graphic-14", "other",
           _argv("ulc", "--input", files.table(
               "graphic-14-ind", 14, gen.indicator_of(gen.graphic_rank(8, graph)))),
           _expect(0, ultra_log_concave=True, failing_k=None)),
        Op("entropy-8", "other",
           _argv("entropy", "--input", str(gen.write_joint_pmf(files.root / "pmf-8.json", rng, 8))),
           _entropy_identity),
        Op("counterexamples", "other", _argv("counterexamples"), _counterexamples),
    ]
    warmup = Op("warmup-ulc", "other",
                _argv("ulc", "--input", files.table("warm-u3-8", 8, gen.uniform_rank(3))),
                _expect(0, ultra_log_concave=True, failing_k=None))
    return warmup, ops


def _synth_and_verify(files: _Files, name: str, synth_args: list, verify_args: list,
                      witnesses: int, checks: int | None = None) -> list[Op]:
    out = files.out(name)
    command = synth_args[0]
    return [
        Op(f"synth-{name}", "synth",
           _argv(*synth_args, "--output", out),
           _expect(0, synthesized=True, witnesses=witnesses), output=out),
        Op(f"verify-{name}", "verify",
           _argv(command, "--cert", out, *verify_args),
           _verified(checks)),
    ]


def _witness(rng: random.Random, files: _Files) -> tuple[Op, list[Op]]:
    infeasible = gen.planted_triangle(rng, 8)
    blocks, caps = gen.partition_blocks(rng, 11)
    part_rank = gen.partition_rank(blocks, caps)
    graph = gen.random_connected_graph(rng, 7, 11)
    cov_universe, cov_sets = gen.random_coverage(rng, 10, 5, full_support=True)
    ops = [
        Op("search-u2-9-ind", "search",
           _argv("certify-2cov", "--search", "--d", 2, "--input",
                 files.table("u2-9-ind", 9, gen.uniform_indicator(2))),
           _expect(0, two_coverage=True, d=2)),
        Op("search-triangle-8", "search",
           _argv("certify-2cov", "--search", "--d", 2, "--input", files.table("triangle-8", 8, infeasible)),
           _expect(1, two_coverage=False, reason="infeasible", tau=[])),
    ]
    ops += _synth_and_verify(
        files, "2cov-u4-12",
        ["certify-2cov", "--matroid", files.doc("u4-12", {"type": "uniform", "r": 4, "n": 12}), "--d", 4],
        ["--d", 4, "--input", files.table("u4-12-ind", 12, gen.uniform_indicator(4))],
        witnesses=comb(12, 2))
    ops += _synth_and_verify(
        files, "2cov-partition-11",
        ["certify-2cov", "--matroid", files.doc("partition-11", {"type": "partition", "blocks": blocks, "caps": caps}),
         "--d", 3],
        ["--d", 3, "--input", files.table("partition-11-ind", 11, gen.indicator_of(part_rank))],
        witnesses=11)
    ops += _synth_and_verify(
        files, "strong-u3-11",
        ["certify-strong", "--matroid", files.doc("u3-11", {"type": "uniform", "r": 3, "n": 11})],
        ["--input", files.table("u3-11-rank", 11, gen.uniform_rank(3))],
        witnesses=2 ** 11 - 12, checks=_strong_checks(11))
    ops += _synth_and_verify(
        files, "strong-graphic-11",
        ["certify-strong", "--matroid", files.doc("graphic-11", {"type": "graphic", "vertices": 7, "edges": graph})],
        ["--input", files.table("graphic-11-rank", 11, gen.graphic_rank(7, graph))],
        witnesses=2 ** 11 - 12, checks=_strong_checks(11))
    cov_path = gen.write_coverage_instance(files.root / "coverage-10.json", cov_universe, cov_sets)
    ops += _synth_and_verify(
        files, "strong-coverage-10",
        ["certify-strong", "--coverage", cov_path],
        ["--input", files.table("coverage-10-table", 10, gen.coverage_value(cov_universe, cov_sets))],
        witnesses=2 ** 10 - 11, checks=_strong_checks(10))
    warmup = Op("warmup-search", "other",
                _argv("certify-2cov", "--search", "--d", 2, "--input",
                      files.table("warm-u2-5-ind", 5, gen.uniform_indicator(2))),
                _expect(0, two_coverage=True, d=2))
    return warmup, ops


def _walk(rng: random.Random, files: _Files) -> tuple[Op, list[Op]]:
    steps = 20000
    eps = "1/10"

    def sample(name, n, d, value_of):
        chain_seed = rng.randrange(2 ** 32)
        return Op(f"sample-{name}", "sample",
                  _argv("sample", "--d", d, "--steps", steps, "--seed", chain_seed,
                        "--input", files.table(name, n, value_of)),
                  _sampled(steps, chain_seed, d))

    def mix(name, n, d, value_of):
        return Op(f"mix-{name}", "mix",
                  _argv("mix", "--d", d, "--epsilon", eps, "--input", files.table(name, n, value_of)),
                  _mixed(0.1))

    ops = [
        sample("u2-8-ind", 8, 2, gen.uniform_indicator(2)),
        sample("rand-10-3", 10, 3, gen.random_level(rng, 3, 1, 9)),
        sample("rand-12-4", 12, 4, gen.random_level(rng, 4, 1, 9)),
        mix("u2-10-ind", 10, 2, gen.uniform_indicator(2)),
        mix("rand-9-2", 9, 2, gen.random_level(rng, 2, 5, 9)),
    ]
    warm_seed = rng.randrange(2 ** 32)
    warmup = Op("warmup-sample", "other",
                _argv("sample", "--d", 2, "--steps", 500, "--seed", warm_seed,
                      "--input", files.table("warm-u2-6-ind", 6, gen.uniform_indicator(2))),
                _sampled(500, warm_seed, 2))
    return warmup, ops


_MAKERS = {"certify": _certify, "witness": _witness, "walk": _walk}


def build(workload: str, seed: int, root: Path) -> tuple[Op, list[Op]]:
    """Write the workload's inputs for `seed` under `root`; return the
    warm-up operation and the batch."""
    rng = random.Random(f"{workload}/{seed}")
    return _MAKERS[workload](rng, _Files(root))
