"""Command-line front end.

Exit codes: 0 certified/pass, 1 refuted/fail, 2 inconclusive
(sufficient conditions failed, or a chain that did not converge), 3 input,
usage or OS error; an internal error ends in a traceback (exit 1). Reports
go to stdout as text or, with --format json, as JSON with rationals rendered
"p/q"; identical inputs and flags produce byte-identical reports.
Randomized commands require --seed and echo it.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import counterexamples as cx
from . import jsonio
from .bitsets import labels_of
from .coverage2 import (
    decide_2cov,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    verify_2cov,
    verify_strong2cov,
)
from .entropy import IDENTITY_TOL, entropy_decomposition
from .errors import InputError
from .jsonio import read_subset, subset_key
from .logconcave import (
    VERDICT_CERTIFIED,
    VERDICT_CONDITIONS_FAIL,
    VERDICT_REFUTED,
    VERDICT_VACUOUS,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    quadratic_inertia,
    ulc_check,
)
from .setfn import exact, level_sequence, mobius_coverage_weights
from .walk import (
    RNG_SCHEME,
    histogram_tv,
    mixing_time_exact,
    sample_chain,
    walk_instance,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of a process, built at the first `run`: parsing leaves
    it unchanged, so every later call reuses it."""
    parser = _Parser(prog="clckit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="override the enumeration cap (with a warning)")

    p = sub.add_parser("certify-clc", help="sufficient conditions on a degree-d restriction")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--input", help="set-function JSON")
    mode.add_argument("--poly", help="quadratic polynomial JSON (decides log-concavity exactly)")
    p.add_argument("--d", type=int)
    common(p)

    p = sub.add_parser("certify-hom", help="sufficient conditions on the homogenization")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("certify-2cov", help="verify/synthesize/search two-coverage witnesses")
    p.add_argument("--input", help="set-function JSON (with --cert or --search)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cert", help="certificate JSON to verify")
    mode.add_argument("--search", action="store_true", default=None, help="decide witness feasibility by exact LP")
    mode.add_argument("--matroid", help="matroid JSON: synthesize for its independence indicator")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", help="write the synthesized certificate here")
    common(p)

    p = sub.add_parser("certify-strong", help="verify/synthesize strong certificates")
    p.add_argument("--input", help="set-function JSON (with --cert)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cert", help="certificate JSON to verify")
    mode.add_argument("--matroid", help="matroid JSON: synthesize for its rank function")
    mode.add_argument("--coverage", help="coverage-instance JSON: synthesize directly")
    p.add_argument("--output", help="write the synthesized certificate here")
    common(p)

    p = sub.add_parser("mobius", help="coverage weights by Moebius inversion")
    p.add_argument("--input", required=True)
    common(p, cap=False)

    p = sub.add_parser("ulc", help="ultra-log-concavity of the level sequence")
    p.add_argument("--input", required=True)
    common(p, cap=False)

    p = sub.add_parser("entropy", help="mutual-information decomposition of a joint pmf")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("sample", help="run the down-up walk")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", help="comma-separated start state, e.g. 1,3")
    common(p, cap=False)

    p = sub.add_parser("mix", help="exact mixing time by matrix powering")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", required=True, type=exact)
    common(p)

    p = sub.add_parser("counterexamples", help="reproduce the two built-in negative results")
    common(p, cap=False)

    return parser


def _emit(payload: dict, lines: list[str], fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cap_kwargs(args) -> dict:
    if args.cap is None:
        return {}
    print(f"warning: enumeration cap overridden to {args.cap}", file=sys.stderr)
    return {"cap": args.cap}


def _report(report, fmt: str) -> int:
    """Report a certification: pass on certified or vacuous, fail on refuted."""
    failure = None
    lines = [f"verdict: {report.verdict}", f"checks: {report.checks}"]
    f = report.failure
    if f is not None:
        failure = {"tau": list(f.tau), "k": f.k, "reason": f.reason}
        if f.n_pos is not None:
            failure["n_pos"] = f.n_pos
        if f.components is not None:
            failure["components"] = [list(c) for c in f.components]
        at = f"tau={list(f.tau)}" + (f", k={f.k}" if f.k is not None else "")
        extra = f" n_pos={f.n_pos}" if f.n_pos is not None else ""
        lines.append(f"failure: {f.reason} at {at}{extra}")
    if report.verdict == VERDICT_CONDITIONS_FAIL:
        lines.append(
            "note: the conditions checked are sufficient, not necessary; "
            "this verdict does not prove the function is not completely log-concave"
        )
    _emit({"verdict": report.verdict, "checks": report.checks, "failure": failure}, lines, fmt)
    if report.verdict in (VERDICT_CERTIFIED, VERDICT_VACUOUS):
        return EXIT_PASS
    return EXIT_FAIL if report.verdict == VERDICT_REFUTED else EXIT_INCONCLUSIVE


def _unread(args, *pairs: tuple[str, str]) -> None:
    """Refuse each (flag, mode) pair given together: the mode never reads
    the flag. The words are those argparse uses for two exclusive flags."""
    for flag, mode in pairs:
        if getattr(args, flag[2:]) is not None and getattr(args, mode[2:]) is not None:
            raise InputError(f"argument {flag}: not allowed with argument {mode}")


def _cmd_certify_clc(args) -> int:
    _unread(args, ("--cap", "--poly"), ("--d", "--poly"))
    if args.poly is not None:
        iner = quadratic_inertia(jsonio.load_polynomial(args.poly))
        ok = iner.n_pos <= 1
        payload = {
            "log_concave": ok,
            "inertia": {"n_pos": iner.n_pos, "n_zero": iner.n_zero, "n_neg": iner.n_neg},
        }
        _emit(
            payload,
            [
                f"log-concave: {str(ok).lower()}",
                f"inertia: ({iner.n_pos}, {iner.n_zero}, {iner.n_neg})",
            ],
            args.format,
        )
        return EXIT_PASS if ok else EXIT_FAIL
    if args.d is None:
        raise InputError("--d is required with --input")
    f = jsonio.load_set_function(args.input)
    return _report(certify_clc_homogeneous(f, args.d, **_cap_kwargs(args)), args.format)


def _cmd_certify_hom(args) -> int:
    f = jsonio.load_set_function(args.input)
    return _report(certify_clc_homogenization(f, **_cap_kwargs(args)), args.format)


def _check_report(check, fmt: str) -> int:
    """Report a certificate verification: pass iff every check held."""
    payload = {
        "ok": check.ok,
        "checks": check.checks,
        "failure": check.failure,
        "tau": list(check.tau) if check.tau is not None else None,
    }
    lines = [f"ok: {str(check.ok).lower()}", f"checks: {check.checks}"]
    if not check.ok:
        lines.append(f"failure: {check.failure} at tau={list(check.tau)}")
    _emit(payload, lines, fmt)
    return EXIT_PASS if check.ok else EXIT_FAIL


def _synth_report(cert, args, **fields) -> int:
    """Write a synthesized certificate to --output, if given, and report it."""
    if args.output is not None:
        jsonio.write_certificate(args.output, cert)
    payload = {"synthesized": True, **fields, "witnesses": len(cert.witnesses)}
    _emit(payload, [f"synthesized and verified: {len(cert.witnesses)} witnesses"], args.format)
    return EXIT_PASS


def _cmd_certify_2cov(args) -> int:
    _unread(args, ("--cap", "--cert"), ("--output", "--cert"), ("--output", "--search"), ("--input", "--matroid"))
    if args.matroid is not None:
        m = jsonio.load_matroid(args.matroid)
        return _synth_report(synth_2cov_indicator(m, args.d, **_cap_kwargs(args)), args, d=args.d)
    if args.input is None:
        raise InputError("--input is required with --cert/--search")
    f = jsonio.load_set_function(args.input)
    if args.cert is not None:
        return _check_report(verify_2cov(f, args.d, jsonio.load_certificate(args.cert)), args.format)
    decision = decide_2cov(f, args.d, **_cap_kwargs(args))
    if decision.two_coverage:
        payload = {"two_coverage": True, "d": args.d}
        _emit(payload, [f"2-coverage at d={args.d}: witnesses exist for every tau"], args.format)
        return EXIT_PASS
    tau = list(decision.tau)
    payload = {"two_coverage": False, "reason": decision.reason, "tau": tau}
    if decision.reason == "decomposable":
        line = f"not 2-coverage: decomposable at tau={tau}"
    else:
        optimum = str(decision.infeasibility)
        payload["phase1_optimum"] = optimum
        line = f"not 2-coverage: no witness exists at tau={tau} (phase-1 optimum {optimum})"
    _emit(payload, [line], args.format)
    return EXIT_FAIL


def _cmd_certify_strong(args) -> int:
    _unread(args, ("--cap", "--cert"), ("--output", "--cert"), ("--input", "--matroid"), ("--input", "--coverage"))
    if args.cert is not None:
        if args.input is None:
            raise InputError("--input is required with --cert")
        f = jsonio.load_set_function(args.input)
        return _check_report(verify_strong2cov(f, jsonio.load_certificate(args.cert)), args.format)
    if args.matroid is not None:
        cert = synth_strong_matroid(jsonio.load_matroid(args.matroid), **_cap_kwargs(args))
    else:
        cert = synth_strong_from_parts(jsonio.load_coverage_instance(args.coverage), **_cap_kwargs(args))
    return _synth_report(cert, args)


def _cmd_mobius(args) -> int:
    f = jsonio.load_set_function(args.input)
    result = mobius_coverage_weights(f)
    weights = {subset_key(t): str(v) for t, v in sorted(result.weights.items())}
    payload = {
        "is_coverage": result.is_coverage,
        "min_weight": str(result.min_weight),
        "weights": weights,
    }
    lines = [
        f"is-coverage: {str(result.is_coverage).lower()}",
        f"min-weight: {result.min_weight}",
    ] + [f"x{key} = {v}" for key, v in weights.items()]
    _emit(payload, lines, args.format)
    return EXIT_PASS if result.is_coverage else EXIT_FAIL


def _cmd_ulc(args) -> int:
    f = jsonio.load_set_function(args.input)
    seq = level_sequence(f)
    result = ulc_check(seq)
    payload = {
        "sequence": [str(c) for c in seq],
        "ultra_log_concave": result.holds,
        "failing_k": result.failing_k,
    }
    lines = [
        "levels: (" + ", ".join(map(str, seq)) + ")",
        f"ultra-log-concave: {str(result.holds).lower()}",
    ]
    if not result.holds:
        lines.append(f"first failing k: {result.failing_k}")
    _emit(payload, lines, args.format)
    return EXIT_PASS if result.holds else EXIT_FAIL


def _cmd_entropy(args) -> int:
    joint = jsonio.load_joint_distribution(args.input)
    dec = entropy_decomposition(joint, **_cap_kwargs(args))
    payload = {
        "n": dec.n,
        "entropies": {subset_key(m): dec.values[m] for m in range(1, 1 << dec.n)},
        "weights": {subset_key(t): w for t, w in sorted(dec.weights.items())},
        "max_identity_residual": dec.max_identity_residual,
        "mobius_max_diff": dec.mobius_max_diff,
        "min_weight": dec.min_weight,
        "has_negative_weight": dec.has_negative_weight,
    }
    lines = [
        f"max identity residual: {dec.max_identity_residual}",
        f"min weight: {dec.min_weight}",
    ]
    if dec.has_negative_weight:
        lines.append(
            "note: a negative weight is present; the decomposition is exact but "
            "is not a nonnegative coverage witness for this distribution"
        )
    lines += [f"x{subset_key(t)} = {w}" for t, w in sorted(dec.weights.items())]
    _emit(payload, lines, args.format)
    return EXIT_PASS if dec.max_identity_residual <= IDENTITY_TOL else EXIT_FAIL


def _cmd_sample(args) -> int:
    f = jsonio.load_set_function(args.input)
    w = walk_instance(f, args.d)
    if args.start is not None:
        try:
            labels = [int(tok) for tok in args.start.split(",")]
        except ValueError:
            raise InputError(f"--start: {args.start!r} is not a comma-separated list of integer labels") from None
        start = read_subset(labels, f.n, "--start")
    else:
        start = w.support[0]
    chain = sample_chain(w, start, args.steps, args.seed)
    tv = histogram_tv(w, chain.histogram)
    payload = {
        "seed": chain.seed,
        "rng": RNG_SCHEME,
        "steps": chain.steps,
        "start": list(labels_of(start)),
        "final": list(labels_of(chain.final)),
        "histogram_tv": tv,
        "histogram": {subset_key(m): c for m, c in sorted(chain.histogram.items())},
    }
    lines = [
        f"seed: {chain.seed} ({RNG_SCHEME})",
        f"start: {list(labels_of(start))}",
        f"final: {list(labels_of(chain.final))}",
        f"histogram TV to stationary: {tv}",
    ]
    _emit(payload, lines, args.format)
    return EXIT_PASS


def _cmd_mix(args) -> int:
    f = jsonio.load_set_function(args.input)
    w = walk_instance(f, args.d)
    result = mixing_time_exact(w, args.epsilon, **_cap_kwargs(args))
    payload = {
        "epsilon": str(args.epsilon),
        "converged": result.converged,
        "t_mix": result.t_mix,
        "ratio": result.ratio,
        "tv_curve": [float(v) for v in result.tv_curve],
        "switched_to_float_at": result.switched_to_float_at,
    }
    lines = [f"epsilon: {args.epsilon}"]
    if result.converged:
        lines.append(f"t_mix: {result.t_mix}")
        lines.append(f"ratio t_mix / (d ln(d/eps)): {result.ratio}")
    else:
        lines.append("did not converge within the step budget (reducible or periodic support?)")
    _emit(payload, lines, args.format)
    return EXIT_PASS if result.converged else EXIT_INCONCLUSIVE


def _cmd_counterexamples(args) -> int:
    outcomes = cx.run_all()
    payload = {
        "results": [
            {"name": o.name, "ok": o.ok, "details": o.details} for o in outcomes
        ]
    }
    lines = [
        f"{'PASS' if o.ok else 'FAIL'} {o.name}: {o.details}" for o in outcomes
    ]
    ok = all(o.ok for o in outcomes)
    lines.append("PASS: both negative results reproduce" if ok else "FAIL")
    _emit(payload, lines, args.format)
    return EXIT_PASS if ok else EXIT_FAIL


_COMMANDS = {
    "certify-clc": _cmd_certify_clc,
    "certify-hom": _cmd_certify_hom,
    "certify-2cov": _cmd_certify_2cov,
    "certify-strong": _cmd_certify_strong,
    "mobius": _cmd_mobius,
    "ulc": _cmd_ulc,
    "entropy": _cmd_entropy,
    "sample": _cmd_sample,
    "mix": _cmd_mix,
    "counterexamples": _cmd_counterexamples,
}


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
