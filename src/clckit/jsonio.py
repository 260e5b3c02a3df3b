"""JSON formats for tables, instances, matroids, polynomials, pmfs and
certificates.

Rationals are serialized as strings "p/q" (plain "p" when integral) and
accepted back as integers, decimal literals, or "p/q" strings; decimal
literals in exact files are parsed exactly (never through binary64). Floats
appear only in joint-pmf files.
"""
from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

from .bitsets import compress, labels_of
from .coverage2 import (
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
)
from .entropy import JointDistribution
from .errors import CapExceededError
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .polynomials import HomogenizedPolynomial, MultiaffinePolynomial
from .setfn import (
    CoverageInstance,
    CoverageWeights,
    HARD_CAP,
    LinearFunction,
    SetFunctionTable,
    ZERO,
)


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _setkey(labels) -> str:
    """Subset dict keys are compact JSON arrays, e.g. "[2,3]"."""
    return json.dumps(list(labels), separators=(",", ":"))


def parse_exact(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        raise TypeError("floats are not accepted in exact files; use strings")
    raise TypeError(f"cannot parse {v!r} as a rational")


def _load(path: str):
    with open(path) as fh:
        return json.load(fh, parse_float=lambda s: Fraction(Decimal(s)))


def _subset(labels, at: str, item, ground: int, scope: str, seen: dict) -> int:
    """Bitmask of the JSON list of 1-based labels found at `at.format(item)`.

    Rejects a label that is not an integer, lies outside the mask `ground`
    (named by `scope` in the message) or repeats, and a subset already in
    `seen`, which maps each subset read from the same field to its item;
    records the subset there.
    """
    def bad(problem):
        return ValueError(f"{at.format(item)}: {problem}")

    if not isinstance(labels, list):
        raise bad(f"{labels!r} is not a list of labels")
    top = ground.bit_length()
    mask = 0
    for lab in labels:
        if type(lab) is not int:
            raise bad(f"label {lab!r} is not an integer")
        if not 0 < lab <= top:
            raise bad(f"set {labels} out of range for {scope}")
        mask |= 1 << (lab - 1)
    if mask.bit_count() != len(labels):
        raise bad(f"set {labels} repeats a label")
    if mask & ~ground:
        raise bad(f"set {labels} out of range for {scope}")
    if mask in seen:
        raise bad(f"set {labels} repeats the subset of {at.format(seen[mask])}")
    seen[mask] = item
    return mask


def _key(key: str, at: str):
    """A JSON-encoded dict key (a label list, or one label) decoded; `at`
    locates it as in `_subset`."""
    try:
        return json.loads(key)
    except json.JSONDecodeError:
        raise ValueError(f"{at.format(key)}: key {key!r} is not valid JSON") from None


def _load_floats(path: str):
    with open(path) as fh:
        return json.load(fh)


def load_set_function(path: str) -> SetFunctionTable:
    doc = _load(path)
    n = int(doc["n"])
    if n > HARD_CAP:  # before allocating 2^n values
        raise CapExceededError(f"n={n} exceeds the hard cap {HARD_CAP}")
    full = (1 << n) - 1
    values = [ZERO] * (full + 1)
    seen: dict[int, int] = {}
    for k, entry in enumerate(doc.get("entries", [])):
        mask = _subset(entry["set"], "entries[{}]", k, full, f"n={n}", seen)
        values[mask] = parse_exact(entry["value"])
    return SetFunctionTable(n, tuple(values))


def dump_set_function(f: SetFunctionTable) -> dict:
    return {
        "n": f.n,
        "entries": [
            {"set": list(labels_of(m)), "value": frac_str(v)}
            for m, v in enumerate(f.values)
            if v != 0
        ],
    }


def load_coverage_instance(path: str) -> CoverageInstance:
    doc = _load(path)
    universe = [(u["id"], parse_exact(u["weight"])) for u in doc["universe"]]
    return CoverageInstance.build(universe, doc["sets"])


def load_matroid(path: str) -> Matroid:
    doc = _load(path)
    kind = doc["type"]
    if kind == "uniform":
        return UniformMatroid(int(doc["r"]), int(doc["n"]))
    if kind == "partition":
        return PartitionMatroid(doc["blocks"], doc["caps"])
    if kind == "graphic":
        return GraphicMatroid(int(doc["vertices"]), [tuple(e) for e in doc["edges"]])
    if kind == "explicit":
        return ExplicitMatroid(int(doc["n"]), doc["independent"])
    raise ValueError(f"unknown matroid type {kind!r}")


def load_polynomial(path: str):
    """Terms carry a y-power, a variable set and a coefficient; a file whose
    terms all have y = 0 loads as a plain multiaffine polynomial. A (y, set)
    pair may appear in one term only."""
    doc = _load(path)
    n = int(doc["n"])
    full = (1 << n) - 1
    seen: dict[int, dict[int, int]] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}
    for k, t in enumerate(doc.get("terms", [])):
        y = int(t.get("y", 0))
        mask = _subset(t["set"], "terms[{}]", k, full, f"n={n}", seen.setdefault(y, {}))
        coeffs[y, mask] = parse_exact(t["coeff"])
    if all(y == 0 for y in seen):
        return MultiaffinePolynomial(n, {mask: c for (_, mask), c in coeffs.items()})
    return HomogenizedPolynomial(n, coeffs)


def load_joint_distribution(path: str) -> JointDistribution:
    doc = _load_floats(path)
    pmf = {tuple(row["outcome"]): float(row["p"]) for row in doc["pmf"]}
    return JointDistribution(tuple(int(k) for k in doc["alphabets"]), pmf)


def dump_certificate(cert) -> dict:
    if isinstance(cert, TwoCoverageCertificate):
        return {
            "d": cert.d,
            "n": cert.n,
            "witnesses": [
                {
                    "tau": list(tau),
                    "S": list(w.support),
                    "g": {
                        _setkey(w.support[b] for b in range(w.g.n) if t >> b & 1): frac_str(v)
                        for t, v in sorted(w.g.x.items())
                    },
                    "l": {
                        str(w.support[i]): frac_str(w.ell.ell[i])
                        for i in range(w.ell.n)
                    },
                }
                for tau, w in sorted(cert.witnesses.items())
            ],
        }
    if isinstance(cert, StrongCertificate):
        out = []
        for tau, g in sorted(cert.witnesses.items()):
            rest = [i for i in range(1, cert.n + 1) if i not in tau]
            out.append(
                {
                    "tau": list(tau),
                    "g": {
                        _setkey(rest[b] for b in range(g.n) if t >> b & 1): frac_str(v)
                        for t, v in sorted(g.x.items())
                    },
                }
            )
        return {"n": cert.n, "witnesses": out}
    raise TypeError(f"cannot dump {type(cert).__name__}")


def load_certificate(path: str):
    """A document with a top-level "d" is a two-coverage certificate;
    otherwise a strong one. The labels in g and l keys must lie in the
    witness's ground set: S for two-coverage, the complement of tau for a
    strong certificate."""
    doc = _load(path)
    n = int(doc["n"])
    full = (1 << n) - 1
    in_n = f"n={n}"
    two_coverage = "d" in doc
    listed = doc["witnesses"]
    witnesses = {}
    for k, w in enumerate(listed):
        tmask = _subset(w["tau"], "witnesses[{}].tau", k, full, in_n, {})
        tau = tuple(sorted(w["tau"]))
        if tau in witnesses:  # found again, not indexed: an index of every tau costs memory
            first = next(i for i, v in enumerate(listed) if tuple(sorted(v["tau"])) == tau)
            raise ValueError(
                f"witnesses[{k}].tau: set {w['tau']} repeats the subset of witnesses[{first}].tau"
            )
        if two_coverage:
            ground, scope = _subset(w["S"], "witnesses[{}].S", k, full, in_n, {}), "S"
        else:
            ground, scope = full & ~tmask, "the complement of tau"
        bits = tuple([b for b in range(n) if ground >> b & 1])
        at = f"witnesses[{k}].g[{{!r}}]"
        seen_g: dict[int, str] = {}
        g = {}
        for key, v in w.get("g", {}).items():
            mask = _subset(_key(key, at), at, key, ground, scope, seen_g)
            g[compress(mask, bits)] = parse_exact(v)
        weights = CoverageWeights(len(bits), g)
        if not two_coverage:
            witnesses[tau] = weights
            continue
        at = f"witnesses[{k}].l[{{!r}}]"
        seen_l: dict[int, str] = {}
        ell = [ZERO] * len(bits)
        for key, v in w.get("l", {}).items():
            bit = _subset([_key(key, at)], at, key, ground, scope, seen_l)
            ell[bits.index(bit.bit_length() - 1)] = parse_exact(v)
        witnesses[tau] = TwoCoverageWitness(
            tuple(b + 1 for b in bits), weights, LinearFunction(len(bits), tuple(ell))
        )
    if two_coverage:
        return TwoCoverageCertificate(n, int(doc["d"]), witnesses)
    return StrongCertificate(n, witnesses)
