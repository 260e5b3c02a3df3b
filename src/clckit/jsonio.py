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
from typing import Mapping

from .bitsets import labels_of, mask_of
from .coverage2 import (
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
)
from .entropy import JointDistribution
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


def _load_floats(path: str):
    with open(path) as fh:
        return json.load(fh)


def load_set_function(path: str) -> SetFunctionTable:
    doc = _load(path)
    n = int(doc["n"])
    listed = doc.get("entries", [])
    entries: dict[int, Fraction] = {}
    for k, entry in enumerate(listed):
        labels = entry["set"]
        mask = mask_of(labels)
        if mask.bit_count() != len(labels):
            raise ValueError(f"entries[{k}]: set {labels} repeats a label")
        if mask in entries:
            first = next(i for i, e in enumerate(listed) if mask_of(e["set"]) == mask)
            raise ValueError(f"entries[{k}]: set {labels} repeats the subset of entries[{first}]")
        if mask >> n:
            raise ValueError(f"entries[{k}]: set {labels} out of range for n={n}")
        entries[mask] = parse_exact(entry["value"])
    return SetFunctionTable.from_entries(n, entries)


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
    terms all have y = 0 loads as a plain multiaffine polynomial."""
    doc = _load(path)
    n = int(doc["n"])
    terms = doc.get("terms", [])
    if all(int(t.get("y", 0)) == 0 for t in terms):
        coeffs: dict[int, Fraction] = {}
        for t in terms:
            mask = mask_of(t["set"])
            coeffs[mask] = coeffs.get(mask, ZERO) + parse_exact(t["coeff"])
        return MultiaffinePolynomial(n, coeffs)
    hcoeffs: dict[tuple[int, int], Fraction] = {}
    for t in terms:
        key = (int(t.get("y", 0)), mask_of(t["set"]))
        hcoeffs[key] = hcoeffs.get(key, ZERO) + parse_exact(t["coeff"])
    return HomogenizedPolynomial(n, hcoeffs)


def load_joint_distribution(path: str) -> JointDistribution:
    doc = _load_floats(path)
    pmf = {tuple(row["outcome"]): float(row["p"]) for row in doc["pmf"]}
    return JointDistribution(tuple(int(k) for k in doc["alphabets"]), pmf)


def _weights_dict(w: CoverageWeights) -> dict:
    return {
        _setkey(labels_of(t)): frac_str(v)
        for t, v in sorted(w.x.items())
    }


def _weights_from(doc: Mapping, n: int) -> CoverageWeights:
    x = {}
    for key, v in doc.items():
        labels = json.loads(key) if isinstance(key, str) else key
        x[mask_of(labels)] = parse_exact(v)
    return CoverageWeights(n, x)


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
    otherwise a strong one."""
    doc = _load(path)
    n = int(doc["n"])
    if "d" in doc:
        witnesses = {}
        for w in doc["witnesses"]:
            tau = tuple(sorted(w["tau"]))
            support = tuple(sorted(w["S"]))
            spos = {lab: i for i, lab in enumerate(support)}
            g = {}
            for key, v in w.get("g", {}).items():
                labels = json.loads(key) if isinstance(key, str) else key
                g[mask_of(spos[lab] + 1 for lab in labels)] = parse_exact(v)
            ell = [ZERO] * len(support)
            for key, v in w.get("l", {}).items():
                ell[spos[int(key)]] = parse_exact(v)
            witnesses[tau] = TwoCoverageWitness(
                support,
                CoverageWeights(len(support), g),
                LinearFunction(len(support), tuple(ell)),
            )
        return TwoCoverageCertificate(n, int(doc["d"]), witnesses)
    witnesses = {}
    for w in doc["witnesses"]:
        tau = tuple(sorted(w["tau"]))
        rest = [i for i in range(1, n + 1) if i not in tau]
        rpos = {lab: i for i, lab in enumerate(rest)}
        g = {}
        for key, v in w.get("g", {}).items():
            labels = json.loads(key) if isinstance(key, str) else key
            g[mask_of(rpos[lab] + 1 for lab in labels)] = parse_exact(v)
        witnesses[tau] = CoverageWeights(len(rest), g)
    return StrongCertificate(n, witnesses)
