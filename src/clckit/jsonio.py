"""JSON formats for tables, instances, matroids, polynomials, pmfs and
certificates.

Rationals are serialized as strings "p/q" (plain "p" when integral) and
accepted back as integers, decimal literals, or "p/q" strings; decimal
literals in exact files are kept verbatim for `exact`, which reads them
exactly (never through binary64). Floats appear only in joint-pmf files.
"""
from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

from .bitsets import labels_of
from .coverage2 import (
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
)
from .entropy import JointDistribution
from .errors import CapExceededError, InputError
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .polynomials import HomogenizedPolynomial, MultiaffinePolynomial
from .setfn import (
    CoverageWeights,
    HARD_CAP,
    MAX_DIGITS,
    SetFunctionTable,
    exact,
)


def subset_key(mask: int) -> str:
    """The key of a subset in files and reports: a compact label list, "[2,3]"."""
    return json.dumps(list(labels_of(mask)), separators=(",", ":"))


class _Literal(str):
    """A JSON decimal literal, kept as written."""


_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string",
          bool: "a boolean", _Literal: "a decimal", float: "a decimal", type(None): "null"}


def _typed(value, kind: type, at: str, item=None):
    """value, if its JSON type is exactly `kind` (int, list or dict): a bool
    is no integer, and a decimal is refused, never truncated. `at` names the
    field, or with `item` is its template, formatted on the error path."""
    if type(value) is not kind:
        at = at if item is None else at.format(item)
        raise InputError(f"{at}: expected {_KINDS[kind]}, found {_KINDS[type(value)]}")
    return value


def _size(value, at: str) -> int:
    """value, a size: a JSON integer (read by `_typed`) that is not negative."""
    if _typed(value, int, at) < 0:
        raise InputError(f"{at}: expected a nonnegative integer, found {value}")
    return value


def _ground_size(doc: dict) -> int:
    """The n of a document that holds masks over [n] (a table, polynomial,
    certificate or explicit matroid): a size of at most HARD_CAP, the cap
    of a table, checked before any mask over [n] is built."""
    n = _size(_field(doc, "n"), "n")
    if n > HARD_CAP:
        raise CapExceededError(f"n={n} exceeds the hard cap {HARD_CAP}")
    return n


def _field(obj: dict, key: str, kind: type | None = None, at: str | None = None, item=None):
    """obj[key], read by `_typed` when `kind` is given; every required key
    is read here, so a missing one is an error naming the field `at` (by
    default the key itself; with `item`, `at` is a template as in `_typed`)."""
    at = key if at is None else at
    if key not in obj:
        raise InputError(f"{at if item is None else at.format(item)}: missing")
    return obj[key] if kind is None else _typed(obj[key], kind, at, item)


def _closed(obj: dict, keys: tuple, at: str, item=None) -> dict:
    """obj, refused if it holds a key outside `keys`: its size against the `keys` it holds."""
    if len(obj) != sum(map(obj.__contains__, keys)):
        at = at if item is None else at.format(item)
        raise InputError(f"{at}: unknown key {next(k for k in obj if k not in keys)!r}")
    return obj


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(obj: dict, key, at: str, item, cache: dict) -> tuple[int, int]:
    """obj[key] as integers (p, q) in lowest terms, q > 0: a JSON integer, or
    a "p" or "p/q" string of ASCII digits with an optional leading "-", no
    longer than MAX_DIGITS and with q != 0, is read by `int`. Any other value
    goes through `exact`, which reads decimals and refuses the rest; a
    missing or unreadable value is an error naming the field
    `at.format(item)`. A string is read once per file and kept in `cache`,
    so its next sightings cost one lookup."""
    value = obj.get(key)
    if type(value) is str and value in cache:
        return cache[value]
    if type(value) is int:
        return value, 1
    value = _field(obj, key, at=at, item=item)  # a missing key is refused here
    m = _RATIO.fullmatch(value) if type(value) is str and len(value) <= MAX_DIGITS else None
    p, q = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
    if q:
        c = math.gcd(p, q)
        p, q = p // c, q // c
    else:
        try:
            r = exact(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{at.format(item)}: {exc}") from None
        p, q = r.numerator, r.denominator
    if type(value) is str:
        cache[value] = p, q
    return p, q


def _weight(obj: dict, key, at: str, item, cache: dict) -> tuple[int, int]:
    """obj[key] read by `_rational`, refused if negative."""
    p, q = _rational(obj, key, at, item, cache)
    if p < 0:
        raise InputError(f"{at.format(item)}: negative weight {Fraction(p, q)}")
    return p, q


def _ints(value, at: str) -> list[int]:
    """The JSON list of integers at `at`, each read by `_typed`."""
    return [_typed(v, int, f"{at}[{i}]") for i, v in enumerate(_typed(value, list, at))]


def _load(path: str, keys: tuple | None = None, parse_float=_Literal) -> dict:
    """The JSON object in the file at `path`, decimals kept as written
    unless `parse_float` says otherwise, refused by `_closed` for a key
    outside `keys`. A key repeated within one object is refused, and so is
    a file that `json` cannot read: not JSON, not UTF-8, an integer literal
    over Python's digit limit, or nesting past the recursion limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=parse_float, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise InputError("document: nested too deeply") from None
        except ValueError as exc:
            raise InputError(str(exc)) from None
    doc = _typed(doc, dict, "document")
    return doc if keys is None else _closed(doc, keys, "document")


def _unique_keys(pairs: list) -> dict:
    """An object_pairs_hook that refuses a key repeated within one object."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise InputError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _subset(labels, at: str, item, ground: int, scope: str, seen: dict) -> int:
    """Bitmask of the JSON list of 1-based labels found at `at.format(item)`.

    Rejects a label that is not an integer, lies outside the mask `ground`
    (named by `scope` in the message) or repeats, and a subset already in
    `seen`, which maps each subset read from the same field to its item;
    records the subset there.
    """
    def bad(problem):
        return InputError(f"{at.format(item)}: {problem}")

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


def read_subset(labels, n: int, at: str) -> int:
    """The mask of a label list over [n], checked as `_subset` checks a set."""
    return _subset(labels, "{}", at, (1 << n) - 1, f"n={n}", {})


def _cached_subset(key: str, at: str, ground: int, scope: str, seen: dict, masks: dict, label=False) -> int:
    """The mask of the object key `key`, a JSON label list (or, with
    `label`, one label), checked as `_subset` checks it. `masks` keeps each
    key's mask over [n] for the rest of the file; the key is decoded and
    `_subset` reads it again whenever its kept mask leaves `ground` or
    repeats in `seen`, so every refusal has its own message."""
    mask = masks.get(key)
    if mask is None or mask & ~ground or mask in seen:
        try:
            labels = json.loads(key)
        except (ValueError, RecursionError):
            raise InputError(f"{at.format(key)}: key {key!r} is not valid JSON") from None
        mask = masks[key] = _subset([labels] if label else labels, at, key, ground, scope, seen)
    else:
        seen[mask] = key
    return mask


def load_set_function(path: str) -> SetFunctionTable:
    """Each value is read as integers (p, q) and refused there if negative,
    or nonzero on the empty set; the numerators are then put over the lcm
    of the distinct denominators, and the table reduces them to lowest
    terms."""
    doc = _load(path, ("n", "entries"))
    n = _ground_size(doc)
    full = (1 << n) - 1
    in_n = f"n={n}"
    nums = [0] * (full + 1)
    by_den: dict[int, list[int]] = {}  # q -> the masks whose value is p/q
    seen: dict[int, int] = {}
    ratios: dict[str, tuple[int, int]] = {}
    for k, entry in enumerate(_typed(doc.get("entries", []), list, "entries")):
        _typed(entry, dict, "entries[{}]", k)
        mask = _subset(_field(entry, "set", at="entries[{}].set", item=k), "entries[{}]", k, full, in_n, seen)
        p, q = _rational(entry, "value", "entries[{}].value", k, ratios)
        if len(entry) != 2:  # both keys were read
            _closed(entry, ("set", "value"), "entries[{}]", k)
        if p and not mask:
            raise InputError(f"entries[{k}].value: f(empty set) must be 0")
        if p < 0:
            raise InputError(f"entries[{k}].value: negative value {Fraction(p, q)}")
        nums[mask] = p
        by_den.setdefault(q, []).append(mask)
    scale = math.lcm(*by_den)
    for q, masks in by_den.items():
        if q != scale:
            for mask in masks:
                nums[mask] *= scale // q
    return SetFunctionTable(n, nums, scale)


def load_coverage_instance(path: str) -> CoverageWeights:
    """A weighted universe and sets A_1..A_n of its ids, read straight into
    coverage weights: each element adds its weight at the mask of the sets
    that contain it, so x_T is the weight of the elements lying in exactly
    the sets A_i, i in T. An id listed twice, a label repeated within a set
    and an element outside the universe are refused, naming the field."""
    doc = _load(path, ("universe", "sets"))
    weight: dict[str, Fraction] = {}
    ratios: dict[str, tuple[int, int]] = {}
    for k, u in enumerate(_field(doc, "universe", list)):
        at = f"universe[{k}]"
        _closed(_typed(u, dict, at), ("id", "weight"), at)
        e = _field(u, "id", str, f"{at}.id")
        w = Fraction(*_weight(u, "weight", "universe[{}].weight", k, ratios))
        if e in weight:
            raise InputError(f"{at}.id: {e!r} is listed twice")
        weight[e] = w
    sets = [
        [_typed(x, str, f"sets[{k}][{i}]") for i, x in enumerate(_typed(a, list, f"sets[{k}]"))]
        for k, a in enumerate(_field(doc, "sets", list))
    ]
    member = dict.fromkeys(weight, 0)  # id -> the mask of the sets holding it
    for k, a in enumerate(sets):
        for i, e in enumerate(a):
            if e not in member:
                raise InputError(f"sets[{k}][{i}]: unknown element {e!r}")
            if member[e] >> k & 1:
                raise InputError(f"sets[{k}]: repeated label {e!r}")
            member[e] |= 1 << k
    x: dict[int, Fraction] = {}
    for e, m in member.items():
        if m:
            x[m] = x.get(m, 0) + weight[e]
    return CoverageWeights.of(len(sets), dict(sorted(x.items())))


def load_matroid(path: str) -> Matroid:
    doc = _load(path)
    kind = _field(doc, "type", str)
    if kind == "uniform":
        _closed(doc, ("type", "r", "n"), "document")
        return UniformMatroid(_size(_field(doc, "r"), "r"), _size(_field(doc, "n"), "n"))
    if kind == "partition":
        _closed(doc, ("type", "blocks", "caps"), "document")
        blocks = [_ints(b, f"blocks[{k}]") for k, b in enumerate(_field(doc, "blocks", list))]
        caps = [_size(c, f"caps[{k}]") for k, c in enumerate(_field(doc, "caps", list))]
        return PartitionMatroid(blocks, caps)
    if kind == "graphic":
        _closed(doc, ("type", "vertices", "edges"), "document")
        vertices = _size(_field(doc, "vertices"), "vertices")
        return GraphicMatroid(vertices, [_ints(e, f"edges[{k}]") for k, e in enumerate(_field(doc, "edges", list))])
    if kind == "explicit":
        _closed(doc, ("type", "n", "independent"), "document")
        family = [_ints(i, f"independent[{k}]") for k, i in enumerate(_field(doc, "independent", list))]
        return ExplicitMatroid(_ground_size(doc), family)
    raise InputError(f"unknown matroid type {kind!r}")


def load_polynomial(path: str):
    """Terms carry a y-power, a variable set and a coefficient; a file whose
    terms all have y = 0 loads as a plain multiaffine polynomial. A (y, set)
    pair may appear in one term only."""
    doc = _load(path, ("n", "terms"))
    n = _ground_size(doc)
    full = (1 << n) - 1
    seen: dict[int, dict[int, int]] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}
    ratios: dict[str, tuple[int, int]] = {}
    for k, t in enumerate(_typed(doc.get("terms", []), list, "terms")):
        _closed(_typed(t, dict, f"terms[{k}]"), ("y", "set", "coeff"), f"terms[{k}]")
        y = _size(t.get("y", 0), f"terms[{k}].y")
        labels = _field(t, "set", at=f"terms[{k}].set")
        mask = _subset(labels, "terms[{}]", k, full, f"n={n}", seen.setdefault(y, {}))
        coeffs[y, mask] = Fraction(*_rational(t, "coeff", "terms[{}].coeff", k, ratios))
    if all(y == 0 for y in seen):
        return MultiaffinePolynomial(n, {mask: c for (_, mask), c in coeffs.items()})
    return HomogenizedPolynomial(n, coeffs)


def load_joint_distribution(path: str) -> JointDistribution:
    """Each `p` must be a finite, nonnegative JSON number (int or float,
    never a bool) and each outcome a list of integers, listed once, with one
    entry per alphabet and inside it."""
    doc = _load(path, ("alphabets", "pmf"), parse_float=float)
    pmf = {}
    for k, row in enumerate(_field(doc, "pmf", list)):
        at = f"pmf[{k}]"
        _closed(_typed(row, dict, at), ("outcome", "p"), at)
        outcome = tuple(_ints(_field(row, "outcome", at=f"{at}.outcome"), f"{at}.outcome"))
        if outcome in pmf:
            raise InputError(f"{at}.outcome: {list(outcome)} is listed twice")
        p = _field(row, "p", at=f"{at}.p")
        if type(p) not in (int, float):
            raise InputError(f"{at}.p: expected a number, found {_KINDS[type(p)]}")
        try:
            p = float(p)
        except OverflowError:
            raise InputError(f"{at}.p: integer too large for a float") from None
        if not math.isfinite(p):
            raise InputError(f"{at}.p: {p} is not a finite number")
        if p < 0:
            raise InputError(f"{at}.p: negative probability {p}")
        pmf[outcome] = p
    alphabets = tuple(
        _size(k, f"alphabets[{i}]") for i, k in enumerate(_typed(_field(doc, "alphabets"), list, "alphabets"))
    )
    for k, outcome in enumerate(pmf):  # in the order of the rows
        at = f"pmf[{k}].outcome"
        if len(outcome) != len(alphabets):
            raise InputError(f"{at}: {list(outcome)} has {len(outcome)} entries, not one per alphabet")
        if not all(0 <= v < a for v, a in zip(outcome, alphabets)):
            raise InputError(f"{at}: {list(outcome)} leaves the alphabet")
    return JointDistribution(alphabets, pmf)


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, from one integer gcd."""
    c = math.gcd(p, q)
    return str(p // c) if c == q else f"{p // c}/{q // c}"


def _weights_doc(g: CoverageWeights, key) -> dict:
    return {key(t): _ratio(v, g.scale) for t, v in sorted(g.x.items())}


def _by_tau(witnesses) -> list:
    """(tau's labels, witness) in the order of the label tuples, which
    fixes the order of the witnesses in a certificate file."""
    return sorted(((labels_of(t), w) for t, w in witnesses.items()), key=lambda item: item[0])


def _two_coverage_doc(tau: tuple[int, ...], w: TwoCoverageWitness, key) -> dict:
    support = labels_of(w.support)
    ell = {str(lab): _ratio(w.ell[lab - 1], w.g.scale) for lab in support}
    return {"tau": list(tau), "S": list(support), "g": _weights_doc(w.g, key), "l": ell}


def dump_certificate(cert) -> dict:
    """Masks over [n] are written as label lists: tau, S, the keys of g,
    and one key of l per label of S."""
    key = functools.cache(subset_key)  # masks repeat across witnesses
    if isinstance(cert, TwoCoverageCertificate):
        return {
            "d": cert.d,
            "n": cert.n,
            "witnesses": [_two_coverage_doc(tau, w, key) for tau, w in _by_tau(cert.witnesses)],
        }
    if isinstance(cert, StrongCertificate):
        return {
            "n": cert.n,
            "witnesses": [{"tau": list(tau), "g": _weights_doc(g, key)} for tau, g in _by_tau(cert.witnesses)],
        }
    raise TypeError(f"cannot dump {type(cert).__name__}")


def _block(items: list, pad: str, brackets: str) -> str:
    """`items` as `json.dumps(..., indent=2)` nests them in `brackets` after `pad`."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1] if items else brackets


def write_certificate(path: str, cert) -> None:
    """Write the bytes `json.dump(dump_certificate(cert), indent=2)` writes
    to `path`, each witness laid out from `cert` in turn, no document built."""
    two = isinstance(cert, TwoCoverageCertificate)
    if not two and not isinstance(cert, StrongCertificate):
        raise TypeError(f"cannot dump {type(cert).__name__}")
    key = functools.cache(lambda t: f'"{subset_key(t)}": "')  # one key string per mask
    pad = "\n      "  # before a witness's fields
    with open(path, "w") as fh:
        fh.write((f'{{\n  "d": {cert.d},' if two else "{") + f'\n  "n": {cert.n},\n  "witnesses": [')
        sep = "\n    {"
        for tau, w in _by_tau(cert.witnesses):
            g = w.g if two else w
            text = f'{sep}{pad}"tau": {_block([*map(str, tau)], pad, "[]")}'
            if two:
                s = labels_of(w.support)
                text += f',{pad}"S": {_block([*map(str, s)], pad, "[]")}'
            x = [f'{key(t)}{_ratio(v, g.scale)}"' for t, v in sorted(g.x.items())]
            text += f',{pad}"g": {_block(x, pad, "{}")}'
            if two:
                ell = [f'"{i}": "{_ratio(w.ell[i - 1], g.scale)}"' for i in s]
                text += f',{pad}"l": {_block(ell, pad, "{}")}'
            fh.write(text + "\n    }")
            sep = ",\n    {"
        fh.write("\n  ]\n}" if cert.witnesses else "]\n}")


def load_certificate(path: str):
    """A document with a top-level "d" is a two-coverage certificate;
    otherwise a strong one. The labels in g and l keys must lie in the
    witness's ground set: S for two-coverage, the complement of tau for a
    strong certificate; g carries no weight on the empty set, and neither g
    nor l a negative one. Masks are kept over [n], and numbers as integer
    numerators over one denominator per witness, in lowest terms. Each key
    and value string is read once per file (`_cached_subset`, `_rational`)."""
    doc = _load(path, ("d", "n", "witnesses"))
    n = _ground_size(doc)
    full = (1 << n) - 1
    in_n = f"n={n}"
    two_coverage = "d" in doc
    fields = ("tau", "S", "g", "l") if two_coverage else ("tau", "g")
    witnesses = {}
    empty = CoverageWeights(n, {})  # one g for every witness with no weight over denominator 1
    seen_tau: dict[int, int] = {}
    g_masks: dict[str, int] = {}
    l_masks: dict[str, int] = {}
    ratios: dict[str, tuple[int, int]] = {}
    for k, w in enumerate(_field(doc, "witnesses", list)):
        _closed(_typed(w, dict, "witnesses[{}]", k), fields, "witnesses[{}]", k)
        labels = _field(w, "tau", at="witnesses[{}].tau", item=k)
        tmask = _subset(labels, "witnesses[{}].tau", k, full, in_n, seen_tau)
        if two_coverage:
            labels = _field(w, "S", at="witnesses[{}].S", item=k)
            ground, scope = _subset(labels, "witnesses[{}].S", k, full, in_n, {}), "S"
        else:
            ground, scope = full & ~tmask, "the complement of tau"
        at = f"witnesses[{k}].g[{{!r}}]"
        seen_g: dict[int, str] = {}
        g = {}
        g_doc = _typed(w.get("g", {}), dict, "witnesses[{}].g", k)
        for key in g_doc:
            mask = _cached_subset(key, at, ground, scope, seen_g, g_masks)
            if not mask:
                raise InputError(f"{at.format(key)}: g on the empty set is not part of the representation")
            g[mask] = _weight(g_doc, key, at, key, ratios)
        ell = [(0, 1)] * n if two_coverage else []
        if two_coverage:
            at = f"witnesses[{k}].l[{{!r}}]"
            seen_l: dict[int, str] = {}
            l_doc = _typed(w.get("l", {}), dict, "witnesses[{}].l", k)
            for key in l_doc:
                bit = _cached_subset(key, at, ground, scope, seen_l, l_masks, label=True)
                ell[bit.bit_length() - 1] = _weight(l_doc, key, at, key, ratios)
        scale = math.lcm(*(q for _, q in g.values()), *(q for _, q in ell))
        x = CoverageWeights(n, {t: p * (scale // q) for t, (p, q) in g.items()}, scale) if g or scale > 1 else empty
        ell = tuple(p * (scale // q) for p, q in ell)
        witnesses[tmask] = TwoCoverageWitness(ground, x, ell) if two_coverage else x
    if two_coverage:
        return TwoCoverageCertificate(n, _size(_field(doc, "d"), "d"), witnesses)
    return StrongCertificate(n, witnesses)
