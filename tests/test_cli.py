import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clckit import jsonio, materialize
from clckit.cli import run
from clckit.counterexamples import budget_additive_table, triangle_table
from clckit.errors import (
    CapExceededError,
    InputError,
    InternalCheckError,
    MissingWitnessError,
    NotAMatroidError,
)

from conftest import coverage_example, dump_set_function


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _budget_file(tmp_path):
    return _write(
        tmp_path, "budget.json", dump_set_function(budget_additive_table())
    )


def _coverage_table_file(tmp_path):
    return _write(
        tmp_path, "cov.json", dump_set_function(materialize(coverage_example().weights()))
    )


def test_certify_clc_budget_additive_exits_1(tmp_path, capsys):
    code = run(["certify-clc", "--input", _budget_file(tmp_path), "--d", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] == "refuted"
    assert out["failure"]["reason"] == "inertia"
    assert out["failure"]["n_pos"] == 2
    assert out["failure"]["tau"] == []


def test_certify_clc_poly_mode(tmp_path, capsys):
    doc = {
        "n": 3,
        "terms": [
            {"set": [1, 2], "coeff": "3"},
            {"set": [1, 3], "coeff": "1"},
            {"set": [2, 3], "coeff": "1"},
        ],
    }
    code = run(["certify-clc", "--poly", _write(tmp_path, "p.json", doc), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["log_concave"] is True
    assert out["inertia"] == {"n_pos": 1, "n_zero": 0, "n_neg": 2}


def test_counterexamples_pass(capsys):
    code = run(["counterexamples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS: both negative results reproduce" in out


def test_ulc_coverage_example(tmp_path, capsys):
    code = run(["ulc", "--input", _coverage_table_file(tmp_path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["sequence"] == ["0", "4", "6", "2"]
    assert out["ultra_log_concave"] is True


def test_mobius_uniform_rank(tmp_path, capsys):
    doc = {
        "n": 3,
        "entries": [
            {"set": [1], "value": 1},
            {"set": [2], "value": 1},
            {"set": [3], "value": 1},
            {"set": [1, 2], "value": 2},
            {"set": [1, 3], "value": 2},
            {"set": [2, 3], "value": 2},
            {"set": [1, 2, 3], "value": 2},
        ],
    }
    code = run(["mobius", "--input", _write(tmp_path, "u23.json", doc), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1  # not a coverage function
    assert out["is_coverage"] is False
    assert out["min_weight"] == "-1"
    assert out["weights"]["[1,2,3]"] == "-1"


def test_certify_hom_coverage_example(tmp_path, capsys):
    code = run(["certify-hom", "--input", _coverage_table_file(tmp_path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "certified"


def test_certify_2cov_search_triangle(tmp_path, capsys):
    path = _write(tmp_path, "tri.json", dump_set_function(triangle_table()))
    code = run(["certify-2cov", "--input", path, "--d", "2", "--search", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["two_coverage"] is False
    assert out["reason"] == "infeasible"


@pytest.mark.parametrize("d", ["1", "0"])
def test_certify_2cov_search_rejects_degree_below_2(tmp_path, capsys, d):
    path = _write(tmp_path, "tri.json", dump_set_function(triangle_table()))
    code = run(["certify-2cov", "--input", path, "--d", d, "--search"])
    assert code == 3
    assert capsys.readouterr().err == "error: two-coverage needs d >= 2\n"


def test_certify_2cov_search_decomposable(tmp_path, capsys):
    # two disjoint pairs: the degree-2 part splits into {1,2} and {3,4}
    doc = {"n": 4, "entries": [{"set": [1, 2], "value": 1}, {"set": [3, 4], "value": 1}]}
    path = _write(tmp_path, "split.json", doc)
    code = run(["certify-2cov", "--input", path, "--d", "2", "--search", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out == {"two_coverage": False, "reason": "decomposable", "tau": []}


def test_certify_2cov_matroid_synthesis(tmp_path, capsys):
    mpath = _write(tmp_path, "u23.json", {"type": "uniform", "r": 2, "n": 3})
    cert_path = str(tmp_path / "cert.json")
    code = run(["certify-2cov", "--matroid", mpath, "--d", "2", "--output", cert_path])
    capsys.readouterr()
    assert code == 0
    # verify the emitted certificate against the indicator table
    from clckit import UniformMatroid, independence_indicator, to_setfunction, verify_2cov

    cert = jsonio.load_certificate(cert_path)
    assert verify_2cov(independence_indicator(to_setfunction(UniformMatroid(2, 3))), 2, cert).ok


@pytest.mark.parametrize(
    "d, message", [("1", "need d >= 2, got d=1"), ("3", "d=3 exceeds the matroid rank 2")]
)
def test_certify_2cov_matroid_degree_out_of_range_exit_3(tmp_path, capsys, d, message):
    mpath = _write(tmp_path, "u23.json", {"type": "uniform", "r": 2, "n": 3})
    code = run(["certify-2cov", "--matroid", mpath, "--d", d])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_certify_hom_default_cap_is_12(tmp_path, capsys):
    doc = {"n": 12, "entries": [{"set": [1], "value": "1"}]}
    code = run(["certify-hom", "--input", _write(tmp_path, "n12.json", doc), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["verdict"] == "certified"
    doc["n"] = 13
    code = run(["certify-hom", "--input", _write(tmp_path, "n13.json", doc)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: n=13 exceeds cap 12\n")


def test_certify_hom_without_elements_is_vacuous(tmp_path, capsys):
    # q_f = f(empty) y = 0 when n = 0, as for a zero table at any n
    code = run(["certify-hom", "--input", _write(tmp_path, "n0.json", {"n": 0, "entries": []})])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "verdict: vacuous\nchecks: 0\n", "")


def test_certify_strong_matroid_and_verify_round_trip(tmp_path, capsys):
    mpath = _write(tmp_path, "u23.json", {"type": "uniform", "r": 2, "n": 3})
    cert_path = str(tmp_path / "cert.json")
    assert run(["certify-strong", "--matroid", mpath, "--output", cert_path]) == 0
    capsys.readouterr()
    from clckit import UniformMatroid, to_setfunction

    fpath = _write(
        tmp_path, "rk.json", dump_set_function(to_setfunction(UniformMatroid(2, 3)))
    )
    code = run(["certify-strong", "--input", fpath, "--cert", cert_path, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] is True


def test_entropy_xor(tmp_path, capsys):
    doc = {
        "alphabets": [2, 2, 2],
        "pmf": [
            {"outcome": [0, 0, 0], "p": 0.25},
            {"outcome": [0, 1, 1], "p": 0.25},
            {"outcome": [1, 0, 1], "p": 0.25},
            {"outcome": [1, 1, 0], "p": 0.25},
        ],
    }
    code = run(["entropy", "--input", _write(tmp_path, "xor.json", doc), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["has_negative_weight"] is True
    assert abs(out["weights"]["[1,2,3]"] + 1.0) <= 1e-9
    assert out["max_identity_residual"] <= 1e-9


def test_sample_echoes_seed(tmp_path, capsys):
    doc = {
        "n": 3,
        "entries": [
            {"set": [1, 2], "value": 1},
            {"set": [1, 3], "value": 1},
            {"set": [2, 3], "value": 1},
        ],
    }
    path = _write(tmp_path, "pairs.json", doc)
    code = run(
        ["sample", "--input", path, "--d", "2", "--steps", "100", "--seed", "7",
         "--start", "1,2", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["seed"] == 7
    assert out["rng"].startswith("philox")
    assert out["start"] == [1, 2]


@pytest.mark.parametrize(
    "start, message",
    [
        ("1,2,2", "--start: set [1, 2, 2] repeats a label"),
        ("1,2,", "--start: '1,2,' is not a comma-separated list of integer labels"),
        ("1,4", "--start: set [1, 4] out of range for n=3"),
        ("0,1", "--start: set [0, 1] out of range for n=3"),
        ("", "--start: '' is not a comma-separated list of integer labels"),
    ],
    ids=["repeated-label", "empty-label", "label-above-n", "label-zero", "empty-value"],
)
def test_sample_malformed_start_exit_3(tmp_path, capsys, start, message):
    doc = {"n": 3, "entries": [{"set": pair, "value": 1} for pair in ([1, 2], [1, 3], [2, 3])]}
    argv = ["sample", "--input", _write(tmp_path, "pairs.json", doc), "--d", "2", "--steps", "10",
            "--seed", "7", "--start", start]
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_sample_requires_seed(tmp_path, capsys):
    doc = {"n": 2, "entries": [{"set": [1, 2], "value": 1}]}
    path = _write(tmp_path, "f.json", doc)
    code = run(["sample", "--input", path, "--d", "2", "--steps", "5"])
    assert code == 3


def test_mix_uniform_pairs(tmp_path, capsys):
    doc = {
        "n": 3,
        "entries": [
            {"set": [1, 2], "value": 1},
            {"set": [1, 3], "value": 1},
            {"set": [2, 3], "value": 1},
        ],
    }
    path = _write(tmp_path, "pairs.json", doc)
    code = run(["mix", "--input", path, "--d", "2", "--epsilon", "0.01", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["t_mix"] == 4
    assert out["epsilon"] == "1/100"
    curve = out["tv_curve"]
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_mix_reducible_support_stops_before_powering(tmp_path, capsys):
    # {1,2} and {3,4} never reach each other: the TV from either stays 1/2
    doc = {"n": 4, "entries": [{"set": [1, 2], "value": 1}, {"set": [3, 4], "value": 1}]}
    path = _write(tmp_path, "split.json", doc)
    argv = ["mix", "--input", path, "--d", "2", "--epsilon", "1/10"]
    assert run([*argv, "--format", "json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["converged"], out["t_mix"], out["tv_curve"]) == (False, None, [0.5])
    assert run(argv) == 2
    assert capsys.readouterr().out.splitlines() == [
        "epsilon: 1/10",
        "did not converge within the step budget (reducible or periodic support?)",
    ]


def test_mix_three_classes_stops_at_the_lightest_class(tmp_path, capsys):
    # classes of mass 3, 5 and 1 out of 9: the TV from {6,7} stays 8/9
    sets = ([1, 2], [1, 3], [2, 3], [4, 5], [6, 7])
    doc = {"n": 7, "entries": [{"set": s, "value": v} for s, v in zip(sets, (1, 1, 1, 5, 1))]}
    path = _write(tmp_path, "classes.json", doc)
    assert run(["mix", "--input", path, "--d", "2", "--epsilon", "1/2", "--format", "json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["converged"], out["t_mix"], out["tv_curve"]) == (False, None, [8 / 9])


def test_byte_identical_reports(tmp_path, capsys):
    path = _coverage_table_file(tmp_path)
    run(["certify-hom", "--input", path, "--format", "json"])
    first = capsys.readouterr().out
    run(["certify-hom", "--input", path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_input_error_exit_3(tmp_path, capsys):
    code = run(["certify-clc", "--input", str(tmp_path / "missing.json"), "--d", "2"])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "explicit", "n": 2, "independent": [[], [1], [2], [1, 1], [2]]},
         "independent[3]: set [1, 1] repeats a label"),
        ({"type": "explicit", "n": 2, "independent": [[], [1], [2], [2]]},
         "independent[3]: set [2] repeats the subset of independent[2]"),
        ({"type": "partition", "blocks": [[1, 1], [2]], "caps": [1, 1]},
         "blocks[0]: set [1, 1] repeats a label"),
        ({"type": "graphic", "vertices": 2, "edges": [[1, 2, 2]]},
         "edges[0]: an edge joins 2 vertices, found 3"),
        ({"type": "graphic", "vertices": 2, "edges": [[1, 2], [1]]},
         "edges[1]: an edge joins 2 vertices, found 1"),
        ({"type": "graphic", "vertices": 2, "edges": [[1, 2], [1, 3]]},
         "edges[1]: edge [1, 3] references an unknown vertex"),
        ({"type": "partition", "blocks": [[1], [2]], "caps": [1, -1]},
         "caps[1]: expected a nonnegative integer, found -1"),
    ],
    ids=["explicit-repeated-label", "explicit-repeated-set", "partition-repeated-label",
         "graphic-three-ends", "graphic-one-end", "graphic-unknown-vertex", "partition-negative-cap"],
)
def test_malformed_matroid_listing_exit_3(tmp_path, capsys, doc, message):
    code = run(["certify-strong", "--matroid", _write(tmp_path, "m.json", doc)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[[2], 1], [[1, 1], 1]], "entries[1]: set [1, 1] repeats a label"),
        ([[[1, 2], 2], [[1], 1], [[2, 1], 3]], "entries[2]: set [2, 1] repeats the subset of entries[0]"),
        ([[[1], 1], [[3], 1]], "entries[1]: set [3] out of range for n=2"),
        ([[["1"], 1]], "entries[0]: label '1' is not an integer"),
        ([[[1], "1/0"]], "entries[0].value: zero denominator in '1/0'"),
        ([[[1], True]], "entries[0].value: cannot parse True as a rational"),
        ([[[1], None]], "entries[0].value: cannot parse None as a rational"),
        ([[[2], 1], [[1], "-1"]], "entries[1].value: negative value -1"),
        ([[[1], 1], [[], "1/2"]], "entries[1].value: f(empty set) must be 0"),
        # each fault again after valid entries, some written value first
        ([{"value": "1/2", "set": [1]}, [[2], 1], [[1, 2], 2], [[2, 2], 1]], "entries[3]: set [2, 2] repeats a label"),
        ([{"value": "1/2", "set": [1]}, [[2], 1], [[1, 2], 2], [[1], 1]],
         "entries[3]: set [1] repeats the subset of entries[0]"),
        ([[[2], 1], {"value": 2, "set": [1, 2]}, [[], 0], [[2, 3], 1]], "entries[3]: set [2, 3] out of range for n=2"),
        ([[[2], 1], {"value": 2, "set": [1, 2]}, [[2, "1"], 1]], "entries[2]: label '1' is not an integer"),
        ([[[2], 1], {"value": 2, "set": [1, 2]}, [[True], 1]], "entries[2]: label True is not an integer"),
        ([[[2], 1], {"value": 2, "set": [1, 2]}, [[2, True], 1]], "entries[2]: label True is not an integer"),
        ([[[1], 1], {"value": "1", "set": [2]}, [[1, 2], "1/0"]], "entries[2].value: zero denominator in '1/0'"),
        ([[[1], 1], {"value": "1", "set": [2]}, [[1, 2], True]], "entries[2].value: cannot parse True as a rational"),
        ([[[1], 1], {"value": "1", "set": [2]}, [[1, 2], None]], "entries[2].value: cannot parse None as a rational"),
        ([[[1], 1], [[1, 2], 3], {"value": "-1", "set": [2]}], "entries[2].value: negative value -1"),
        ([[[1], 1], {"value": "1/3", "set": [2]}, [[1, 2], 1], [[], "1/2"]],
         "entries[3].value: f(empty set) must be 0"),
    ],
    ids=[
        "repeated-label", "repeated-subset", "out-of-range", "non-integer-label",
        "zero-denominator", "boolean-value", "null-value", "negative-value", "empty-set-value",
        "repeated-label-later", "repeated-subset-later", "out-of-range-later", "non-integer-label-later",
        "true-label-later", "true-label-with-2-later", "zero-denominator-later", "boolean-value-later",
        "null-value-later", "negative-value-first-later", "empty-set-value-later",
    ],
)
def test_malformed_table_entry_exit_3(tmp_path, capsys, entries, message):
    # an entry given as a dict is written as it is, keys in its order
    entries = [e if isinstance(e, dict) else {"set": e[0], "value": e[1]} for e in entries]
    doc = {"n": 2, "entries": entries}
    code = run(["mobius", "--input", _write(tmp_path, "bad.json", doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


def test_certificate_repeated_key_exit_3(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text('{"n": 3, "witnesses": [{"tau": [], "g": {"[1]": "1", "[1]": "5"}}]}')
    code = run(["certify-strong", "--input", _u23_file(tmp_path, "rank"), "--cert", str(cert)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: repeated key '[1]'\n"


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["mobius", "--input", "DOC"],
         '{"n": 3, "n": 2, "entries": [{"set": [1], "value": "1"}]}', "n"),
        (["ulc", "--input", "DOC"],
         '{"n": 2, "entries": [{"set": [1], "value": "1", "value": "2"}]}', "value"),
        (["certify-clc", "--poly", "DOC"],
         '{"n": 2, "terms": [{"set": [1, 2], "coeff": "1", "coeff": "3"}]}', "coeff"),
        (["certify-strong", "--matroid", "DOC"], '{"type": "uniform", "r": 2, "r": 1, "n": 3}', "r"),
        (["certify-strong", "--coverage", "DOC"],
         '{"universe": [{"id": "a", "weight": "1", "weight": "2"}], "sets": [["a"]]}', "weight"),
        (["entropy", "--input", "DOC"],
         '{"alphabets": [2], "pmf": [{"outcome": [0], "p": 0.5, "p": 1.0}, {"outcome": [1], "p": 0.5}]}',
         "p"),
        (["certify-2cov", "--input", "TABLE", "--d", "2", "--cert", "DOC"],
         '{"d": 2, "n": 2, "d": 3, "witnesses": []}', "d"),
        (["mobius", "--input", "DOC"],
         '{"n": 2, "entries": [{"set": [1], "value": "1"}, {"set": [2, {"a": 1, "a": 2}], "value": "1"}]}', "a"),
        (["mobius", "--input", "DOC"],
         '{"n": 2, "entries": [{"value": "1", "set": [1]}, {"set": [2], "value": {"b": [], "b": 1}}]}', "b"),
        (["mobius", "--input", "DOC"],
         '{"n": 2, "entries": [{"set": [3], "value": "1"}, {"set": [1], "value": {"c": 1, "c": 2}}]}', "c"),
    ],
    ids=["table-n", "table-value", "poly-coeff", "uniform-r", "coverage-weight", "pmf-p", "cert-d",
         "table-label-object", "table-value-object", "table-key-after-fault"],
)
def test_repeated_key_exit_3_in_every_loader(tmp_path, capsys, argv, text, key):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    files = {"DOC": str(doc), "TABLE": _write(tmp_path, "t.json", _TABLE_U12)}
    code = run([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: repeated key {key!r}\n"


def test_matroid_cap_checked_before_tabulating(tmp_path, capsys):
    # neither file may cost 2^n or per-vertex work before the synthesis cap
    explicit = _write(tmp_path, "explicit.json", {"type": "explicit", "n": 20, "independent": [[]]})
    assert run(["certify-strong", "--matroid", explicit]) == 3
    assert capsys.readouterr().err == "error: 20 elements exceed cap 14\n"
    far = 10**9
    edges = [[1, 2], [2, far], [far, 1], [1, 2], [5, 5], [far - 1, far]]
    graphic = _write(tmp_path, "graphic.json", {"type": "graphic", "vertices": far, "edges": edges})
    assert run(["certify-strong", "--matroid", graphic, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"synthesized": True, "witnesses": 57}


def _u23_file(tmp_path, mode):
    from clckit import UniformMatroid, independence_indicator, to_setfunction

    table = to_setfunction(UniformMatroid(2, 3))
    table = independence_indicator(table) if mode == "indicator" else table
    return _write(tmp_path, f"u23-{mode}.json", dump_set_function(table))


@pytest.mark.parametrize(
    "witnesses, message",
    [
        ([{"tau": [], "g": {"[1,1]": "1", "[1]": "5"}}],
         "witnesses[0].g['[1,1]']: set [1, 1] repeats a label"),
        ([{"tau": [], "g": {"[1,2]": "1", "[2,1]": "1"}}],
         "witnesses[0].g['[2,1]']: set [2, 1] repeats the subset of witnesses[0].g['[1,2]']"),
        ([{"tau": [1], "g": {"[1,2]": "1"}}],
         "witnesses[0].g['[1,2]']: set [1, 2] out of range for the complement of tau"),
        ([{"tau": [2], "g": {}}, {"tau": [2], "g": {}}],
         "witnesses[1].tau: set [2] repeats the subset of witnesses[0].tau"),
        ([{"tau": ["1"], "g": {}}], "witnesses[0].tau: label '1' is not an integer"),
        ([{"tau": [], "g": []}], "witnesses[0].g: expected an object, found a list"),
        ({"tau": [], "g": {}}, "witnesses: expected a list, found an object"),
        ([[]], "witnesses[0]: expected an object, found a list"),
        ([{"tau": [], "g": {"[1]": "1/0"}}], "witnesses[0].g['[1]']: zero denominator in '1/0'"),
        ([{"tau": [], "g": {"[1]": "-1"}}], "witnesses[0].g['[1]']: negative weight -1"),
        ([{"tau": [], "g": {"[]": "1"}}],
         "witnesses[0].g['[]']: g on the empty set is not part of the representation"),
    ],
    ids=[
        "repeated-label", "repeated-subset", "inside-tau", "repeated-tau", "non-integer-label",
        "g-not-object", "witnesses-not-list", "witness-not-object", "g-zero-denominator",
        "g-negative", "g-empty-set",
    ],
)
def test_malformed_strong_certificate_exit_3(tmp_path, capsys, witnesses, message):
    cert = _write(tmp_path, "cert.json", {"n": 3, "witnesses": witnesses})
    code = run(["certify-strong", "--input", _u23_file(tmp_path, "rank"), "--cert", cert])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, cert, message",
    [
        (["certify-strong"], {"d": 2, "n": 3, "witnesses": []},
         "error: expected a StrongCertificate, found a TwoCoverageCertificate\n"),
        (["certify-2cov", "--d", "2"], {"n": 3, "witnesses": []},
         "error: expected a TwoCoverageCertificate, found a StrongCertificate\n"),
    ],
    ids=["two-coverage-given-to-strong", "strong-given-to-two-coverage"],
)
def test_wrong_certificate_kind_exit_3(tmp_path, capsys, argv, cert, message):
    cert = _write(tmp_path, "cert.json", cert)
    code = run([*argv, "--input", _u23_file(tmp_path, "rank"), "--cert", cert])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "argv, mode, cert, message",
    [
        (["certify-strong"], "rank",
         {"n": 3, "witnesses": [{"tau": [], "g": {"[1]": "1", "[2]": "1", "[3]": "1"}}]},
         "error: no witness for tau=[1]\n"),
        (["certify-2cov", "--d", "2"], "indicator", {"d": 2, "n": 3, "witnesses": []},
         "error: no witness for tau=[]\n"),
    ],
    ids=["strong", "two-coverage"],
)
def test_missing_witness_names_tau_exit_3(tmp_path, capsys, argv, mode, cert, message):
    cert = _write(tmp_path, "cert.json", cert)
    code = run([*argv, "--input", _u23_file(tmp_path, mode), "--cert", cert])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"S": [1, 1], "g": {}, "l": {}}, "witnesses[0].S: set [1, 1] repeats a label"),
        ({"S": [1, 2], "g": {"[3]": "1"}, "l": {}},
         "witnesses[0].g['[3]']: set [3] out of range for S"),
        ({"S": [1, 2], "g": {"[1,2]": "1"}, "l": {"3": "1"}},
         "witnesses[0].l['3']: set [3] out of range for S"),
        ({"S": [1, 2], "g": [], "l": {}}, "witnesses[0].g: expected an object, found a list"),
        ({"S": [1, 2], "g": {}, "l": ["1"]}, "witnesses[0].l: expected an object, found a list"),
        ({"S": [1, 2], "g": {}, "l": "1"}, "witnesses[0].l: expected an object, found a string"),
        ({"S": [1, 2, 3], "g": {"[1,2,3]": "1"}, "l": {"2": "-1/2"}},
         "error: witnesses[0].l['2']: negative weight -1/2\n"),
        ({"S": [1, 2], "g": {"[1,2]": "-1/2"}, "l": {}}, "witnesses[0].g['[1,2]']: negative weight -1/2"),
    ],
    ids=[
        "repeated-support-label", "g-outside-support", "l-outside-support",
        "g-not-object", "l-not-object", "l-string", "negative-l", "negative-g",
    ],
)
def test_malformed_two_coverage_certificate_exit_3(tmp_path, capsys, witness, message):
    cert = _write(tmp_path, "cert.json", {"d": 2, "n": 3, "witnesses": [{"tau": [], **witness}]})
    code = run(["certify-2cov", "--input", _u23_file(tmp_path, "indicator"), "--d", "2", "--cert", cert])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "terms, message",
    [
        ([[[1, 2], 1], [[2, 1], 1]], "terms[1]: set [2, 1] repeats the subset of terms[0]"),
        ([[[1, 1], 1]], "terms[0]: set [1, 1] repeats a label"),
        ([[[1, 2], "-1"]], "negative coefficient -1 on monomial (1, 2)"),
        ([[[1, 2], "1/0"]], "terms[0].coeff: zero denominator in '1/0'"),
    ],
    ids=["repeated-subset", "repeated-label", "negative-coefficient", "coeff-zero-denominator"],
)
def test_malformed_polynomial_term_exit_3(tmp_path, capsys, terms, message):
    doc = {"n": 2, "terms": [{"set": labels, "coeff": c} for labels, c in terms]}
    code = run(["certify-clc", "--poly", _write(tmp_path, "p.json", doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


def _cert_args(tmp_path, doc):
    table = _u23_file(tmp_path, "indicator")
    return ["certify-2cov", "--input", table, "--d", "2", "--cert", _write(tmp_path, "c.json", doc)]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("ulc", {"n": 2.5, "entries": []}, "n: expected an integer, found a decimal"),
        ("ulc", {"n": True, "entries": []}, "n: expected an integer, found a boolean"),
        ("mobius", {"n": 2.0, "entries": []}, "n: expected an integer, found a decimal"),
        ("poly", {"n": 2, "terms": [{"y": 1.5, "set": [1], "coeff": 1}]},
         "terms[0].y: expected an integer, found a decimal"),
        ("matroid", {"type": "uniform", "r": 2.5, "n": 3}, "r: expected an integer, found a decimal"),
        ("matroid", {"type": "uniform", "r": 2, "n": "3"}, "n: expected an integer, found a string"),
        ("matroid", {"type": "graphic", "vertices": 3.5, "edges": [[1, 2], [2, 3]]},
         "vertices: expected an integer, found a decimal"),
        ("matroid", {"type": "explicit", "n": 2.5, "independent": [[]]},
         "n: expected an integer, found a decimal"),
        ("cert", {"d": 2.5, "n": 3, "witnesses": []}, "d: expected an integer, found a decimal"),
        ("cert", {"d": 2, "n": 3.5, "witnesses": []}, "n: expected an integer, found a decimal"),
        ("entropy", {"alphabets": [2.5, 2], "pmf": [{"outcome": [0, 0], "p": 1.0}]},
         "alphabets[0]: expected an integer, found a decimal"),
        ("ulc", {"n": 2, "entries": {"a": 1}}, "entries: expected a list, found an object"),
        ("ulc", {"n": 2, "entries": [[1]]}, "entries[0]: expected an object, found a list"),
        ("poly", {"n": 2, "terms": {"a": 1}}, "terms: expected a list, found an object"),
        ("poly", {"n": 2, "terms": [[1]]}, "terms[0]: expected an object, found a list"),
        ("ulc", {"n": 2, "entries": [{"set": [1]}]}, "entries[0].value: missing"),
        ("coverage", {"universe": [{"id": "a", "weight": "1/0"}], "sets": [["a"]]},
         "universe[0].weight: zero denominator in '1/0'"),
        ("coverage", {"universe": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "-1"}], "sets": [["a"]]},
         "universe[1].weight: negative weight -1"),
        ("matroid", {"type": "partition", "blocks": [1, 2], "caps": [1, 1]},
         "blocks[0]: expected a list, found an integer"),
        ("matroid", {"type": "graphic", "vertices": 3, "edges": [1, 2]},
         "edges[0]: expected a list, found an integer"),
        ("coverage", {"universe": {"id": "a", "weight": "1"}, "sets": [["a"]]},
         "universe: expected a list, found an object"),
        ("ulc", {"entries": []}, "n: missing"),
        ("ulc", {"n": 2, "entries": [{"value": "1"}]}, "entries[0].set: missing"),
        ("ulc", [], "document: expected an object, found a list"),
        ("poly", {"n": 2, "terms": [{"coeff": "1"}]}, "terms[0].set: missing"),
        ("coverage", {"sets": [["a"]]}, "universe: missing"),
        ("coverage", {"universe": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "1"}],
                      "sets": [["a", "a"], ["b"]]}, "error: sets[0]: repeated label 'a'\n"),
        ("coverage", {"universe": [{"id": "1", "weight": "1"}], "sets": [[1]]},
         "sets[0][0]: expected a string, found an integer"),
        ("matroid", {"r": 1, "n": 2}, "type: missing"),
        ("matroid", {"type": "graphic", "edges": [[1, 2]]}, "vertices: missing"),
        ("cert", {"d": 2, "n": 3, "witnesses": [{"S": [1, 2]}]}, "witnesses[0].tau: missing"),
        ("cert", {"d": 2, "n": 3, "witnesses": [{"tau": []}]}, "witnesses[0].S: missing"),
        ("entropy", {"alphabets": [2], "pmf": [{"p": 1.0}]}, "pmf[0].outcome: missing"),
        ("entropy", {"pmf": []}, "alphabets: missing"),
        ("entropy", "x", "document: expected an object, found a string"),
        ("entropy", {"alphabets": [1], "pmf": [{"outcome": [0], "p": float("nan")}]},
         "pmf[0].p: nan is not a finite number"),
        ("entropy", {"alphabets": [2], "pmf": [{"outcome": [0], "p": 0.5}, {"outcome": [0], "p": 0.5},
                                               {"outcome": [1], "p": 0.5}]},
         "pmf[1].outcome: [0] is listed twice"),
        ("entropy", {"alphabets": [1], "pmf": [{"outcome": [0], "p": 10**400}]},
         "pmf[0].p: integer too large for a float"),
        ("entropy", {"alphabets": [2], "pmf": [{"outcome": [0], "p": 0.5}, {"outcome": [5], "p": 0.5}]},
         "pmf[1].outcome: [5] leaves the alphabet"),
        ("entropy", {"alphabets": [2], "pmf": [{"outcome": [0, 1], "p": 1.0}]},
         "pmf[0].outcome: [0, 1] has 2 entries, not one per alphabet"),
        ("ulc", {"n": -1, "entries": []}, "error: n: expected a nonnegative integer, found -1\n"),
        ("poly", {"n": -1, "terms": []}, "error: n: expected a nonnegative integer, found -1\n"),
        ("cert", {"d": 2, "n": -1, "witnesses": []}, "error: n: expected a nonnegative integer, found -1\n"),
        ("matroid", {"type": "explicit", "n": -1, "independent": [[]]},
         "error: n: expected a nonnegative integer, found -1\n"),
        ("coverage", {"universe": [{"id": "a", "weight": "1"}, {"id": "a", "weight": "2"}], "sets": [["a"]]},
         "error: universe[1].id: 'a' is listed twice\n"),
        ("coverage", {"universe": [{"id": "a", "weight": "1"}], "sets": [["a"], ["z"]]},
         "error: sets[1][0]: unknown element 'z'\n"),
        ("entropy", {"alphabets": [2], "pmf": [{"outcome": [0], "p": -0.5}, {"outcome": [1], "p": 1.5}]},
         "error: pmf[0].p: negative probability -0.5\n"),
    ],
    ids=[
        "table-n-decimal", "table-n-bool", "table-n-integral-decimal", "poly-y", "uniform-r",
        "uniform-n-string", "graphic-vertices", "explicit-n", "cert-d", "cert-n", "alphabet",
        "table-entries-object", "table-entry-list", "poly-terms-object", "poly-term-list",
        "table-value-missing", "coverage-weight-zero-denominator", "coverage-weight-negative",
        "partition-block-integer",
        "graphic-edge-integer", "coverage-universe-object", "table-n-missing",
        "table-set-missing", "table-document-list", "poly-set-missing", "coverage-universe-missing",
        "coverage-set-repeated-label", "coverage-set-integer-label",
        "matroid-type-missing", "graphic-vertices-missing", "cert-tau-missing", "cert-support-missing",
        "pmf-outcome-missing", "alphabets-missing", "pmf-document-string", "pmf-p-nan", "pmf-outcome-repeated",
        "pmf-p-huge-integer", "pmf-outcome-outside-alphabet", "pmf-outcome-arity", "table-n-negative", "poly-n-negative", "cert-n-negative", "explicit-n-negative",
        "coverage-id-listed-twice", "coverage-unknown-element", "pmf-p-negative",
    ],
)
def test_malformed_size_or_shape_exit_3(tmp_path, capsys, command, doc, message):
    path = _write(tmp_path, "doc.json", doc)
    argv = {
        "ulc": ["ulc", "--input", path],
        "mobius": ["mobius", "--input", path],
        "poly": ["certify-clc", "--poly", path],
        "coverage": ["certify-strong", "--coverage", path],
        "matroid": ["certify-2cov", "--matroid", path, "--d", "2"],
        "entropy": ["entropy", "--input", path],
    }.get(command) or _cert_args(tmp_path, doc)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


PAIRS = {
    "n": 3,
    "entries": [
        {"set": [1, 2], "value": 1},
        {"set": [1, 3], "value": 1},
        {"set": [2, 3], "value": 1},
    ],
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mix", "--input", "IN", "--d", "2", "--epsilon", "1/0"],
         "argument --epsilon: invalid exact value: '1/0'"),
        (["mobius", "--input", "IN", "--cap", "20"], "unrecognized arguments: --cap 20"),
        (["ulc", "--input", "IN", "--cap", "20"], "unrecognized arguments: --cap 20"),
        (["sample", "--input", "IN", "--d", "2", "--steps", "5", "--seed", "1", "--cap", "20"],
         "unrecognized arguments: --cap 20"),
        (["counterexamples", "--cap", "20"], "unrecognized arguments: --cap 20"),
    ],
    ids=["epsilon-zero-denominator", "mobius-cap", "ulc-cap", "sample-cap", "counterexamples-cap"],
)
def test_bad_flag_exit_3(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "pairs.json", PAIRS)
    code = run([path if a == "IN" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_entropy_cap_override(tmp_path, capsys):
    doc = {"alphabets": [2] * 9, "pmf": [{"outcome": [0] * 9, "p": 1.0}]}
    path = _write(tmp_path, "point.json", doc)
    assert run(["entropy", "--input", path]) == 3
    assert capsys.readouterr().err == "error: n=9 exceeds cap 8\n"
    assert run(["entropy", "--input", path, "--cap", "9"]) == 0
    assert capsys.readouterr().err == "warning: enumeration cap overridden to 9\n"


# Loader fuzz: one valid document per file kind, the command that reads it,
# and the value and size fields a bad scalar is put into, by path and by the
# name the error must carry.
_TABLE_U12 = {"n": 2, "entries": [{"set": [1], "value": "1"}, {"set": [1, 2], "value": "2"}]}
_FUZZ_DOCS = {
    "table": (_TABLE_U12, ["ulc", "--input", "DOC"]),
    "poly": (
        {"n": 2, "terms": [{"y": 0, "set": [1, 2], "coeff": "1"}]},
        ["certify-clc", "--poly", "DOC"],
    ),
    "coverage": (
        {"universe": [{"id": "a", "weight": "1"}], "sets": [["a"], ["a"]]},
        ["certify-strong", "--coverage", "DOC"],
    ),
    "uniform": ({"type": "uniform", "r": 1, "n": 2}, ["certify-strong", "--matroid", "DOC"]),
    "partition": (
        {"type": "partition", "blocks": [[1], [2]], "caps": [1, 1]},
        ["certify-strong", "--matroid", "DOC"],
    ),
    "graphic": (
        {"type": "graphic", "vertices": 2, "edges": [[1, 2]]},
        ["certify-strong", "--matroid", "DOC"],
    ),
    "explicit": (
        {"type": "explicit", "n": 2, "independent": [[], [1], [2]]},
        ["certify-strong", "--matroid", "DOC"],
    ),
    "strong": (
        {"n": 2, "witnesses": [{"tau": [], "g": {"[1]": "1", "[2]": "1"}}]},
        ["certify-strong", "--input", "TABLE", "--cert", "DOC"],
    ),
    "entropy": (
        {"alphabets": [2], "pmf": [{"outcome": [0], "p": 0.5}, {"outcome": [1], "p": 0.5}]},
        ["entropy", "--input", "DOC"],
    ),
    "two-coverage": (
        {"d": 2, "n": 2,
         "witnesses": [{"tau": [], "S": [1, 2], "g": {"[1,2]": "1"}, "l": {"1": "0", "2": "0"}}]},
        ["certify-2cov", "--input", "TABLE", "--d", "2", "--cert", "DOC"],
    ),
}
_FUZZ_FIELDS = [
    ("table", ("n",), "n"),
    ("table", ("entries", 0, "value"), "entries[0].value"),
    ("poly", ("n",), "n"),
    ("poly", ("terms", 0, "y"), "terms[0].y"),
    ("poly", ("terms", 0, "coeff"), "terms[0].coeff"),
    ("coverage", ("universe", 0, "weight"), "universe[0].weight"),
    ("uniform", ("r",), "r"),
    ("uniform", ("n",), "n"),
    ("partition", ("caps", 0), "caps[0]"),
    ("partition", ("blocks", 1, 0), "blocks[1][0]"),
    ("graphic", ("vertices",), "vertices"),
    ("graphic", ("edges", 0, 1), "edges[0][1]"),
    ("explicit", ("n",), "n"),
    ("explicit", ("independent", 1, 0), "independent[1][0]"),
    ("strong", ("n",), "n"),
    ("strong", ("witnesses", 0, "g", "[2]"), "witnesses[0].g['[2]']"),
    ("two-coverage", ("d",), "d"),
    ("two-coverage", ("n",), "n"),
    ("two-coverage", ("witnesses", 0, "g", "[1,2]"), "witnesses[0].g['[1,2]']"),
    ("two-coverage", ("witnesses", 0, "l", "1"), "witnesses[0].l['1']"),
    ("entropy", ("alphabets", 0), "alphabets[0]"),
    ("entropy", ("pmf", 0, "p"), "pmf[0].p"),
    ("entropy", ("pmf", 1, "outcome", 0), "pmf[1].outcome[0]"),
]
_BAD_SCALARS = [True, None, "1/0", "x", [], {}]
# sizes and caps refuse -1 too; a table value, a coverage weight and a
# certificate's g and l a negative rational; a pmf's p a negative float
_NEGATIVES = {
    **dict.fromkeys(["n", "terms[0].y", "r", "vertices", "d", "alphabets[0]", "caps[0]"], [-1]),
    **dict.fromkeys(["universe[0].weight", "witnesses[0].g['[2]']", "witnesses[0].g['[1,2]']",
                     "witnesses[0].l['1']"], ["-1/2"]),
    "pmf[0].p": [-0.5],
    "entries[0].value": ["-1", "-1/2"],
}
_FUZZ_CASES = [
    (field, bad) for field in _FUZZ_FIELDS for bad in _BAD_SCALARS + _NEGATIVES.get(field[2], [])
]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_FUZZ_CASES))
def test_loader_fuzz_bad_scalar_exit_3(tmp_path_factory, case):
    (kind, path, name), bad = case
    doc, argv = _FUZZ_DOCS[kind]
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    directory = tmp_path_factory.mktemp("fuzz")
    files = {"DOC": _write(directory, "doc.json", doc), "TABLE": _write(directory, "t.json", _TABLE_U12)}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([files.get(a, a) for a in argv])
    assert code == 3
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {name}: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def test_usage_error_exit_3(capsys):
    assert run(["certify-clc"]) == 3
    capsys.readouterr()
    assert run(["no-such-command"]) == 3


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `clckit argv` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "clckit.cli", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_runs_in_one_process_match_fresh_runs(tmp_path, capsys):
    # the parser is built once per process; a usage error and then two
    # different commands through it each report what a new process reports
    table = _coverage_table_file(tmp_path)
    argvs = [
        ["sample", "--input", table, "--d", "two", "--steps", "5", "--seed", "1"],
        ["ulc", "--input", table],
        ["certify-clc", "--input", table, "--d", "2", "--format", "json"],
    ]
    results = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert [code for code, _, _ in results] == [3, 0, 0]
    assert results == [_fresh_run(argv) for argv in argvs]


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"[" * 100000, "error: document: nested too deeply"),
        (b'{"n": 2, "entries": [{"set": [1], "value": "\xe9"}]}',
         "error: 'utf-8' codec can't decode byte 0xe9 in position 44"),
        (b'{"n": 1' + b"0" * 5000 + b"}", "error: Exceeds the limit (4300 digits) for integer string conversion"),
        (b'{"n": 2,}', "error: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
    ],
    ids=["nested-too-deeply", "not-utf-8", "integer-over-digit-limit", "not-json"],
)
def test_unreadable_json_exit_3(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code = run(["ulc", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["ulc", "--input", "DOC"], '{"n": 2, "entries": [{"set": [1], "value": 1e10000000}]}',
         "entries[0].value: numerator or denominator exceeds 4300 digits"),
        (["ulc", "--input", "DOC"], '{"n": 2, "entries": [{"set": [1], "value": "0e-10000000"}]}',
         "entries[0].value: numerator or denominator exceeds 4300 digits"),
        (["ulc", "--input", "DOC"], '{"n": 2, "entries": [{"set": [1], "value": "1e%s"}]}' % ("1" * 5000),
         "entries[0].value: numerator or denominator exceeds 4300 digits"),
        (["certify-strong", "--input", "TABLE", "--cert", "DOC"],
         '{"n": 2, "witnesses": [{"tau": [], "g": {"[1]": 1e-10000000, "[2]": "1"}}]}',
         "witnesses[0].g['[1]']: numerator or denominator exceeds 4300 digits"),
        (["mix", "--input", "TABLE", "--d", "1", "--epsilon", "1e-10000000"], "{}",
         "argument --epsilon: invalid exact value: '1e-10000000'"),
    ],
    ids=["table-value", "table-value-string", "exponent-over-digit-limit", "certificate-g", "mix-epsilon"],
)
def test_exponent_bomb_exit_3_before_big_integer_work(tmp_path, capsys, argv, text, message):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    files = {"DOC": str(doc), "TABLE": _write(tmp_path, "t.json", _TABLE_U12)}
    start = time.perf_counter()
    code = run([files.get(a, a) for a in argv])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert elapsed < 1


def _coverage_file(tmp_path, sets: int):
    doc = {"universe": [{"id": str(k), "weight": 1} for k in range(sets)], "sets": [[str(k)] for k in range(sets)]}
    return _write(tmp_path, "coverage.json", doc)


def test_coverage_synthesis_honours_cap(tmp_path, capsys):
    path = _coverage_file(tmp_path, 4)
    assert run(["certify-strong", "--coverage", path, "--cap", "3"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "warning: enumeration cap overridden to 3\nerror: 4 elements exceed cap 3\n"
    )
    assert run(["certify-strong", "--coverage", path, "--cap", "4"]) == 0
    assert capsys.readouterr().out == "synthesized and verified: 11 witnesses\n"


def test_coverage_synthesis_default_cap_is_14(tmp_path, capsys):
    code = run(["certify-strong", "--coverage", _coverage_file(tmp_path, 15)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: 15 elements exceed cap 14\n")


@pytest.mark.parametrize(
    "argv, mode",
    [
        (["certify-clc", "--poly", "p.json"], "--poly"),
        (["certify-2cov", "--cert", "c.json", "--input", "f.json", "--d", "2"], "--cert"),
        (["certify-strong", "--input", "f.json", "--cert", "c.json"], "--cert"),
    ],
    ids=["clc-poly", "2cov-cert", "strong-cert"],
)
def test_cap_refused_where_nothing_is_capped(capsys, argv, mode):
    # refused before any file is opened: none of these paths exists
    code = run(argv + ["--cap", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: argument --cap: not allowed with argument {mode}\n")


# command: (arguments every run needs, its mode flags in the order the
# parser lists them, the (flag, mode) pairs its handler refuses, --cap first)
_MODES = {
    "certify-clc": ([], ("--input", "--poly"), (("--cap", "--poly"), ("--d", "--poly"))),
    "certify-2cov": (["--d", "2"], ("--cert", "--search", "--matroid"),
                     (("--cap", "--cert"), ("--output", "--cert"), ("--output", "--search"), ("--input", "--matroid"))),
    "certify-strong": ([], ("--cert", "--matroid", "--coverage"),
                       (("--cap", "--cert"), ("--output", "--cert"), ("--input", "--matroid"), ("--input", "--coverage"))),
}


def _given(flag: str) -> list[str]:
    """The flag with a value: a number for --cap and --d, else a path that
    names no file (the placeholder FILE)."""
    if flag == "--search":
        return [flag]
    return [flag, "3" if flag in ("--cap", "--d") else "FILE"]


def _mode_cases():
    for command, (base, modes, pairs) in _MODES.items():
        yield [command, *base], f"one of the arguments {' '.join(modes)} is required"
        for first, second in combinations(modes, 2):
            yield [command, *base, *_given(first), *_given(second)], f"argument {second}: not allowed with argument {first}"
        for flag, mode in pairs:
            yield [command, *base, *_given(mode), *_given(flag)], f"argument {flag}: not allowed with argument {mode}"
        # --cap is refused before any other flag its mode never reads
        cap_mode = pairs[0][1]
        others = [a for flag, mode in pairs[1:] if mode == cap_mode for a in _given(flag)]
        yield [command, *base, *_given(cap_mode), *others, "--cap", "3"], f"argument --cap: not allowed with argument {cap_mode}"


_MODE_CASES = list(_mode_cases())


@pytest.mark.parametrize("argv, message", _MODE_CASES, ids=[" ".join(argv) for argv, _ in _MODE_CASES])
def test_mode_errors_before_any_file_is_opened(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r}")

    monkeypatch.setattr("builtins.open", refuse)
    code = run([str(tmp_path / "file.json") if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["certify-strong", "--cert", "", "--input", "RANK"], ["certify-strong", "--matroid", "M", "--output", ""]],
    ids=["cert", "output"],
)
def test_empty_path_is_a_path(tmp_path, capsys, argv):
    # an empty value names no file; it is neither another mode nor no output
    files = {"M": _write(tmp_path, "m.json", {"type": "uniform", "r": 2, "n": 3}), "RANK": _u23_file(tmp_path, "rank")}
    code = run([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize(
    "argv, flag, mode",
    [
        (["certify-2cov", "--input", "IND", "--cert", "C2", "--d", "2", "--output", "OUT"], "--output", "--cert"),
        (["certify-2cov", "--input", "IND", "--search", "--d", "2", "--output", "OUT"], "--output", "--search"),
        (["certify-2cov", "--matroid", "M", "--d", "2", "--input", "IND"], "--input", "--matroid"),
        (["certify-strong", "--input", "RANK", "--cert", "CS", "--output", "OUT"], "--output", "--cert"),
        (["certify-strong", "--matroid", "M", "--input", "MISSING"], "--input", "--matroid"),
        (["certify-strong", "--coverage", "COV", "--input", "RANK"], "--input", "--coverage"),
        (["certify-clc", "--poly", "POLY", "--d", "7"], "--d", "--poly"),
    ],
    ids=["2cov-cert-output", "2cov-search-output", "2cov-matroid-input", "strong-cert-output",
         "strong-matroid-input", "strong-coverage-input", "clc-poly-d"],
)
def test_flag_refused_where_its_mode_never_reads_it(tmp_path, capsys, argv, flag, mode):
    # each run succeeds without the flag; with it, the flag is refused
    # before anything is read or written, instead of being passed over
    from clckit import UniformMatroid, independence_indicator, synth_2cov_indicator, synth_strong_matroid, to_setfunction

    m = UniformMatroid(2, 3)
    files = {
        "M": _write(tmp_path, "m.json", {"type": "uniform", "r": 2, "n": 3}),
        "IND": _write(tmp_path, "ind.json", dump_set_function(independence_indicator(to_setfunction(m)))),
        "RANK": _write(tmp_path, "rank.json", dump_set_function(to_setfunction(m))),
        "COV": _write(tmp_path, "cov.json", {"universe": [{"id": "a", "weight": 1}], "sets": [["a"], ["a"]]}),
        "POLY": _write(tmp_path, "p.json", {"n": 2, "terms": [{"set": [1, 2], "coeff": "1"}]}),
        "C2": str(tmp_path / "c2.json"),
        "CS": str(tmp_path / "cs.json"),
        "OUT": str(tmp_path / "out.json"),
        "MISSING": str(tmp_path / "nonexistent.json"),
    }
    jsonio.write_certificate(files["C2"], synth_2cov_indicator(m, 2))
    jsonio.write_certificate(files["CS"], synth_strong_matroid(m))
    argv = [files.get(a, a) for a in argv]
    cut = argv.index(flag)
    assert run(argv[:cut] + argv[cut + 2:]) == 0
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: argument {flag}: not allowed with argument {mode}\n")
    assert not os.path.exists(files["OUT"])


def test_sample_start_outside_support_exit_3(tmp_path, capsys):
    # a start off the level, or of the wrong size, is named as a label list
    doc = {"n": 3, "entries": [{"set": [1, 2], "value": 1}, {"set": [2, 3], "value": 1}]}
    path = _write(tmp_path, "pairs.json", doc)
    for start, labels in (("1,3", "[1, 3]"), ("1,2,3", "[1, 2, 3]")):
        argv = ["sample", "--input", path, "--d", "2", "--steps", "10", "--seed", "7", "--start", start]
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: start {labels} is not in the support\n")


def test_strong_certificate_file_bytes(tmp_path):
    # weights over the denominators 2, 3 and 4; the file is JSON indented by
    # 2 with no newline at the end, and g's keys follow the mask order
    doc = {
        "universe": [{"id": "a", "weight": "1/2"}, {"id": "b", "weight": "1/3"},
                     {"id": "c", "weight": 2}, {"id": "d", "weight": "3/4"}],
        "sets": [["a", "b"], ["b", "c"], ["c", "d"]],
    }
    out = tmp_path / "strong.json"
    assert run(["certify-strong", "--coverage", _write(tmp_path, "cov.json", doc), "--output", str(out)]) == 0
    expected = {"n": 3, "witnesses": [
        {"tau": [], "g": {"[1]": "1/2", "[1,2]": "1/3", "[3]": "3/4", "[2,3]": "2"}},
        {"tau": [1], "g": {"[3]": "3/4", "[2,3]": "2"}},
        {"tau": [2], "g": {"[1]": "1/2", "[3]": "3/4"}},
        {"tau": [3], "g": {"[1]": "1/2", "[1,2]": "1/3"}},
    ]}
    assert out.read_bytes() == json.dumps(expected, indent=2).encode()


def test_two_coverage_certificate_file_bytes(tmp_path):
    # d=3 on a partition matroid whose elements 1 and 2 are parallel
    doc = {"type": "partition", "blocks": [[1, 2], [3], [4]], "caps": [1, 1, 1]}
    out = tmp_path / "twocov.json"
    assert run(["certify-2cov", "--matroid", _write(tmp_path, "m.json", doc), "--d", "3", "--output", str(out)]) == 0
    units = {"[3]": "1", "[4]": "1"}
    expected = {"d": 3, "n": 4, "witnesses": [
        {"tau": [1], "S": [3, 4], "g": units, "l": {"3": "1", "4": "1"}},
        {"tau": [2], "S": [3, 4], "g": units, "l": {"3": "1", "4": "1"}},
        {"tau": [3], "S": [1, 2, 4], "g": {"[1,2]": "1", "[4]": "1"}, "l": {"1": "1", "2": "1", "4": "1"}},
        {"tau": [4], "S": [1, 2, 3], "g": {"[1,2]": "1", "[3]": "1"}, "l": {"1": "1", "2": "1", "3": "1"}},
    ]}
    assert out.read_bytes() == json.dumps(expected, indent=2).encode()


_STRONG_MATROID = ["certify-strong", "--matroid", "DOC"]
_2COV_MATROID = ["certify-2cov", "--matroid", "DOC", "--d", "2"]


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (_STRONG_MATROID, {"type": "uniform", "r": 1, "n": 4 * 10**6}, "4000000 elements exceed cap 14"),
        (_2COV_MATROID, {"type": "uniform", "r": 1, "n": 4 * 10**6}, "4000000 elements exceed cap 14"),
        (_STRONG_MATROID, {"type": "uniform", "r": 1, "n": 10**30}, f"{10**30} elements exceed cap 14"),
        (_2COV_MATROID, {"type": "uniform", "r": 1, "n": 10**30}, f"{10**30} elements exceed cap 14"),
        (_STRONG_MATROID, {"type": "explicit", "n": 4 * 10**6, "independent": [[], [4 * 10**6]]},
         "n=4000000 exceeds the hard cap 24"),
        (_2COV_MATROID, {"type": "explicit", "n": 10**30, "independent": [[], [10**30]]},
         f"n={10**30} exceeds the hard cap 24"),
        (["certify-clc", "--poly", "DOC"], {"n": 4 * 10**6, "terms": []}, "n=4000000 exceeds the hard cap 24"),
        (["certify-clc", "--poly", "DOC"], {"n": 10**30, "terms": []}, f"n={10**30} exceeds the hard cap 24"),
        (["certify-strong", "--input", "TABLE", "--cert", "DOC"], {"n": 4 * 10**6, "witnesses": []},
         "n=4000000 exceeds the hard cap 24"),
    ],
    ids=[
        "uniform-4e6-strong", "uniform-4e6-2cov", "uniform-1e30-strong", "uniform-1e30-2cov",
        "explicit-4e6", "explicit-1e30", "polynomial-4e6", "polynomial-1e30", "certificate-4e6",
    ],
)
def test_huge_n_refused_before_allocating(tmp_path, capsys, argv, doc, message):
    files = {"DOC": _write(tmp_path, "doc.json", doc), "TABLE": _write(tmp_path, "t.json", _TABLE_U12)}
    tracemalloc.start()
    try:
        code = run([files.get(a, a) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert peak < 1 << 20


def test_input_errors_share_one_base():
    for error in (CapExceededError, NotAMatroidError, MissingWitnessError):
        assert issubclass(error, InputError)
    assert issubclass(InputError, ValueError) and not issubclass(MissingWitnessError, KeyError)
    assert not issubclass(InternalCheckError, InputError)


# A bug inside the library must surface as itself, never as an input error
# (exit 3): each injected exception has to propagate out of `run`.
@pytest.mark.parametrize(
    "error", [KeyError("pivot"), TypeError("bug"), ValueError("bug"), InternalCheckError("bug")],
    ids=["KeyError", "TypeError", "ValueError", "InternalCheckError"],
)
@pytest.mark.parametrize(
    "target, argv, doc",
    [
        ("clckit.logconcave.inertia", ["certify-clc", "--input", "IN", "--d", "2"],
         dump_set_function(budget_additive_table())),
        ("clckit.coverage2.phase1", ["certify-2cov", "--input", "IN", "--d", "2", "--search"],
         dump_set_function(triangle_table())),
        ("clckit.walk._candidate_row", ["sample", "--input", "IN", "--d", "2", "--steps", "5", "--seed", "1"],
         PAIRS),
    ],
    ids=["inertia", "phase1", "candidate-row"],
)
def test_library_bug_propagates(tmp_path, monkeypatch, target, argv, doc, error):
    path = _write(tmp_path, "in.json", doc)

    def bug(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, bug)
    with pytest.raises(type(error)) as info:
        run([path if a == "IN" else a for a in argv])
    assert info.value is error
