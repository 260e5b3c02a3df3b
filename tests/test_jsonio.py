import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clckit import (
    CoverageWeights,
    PartitionMatroid,
    SetFunctionTable,
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    UniformMatroid,
    independence_indicator,
    materialize,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    to_setfunction,
    verify_2cov,
    verify_strong2cov,
)
from clckit import jsonio
from clckit.cli import run
from clckit.errors import InputError

from conftest import certificate_doc, coverage_example, coverage_instances, dump_set_function, matroids, value_of


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_set_function_round_trip(tmp_path):
    f = materialize(coverage_example().weights())
    path = _write(tmp_path, "f.json", dump_set_function(f))
    again = jsonio.load_set_function(path)
    assert again == f


def test_set_function_accepts_value_spellings(tmp_path):
    doc = {
        "n": 2,
        "entries": [
            {"set": [1], "value": 1},
            {"set": [2], "value": "1/2"},
            {"set": [1, 2], "value": 2.5},
        ],
    }
    f = jsonio.load_set_function(_write(tmp_path, "f.json", doc))
    assert value_of(f, [2]) == Fraction(1, 2)
    assert value_of(f, [1, 2]) == Fraction(5, 2)  # decimal literal parsed exactly


def test_missing_sets_default_to_zero(tmp_path):
    doc = {"n": 3, "entries": [{"set": [1, 2], "value": "2"}]}
    f = jsonio.load_set_function(_write(tmp_path, "f.json", doc))
    assert value_of(f, [1, 2]) == 2
    assert value_of(f, [3]) == 0


def _spellings(v: Fraction) -> list[str]:
    """JSON spellings of v: an integer when integral, "p/q" (also unreduced)
    and a decimal literal when v has one."""
    out = [f'"{v.numerator}/{v.denominator}"', f'"{3 * v.numerator}/{3 * v.denominator}"']
    if v.denominator == 1:
        out += [str(v.numerator), f"{v.numerator}.0"]
    for k in range(1, 4):
        if (v * 10**k).denominator == 1:
            m = int(v * 10**k)
            out.append(f"{m // 10**k}.{m % 10**k:0{k}d}")
    return out


@st.composite
def table_texts(draw):
    """A table and the text of a file of it: entries in any order, each with
    its keys in either order and its value in any spelling, zero values
    listed or left out, the layout compact or indented."""
    n = draw(st.integers(0, 4))
    values = [Fraction(0)] + [draw(st.fractions(0, 12, max_denominator=8)) for _ in range(1, 1 << n)]
    compact = draw(st.booleans())
    sep, pad = ("", "") if compact else (" ", "\n    ")
    entries = []
    for m in draw(st.permutations(range(1 << n))):
        if values[m] or draw(st.booleans()):
            labels = f'"set":{sep}[{",".join(str(b + 1) for b in range(n) if m >> b & 1)}]'
            value = f'"value":{sep}{draw(st.sampled_from(_spellings(values[m])))}'
            pair = (labels, value) if draw(st.booleans()) else (value, labels)
            entries.append(f"{{{pair[0]},{sep}{pair[1]}}}")
    text = f'{{"n":{sep}{n},{sep}"entries":{sep}[{pad}{("," + pad).join(entries)}{pad[:1]}]}}'
    return n, values, text


@settings(max_examples=200, deadline=None)
@given(table=table_texts())
def test_table_file_shapes_load_as_the_table(tmp_path_factory, table):
    n, values, text = table
    path = tmp_path_factory.mktemp("shapes") / "f.json"
    path.write_text(text)
    assert json.loads(text)["n"] == n  # the text is JSON
    assert jsonio.load_set_function(str(path)) == SetFunctionTable.of(n, values)


def test_coverage_instance(tmp_path):
    doc = {
        "universe": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "1"}],
        "sets": [["a"], ["a", "b"], ["b"]],
    }
    weights = jsonio.load_coverage_instance(_write(tmp_path, "c.json", doc))
    assert weights == coverage_example().weights()


@settings(max_examples=150, deadline=None)
@given(inst=coverage_instances())
def test_coverage_loader_matches_instance_weights(tmp_path_factory, inst):
    # the loader reads the file straight into weights; the test-side
    # instance converts the same data through `weights()`
    doc = {
        "universe": [{"id": e, "weight": str(w)} for e, w in inst.universe],
        "sets": [sorted(a) for a in inst.sets],
    }
    path = _write(tmp_path_factory.mktemp("coverage"), "c.json", doc)
    assert jsonio.load_coverage_instance(path) == inst.weights()


def test_matroid_loaders(tmp_path):
    docs = [
        {"type": "uniform", "r": 2, "n": 3},
        {"type": "partition", "blocks": [[1, 2], [3]], "caps": [1, 1]},
        {"type": "graphic", "vertices": 4, "edges": [[1, 2], [1, 3], [2, 3]]},
        {
            "type": "explicit",
            "n": 3,
            "independent": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]],
        },
    ]
    for doc in docs:
        m = jsonio.load_matroid(_write(tmp_path, "m.json", doc))
        assert m.rank(0b001) in (0, 1)
    with pytest.raises(ValueError):
        jsonio.load_matroid(_write(tmp_path, "m.json", {"type": "mystery"}))


def test_polynomial_loader(tmp_path):
    doc = {
        "n": 3,
        "terms": [
            {"y": 0, "set": [1, 2], "coeff": "3"},
            {"set": [1, 3], "coeff": 1},
            {"set": [2, 3], "coeff": 1},
        ],
    }
    p = jsonio.load_polynomial(_write(tmp_path, "p.json", doc))
    assert p.coeffs == {0b011: 3, 0b101: 1, 0b110: 1}
    hdoc = {"n": 1, "terms": [{"y": 2, "set": [], "coeff": 1}, {"y": 1, "set": [1], "coeff": 2}]}
    q = jsonio.load_polynomial(_write(tmp_path, "q.json", hdoc))
    assert q.coeffs == {(2, 0): 1, (1, 1): 2}


def test_joint_distribution_loader(tmp_path):
    doc = {
        "alphabets": [2, 2],
        "pmf": [
            {"outcome": [0, 0], "p": 0.25},
            {"outcome": [0, 1], "p": 0.25},
            {"outcome": [1, 0], "p": 0.25},
            {"outcome": [1, 1], "p": 0.25},
        ],
    }
    joint = jsonio.load_joint_distribution(_write(tmp_path, "j.json", doc))
    assert joint.n == 2


def test_strong_certificate_round_trip(tmp_path):
    m = UniformMatroid(2, 3)
    cert = synth_strong_matroid(m)
    path = _write(tmp_path, "cert.json", jsonio.dump_certificate(cert))
    again = jsonio.load_certificate(path)
    assert verify_strong2cov(to_setfunction(m), again).ok
    for tau in cert.witnesses:
        assert again.witnesses[tau] == cert.witnesses[tau]


def test_two_coverage_certificate_round_trip(tmp_path):
    m = UniformMatroid(2, 3)
    cert = synth_2cov_indicator(m, 2)
    path = _write(tmp_path, "cert.json", jsonio.dump_certificate(cert))
    again = jsonio.load_certificate(path)
    assert again.d == 2
    assert verify_2cov(independence_indicator(to_setfunction(m)), 2, again).ok


def _round_trip(directory, cert):
    path = directory / "cert.json"
    path.write_text(json.dumps(jsonio.dump_certificate(cert)))
    return jsonio.load_certificate(str(path))


@settings(max_examples=60, deadline=None)
@given(m=matroids())
def test_matroid_certificates_round_trip(tmp_path_factory, m):
    directory = tmp_path_factory.mktemp("matroid")
    strong = synth_strong_matroid(m)
    assert _round_trip(directory, strong) == strong
    for d in range(2, m.rank((1 << m.n) - 1) + 1):
        cert = synth_2cov_indicator(m, d)
        assert _round_trip(directory, cert) == cert


@settings(max_examples=40, deadline=None)
@given(inst=coverage_instances())
def test_coverage_certificate_round_trip(tmp_path_factory, inst):
    cert = synth_strong_from_parts(inst.weights())
    assert _round_trip(tmp_path_factory.mktemp("coverage"), cert) == cert


def test_two_coverage_certificate_mixed_denominators_round_trip(tmp_path):
    # g and l over denominators 2, 3 and 6; at tau=(1,) g alone is in
    # thirds and l brings the sixths, so the witness's one denominator is 6;
    # at tau=(2,) g is empty and l alone sets the denominator 2
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    cert = TwoCoverageCertificate(4, 3, {
        0b1000: TwoCoverageWitness.of(0b0111, 4, {0b001: half, 0b110: third, 0b111: 5 * sixth},
                                      [sixth, 2 * third, half, 0]),
        0b0001: TwoCoverageWitness.of(0b1010, 4, {0b1010: 7 * third}, [0, 3 * half, 0, 5 * sixth]),
        0b0010: TwoCoverageWitness.of(0b0001, 4, {}, [half, 0, 0, 0]),
    })
    assert (cert.witnesses[0b0001].g.scale, cert.witnesses[0b0001].ell) == (6, (0, 9, 0, 5))
    assert (cert.witnesses[0b0010].g.scale, cert.witnesses[0b0010].ell) == (2, (1, 0, 0, 0))
    assert json.dumps(jsonio.dump_certificate(cert), separators=(",", ":")) == (
        '{"d":3,"n":4,"witnesses":['
        '{"tau":[1],"S":[2,4],"g":{"[2,4]":"7/3"},"l":{"2":"3/2","4":"5/6"}},'
        '{"tau":[2],"S":[1],"g":{},"l":{"1":"1/2"}},'
        '{"tau":[4],"S":[1,2,3],"g":{"[1]":"1/2","[2,3]":"1/3","[1,2,3]":"5/6"},'
        '"l":{"1":"1/6","2":"2/3","3":"1/2"}}]}'
    )
    assert _round_trip(tmp_path, cert) == cert


def test_strong_certificate_dump_orders_witnesses_by_tau_labels():
    # taus (1,3) and (2,) sort one way as label tuples and the other way as
    # masks (0b101 > 0b010); the file keeps the label-tuple order
    cert = synth_strong_matroid(PartitionMatroid([[1, 3], [2, 4]], [1, 1]))
    assert json.dumps(jsonio.dump_certificate(cert)) == (
        '{"n": 4, "witnesses": [{"tau": [], "g": {"[1,3]": "1", "[2,4]": "1"}}, '
        '{"tau": [1], "g": {"[2,4]": "1"}}, {"tau": [1, 2], "g": {}}, '
        '{"tau": [1, 3], "g": {"[2,4]": "1"}}, {"tau": [1, 4], "g": {}}, '
        '{"tau": [2], "g": {"[1,3]": "1"}}, {"tau": [2, 3], "g": {}}, '
        '{"tau": [2, 4], "g": {"[1,3]": "1"}}, {"tau": [3], "g": {"[2,4]": "1"}}, '
        '{"tau": [3, 4], "g": {}}, {"tau": [4], "g": {"[1,3]": "1"}}]}'
    )


def test_rationals_written_as_p_over_q(tmp_path, capsys):
    g = CoverageWeights.of(2, {0b01: 3, 0b11: Fraction(1, 2)})
    assert jsonio.dump_certificate(StrongCertificate(2, {0: g}))["witnesses"][0]["g"] == {
        "[1]": "3", "[1,2]": "1/2"
    }
    # negative weights are written by the mobius report: U(2,3)'s rank table halved
    ranks = to_setfunction(UniformMatroid(2, 3))
    half = SetFunctionTable.of(3, [ranks[m] / 2 for m in range(8)])
    assert run(["mobius", "--input", _write(tmp_path, "half.json", dump_set_function(half)),
                "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["weights"]["[1,2,3]"] == out["min_weight"] == "-1/2"


_WEIGHTS = st.fractions(min_value=0, max_value=4, max_denominator=12)


def _inside(draw, ground: int) -> dict:
    """{mask: weight} on a few nonempty subsets of the mask `ground`."""
    masks = [t for t in range(1, ground + 1) if t & ground == t]
    if not masks:
        return {}
    return draw(st.dictionaries(st.sampled_from(masks), _WEIGHTS, max_size=4))


@st.composite
def certificates(draw):
    """A strong or a two-coverage certificate on n <= 5 elements whose
    numbers need not verify: the witnesses of a few taus, each g over mixed
    denominators inside its ground set, S any subset of the complement of
    tau, the empty one included."""
    n = draw(st.integers(0, 5))
    full = (1 << n) - 1
    taus = draw(st.sets(st.integers(0, full), max_size=5))
    if draw(st.booleans()):
        return StrongCertificate(n, {tau: CoverageWeights.of(n, _inside(draw, full & ~tau)) for tau in taus})
    witnesses = {}
    for tau in taus:
        support = draw(st.integers(0, full)) & ~tau
        ell = [draw(_WEIGHTS) if support >> b & 1 else 0 for b in range(n)]
        witnesses[tau] = TwoCoverageWitness.of(support, n, _inside(draw, support), ell)
    return TwoCoverageCertificate(n, draw(st.integers(2, 6)), witnesses)


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@settings(max_examples=200, deadline=None)
@given(cert=certificates())
@example(cert=StrongCertificate(2, {0: CoverageWeights.of(2, {0b01: _HALF, 0b11: _THIRD}), 0b01: CoverageWeights(2, {})}))
@example(cert=TwoCoverageCertificate(3, 3, {
    0b001: TwoCoverageWitness.of(0, 3, {}, [0, 0, 0]),
    0b010: TwoCoverageWitness.of(0b101, 3, {0b101: _THIRD, 0b001: 2}, [_HALF, 0, Fraction(1, 4)]),
}))
@example(cert=StrongCertificate(0, {}))
@example(cert=TwoCoverageCertificate(4, 2, {}))
@example(cert=TwoCoverageCertificate(2, 2, {0: TwoCoverageWitness.of(0, 2, {}, [0, 0])}))
@example(cert=StrongCertificate(3, {0b001: CoverageWeights(3, {0b110: 2, 0b010: 4, 0b100: 3}, 4)}))
def test_written_certificate_is_json_indented_by_2(tmp_path_factory, cert):
    # the writer lays out each witness itself; its bytes are the encoder's
    # on the dict oracle, for no witnesses, empty tau, empty g (an all-loop
    # contraction), a two-coverage witness with empty S, g and l (a dependent
    # tau, or tau empty), mixed denominators and a scale that g's values reduce
    path = tmp_path_factory.mktemp("written") / "cert.json"
    jsonio.write_certificate(str(path), cert)
    assert path.read_bytes() == json.dumps(jsonio.dump_certificate(cert), indent=2).encode()
    assert path.read_bytes() == json.dumps(certificate_doc(cert), indent=2).encode()


def test_non_certificate_is_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "cert.json"
    with pytest.raises(TypeError, match="cannot dump dict"):
        jsonio.write_certificate(str(path), {})
    assert not path.exists()
    with pytest.raises(TypeError, match="cannot dump list"):
        jsonio.dump_certificate([])


def _strong_file(tmp_path, witnesses) -> str:
    return _write(tmp_path, "cert.json", {"n": 3, "witnesses": witnesses})


def test_cached_key_outside_a_later_witness_is_refused(tmp_path, capsys):
    # "[1]" lies in the complement of tau at witness 0, not at witness 1
    cert = _strong_file(tmp_path, [{"tau": [], "g": {"[1]": "1"}}, {"tau": [1], "g": {"[1]": "1"}}])
    table = _write(tmp_path, "f.json", {"n": 3, "entries": []})
    assert run(["certify-strong", "--input", table, "--cert", cert]) == 3
    assert capsys.readouterr().err == (
        "error: witnesses[1].g['[1]']: set [1] out of range for the complement of tau\n"
    )


@pytest.mark.parametrize("earlier", [[], [{"tau": [3], "g": {"[1,2]": "1"}}]], ids=["first-sighting", "cached"])
def test_one_subset_spelled_twice_is_refused(tmp_path, earlier):
    # with an earlier witness, "[1,2]" is read from the cache the second time
    cert = _strong_file(tmp_path, earlier + [{"tau": [], "g": {"[2,1]": "1", "[1,2]": "1"}}])
    k = len(earlier)
    with pytest.raises(InputError) as exc:
        jsonio.load_certificate(cert)
    assert str(exc.value) == (
        f"witnesses[{k}].g['[1,2]']: set [1, 2] repeats the subset of witnesses[{k}].g['[2,1]']"
    )


def test_unreduced_values_load_in_lowest_terms(tmp_path):
    strong = jsonio.load_certificate(_strong_file(tmp_path, [
        {"tau": [], "g": {"[1]": "2/4", "[2]": "1/2", "[1,2,3]": "3"}},
        {"tau": [1], "g": {"[2]": "1/2", "[3]": "2/4"}},
    ]))
    assert strong.witnesses == {
        0b000: CoverageWeights(3, {0b001: 1, 0b010: 1, 0b111: 6}, 2),
        0b001: CoverageWeights(3, {0b010: 1, 0b100: 1}, 2),
    }
    assert strong.witnesses[0] == CoverageWeights.of(3, {0b001: _HALF, 0b010: _HALF, 0b111: 3})
    two = jsonio.load_certificate(_write(tmp_path, "two.json", {"d": 2, "n": 2, "witnesses": [
        {"tau": [], "S": [1, 2], "g": {"[1,2]": "2/4"}, "l": {"1": "1/2", "2": "4/8"}},
    ]}))
    assert two.witnesses == {0: TwoCoverageWitness(0b11, CoverageWeights(2, {0b11: 1}, 2), (1, 1))}


@pytest.mark.parametrize(
    "loader, doc, message",
    [
        ("load_set_function", {"n": 2, "entries": [{"set": [1, 2], "value": "1", "vlaue": "5"}]},
         "entries[0]: unknown key 'vlaue'"),
        ("load_set_function", {"n": 2, "entries": [], "entires": []}, "document: unknown key 'entires'"),
        ("load_polynomial", {"n": 2, "terms": [{"set": [1], "coeff": "1"}, {"Y": 1, "set": [1, 2], "coeff": "1"}]},
         "terms[1]: unknown key 'Y'"),
        ("load_polynomial", {"n": 2, "terms": [], "y": 1}, "document: unknown key 'y'"),
        ("load_certificate", {"n": 3, "witnesses": [{"tau": [], "g": {"[1]": "1"}, "l": {}}]},
         "witnesses[0]: unknown key 'l'"),
        ("load_certificate", {"d": 2, "n": 2, "witnesses": [{"tau": [], "S": [1], "g": {}, "l": {}, "s": []}]},
         "witnesses[0]: unknown key 's'"),
        ("load_certificate", {"n": 2, "witnesses": [], "D": 2}, "document: unknown key 'D'"),
        ("load_matroid", {"type": "uniform", "r": 1, "n": 2, "vertices": 2}, "document: unknown key 'vertices'"),
        ("load_coverage_instance", {"universe": [{"id": "a", "weight": "1", "w": "2"}], "sets": [["a"]]},
         "universe[0]: unknown key 'w'"),
        ("load_joint_distribution", {"alphabets": [2], "pmf": [{"outcome": [0], "p": 1, "q": 0}]},
         "pmf[0]: unknown key 'q'"),
    ],
    ids=["entry", "table", "term", "polynomial", "strong-witness", "witness", "certificate", "matroid",
         "universe-item", "pmf-row"],
)
def test_unknown_key_is_refused(tmp_path, loader, doc, message):
    # a misspelt key is never read as absent: "Y" would load the term at y = 0
    with pytest.raises(InputError) as exc:
        getattr(jsonio, loader)(_write(tmp_path, "doc.json", doc))
    assert str(exc.value) == message


def test_unknown_key_exits_3(tmp_path, capsys):
    table = _write(tmp_path, "f.json", {"n": 2, "entries": [{"set": [1, 2], "value": "1", "vlaue": "5"}]})
    assert run(["certify-clc", "--input", table, "--d", "2"]) == 3
    assert capsys.readouterr().err == "error: entries[0]: unknown key 'vlaue'\n"
