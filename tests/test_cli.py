import io
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings

from helpers import cli_results, reference_s
from k3lattice import k3n_lattice, make_E8
from k3lattice import _intlinalg as la
from k3lattice import cli
from k3lattice.cli import build_parser, main


def run_cli(capsys, monkeypatch, argv, payload=None):
    if payload is not None:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def lattice_doc(lat, **extra):
    return {"gram": [[str(x) for x in row] for row in lat.gram], **extra}


def test_disc_k3_lattice(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["disc"],
                           lattice_doc(k3n_lattice(2)))
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == ["2"]
    assert data["local_parts"] == {
        "2": {"invariant_factors": ["2"], "q_values": ["3/2"]}}


def test_disc_e8_trivial(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["disc"],
                           lattice_doc(make_E8()))
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == []
    assert data["order"] == "1"


def test_disc_error_codes(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["disc"],
                           {"gram": [["0", "1"], ["2", "0"]]})
    assert code == 2 and "symmetric" in err
    code, _, _ = run_cli(capsys, monkeypatch, ["disc"],
                         {"gram": [["1", "1"], ["1", "1"]]})
    assert code == 3
    code, _, _ = run_cli(capsys, monkeypatch, ["disc"], "this is not json")
    assert code == 2


def test_bb_recover_degree_mode(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["bb-recover"],
                           {"degree": "108", "n": 2})
    assert code == 0
    data = json.loads(out)
    assert data["root"] == "6" and data["is_integral"]


def test_bb_recover_roundtrip_mode(capsys, monkeypatch):
    q = [["2", "1", "0"], ["1", "-2", "3"], ["0", "3", "4"]]
    code, out, _ = run_cli(capsys, monkeypatch, ["bb-recover"],
                           {"n": 2, "xi": ["1", "0", "0"], "q": q})
    assert code == 0
    assert json.loads(out)["q"] == q


def test_bb_recover_w_samples_mode(capsys, monkeypatch):
    # full symmetric tensor of q = diag(2, -2) at n = 2 on the basis
    from itertools import combinations_with_replacement
    from k3lattice import symmetrized_power
    q = [[2, 0], [0, -2]]
    unit = [(1, 0), (0, 1)]
    values = {}
    for combo in combinations_with_replacement(range(2), 4):
        vecs = [unit[i] for i in combo]
        values[",".join(map(str, combo))] = str(
            symmetrized_power(q, 2, vecs))
    payload = {"n": 2, "xi": ["1", "0"], "xi_norm": "2",
               "w_basis_values": values}
    code, out, _ = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert code == 0
    assert json.loads(out)["q"] == [["2", "0"], ["0", "-2"]]


def w_doc(values):
    return {"n": 1, "xi": ["1", "0"], "xi_norm": "2",
            "w_basis_values": values}


def test_bb_recover_w_keys_in_any_order(capsys, monkeypatch):
    outs = []
    for cross in ("0,1", "1,0"):
        code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"],
                                 w_doc({"0,0": "2", cross: "1",
                                        "1,1": "-4"}))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["q"] == [["2", "1"], ["1", "-4"]]
    # two spellings of one multiset are fine when they agree
    code, out, _ = run_cli(capsys, monkeypatch, ["bb-recover"],
                           w_doc({"0,0": "2", "0,1": "1", "1,0": "1",
                                  "1,1": "-4"}))
    assert code == 0 and out == outs[0]


@pytest.mark.parametrize("bad_key, values", [
    ("0,2", {"0,0": "2", "0,1": "1", "1,1": "-4", "0,2": "5"}),
    ("0,0,1", {"0,0": "2", "0,1": "1", "1,1": "-4", "0,0,1": "5"}),
    ("1,0", {"0,0": "2", "0,1": "1", "1,0": "3", "1,1": "-4"}),
], ids=["index-out-of-range", "wrong-length", "conflicting-spellings"])
def test_bb_recover_w_bad_keys_are_exit_2(capsys, monkeypatch, bad_key,
                                          values):
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"],
                             w_doc(values))
    assert code == 2
    assert out == ""
    assert f"key {bad_key!r}" in err


U2 = {"gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]}


@pytest.mark.parametrize("argv, payload, field", [
    (["newton"], {"coeffs": "123", "p": "7"}, "coeffs"),
    (["newton"], {"coeffs": {"1": "2"}, "p": "7"}, "coeffs"),
    (["pointed"], {**U2, "point": "1100"}, "point"),
    (["pointed"], {**U2, "point": ["1", "1", "0", "0"], "point2": "0011"},
     "point2"),
    (["bb-recover"], {"n": 1, "xi": "10", "q": [["2", "0"], ["0", "1"]]},
     "xi"),
    (["bb-recover"], {"n": 1, "xi": ["1", "0"], "q": ["20", "01"]}, "q"),
    (["mukai"], {"ns": [["2"]], "v": {"r": "1", "c1": "0", "s": "-1"}},
     "c1"),
], ids=["newton-string", "newton-object", "pointed-point", "pointed-point2",
        "bb-recover-xi", "bb-recover-q-rows", "mukai-c1"])
def test_array_field_rejects_non_array(capsys, monkeypatch, argv, payload,
                                       field):
    # a string must not be read one character at a time
    code, out, err = run_cli(capsys, monkeypatch, argv, payload)
    assert (code, out, err) == (2, "", f"error: {field} must be a JSON "
                                       "array\n")


@pytest.mark.parametrize("payload", [
    {"n": 1, "xi": ["1/0"], "q": [["1"]]},
    {"n": 1, "xi": ["1"], "q": [["1/0"]]},
    w_doc({"0,0": "2", "0,1": "1", "1,1": "-4"}) | {"xi_norm": "2/0"},
    w_doc({"0,0": "2", "0,1": "1/0", "1,1": "-4"}),
], ids=["xi", "q", "xi_norm", "w_basis_values"])
def test_bb_recover_zero_denominator_is_exit_2(capsys, monkeypatch, payload):
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert code == 2 and out == ""
    assert err.startswith("error: zero denominator: ")


@pytest.mark.parametrize("values", [["2", "1", "-4"], "2,1,-4", "7"],
                         ids=["array", "string", "number-string"])
def test_bb_recover_w_basis_values_must_be_object(capsys, monkeypatch,
                                                  values):
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"],
                             w_doc(values))
    assert (code, out, err) == (
        2, "", "error: w_basis_values must be a JSON object\n")


def test_bb_recover_w_samples_read_only_supports(capsys, monkeypatch):
    # 6^10 index tuples over the basis; w reads only those inside the
    # supports of its arguments, so the first missing sample shows at once
    payload = {"n": 5, "xi": ["0"] * 5 + ["1"], "xi_norm": "2",
               "w_basis_values": {}}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert "missing sample" in err


def test_bb_recover_w_dense_walk_past_budget_exits_3(capsys, monkeypatch):
    # all 3003 samples of a rank-6 w at n = 5 on dense vectors: the first w
    # call alone needs 6^9 index tuples, refused before its walk starts
    values = {",".join(map(str, m)): "1"
              for m in combinations_with_replacement(range(6), 10)}
    payload = {"n": 5, "xi": ["1"] * 6, "xi_norm": "2",
               "w_basis_values": values}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert f"W_TUPLE_BUDGET = {cli.W_TUPLE_BUDGET}" in err


# q = [[2, 1], [1, 3]] on R^2 with xi = (1, 1).  At n = 1: four 1-tuple
# calls for q, then w(xi, xi) once (4 tuples), w(e_i, e_i) and w(e_0, e_1),
# 11 in all.  At n = 2: w(xi^3, e_i) (8 tuples each) and w(xi^2, e_i, e_j)
# (4 each) for q, then w(xi^4) (16) and the three w(e_i^3, e_j), 47 in all.
W_N1 = {"n": 1, "xi": ["1", "1"], "xi_norm": "7",
        "w_basis_values": {"0,0": "2", "0,1": "1", "1,1": "3"}}
W_N2 = {"n": 2, "xi": ["1", "1"], "xi_norm": "7",
        "w_basis_values": {"0,0,0,0": "12", "0,0,0,1": "6", "0,0,1,1": "8",
                           "0,1,1,1": "9", "1,1,1,1": "27"}}


@pytest.mark.parametrize(
    "payload, budget, expected",
    [(W_N1, 11, 0), (W_N1, 10, 3), (W_N2, 47, 0), (W_N2, 46, 3)],
    ids=["11-0", "10-3", "47-0", "46-3"])
def test_bb_recover_w_budget_counts_every_walk(capsys, monkeypatch, payload,
                                               budget, expected):
    monkeypatch.setattr(cli, "W_TUPLE_BUDGET", budget)
    code, _, _ = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert code == expected


@pytest.mark.parametrize("budget, expected", [(72, 0), (71, 3)])
def test_bb_recover_q_budget_counts_every_entry(capsys, monkeypatch, budget,
                                                expected):
    # n = 2 on R^2: two calls for the cross terms, three for q, then
    # w(xi^4) and three samples, (r + 1)^2 = 9 calls of 4 vectors of 2
    # entries, 72 in all
    monkeypatch.setattr(cli, "W_ENTRY_BUDGET", budget)
    payload = {"n": 2, "xi": ["1", "1"], "q": [["2", "1/2"], ["1/2", "3"]]}
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert code == expected
    if expected:
        assert out == ""
        assert f"W_ENTRY_BUDGET = {budget} w argument entries" in err
    else:
        assert json.loads(out)["q"] == payload["q"]


def test_bb_recover_q_dense_rank_past_budget_exits_3(capsys, monkeypatch):
    # a dense rank-110 q at n = 2 makes 111^2 = 12321 calls of 440
    # entries; the budget stops it at call 4767
    r = 110
    q = [[str((i * j) % 7 - 3) for j in range(r)] for i in range(r)]
    payload = {"n": 2, "xi": ["1"] + ["0"] * (r - 1), "q": q}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert f"W_ENTRY_BUDGET = {cli.W_ENTRY_BUDGET}" in err


def test_bb_recover_q_budget_counts_words_of_large_numbers(capsys,
                                                          monkeypatch):
    # rank 20 at n = 2 with xi = e_1 and entries a/b, b random of 300
    # digits: the common denominator has about 200,000 bits, so each entry
    # counts some 3,000 times and the request stops within ten w calls
    rng = random.Random(0)
    r = 20
    q = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            q[i][j] = q[j][i] = (f"{rng.choice((-1, 1)) * rng.randint(1, 9)}"
                                 f"/{rng.randrange(10 ** 299, 10 ** 300)}")
    payload = {"n": 2, "xi": ["1"] + ["0"] * (r - 1), "q": q}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert time.perf_counter() - start < 4
    assert (code, out) == (3, "")
    assert f"W_ENTRY_BUDGET = {cli.W_ENTRY_BUDGET}" in err


def test_bb_recover_isotropic_xi_is_exit_4(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch, ["bb-recover"],
                         {"n": 2, "xi": ["1", "0"],
                          "q": [["0", "0"], ["0", "1"]]})
    assert code == 4


def test_density_fermat(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["density", "--fermat", "--bound", "10000"])
    assert code == 0
    data = json.loads(out)
    assert data["theoretical_density"] == "1/2"
    num, den = data["empirical_density"].split("/")
    assert abs(int(num) / int(den) - 0.5) < 0.02


def test_density_union(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["density", "--union", "5,7,11",
                            "--bound", "10000"])
    assert code == 0
    assert json.loads(out)["theoretical_density"] == "7/8"


def test_density_flag_validation(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch,
                         ["density", "--fermat", "--bound", "10"])
    assert code == 2
    code, _, _ = run_cli(capsys, monkeypatch,
                         ["density", "--bound", "1000"])
    assert code == 2
    code, _, _ = run_cli(capsys, monkeypatch,
                         ["density", "--union", "5,6", "--bound", "1000"])
    assert code == 2


@pytest.mark.parametrize("bound", ["10000001", "100000000000000000000"])
def test_density_bound_over_sieve_limit_is_exit_3(capsys, monkeypatch,
                                                  bound):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["density", "--fermat", "--bound", bound])
    assert (code, out, err) == (
        3, "", f"error: sieve bound {bound} exceeds SIEVE_LIMIT = 10000000\n")


def test_newton(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["newton"],
                           {"coeffs": ["7", "-1", "1"], "p": "7",
                            "weight": 2})
    assert code == 0
    data = json.loads(out)
    assert data["slopes"] == [["0", "1"], ["1", "1"]]
    assert data["supersingular"] is False
    code, _, _ = run_cli(capsys, monkeypatch, ["newton"],
                         {"coeffs": ["0", "1"], "p": "7"})
    assert code == 3


def test_artin(capsys, monkeypatch):
    doc = {"gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                    ["0", "0", "0", "5"], ["0", "0", "5", "0"]],
           "p": "5"}
    code, out, _ = run_cli(capsys, monkeypatch, ["artin"], doc)
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == "1" and data["superspecial"] is True
    bad = {"gram": [["5", "0"], ["0", "1"]], "p": "5"}
    code, _, _ = run_cli(capsys, monkeypatch, ["artin"], bad)
    assert code == 3


def test_mukai(capsys, monkeypatch):
    payload = {"ns": [["2"]],
               "v": {"r": "1", "c1": ["0"], "s": "-1"},
               "w": {"r": "0", "c1": ["1"], "s": "0"},
               "p": "5"}
    code, out, _ = run_cli(capsys, monkeypatch, ["mukai"], payload)
    assert code == 0
    data = json.loads(out)
    assert data["v_square"] == "2"
    assert data["lattice_rank"] == "3"
    assert data["disc_check"]["orders_match"] is True
    payload["p"] = "2"
    code, _, _ = run_cli(capsys, monkeypatch, ["mukai"], payload)
    assert code == 3


@pytest.mark.parametrize("p", ["0", "4"])
def test_mukai_non_prime_p_exits_3(capsys, monkeypatch, p):
    payload = {"ns": [["6"]], "v": {"r": "1", "c1": ["0"], "s": "-1"},
               "p": p}
    code, out, err = run_cli(capsys, monkeypatch, ["mukai"], payload)
    assert (code, out, err) == (3, "", f"error: {p} is not prime\n")


def test_disc_order_beyond_factoring_budget_exits_3(capsys, monkeypatch):
    # the order is a product of two 80-bit primes
    p, q = sympy.nextprime(2 ** 79), sympy.nextprime(2 ** 80)
    code, out, err = run_cli(capsys, monkeypatch, ["disc"],
                             {"gram": [[str(p), "0"], ["0", str(q)]]})
    assert code == 3 and out == ""
    assert ("more than RHO_STEP_BUDGET = 4194304 Pollard-Brent steps on a "
            "160-bit cofactor\n") in err


BIG = "1" + "0" * 5000


@pytest.mark.parametrize("argv,payload", [
    (["disc"], '{"gram": [[%s]]}' % BIG),
    (["bb-recover"], {"n": 1, "xi": ["1/" + BIG], "q": [["1"]]}),
    (["bb-recover"], {"n": 1, "xi": ["1_" + BIG], "q": [["1"]]}),
    (["density", "--inert", "3," + BIG, "--bound", "1000"], None),
    (["bb-recover"], w_doc({"0," + BIG: "1"})),
], ids=["json-number", "fraction-denominator", "underscored", "flag",
        "w-key-index"])
def test_input_past_digit_limit_exits_3(capsys, monkeypatch, argv, payload):
    code, out, err = run_cli(capsys, monkeypatch, argv, payload)
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (3, "")
    assert err == (f"error: an input integer has more than {limit} digits, "
                   f"the limit of sys.get_int_max_str_digits() = {limit}\n")


def test_inputs_within_digit_limit_parse(capsys, monkeypatch):
    # digit runs are limited one at a time, as int() limits them
    half = "1" * 3000
    code, out, _ = run_cli(capsys, monkeypatch, ["bb-recover"],
                           {"n": 1, "xi": [f"{half}.{half}"], "q": [["1"]]})
    assert code == 0
    assert json.loads(out)["q"] == [["1"]]


@pytest.mark.parametrize("meta", [[], ["--meta"]], ids=["bare", "meta"])
@pytest.mark.parametrize("result", [
    {"order": 10 ** 5000}, {"vectors": [[1, 10 ** 5000]]},
    {"q": [Fraction(1, 10 ** 5000)]}, [{"det": -10 ** 5000}],
], ids=["dict-value", "list-entry", "fraction", "nested"])
def test_result_past_digit_limit_exits_3(capsys, monkeypatch, meta, result):
    # the whole text is built before anything is written
    monkeypatch.setattr(cli, "cmd_jordan", lambda payload: result)
    code, out, err = run_cli(capsys, monkeypatch, [*meta, "jordan"], {})
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (3, "")
    assert err == (f"error: a result integer has more than {limit} digits, "
                   f"the limit of sys.get_int_max_str_digits() = {limit}\n")


def test_golden_result_past_digit_limit_with_meta(capsys, monkeypatch):
    case = json.loads((Path(__file__).parent / "golden"
                       / "error_disc_result_past_digit_limit.json")
                      .read_text())
    got = run_cli(capsys, monkeypatch, ["--meta", *case["argv"]],
                  case["stdin"])
    assert got == (case["exit"], "", case["stderr"]) and got[0] == 3


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(cli_results)
def test_json_writer_matches_the_stdlib_encoder(x):
    assert cli._json(x) == json.dumps(reference_s(x), indent=2,
                                      sort_keys=True)


def test_json_writer_layout():
    assert cli._json({}) == "{}" and cli._json(()) == "[]"
    assert cli._json({"b": [], "a": (1, Fraction(4, 2), Fraction(-1, 3)),
                      "c": {"d": [True, None, "é\n"]}}) == (
        '{\n  "a": [\n    "1",\n    "2",\n    "-1/3"\n  ],\n  "b": [],\n'
        '  "c": {\n    "d": [\n      true,\n      null,\n'
        '      "\\u00e9\\n"\n    ]\n  }\n}')


@pytest.mark.parametrize("payload, message", [
    ('{"gram": [[true]]}', "expected an integer, got a boolean"),
    ('{"gram": [[1.5]]}', "expected an integer or decimal string: 1.5"),
    ('{"gram": [["x"]]}', "invalid literal"),
    ('{"gram": []}', "gram must be a non-empty 2-D array"),
    ('{"gram": [1]}', "gram must be a 2-D array"),
    ('{"gramm": [["2"]]}', "document must contain a 'gram' field"),
    ('[["2"]]', "document must contain a 'gram' field"),
], ids=["boolean", "float", "not-a-number", "empty", "one-dimensional",
        "no-gram", "bare-array"])
def test_gram_document_checks_are_exit_2(capsys, monkeypatch, payload,
                                         message):
    code, out, err = run_cli(capsys, monkeypatch, ["disc"], payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("payload, message", [
    ({"n": 1, "xi": ["1", "0"], "q": [["2"]]},
     "q must have one row per entry of xi"),
    ({"n": 1, "xi": ["1"], "xi_norm": "2"},
     "payload needs 'degree', 'q' or 'w_basis_values'"),
    ('{"n": 1, "xi": [1.5], "q": [["1"]]}', "expected a rational string"),
    ({"n": 1, "xi": ["1/x"], "q": [["1"]]}, "Invalid literal for Fraction"),
    ('{"n": 1, "xi": [true, "0"], "q": [["2", true], [true, "-4"]]}',
     "expected an integer, got a boolean"),
    ('{"n": 1, "xi": ["1"], "xi_norm": true, "w_basis_values": {"0,0": "1"}}',
     "expected an integer, got a boolean"),
], ids=["q-rows", "no-mode", "xi-float", "xi-not-a-fraction", "xi-q-boolean",
        "xi-norm-boolean"])
def test_bb_recover_input_checks_are_exit_2(capsys, monkeypatch, payload,
                                            message):
    code, out, err = run_cli(capsys, monkeypatch, ["bb-recover"], payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_bb_recover_reads_json_integers_in_xi(capsys, monkeypatch):
    q = [["2", "1"], ["1", "-4"]]
    outs = [run_cli(capsys, monkeypatch, ["bb-recover"],
                    {"n": 2, "xi": xi, "q": q})
            for xi in (["1", "0"], [1, 0])]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["q"] == q


def test_mukai_reads_ns_as_a_document(capsys, monkeypatch):
    ns = [["2"]]
    outs = [run_cli(capsys, monkeypatch, ["mukai"],
                    {"ns": doc, "v": {"r": "1", "c1": ["0"], "s": "-1"},
                     "w": {"r": "0", "c1": ["1"], "s": "0"}, "p": "5"})
            for doc in (ns, {"gram": ns})]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["disc_check"]["orders_match"] is True


def test_jordan(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["jordan"],
                           {"gram": [["0", "1"], ["1", "0"]], "p": "3"})
    assert code == 0
    assert json.loads(out)["blocks"] == [
        {"scale": "0", "rank": "2", "det_class": "-1"}]
    code, _, _ = run_cli(capsys, monkeypatch, ["jordan"],
                         {"gram": [["0", "1"], ["1", "0"]], "p": "2"})
    assert code == 3


def test_enumerate(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["enumerate"],
                           {"gram": [["2"]], "norm": "2"})
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "2"
    assert data["vectors"] == [["-1"], ["1"]]
    code, _, _ = run_cli(capsys, monkeypatch, ["enumerate"],
                         {"gram": [["0", "1"], ["1", "0"]], "norm": "2"})
    assert code == 3


def test_pointed(capsys, monkeypatch):
    lam = k3n_lattice(2)
    point = ["1", "1"] + ["0"] * 21
    point2 = ["0", "0", "1", "1"] + ["0"] * 19
    doc = lattice_doc(lam, point=point, point2=point2, p="5")
    code, out, _ = run_cli(capsys, monkeypatch, ["pointed"], doc)
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == ["3", "20"]
    assert data["point_norm"] == "2"
    assert data["equal_invariants"] is True
    assert data["equivalent_at_p"] is True
    assert "warnings" not in data


def test_pointed_eliminates_its_lattice_once(capsys, monkeypatch):
    # both points' signatures read the elimination that the lattice's
    # constructor kept; each complement is a lattice of its own
    lam = k3n_lattice(2)
    real = la.symmetric_elimination
    grams = []

    def counted(g):
        grams.append(tuple(map(tuple, g)))
        return real(g)

    monkeypatch.setattr(la, "symmetric_elimination", counted)
    doc = lattice_doc(lam, point=["1", "1"] + ["0"] * 21,
                      point2=["0", "0", "1", "1"] + ["0"] * 19)
    code, out, _ = run_cli(capsys, monkeypatch, ["pointed"], doc)
    assert code == 0
    assert json.loads(out)["equal_invariants"] is True
    assert grams.count(lam.gram) == 1


def test_pointed_makes_one_smith_form_of_its_lattice(capsys, monkeypatch):
    # no literal planes survive the skew, so all three U + U decisions of a
    # request with point2 and p count invariant factors: they read the one
    # Smith form that the lattice kept
    case = json.loads((Path(__file__).parent / "golden"
                       / "pointed_k3n_skewed_pair_at_p.json").read_text())
    gram = tuple(tuple(map(int, row))
                 for row in json.loads(case["stdin"])["gram"])
    real = la.smith_normal_form
    grams = []

    def counted(a):
        grams.append(tuple(map(tuple, a)))
        return real(a)

    monkeypatch.setattr(la, "smith_normal_form", counted)
    got = run_cli(capsys, monkeypatch, case["argv"], case["stdin"])
    assert got == (0, case["stdout"], "")
    assert len(gram) == 23 and grams.count(gram) == 1


def test_pointed_compares_a_point_with_itself_on_one_complement(capsys,
                                                               monkeypatch):
    # point2 = point: one Smith form each of the 23x23 Gram, the 1x23
    # constraint row and the 22x22 complement, none of them twice
    case = json.loads((Path(__file__).parent / "golden"
                       / "pointed_k3n_skewed_pair_at_p.json").read_text())
    doc = json.loads(case["stdin"])
    assert doc["point2"] == doc["point"]
    real = la.smith_normal_form
    shapes = []

    def counted(a):
        shapes.append((len(a), len(a[0])))
        return real(a)

    monkeypatch.setattr(la, "smith_normal_form", counted)
    got = run_cli(capsys, monkeypatch, case["argv"], case["stdin"])
    assert got == (0, case["stdout"], "")
    assert sorted(shapes) == [(1, 23), (22, 22), (23, 23)]


def test_pointed_below_two_planes_is_exit_3(capsys, monkeypatch):
    # U + <2> has signature (2, 1), so it cannot contain U + U
    doc = {"gram": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "2"]],
           "point": ["1", "1", "0"]}
    got = run_cli(capsys, monkeypatch, ["pointed"], doc)
    assert got == (3, "", "error: a lattice of signature (2, 1) cannot "
                          "contain U + U\n")


@pytest.mark.parametrize("provenance", [["U", "U"], ["E8"], "UU", None])
def test_pointed_ignores_provenance(capsys, monkeypatch, provenance):
    # the field is not read: U + U is decided from the Gram matrix alone
    doc = {**U2, "point": ["1", "3", "0", "0"]}
    want = run_cli(capsys, monkeypatch, ["pointed"], doc)
    assert want[0] == 0 and "warnings" not in json.loads(want[1])
    got = run_cli(capsys, monkeypatch, ["pointed"],
                  {**doc, "provenance": provenance})
    assert got == want


def test_deterministic_output(capsys, monkeypatch):
    doc = lattice_doc(k3n_lattice(3))
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, monkeypatch, ["disc"], doc)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_installed_binary_roundtrip():
    # Runs the console-script entry point (k3lattice.cli:main) in fresh
    # interpreters on the package this suite imported, not on whatever
    # k3lattice binary PATH happens to hold.  The two hash seeds differ so
    # that byte-identical output is checked across differing set and dict
    # orders every time.
    import os
    import subprocess
    import sys
    import k3lattice
    import_root = os.path.dirname(os.path.dirname(
        os.path.abspath(k3lattice.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (import_root, os.environ.get("PYTHONPATH")) if p)
    payload = json.dumps({"gram": [["0", "1"], ["1", "0"]]})
    runs = [subprocess.run([sys.executable, "-m", "k3lattice.cli", "disc"],
                           input=payload, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": pythonpath,
                                "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    for r in runs:
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["invariant_factors"] == []


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_consecutive_calls_match_fresh_processes(capsys, monkeypatch):
    # one parser serves every main call in a process; each call must give
    # the bytes a fresh interpreter gives for the same request
    import os
    import subprocess
    import k3lattice
    import_root = os.path.dirname(os.path.dirname(
        os.path.abspath(k3lattice.__file__)))
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        p for p in (import_root, os.environ.get("PYTHONPATH")) if p)}
    monkeypatch.setenv("COLUMNS", "80")
    gram = json.dumps({"gram": [["2", "1"], ["1", "2"]], "p": "3"})
    requests = [(["jordan"], gram), (["density", "--bound"], ""),
                (["density", "--fermat", "--bound", "1000"], ""),
                (["disc"], gram)]
    for argv, stdin in requests:
        try:
            got = run_cli(capsys, monkeypatch, argv, stdin)
        except SystemExit as e:
            got = (e.code,) + tuple(capsys.readouterr())
        alone = subprocess.run([sys.executable, "-m", "k3lattice.cli", *argv],
                               input=stdin, capture_output=True, text=True,
                               env=env)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert got[0] == 0 and json.loads(got[1])["order"] == "3"


def test_main_calls_the_current_command_function(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_jordan", lambda payload: {"seen": payload})
    code, out, _ = run_cli(capsys, monkeypatch, ["jordan"], {"p": "5"})
    assert code == 0
    assert json.loads(out) == {"seen": {"p": "5"}}


def test_meta_wrapper(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["--meta", "enumerate"],
                           {"gram": [["2"]], "norm": "2"})
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"data", "meta"}
    assert data["meta"]["tool"] == "k3lattice"
    assert data["data"]["count"] == "2"


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_corpus(capsys, monkeypatch, path):
    # Each case holds argv, stdin text, and the exit code, stdout and stderr
    # that main() must reproduce byte for byte; refactors keep them all.
    case = json.loads(path.read_text())
    code, out, err = run_cli(capsys, monkeypatch, case["argv"],
                             case["stdin"])
    assert code == case["exit"]
    assert out == case["stdout"]
    assert err == case["stderr"]
