import json
import sys
import time
from itertools import combinations, product
from random import Random

import pytest

from leibniz_complex import algebra, cli, cochains
from leibniz_complex.algebra import MAX_DIM, algebra_to_dict, basis_vec, build_fixture
from leibniz_complex.brackets import theta, zeta
from leibniz_complex.cli import main
from leibniz_complex.cochains import Cochain, ComplexContext, coboundary, cochain_from_dict, \
    cochain_to_dict, cup, expand
from leibniz_complex.duality import flat_cochain
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import MAX_VERIFY_DEGREE, MAX_VERIFY_SAMPLES, Report, VerifyConfig


@pytest.fixture()
def o1_file(tmp_path):
    path = tmp_path / "o1.json"
    path.write_text(json.dumps(algebra_to_dict(build_fixture("O1"))))
    return str(path)


def write_cochain(tmp_path, ctx, omega, name):
    path = tmp_path / name
    path.write_text(json.dumps(cochain_to_dict(omega)))
    return str(path)


def test_check_fixture_name(capsys):
    assert main(["check", "--algebra", "O1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_algebra_file(o1_file):
    assert main(["check", "--algebra", o1_file]) == 0


def test_check_invalid_table(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                                "brackets": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]}))
    assert main(["check", "--algebra", str(path)]) == 1


def test_check_tests_the_identity_once(tmp_path, monkeypatch, o1_file):
    """`leibcx check` runs the Leibniz check once: the loader's for a file,
    valid or not, its own for a fixture."""
    calls = []
    inner = algebra.check_leibniz
    monkeypatch.setattr(algebra, "check_leibniz", lambda alg: calls.append(alg) or inner(alg))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "basis": ["a", "b"],
                               "brackets": [{"i": 0, "j": 0, "coeffs": ["1", "0"]}]}))
    for arg, code in (("O2", 0), (o1_file, 0), (str(bad), 1)):
        del calls[:]
        assert main(["check", "--algebra", arg]) == code
        assert len(calls) == 1, arg


def test_check_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    assert main(["check", "--algebra", str(path)]) == 2


def test_missing_file_is_input_error():
    assert main(["check", "--algebra", "/nonexistent/file.json"]) == 2


def test_center_and_fat(capsys):
    assert main(["center", "--algebra", "O2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["left_center"]) == 2
    assert main(["fat", "--algebra", "AFF_O1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fat"] is False and len(data["kernel"]) == 2


def test_quotient_command(capsys):
    assert main(["quotient", "--algebra", "AFF_O1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 2 and data["basis"] == ["a", "b"]


def test_a_zero_dimensional_quotient_round_trips(tmp_path, capsys):
    # sl2 (h, e, f) is a Lie algebra with trivial center: its symmetric
    # product vanishes, so its pairing kernel is all of it and the quotient
    # has dimension 0, a file every command that takes an algebra must load
    sl2 = {"dim": 3, "basis": ["h", "e", "f"], "brackets": [
        {"i": 0, "j": 1, "coeffs": [0, 2, 0]}, {"i": 1, "j": 0, "coeffs": [0, -2, 0]},
        {"i": 0, "j": 2, "coeffs": [0, 0, -2]}, {"i": 2, "j": 0, "coeffs": [0, 0, 2]},
        {"i": 1, "j": 2, "coeffs": [1, 0, 0]}, {"i": 2, "j": 1, "coeffs": [-1, 0, 0]}]}
    source, quotient = tmp_path / "sl2.json", tmp_path / "quotient.json"
    source.write_text(json.dumps(sl2))
    assert main(["check", "--algebra", str(source)]) == 0
    assert main(["quotient", "--algebra", str(source), "--out", str(quotient)]) == 0
    assert json.loads(quotient.read_text()) == {"dim": 0, "basis": [], "brackets": []}
    for command in ("check", "center", "fat", "quotient"):
        assert main([command, "--algebra", str(quotient)]) == 0
    capsys.readouterr()
    assert main(["derived-bracket", "0", "0", "--algebra", str(quotient)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "has no basis elements" in err and "0..-1" not in err


def test_quotient_precondition_failure():
    assert main(["quotient", "--algebra", "A3"]) == 1


def test_d_command(tmp_path, capsys):
    ctx = ComplexContext(build_fixture("O1"))
    path = write_cochain(tmp_path, ctx, zeta(ctx), "zeta.json")
    assert main(["d", "--algebra", "O1", "--cochain", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert cochain_from_dict(ctx, data) == theta(ctx)


def test_cup_command(tmp_path, capsys):
    ctx = ComplexContext(build_fixture("O1"))
    fa = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 0)), "fa.json")
    fb = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 1)), "fb.json")
    out = str(tmp_path / "prod.json")
    assert main(["cup", "--algebra", "O1", "--cochain", fa, "--cochain", fb,
                 "--format", "json", "--out", out]) == 0
    with open(out) as fh:
        data = json.load(fh)
    expected = cup(ctx, flat_cochain(ctx, basis_vec(2, 0)), flat_cochain(ctx, basis_vec(2, 1)))
    assert cochain_from_dict(ctx, data) == expected


def test_bracket_command(tmp_path, capsys):
    ctx = ComplexContext(build_fixture("O1"))
    t = write_cochain(tmp_path, ctx, theta(ctx), "theta.json")
    fa = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 0)), "fa.json")
    assert main(["bracket", "--algebra", "O1", "--cochain", t, "--cochain", fa,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    expected = coboundary(ctx, flat_cochain(ctx, basis_vec(2, 0))).scale(-1)
    assert cochain_from_dict(ctx, data) == expected


def test_bracket_of_an_invalid_cochain_is_a_check_failure(tmp_path, capsys):
    # a-flat cup b-flat less its value at (b, a): representable, not weakly
    # skew-symmetric, so the bracket and the product refuse it in either slot
    ctx = ComplexContext(build_fixture("O1"))
    product = cup(ctx, flat_cochain(ctx, basis_vec(2, 0)), flat_cochain(ctx, basis_vec(2, 1)))
    table = dict(product.components[0])
    del table[((1, 0), ())]
    bad = write_cochain(tmp_path, ctx, Cochain(2, ctx.zdim, {0: table}), "bad.json")
    fa = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 0)), "fa.json")
    assert main(["representable", "--algebra", "O1", "--cochain", bad]) == 0
    capsys.readouterr()
    for command in ("bracket", "cup"):
        for pair in ((bad, fa), (fa, bad)):
            assert main([command, "--algebra", "O1", "--cochain", pair[0],
                         "--cochain", pair[1]]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("check failed:") and captured.err.count("\n") == 1
            assert "not weakly skew-symmetric" in captured.err


def test_representable_command(tmp_path, capsys):
    ctx = ComplexContext(build_fixture("AFF_O1"))
    good = write_cochain(tmp_path, ctx, theta(ctx), "theta.json")
    assert main(["representable", "--algebra", "AFF_O1", "--cochain", good]) == 0
    bad_data = {"degree": 1, "components": [
        {"k": 0, "entries": [{"es": [0], "fs": [], "value": "1"}]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_data))
    assert main(["representable", "--algebra", "AFF_O1", "--cochain", str(bad)]) == 1


def test_representable_walks_only_stored_prefixes(tmp_path, capsys):
    # one scalar entry in degree 40: a walk over all 2^39 bar prefixes never ends
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"degree": 40, "components": [
        {"k": 0, "entries": [{"es": [0, 1] * 20, "fs": [], "value": "1"}]}]}))
    start = time.perf_counter()
    assert main(["representable", "--algebra", "O1", "--cochain", str(path),
                 "--format", "json"]) == 1
    assert time.perf_counter() - start < 1
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == [{"component": 0, "prefix": [0, 1] * 19 + [0], "fs": []}]


def test_derived_bracket_command(capsys):
    assert main(["derived-bracket", "0", "1", "--algebra", "O1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dual_equal"] and data["sharp_equal"]
    assert data["structure_product"] == ["0", "1"]


def test_derived_bracket_dual_only_on_non_fat(capsys):
    assert main(["derived-bracket", "0", "1", "--algebra", "AFF_O1"]) == 0
    assert "covector-level comparison only" in capsys.readouterr().out


# `leibcx derived-bracket` output as the command printed it when covectors
# were rendered from a dense tuple of values, one per basis element
FAT = ["covector level equal: True", "sharp recovers the product: True"]
NOT_FAT = ["covector level equal: True", "algebra is not fat: covector-level comparison only"]
DERIVED_BRACKET_PINS = [
    ("O1", 0, 1, ["e_0 . e_1 from structure constants: 0 1",
                  "derived covector: a -> z1, b -> 0"] + FAT,
     {"pair": [0, 1], "structure_product": ["0", "1"], "derived_dual": ["z1", "0"],
      "flat_of_product": ["z1", "0"], "dual_equal": True, "sharp": ["0", "1"],
      "sharp_equal": True}),
    ("O2", 0, 1, ["e_0 . e_1 from structure constants: 0 1 0 0 0 0",
                  "derived covector: E11 -> 0, E12 -> 0, E21 -> 0, E22 -> 0, u1 -> 0, u2 -> z1"]
     + FAT,
     {"pair": [0, 1], "structure_product": ["0", "1", "0", "0", "0", "0"],
      "derived_dual": ["0", "0", "0", "0", "0", "z1"],
      "flat_of_product": ["0", "0", "0", "0", "0", "z1"], "dual_equal": True,
      "sharp": ["0", "1", "0", "0", "0", "0"], "sharp_equal": True}),
    ("O2", 1, 2, ["e_1 . e_2 from structure constants: 1 0 0 -1 0 0",
                  "derived covector: E11 -> 0, E12 -> 0, E21 -> 0, E22 -> 0, u1 -> z1, u2 -> -z2"]
     + FAT,
     {"pair": [1, 2], "structure_product": ["1", "0", "0", "-1", "0", "0"],
      "derived_dual": ["0", "0", "0", "0", "z1", "-z2"],
      "flat_of_product": ["0", "0", "0", "0", "z1", "-z2"], "dual_equal": True,
      "sharp": ["1", "0", "0", "-1", "0", "0"], "sharp_equal": True}),
    ("AFF_O1", 0, 1, ["e_0 . e_1 from structure constants: 0 1 0 0",
                      "derived covector: x -> 0, y -> 0, a -> 0, b -> 0"] + NOT_FAT,
     {"pair": [0, 1], "structure_product": ["0", "1", "0", "0"],
      "derived_dual": ["0", "0", "0", "0"], "flat_of_product": ["0", "0", "0", "0"],
      "dual_equal": True}),
    ("AFF_O1", 2, 3, ["e_2 . e_3 from structure constants: 0 0 0 1",
                      "derived covector: x -> 0, y -> 0, a -> z1, b -> 0"] + NOT_FAT,
     {"pair": [2, 3], "structure_product": ["0", "0", "0", "1"],
      "derived_dual": ["0", "0", "z1", "0"], "flat_of_product": ["0", "0", "z1", "0"],
      "dual_equal": True}),
]


@pytest.mark.parametrize("name, i, j, lines, payload", DERIVED_BRACKET_PINS)
def test_derived_bracket_output_is_pinned(capsys, name, i, j, lines, payload):
    assert main(["derived-bracket", str(i), str(j), "--algebra", name]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert main(["derived-bracket", str(i), str(j), "--algebra", name, "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_derived_bracket_index_range():
    assert main(["derived-bracket", "0", "9", "--algebra", "O1"]) == 2


def test_verify_text_and_json(tmp_path, capsys):
    assert main(["verify", "--fixtures", "O1", "--samples", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
    out = str(tmp_path / "report.json")
    assert main(["verify", "--fixtures", "O1", "--samples", "2",
                 "--format", "json", "--out", out]) == 0
    with open(out) as fh:
        data = json.load(fh)
    assert data["passed"] is True
    assert json.loads(json.dumps(data)) == data


def test_verify_defaults_are_those_of_verify_config(monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(cli, "run_verify",
                        lambda config, mutation=None: configs.append(config) or Report())
    assert main(["verify"]) == 0
    assert configs == [VerifyConfig()]


def test_verify_runs_at_every_small_max_degree(capsys):
    # closure samples draw their degrees within --max-degree
    for max_degree in ("1", "2"):
        assert main(["verify", "--max-degree", max_degree, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["config"]["max_degree"] == int(max_degree)


def test_verify_mutation_exits_nonzero(capsys):
    assert main(["verify", "--fixtures", "O1", "--samples", "2",
                 "--inject-mutation", "zeta-sign"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_d_checks_only_the_equations_stored_entries_touch(tmp_path, capsys):
    # one entry in degree 40: a walk over all 2^40 keys never ends
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"degree": 40, "components": [
        {"k": 0, "entries": [{"es": [0, 1] * 20, "fs": [], "value": "1"}]}]}))
    start = time.perf_counter()
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and err.count("\n") == 1


def test_oversized_or_unusable_values_are_input_errors(tmp_path, capsys):
    for value in ("z1^99999999999", "1/0", "1" * 5000):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": 1, "components": [
            {"k": 0, "entries": [{"es": [0], "fs": [], "value": value}]}]}))
        assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


def test_verify_settings_out_of_range_are_input_errors(capsys):
    assert main(["verify", "--fixtures", "O1", "--max-degree", "0"]) == 2
    assert "max_degree must be at least 1" in capsys.readouterr().err
    assert main(["verify", "--fixtures", "O1", "--samples", "0"]) == 2
    assert "sample_count must be at least 1" in capsys.readouterr().err


def test_verify_degree_over_the_budget_is_an_input_error(capsys):
    """--max-degree above verify.MAX_VERIFY_DEGREE is refused at once with
    one line (exit 2) instead of running for hours."""
    start = time.perf_counter()
    for value in (str(MAX_VERIFY_DEGREE + 1), "1000000"):
        assert main(["verify", "--max-degree", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: max_degree must be at most {MAX_VERIFY_DEGREE}\n"
    assert time.perf_counter() - start < 5


def test_verify_samples_over_the_budget_is_an_input_error(capsys):
    """--samples above verify.MAX_VERIFY_SAMPLES is refused at once with
    one line (exit 2) instead of running for days."""
    start = time.perf_counter()
    for value in (str(MAX_VERIFY_SAMPLES + 1), "1000000000"):
        assert main(["verify", "--samples", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: sample_count must be at most {MAX_VERIFY_SAMPLES}\n"
    assert time.perf_counter() - start < 5


def test_non_integer_cochain_index_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 1, "components": [
        {"k": 0, "entries": [{"es": ["a"], "fs": [], "value": "z1"}]}]}))
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 2


def test_malformed_algebra_files_are_input_errors(tmp_path, capsys):
    entry = {"i": 0, "j": 1, "coeffs": ["0", "1"]}
    for data in ({"dim": True, "basis": ["a"]},
                 {"dim": 2, "basis": ["a", "b"], "brackets": [dict(entry, i=False, j=True)]},
                 {"dim": 2, "basis": ["a", "b"], "brackets": 5}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--algebra", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


def test_coefficients_over_the_digit_budget_are_input_errors(tmp_path, capsys):
    # Fraction would expand "1e10000000" to ten million digits, and a JSON
    # integer of 5,000 digits is over the interpreter's int-from-string limit
    one = '{"dim": 1, "basis": ["a"], "brackets": [{"i": 0, "j": 0, "coeffs": [%s]}]}'
    cochain = '{"degree": %s}' % ("9" * 5000)
    for coeff in ('"1e100000"', '"1e10000000"', '"1e-1000"', '"%s"' % ("1" * 1001), "9" * 5000):
        path = tmp_path / "big.json"
        path.write_text(one % coeff)
        start = time.perf_counter()
        assert main(["check", "--algebra", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1, err
    (tmp_path / "big.json").write_text(cochain)
    assert main(["d", "--algebra", "O1", "--cochain", str(tmp_path / "big.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1, err
    # exponent notation within the budget still reads exactly
    entry = {"i": 0, "j": 0, "coeffs": ["0", "0"]}
    for coeff in ("1e3", "2.5e-2", 1e-5):
        data = {"dim": 2, "basis": ["a", "b"], "brackets": [dict(entry, coeffs=["0", coeff])]}
        (tmp_path / "ok.json").write_text(json.dumps(data))
        assert main(["check", "--algebra", str(tmp_path / "ok.json")]) == 0
        capsys.readouterr()


def test_results_over_the_print_digit_limit_are_input_errors(tmp_path, capsys):
    # e_i . e_j = c_ij e_11 for i < 6 <= j < 11, C a 6x5 block of
    # 990-digit integers (within MAX_COEFF_DIGITS): the left center and the
    # pairing kernel both hold C's left null vector, whose reduced echelon
    # coordinates are ratios of 5x5 minors, about 4,950 digits each
    rng = Random(5)
    brackets = [{"i": i, "j": j, "coeffs": ["0"] * 11 + [str(rng.randrange(10**989, 10**990))]}
                for i in range(6) for j in range(6, 11)]
    path = tmp_path / "minors.json"
    path.write_text(json.dumps({"dim": 12, "basis": [f"e{k}" for k in range(12)],
                                "brackets": brackets}))
    assert main(["check", "--algebra", str(path)]) == 0
    capsys.readouterr()
    for command, fmt in product(("center", "fat"), ("text", "json")):
        assert main([command, "--algebra", str(path), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1, err
        assert f"{sys.get_int_max_str_digits()} digits" in err, err


def test_omni_zero_is_input_error(capsys):
    assert main(["check", "--algebra", "omni(0)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_algebras_over_the_size_budget_are_input_errors(tmp_path, capsys, monkeypatch):
    assert build_fixture("omni(7)").dim == 56 <= MAX_DIM  # omni(8) has dim 72

    # a missing budget check fails here at once instead of allocating the table
    def no_table(dim):
        raise AssertionError(f"a table of dimension {dim} was started")

    monkeypatch.setattr(algebra, "zero_vec", no_table)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": MAX_DIM + 1,
                                "basis": [f"e{i}" for i in range(MAX_DIM + 1)]}))
    for name in (str(path), f"omni({10**9})", "omni(8)"):
        start = time.perf_counter()
        assert main(["check", "--algebra", name]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "MAX_DIM" in err and err.count("\n") == 1


def test_algebra_files_over_the_byte_budget_are_input_errors(tmp_path, capsys, monkeypatch):
    # a sparse file, made by seeking and writing one byte: one byte over
    # MAX_FILE_BYTES_PER_COEFF * MAX_DIM^3 is refused before the text is
    # read, from every command that reads an algebra
    limit = algebra.MAX_FILE_BYTES_PER_COEFF * MAX_DIM ** 3
    assert limit == (algebra.MAX_COEFF_DIGITS + 24) * 64 ** 3 == 268_435_456
    loads = []
    load = algebra.json.load
    monkeypatch.setattr(algebra.json, "load", lambda fh: loads.append(fh) or load(fh))
    path = tmp_path / "big.json"
    with open(path, "wb") as fh:
        fh.seek(limit)
        fh.write(b" ")
    for argv in (["check"], ["center"], ["fat"], ["quotient"], ["derived-bracket", "0", "1"]):
        start = time.perf_counter()
        assert main(argv + ["--algebra", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (f"input error: an algebra file of {limit + 1} bytes "
                                           f"is above the limit of {limit} bytes\n")
    assert loads == []
    # under MAX_DIM = 2 the limit is 8,192 bytes; O1's file padded with
    # spaces to exactly that size is read, one byte more is refused
    monkeypatch.setattr(algebra, "MAX_DIM", 2)
    text = json.dumps(algebra_to_dict(build_fixture("O1")))
    path.write_text(text.ljust(8192))
    assert main(["check", "--algebra", str(path)]) == 0
    assert len(loads) == 1
    capsys.readouterr()
    path.write_text(text.ljust(8193))
    assert main(["check", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: an algebra file of 8193 bytes is above the limit of 8192 bytes\n")
    assert len(loads) == 1


def test_repeated_brackets_in_an_algebra_file_are_input_errors(tmp_path, capsys):
    # (0, 1) listed three times, each time a valid O1 bracket: the last
    # entry used to win silently and `check` passed
    entry = {"i": 0, "j": 1, "coeffs": ["0", "1"]}
    path = tmp_path / "repeated.json"
    for count in (2, 3):
        path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": [entry] * count}))
        for argv in (["check"], ["center"], ["fat"], ["quotient"], ["derived-bracket", "0", "1"]):
            assert main(argv + ["--algebra", str(path)]) == 2
            assert capsys.readouterr().err == \
                "input error: bracket (0,1) is given more than once\n"
    path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": [entry]}))
    assert main(["check", "--algebra", str(path)]) == 0


def test_omni_with_more_digits_than_int_converts_is_input_error(capsys):
    # 5,000 digits is over the interpreter's int-from-string limit (4,300)
    for digits in ("9" * 5000, "0" * 5000 + "9" * 3):
        assert main(["check", "--algebra", f"omni({digits})"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "MAX_DIM" in err and err.count("\n") == 1
    assert main(["check", "--algebra", "omni(" + "0" * 5000 + "2)"]) == 0


def test_unopenable_algebra_paths_are_input_errors(tmp_path, capsys):
    # a name too long for the file system, a file used as a directory, a NUL byte
    (tmp_path / "file").write_text("{}")
    for name in ("x" * 300, str(tmp_path / "file" / "x"), "a\0b"):
        assert main(["check", "--algebra", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1, err


def test_cup_needs_two_cochains(tmp_path):
    ctx = ComplexContext(build_fixture("O1"))
    fa = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 0)), "fa.json")
    with pytest.raises(SystemExit):
        main(["cup", "--algebra", "O1", "--cochain", fa])


def test_unknown_fixture_is_input_error():
    assert main(["center", "--algebra", "Q99"]) == 2


def test_products_over_the_table_budget_are_input_errors(tmp_path, capsys):
    # valid omni(3) cochains of degrees 4 and 5, each the expansion of one
    # free datum (24 and 120 entries), with disjoint supports: the free
    # datum of their product walks 9! = 362,880 keys
    ctx = ComplexContext(build_fixture("omni(3)"))
    one = SymPoly.constant(ctx.zdim, 1)
    paths = [write_cochain(tmp_path, ctx, expand(ctx, len(es), Cochain(
        len(es), ctx.zdim, {0: {(es, ()): one}})), f"deg{len(es)}.json")
        for es in ((0, 1, 2, 3), (4, 5, 6, 7, 8))]
    start = time.perf_counter()
    assert main(["cup", "--algebra", "omni(3)", "--cochain", paths[0], "--cochain", paths[1]]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "above the limit of 100000" in err \
        and err.count("\n") == 1, err


def test_products_over_the_pair_budget_are_input_errors(tmp_path, capsys):
    # the degree-2 cochain with value 1 at each of omni(5)'s 440 free keys,
    # times itself: 193,600 pairs of free entries, 657,720 output entries
    ctx = ComplexContext(build_fixture("omni(5)"))
    one = SymPoly.constant(ctx.zdim, 1)
    free = {0: {(es, ()): one for es in combinations(range(ctx.dim), 2)},
            1: {((), (r,)): one for r in range(ctx.zdim)}}
    path = write_cochain(tmp_path, ctx, expand(ctx, 2, Cochain(2, ctx.zdim, free)), "ones.json")
    start = time.perf_counter()
    assert main(["cup", "--algebra", "omni(5)", "--cochain", path, "--cochain", path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "193600 table entries" in err \
        and err.count("\n") == 1, err


def test_products_of_long_invalid_tuples_are_check_failures(tmp_path, capsys):
    # a one-entry degree-20 cochain on O1 is not weakly skew-symmetric: the
    # product reports that, and builds no table
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"degree": 20, "components": [
        {"k": 0, "entries": [{"es": [0, 1] * 10, "fs": [], "value": "1"}]}]}))
    assert main(["cup", "--algebra", "O1", "--cochain", str(path), "--cochain", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and "not weakly skew-symmetric" in err


def test_representability_over_the_table_budget_is_an_input_error(tmp_path, capsys):
    # z1^200 lands in phi's degree-199 system on omni(3), C(201, 199) * 12
    # = 241,200 columns
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"degree": 1, "components": [
        {"k": 0, "entries": [{"es": [0], "fs": [], "value": "z1^200"}]}]}))
    start = time.perf_counter()
    assert main(["representable", "--algebra", "omni(3)", "--cochain", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "241200 table entries" in err \
        and err.count("\n") == 1, err


def test_cochain_files_over_the_table_budget_are_input_errors(tmp_path, capsys, monkeypatch):
    # five entries under a budget of four: refused before any value is
    # parsed; under a budget of five the same file is read
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"degree": 1, "components": [
        {"k": 0, "entries": [{"es": [0], "fs": [], "value": "1"}] * 3},
        {"k": 0, "entries": [{"es": [1], "fs": [], "value": "z1"}] * 2}]}))
    parsed = []
    parse = cochains.parse_sympoly
    monkeypatch.setattr(cochains, "parse_sympoly", lambda *args: parsed.append(args) or parse(*args))
    monkeypatch.setattr(cochains, "MAX_TABLE", 4)
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: a cochain file needs 5 table entries, above the limit of 4\n"
    assert parsed == []
    monkeypatch.setattr(cochains, "MAX_TABLE", 5)
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 0
    assert len(parsed) == 5


def test_cochain_files_over_the_byte_budget_are_input_errors(tmp_path, capsys, monkeypatch):
    # sparse files, made by seeking and writing one byte, so no large data
    # is written: one byte over MAX_FILE_BYTES_PER_ENTRY * MAX_TABLE is
    # refused before the text is read, a file of exactly that size is read
    limit = cochains.MAX_FILE_BYTES_PER_ENTRY * cochains.MAX_TABLE
    assert limit == 100_000_000
    loads = []
    load = cochains.json.load
    monkeypatch.setattr(cochains.json, "load", lambda fh: loads.append(fh) or load(fh))

    def sparse(name, size):
        path = tmp_path / name
        with open(path, "wb") as fh:
            fh.seek(size - 1)
            fh.write(b" ")
        return str(path)

    start = time.perf_counter()
    assert main(["d", "--algebra", "O1", "--cochain", sparse("big.json", limit + 1)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (f"input error: a cochain file of {limit + 1} bytes is above the limit of "
                   f"{limit} bytes\n")
    assert loads == []
    # under a budget of 4 entries the limit is 4,000 bytes; a valid file
    # padded with spaces to exactly that size runs
    monkeypatch.setattr(cochains, "MAX_TABLE", 4)
    text = json.dumps({"degree": 1, "components": [
        {"k": 0, "entries": [{"es": [0], "fs": [], "value": "z1"}]}]})
    path = tmp_path / "padded.json"
    path.write_text(text.ljust(4000))
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 0
    assert len(loads) == 1
    capsys.readouterr()
    path.write_text(text.ljust(4001))
    assert main(["d", "--algebra", "O1", "--cochain", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: a cochain file of 4001 bytes is above the limit of 4000 bytes\n")
    assert len(loads) == 1


def test_unexpected_exceptions_exit_3_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", "--algebra", "O1"]) == cli.EXIT_INTERNAL_ERROR == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom second line\n"
    assert captured.out == ""
