import json
import time

import pytest

from leibniz_complex import cli
from leibniz_complex.algebra import algebra_to_dict, basis_vec, build_fixture
from leibniz_complex.brackets import theta, zeta
from leibniz_complex.cli import main
from leibniz_complex.cochains import ComplexContext, coboundary, cochain_from_dict, \
    cochain_to_dict, cup
from leibniz_complex.duality import flat_cochain


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


def test_omni_zero_is_input_error(capsys):
    assert main(["check", "--algebra", "omni(0)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_cup_needs_two_cochains(tmp_path):
    ctx = ComplexContext(build_fixture("O1"))
    fa = write_cochain(tmp_path, ctx, flat_cochain(ctx, basis_vec(2, 0)), "fa.json")
    with pytest.raises(SystemExit):
        main(["cup", "--algebra", "O1", "--cochain", fa])


def test_unknown_fixture_is_input_error():
    assert main(["center", "--algebra", "Q99"]) == 2


def test_products_over_the_shuffle_budget_are_input_errors(tmp_path, capsys):
    # two one-entry degree-20 cochains: C(40, 20) = 1.4e11 shuffles of their
    # arguments, which no table could hold
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"degree": 20, "components": [
        {"k": 0, "entries": [{"es": [0, 1] * 10, "fs": [], "value": "1"}]}]}))
    start = time.perf_counter()
    assert main(["cup", "--algebra", "O1", "--cochain", str(path), "--cochain", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "shuffles" in err and err.count("\n") == 1


def test_unexpected_exceptions_exit_3_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", "--algebra", "O1"]) == cli.EXIT_INTERNAL_ERROR == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom second line\n"
    assert captured.out == ""
