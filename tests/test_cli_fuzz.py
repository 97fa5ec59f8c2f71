"""The CLI's exit-code contract under generated input.

Every input must end in exit 0, 1 or 2 with at most a one-line message:
no traceback and no `internal error` (exit 3). The inputs are `--algebra`
values, as omni(n) fixture names with up to 6,000 digits and as arbitrary
text (read as a file path), the contents of an algebra file (its `dim`,
`basis` labels and bracket entries, coefficients as JSON numbers,
numeric strings and other JSON values), the "value" strings of a cochain
file, and the structure of cochain files for `leibcx d` (degree,
component index k, es and fs lengths, indices out of range or not
integers, repeated keys), given to every command that reads a cochain
(`d`, `cup` and `bracket` with a valid flat as the other operand, and
`representable`), also under a lowered table budget.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibniz_complex import cochains
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.cli import main
from leibniz_complex.cochains import ComplexContext, cochain_to_dict
from leibniz_complex.duality import flat_cochain

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

omni_names = st.builds(lambda digits: f"omni({digits})",
                       st.one_of(st.text("0123456789", min_size=1, max_size=12),
                                 st.integers(1, 6000).map(lambda n: "9" * n),
                                 st.integers(1, 6000).map(lambda n: "0" * n + "3")))
poly_text = st.text("z0123456789^*/+- .", max_size=40)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
numeric_text = st.one_of(st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True),
                         st.from_regex(r"-?[0-9]{0,4}\.?[0-9]{1,4}([eE][-+]?[0-9]{1,9})?",
                                       fullmatch=True))


def algebra_files(dim, other):
    """Contents of an algebra file of dimension dim, each field sometimes
    drawn from `other` instead; st.nothing() gives well-shaped files."""
    index = st.integers(0, dim - 1) | other
    coeff = st.one_of(st.integers(-2, 2), st.integers(), st.floats(), numeric_text, other)
    entry = st.fixed_dictionaries({
        "i": index, "j": index,
        "coeffs": st.lists(coeff, min_size=dim, max_size=dim) | other}) | other
    return st.fixed_dictionaries({
        "dim": st.just(dim) | other,
        "basis": st.lists(st.text(max_size=3), min_size=dim, max_size=dim) | other,
        "brackets": st.lists(entry, max_size=4) | other})


algebra_data = st.integers(1, 3).flatmap(
    lambda dim: algebra_files(dim, st.nothing())
    | algebra_files(dim, json_values | st.integers(-1, dim))) | json_values


def cochain_files(degree, other):
    """Contents of a degree-n cochain file over O1 and A3 (algebra indices
    0 and 1 exist in both, center index 0), each field sometimes drawn from
    `other` instead; st.nothing() gives well-shaped files. Each component
    ends with a repeat of its first entry, so keys repeat."""
    value = st.sampled_from(["1", "z1", "2*z1^2 - 1/2", "0"]) | other

    def block(k):
        nl = degree - 2 * k
        entry = st.fixed_dictionaries({
            "es": st.lists(st.integers(0, 1) | other, min_size=nl, max_size=nl) | other,
            "fs": st.lists(st.just(0) | other, min_size=k, max_size=k) | other,
            "value": value}) | other
        entries = st.lists(entry, max_size=3).map(lambda xs: xs + xs[:1])
        return st.fixed_dictionaries({"k": st.just(k) | other, "entries": entries | other}) | other

    return st.fixed_dictionaries({
        "degree": st.just(degree) | other,
        "components": st.lists(st.integers(0, degree // 2).flatmap(block), max_size=3) | other})


cochain_data = st.integers(0, 5).flatmap(
    lambda n: cochain_files(n, st.nothing())
    | cochain_files(n, json_values | st.integers(-1, 3) | st.integers(10, 40))) | json_values


def one_bracket(coeff):
    return {"dim": 1, "basis": ["a"], "brackets": [{"i": 0, "j": 0, "coeffs": [coeff]}]}


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "internal error" not in err, err
    assert err.count("\n") <= 1 or err.startswith("usage:"), err


@FUZZ
@given(st.one_of(omni_names, st.text(max_size=300)))
@example("omni(" + "9" * 5000 + ")")
@example("x" * 300)
@example("a\0b")
@example("/dev/null/x")
def test_algebra_argument_keeps_the_exit_contract(name):
    # `center` loads the algebra but skips check's dim^3 Leibniz walk, seconds long on omni(7)
    code, _, err = run_cli(["center", "--algebra=" + name])
    assert_contract(code, err)


@FUZZ
@given(st.one_of(poly_text, st.text(max_size=40)))
@example("z1^99999999999")
@example("1/0")
@example("9" * 5000)
@example("z2")
def test_cochain_value_string_keeps_the_exit_contract(value):
    data = {"degree": 1, "components": [
        {"k": 0, "entries": [{"es": [0], "fs": [], "value": value}]}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "omega.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code, _, err = run_cli(["d", "--algebra", "O1", "--cochain", path])
    assert_contract(code, err)


@FUZZ
@given(cochain_data)
@example({"degree": 1, "components": [{"k": 0, "entries": [
    {"es": [0], "fs": [], "value": "z1"}, {"es": [0], "fs": [], "value": "-z1"}]}]})
@example({"degree": 40, "components": [{"k": 20, "entries": [
    {"es": [], "fs": [0] * 20, "value": "1"}]}]})
@example({"degree": 2, "components": [{"k": 0, "entries": [
    {"es": [0, 1], "fs": [], "value": "1"}, {"es": [1, 0], "fs": [], "value": "-1"}]}]})
@example({"degree": 3, "components": [{"k": 2, "entries": []}]})
@example({"degree": 2, "components": [{"k": 0, "entries": [
    {"es": [0, True], "fs": [], "value": "1"}]}]})
def test_cochain_file_structure_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "omega.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for algebra in ("O1", "A3"):
            code, _, err = run_cli(["d", "--algebra", algebra, "--cochain", path])
            assert_contract(code, err)


@FUZZ
@given(algebra_data)
@example(one_bracket("1e100000"))
@example(one_bracket("1e10000000"))
@example(one_bracket(1e300))
@example(one_bracket("1/0"))
def test_algebra_file_contents_keep_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("center", "check"):
            code, _, err = run_cli([command, "--algebra", path])
            assert_contract(code, err)


def e0_flat(algebra):
    """The file contents of e_0-flat over a fixture: a valid degree-1
    cochain, representable by construction."""
    ctx = ComplexContext(build_fixture(algebra))
    return cochain_to_dict(flat_cochain(ctx, basis_vec(ctx.dim, 0)))


FLATS = {algebra: e0_flat(algebra) for algebra in ("O1", "A3")}


def run_cochain_commands(data):
    """Every command that reads a cochain file, on `data` over O1 and A3:
    `d`, `cup` and `bracket` with the fixture's e_0-flat on either side,
    and `representable`; each must keep the exit contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path, flat = os.path.join(tmp, "omega.json"), os.path.join(tmp, "flat.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for algebra, flat_data in FLATS.items():
            with open(flat, "w", encoding="utf-8") as fh:
                json.dump(flat_data, fh)
            for command, files in (("d", [path]), ("cup", [path, flat]), ("cup", [flat, path]),
                                   ("bracket", [path, flat]), ("bracket", [flat, path]),
                                   ("representable", [path])):
                argv = [command, "--algebra", algebra]
                for name in files:
                    argv += ["--cochain", name]
                code, _, err = run_cli(argv)
                assert_contract(code, err)


@FUZZ
@given(cochain_data)
@example({"degree": 2, "components": [{"k": 0, "entries": [
    {"es": [0, 1], "fs": [], "value": "z1"}, {"es": [1, 0], "fs": [], "value": "-z1"}]}]})
@example({"degree": 2, "components": [{"k": 0, "entries": [
    {"es": [0, 1], "fs": [], "value": "1"}, {"es": [1, 0], "fs": [], "value": "-1"}]}]})
@example({"degree": 3, "components": [{"k": 1, "entries": [
    {"es": [1], "fs": [0], "value": "z1^2"}]}]})
def test_cochain_file_structure_keeps_the_exit_contract_in_every_cochain_command(data):
    run_cochain_commands(data)


@settings(FUZZ, max_examples=60)
@given(st.integers(0, 5).flatmap(lambda n: cochain_files(n, st.nothing())), st.integers(0, 12))
@example({"degree": 2, "components": [{"k": 0, "entries": [
    {"es": [0, 1], "fs": [], "value": "z1"}, {"es": [1, 0], "fs": [], "value": "-z1"}]}]}, 1)
@example({"degree": 4, "components": [{"k": 0, "entries": [
    {"es": [0, 1, 0, 1], "fs": [], "value": "1"}]}]}, 3)
def test_cochain_commands_keep_the_exit_contract_over_a_lowered_table_budget(data, budget):
    # a patch context, not the monkeypatch fixture: the budget is restored
    # after each generated example
    with mock.patch.object(cochains, "MAX_TABLE", budget):
        run_cochain_commands(data)
