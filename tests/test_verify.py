import json
from random import Random

import pytest

from leibniz_complex import verify
from leibniz_complex.cochains import validate_cochain
from leibniz_complex.duality import ExtendedElement, flat_cochain, is_representable
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import (VerifyConfig, check_derived_bracket, check_quotient,
                                    check_theta_is_dzeta, first_difference,
                                    random_representable, run_verify)
from leibniz_complex.brackets import theta, zeta


def strip_timing(report_dict):
    out = dict(report_dict)
    out["checks"] = [{k: v for k, v in c.items() if k != "seconds"}
                     for c in report_dict["checks"]]
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(max_degree=0)
    with pytest.raises(ValueError):
        VerifyConfig(samples=0)


def test_clean_run_on_o1_passes():
    report = run_verify(VerifyConfig(fixtures=("O1",), samples=5))
    assert report.passed
    names = {r.name for r in report.results}
    assert {"fixture_validity", "d_squared", "dga_axioms", "theta_is_dzeta",
            "representability_closure", "poisson_axioms", "theta_bracket",
            "derived_bracket", "oracle_pairing"} <= names


def test_zeta_mutation_detected(o1):
    result = check_theta_is_dzeta(o1, "O1", mutation="zeta-sign")
    assert not result.passed
    assert result.counterexample  # located
    assert result.counterexample.get("violation", result.counterexample)


def test_d0_mutation_detected():
    report = run_verify(VerifyConfig(fixtures=("O1",), samples=3), mutation="d0-sign")
    assert not report.passed
    failing = {r.name for r in report.results if not r.passed and not r.advisory}
    assert "theta_is_dzeta" in failing
    assert "d_squared" in failing
    for r in report.results:
        if not r.passed:
            assert r.counterexample is not None


def test_clean_checks_unaffected_by_nothing(o1):
    assert check_theta_is_dzeta(o1, "O1").passed
    assert check_derived_bracket(o1, "O1").passed
    assert check_quotient().passed


def test_derived_bracket_check_reports_the_first_differing_value(o1, monkeypatch):
    # e_i-flat in place of (e_i . e_j)-flat: at (0, 0) it has z1 at e_1, the flat of 0 nothing
    monkeypatch.setattr(verify, "derived_bracket_dual", lambda ctx, v, w: flat_cochain(ctx, v))
    result = check_derived_bracket(o1, "O1")
    assert not result.passed and result.details == "flat-level identity fails at pair (0,0)"
    assert result.counterexample == {"component": 0, "es": [1], "fs": [], "lhs": "z1",
                                     "rhs": "0", "pair": [0, 0]}


def test_derived_bracket_check_reports_a_wrong_sharp(o1, monkeypatch):
    wrong = ExtendedElement((SymPoly.constant(1, 1), SymPoly.generator(1, 0)))
    monkeypatch.setattr(verify, "sharp", lambda ctx, psi: wrong)
    result = check_derived_bracket(o1, "O1")
    assert not result.passed
    assert result.details == "sharp does not recover the product at (0,0)"
    assert result.counterexample == {"pair": [0, 0], "lhs": ["1", "z1"], "rhs": ["0", "0"]}


def test_report_json_roundtrip_idempotent():
    report = run_verify(VerifyConfig(fixtures=("O1",), samples=2))
    data = report.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_runs_deterministic_given_seed():
    config = VerifyConfig(fixtures=("O1",), samples=3, seed=11)
    first = strip_timing(run_verify(config).to_dict())
    second = strip_timing(run_verify(config).to_dict())
    assert first == second


def test_random_representable_generator(o1, o2):
    rng = Random(9)
    for ctx in (o1, o2):
        for degree in (0, 1, 2):
            omega = random_representable(ctx, rng, degree)
            assert omega.degree == degree
            assert validate_cochain(ctx, omega).ok
            assert is_representable(ctx, omega).ok


def test_first_difference_reports_smallest_key(o1):
    t = theta(o1)
    z2 = zeta(o1)
    diff = first_difference(t, t)
    assert diff is None
    diff = first_difference(z2, z2.scale(2))
    assert diff is not None
    k, es, fs, lhs, rhs = diff
    assert lhs != rhs


def test_advisory_checks_do_not_gate():
    report = run_verify(VerifyConfig(fixtures=("AFF_O1",), samples=2))
    assert any(r.advisory for r in report.results)
    assert report.passed
