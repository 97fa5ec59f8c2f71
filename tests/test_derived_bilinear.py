"""The derived bracket evaluated by bilinearity.

`derived_bracket_dual` sums the inner bracket {theta, v-flat} from the
per-basis values `theta_flat` caches, and `flat_cochain` sums stored basis
pairings. The oracles here compute both the way the paper writes them:
the flat slot by slot through the vector-level pairing
(`dense_reference.flat_cochain`), and -{{theta, v-flat}, w-flat} as two
plain brackets on a context that never holds a cached `theta_flat`.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import brackets
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import (derived_bracket, derived_bracket_dual, poisson, theta,
                                      theta_flat)
from leibniz_complex.cochains import ComplexContext, coboundary
from leibniz_complex.duality import flat_cochain
from leibniz_complex.verify import check_derived_bracket, check_theta_bracket

COORDS = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
FIXTURES = ("O1", "O2", "AFF_O1", "omni(2)")


def random_vectors(seed, dim, count):
    """Seeded vectors with zero, negative and fractional coordinates, plus
    the zero vector, a basis vector and a scaled basis vector."""
    rng = Random(seed)
    vectors = [tuple(rng.choice(COORDS) for _ in range(dim)) for _ in range(count)]
    return vectors + [(0,) * dim, basis_vec(dim, dim - 1),
                      tuple(Fraction(-1, 2) * c for c in basis_vec(dim, 0))]


def direct_dual(ctx, v, w):
    """-{{theta, v-flat}, w-flat} from two brackets of oracle flats."""
    inner = poisson(ctx, theta(ctx), dense.flat_cochain(ctx, v))
    return -poisson(ctx, inner, dense.flat_cochain(ctx, w))


@pytest.mark.parametrize("name", FIXTURES + ("A3",))
def test_flat_matches_the_pairing_per_slot(name):
    ctx = ComplexContext(build_fixture(name))
    for v in random_vectors(10, ctx.dim, 20):
        assert flat_cochain(ctx, v) == dense.flat_cochain(ctx, v), v
        assert dense.covector_values(ctx, flat_cochain(ctx, v)) == tuple(
            dense.flat_cochain(ctx, v).value(0, (j,), ()) for j in range(ctx.dim)), v


@pytest.mark.parametrize("seed, name", enumerate(FIXTURES, start=20))
def test_derived_bracket_dual_equals_the_direct_formula(seed, name):
    algebra = build_fixture(name)
    ctx, oracle = ComplexContext(algebra), ComplexContext(algebra)
    vectors = random_vectors(seed, ctx.dim, 6)
    for v, w in product(vectors, repeat=2):
        assert derived_bracket_dual(ctx, v, w) == direct_dual(oracle, v, w), (v, w)
    assert "theta_flat" not in oracle.cache


def test_theta_flat_is_computed_once_per_basis_index():
    ctx = ComplexContext(build_fixture("O1"))
    first = theta_flat(ctx, 1)
    assert theta_flat(ctx, 1) is first
    assert first == poisson(ctx, theta(ctx), flat_cochain(ctx, basis_vec(2, 1)))
    assert first == coboundary(ctx, flat_cochain(ctx, basis_vec(2, 1))).scale(-1)
    for outside in (-1, 2):
        with pytest.raises(IndexError):
            theta_flat(ctx, outside)


def count_poisson(monkeypatch):
    """Count the brackets taken through the `brackets` module."""
    calls = []
    inner = brackets.poisson

    def counted(ctx, omega, eta):
        calls.append(1)
        return inner(ctx, omega, eta)

    monkeypatch.setattr(brackets, "poisson", counted)
    return calls


def test_derived_bracket_table_takes_dim_plus_dim_squared_brackets(monkeypatch):
    algebra = build_fixture("O2")
    dim = algebra.dim
    ctx = ComplexContext(algebra)
    calls = count_poisson(monkeypatch)
    for i, j in product(range(dim), repeat=2):
        ei, ej = basis_vec(dim, i), basis_vec(dim, j)
        assert derived_bracket(ctx, ei, ej) == algebra.bracket(ei, ej), (i, j)
    assert len(calls) == dim + dim * dim
    assert sorted(ctx.cache["theta_flat"]) == list(range(dim))
    assert "theta_flat" not in ComplexContext(algebra).cache


def test_verify_checks_the_values_the_derived_bracket_reuses(monkeypatch):
    algebra = build_fixture("O2")
    dim = algebra.dim
    ctx = ComplexContext(algebra)
    calls = count_poisson(monkeypatch)
    assert check_theta_bracket(ctx, "O2", Random(0), 2).passed
    assert len(calls) == dim  # the samples' brackets go through verify's own name
    assert check_derived_bracket(ctx, "O2").passed
    assert len(calls) == dim + dim * dim
