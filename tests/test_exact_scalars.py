"""Every exact scalar the package stores is canonical: an int when its value
is whole, a Fraction only when its denominator exceeds 1, and never a
float. int and Fraction compare and hash alike, so this is a statement
about cost, not about values; these tests pin it down layer by layer."""

from fractions import Fraction
from random import Random

import pytest

from leibniz_complex.algebra import algebra_from_dict, basis_vec, build_fixture, vec_scale
from leibniz_complex.brackets import poisson, theta, zeta
from leibniz_complex.cochains import (ComplexContext, coboundary, cochain_space_basis, cup,
                                      entries)
from leibniz_complex.duality import flat_cochain
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_representable

# fixture -> the highest degree of `cochain_space_basis` checked; the bundled
# ones are the degrees the space-basis benchmark workload builds
BASIS_DEGREES = {"A3": 5, "O1": 6, "AFF_O1": 4, "O2": 3, "omni(3)": 2, "SCALED": 3}

# a.b = 3/2 b, a.c = -1/3 c: its pairings, and so theta, zeta and the flats,
# have coefficients that are not whole
SCALED = {"dim": 3, "basis": ["a", "b", "c"], "brackets": [
    {"i": 0, "j": 1, "coeffs": ["0", "3/2", "0"]},
    {"i": 0, "j": 2, "coeffs": ["0", "0", "-1/3"]}]}


def canonical(value):
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def poly_scalars(poly):
    return [c for _, c in poly.items()]


def cochain_scalars(omega):
    return [c for _, _, _, value in entries(omega) for c in poly_scalars(value)]


def build(name):
    return algebra_from_dict(SCALED) if name == "SCALED" else build_fixture(name)


def algebra_scalars(alg):
    """Structure constants, Z-basis, pairing kernel, both indexes, the
    stored pairings and the stored action of each basis element on Z."""
    dims = range(alg.dim)
    yield "table", [c for row in alg.table for entry in row for c in entry]
    yield "z_basis", [c for v in alg.z_basis for c in v]
    yield "kernel_basis", [c for v in alg.kernel_basis for c in v]
    yield "product_index", [c for per_t in alg.product_index for _, _, c in per_t]
    yield "pairing_index", [c for per_r in alg.pairing_index for _, _, c in per_r]
    yield "pairings", [c for i in dims for j in dims
                       for c in poly_scalars(alg.pairing_poly_basis(i, j))]
    yield "rho_base", [c for base in alg._rho_base if base for poly in base
                       for c in poly_scalars(poly)]


def cochains_of(ctx, max_degree):
    """theta, zeta, the basis flats, the valid-cochain bases up to
    max_degree, d of all of these, and products and brackets of them."""
    flats = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]
    bases = [v for n in range(max_degree + 1) for v in cochain_space_basis(ctx, n)]
    yield "theta", [theta(ctx)]
    yield "zeta", [zeta(ctx)]
    yield "flats", flats
    yield "basis", bases
    yield "d", [coboundary(ctx, omega) for omega in bases + flats + [theta(ctx), zeta(ctx)]]
    yield "cup", [cup(ctx, omega, flat) for omega in bases for flat in flats[:2]] + \
        [cup(ctx, zeta(ctx), theta(ctx))] + [cup(ctx, f, g) for f in flats for g in flats]
    yield "poisson", [poisson(ctx, theta(ctx), flat) for flat in flats] + \
        [poisson(ctx, f, g) for f in flats for g in flats]


@pytest.mark.parametrize("name", sorted(BASIS_DEGREES))
def test_every_stored_scalar_is_canonical(name):
    alg = build(name)
    ctx = ComplexContext(alg)
    seen = []
    for where, values in algebra_scalars(alg):
        assert all(canonical(c) for c in values), (where, [c for c in values if not canonical(c)])
        seen += values
    for where, cochains in cochains_of(ctx, BASIS_DEGREES[name]):
        values = [c for omega in cochains for c in cochain_scalars(omega)]
        assert all(canonical(c) for c in values), (where, [c for c in values if not canonical(c)])
        seen += values
    assert any(c != 0 for c in seen)
    if name == "SCALED":  # the Fraction branch of the invariant is exercised too
        assert any(type(c) is Fraction for c in seen)


def test_random_cochains_and_their_brackets_are_canonical(contexts):
    ctx = contexts["O1"]
    rng = Random(13)
    for _ in range(20):
        omega = random_representable(ctx, rng, rng.randint(0, 2))
        eta = random_representable(ctx, rng, rng.randint(0, 2))
        for result in (omega, coboundary(ctx, omega), cup(ctx, omega, eta),
                       poisson(ctx, omega, eta)):
            assert all(canonical(c) for c in cochain_scalars(result))


def test_float_scale_factor_is_rejected_by_sympoly():
    with pytest.raises(TypeError):
        SymPoly.constant(1, 1).scale(0.1)


def test_float_scale_factor_is_rejected_by_cochain(o1):
    with pytest.raises(TypeError):
        zeta(o1).scale(0.1)
    assert zeta(o1).scale(Fraction(4, 2)) == zeta(o1).scale(2)


def test_float_scale_factor_is_rejected_by_vec_scale():
    with pytest.raises(TypeError):
        vec_scale((1, 2), 0.5)
    assert vec_scale((1, 2), Fraction(1, 2)) == (Fraction(1, 2), 1)
    assert all(type(c) is int for c in vec_scale((Fraction(1, 2), 2), 2))

