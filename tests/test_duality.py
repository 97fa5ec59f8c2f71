from fractions import Fraction
from random import Random

import pytest

import dense_reference as dense
from dense_reference import phi
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import theta, zeta
from leibniz_complex.cochains import Cochain, ComplexContext, cochain_space_basis
from leibniz_complex.duality import (DualElement, ExtendedElement, NotRepresentableError,
                                     bar, dual_from_cochain, flat, flat_cochain,
                                     is_representable, phi_section, sharp, tilde_value)
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_poly, random_representable

F = Fraction
Z1 = SymPoly.generator(1, 0)


def zero_dual(ctx):
    return DualElement(tuple(SymPoly.zero(ctx.zdim) for _ in range(ctx.dim)))


def test_phi_on_basis_element(o1):
    x = ExtendedElement((SymPoly.constant(1, 1), SymPoly.zero(1)))  # a
    psi = phi(o1, x)
    assert psi.values[0].is_zero()      # (a, a) = 0
    assert psi.values[1] == Z1          # (a, b) = b


def test_phi_is_s_linear(o1):
    b2 = SymPoly.monomial(1, (0, 0))
    x = ExtendedElement((b2, SymPoly.zero(1)))  # b^2 (x) a
    psi = phi(o1, x)
    assert psi.values[1] == SymPoly.monomial(1, (0, 0, 0))  # b^3


def test_phi_zero(o1):
    assert phi(o1, ExtendedElement.zero(o1)) == zero_dual(o1)


def test_flat_o1(o1):
    fa = flat(o1, basis_vec(2, 0))
    assert [v.render() for v in fa.values] == ["0", "z1"]
    fb = flat(o1, basis_vec(2, 1))
    assert [v.render() for v in fb.values] == ["z1", "0"]


def test_flat_vanishes_on_abelian(a3):
    for i in range(3):
        assert flat(a3, basis_vec(3, i)) == zero_dual(a3)
        assert flat_cochain(a3, basis_vec(3, i)).is_zero()


def test_sharp_inverts_flat_on_fat(o1, o2):
    for ctx in (o1, o2):
        for i in range(ctx.dim):
            e = basis_vec(ctx.dim, i)
            lifted = sharp(ctx, flat(ctx, e))
            assert lifted.as_vector() == e


def test_sharp_of_zero(o1):
    assert sharp(o1, zero_dual(o1)) == ExtendedElement.zero(o1)


def test_sharp_rejects_degree_zero_values(o1):
    psi = DualElement((SymPoly.constant(1, 1), SymPoly.zero(1)))
    with pytest.raises(NotRepresentableError):
        sharp(o1, psi)


def test_phi_after_sharp_is_identity(o1, o2):
    for ctx in (o1, o2):
        section = phi_section(ctx)
        for i in range(ctx.dim):
            psi = flat(ctx, basis_vec(ctx.dim, i))
            assert phi(ctx, section.solve(psi)) == psi


def test_bar_of_theta_level_zero(o1):
    # e -> (a.b, e) = (b, e)
    psi = bar(o1, theta(o1), 0, (0, 1), ())
    assert [v.render() for v in psi.values] == ["z1", "0"]


def test_bar_of_theta_level_one(o1):
    # e -> -(e, b)
    psi = bar(o1, theta(o1), 1, (), (0,))
    assert [v.render() for v in psi.values] == ["-z1", "0"]


def test_bar_of_zero_component(o1):
    omega = Cochain.zero(2, 1)
    assert bar(o1, omega, 0, (0,), ()) == zero_dual(o1)


def test_bar_arity_checks(o1):
    with pytest.raises(ValueError):
        bar(o1, theta(o1), 0, (0,), ())  # needs a length-2 prefix
    with pytest.raises(ValueError):
        bar(o1, Cochain.constant(Z1), 0, (), ())  # no open slot on degree 0


def test_flats_are_representable(o1, o2, a3, aff_o1):
    for ctx in (o1, o2, a3, aff_o1):
        for i in range(ctx.dim):
            assert is_representable(ctx, flat_cochain(ctx, basis_vec(ctx.dim, i))).ok


def test_theta_is_representable(o1, o2, aff_o1):
    for ctx in (o1, o2, aff_o1):
        assert is_representable(ctx, theta(ctx)).ok


def test_constant_covector_not_representable(aff_o1):
    # x -> 1 on the first Lie-block generator: scalar values cannot arise from phi
    omega = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    report = is_representable(aff_o1, omega)
    assert not report.ok
    assert report.failures[0][0] == 0


def test_degree_zero_cochains_vacuously_representable(o1):
    assert is_representable(o1, Cochain.constant(Z1)).ok


def test_tilde_of_theta_is_the_product(o1):
    lift = tilde_value(o1, theta(o1), 0, (0, 1), ())
    assert lift.as_vector() == basis_vec(2, 1)  # a.b = b, unique on a fat algebra


def test_tilde_of_flat(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert tilde_value(o1, fa, 0, (), ()).as_vector() == basis_vec(2, 0)


def test_tilde_of_zero(o1):
    assert tilde_value(o1, Cochain.zero(3, 1), 0, (0, 0), ()) == ExtendedElement.zero(o1)


def test_tilde_at_level_one_reproduces_the_bar_covector(o1):
    x = tilde_value(o1, theta(o1), 1, (), (0,))
    # phi(x) must reproduce the bar covector exactly
    assert phi(o1, x) == bar(o1, theta(o1), 1, (), (0,))


def test_phi_tilde_equals_bar_everywhere(o2):
    t = theta(o2)
    for i in range(6):
        for j in range(6):
            psi = bar(o2, t, 0, (i, j), ())
            assert phi(o2, tilde_value(o2, t, 0, (i, j), ())) == psi


def test_section_unique_on_fat_degree_one(algebras):
    for name in ("O1", "O2"):
        first = ComplexContext(algebras[name], pivot_strategy="first")
        last = ComplexContext(algebras[name], pivot_strategy="last")
        for i in range(first.dim):
            psi = flat(first, basis_vec(first.dim, i))
            assert sharp(first, psi) == sharp(last, psi)


def test_not_representable_error_from_tilde(aff_o1):
    omega = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    with pytest.raises(NotRepresentableError):
        tilde_value(aff_o1, omega, 0, (), ())


def test_mixed_degree_solve(o1):
    # psi with values in two symmetric degrees at once splits cleanly
    e = basis_vec(2, 0)
    psi_low = flat(o1, e)
    x_high = ExtendedElement((SymPoly.monomial(1, (0,)), SymPoly.zero(1)))
    psi = DualElement(tuple(a + b for a, b in zip(psi_low.values, phi(o1, x_high).values)))
    lifted = sharp(o1, psi)
    assert phi(o1, lifted) == psi


def test_dual_from_cochain_roundtrip(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert dual_from_cochain(o1, fa) == flat(o1, basis_vec(2, 0))
    with pytest.raises(ValueError):
        dual_from_cochain(o1, theta(o1))


# -- the stored-prefix walk against the dense reference ----------------------------

FIXTURES = ("A3", "O1", "O2", "AFF_O1")


def same_report(ctx, omega):
    """is_representable and the dense walk over every prefix agree exactly."""
    got, expected = is_representable(ctx, omega), dense.is_representable(ctx, omega)
    assert (got.ok, got.failures) == (expected.ok, expected.failures), omega
    return got


@pytest.mark.parametrize("name", FIXTURES + ("omni(3)",))
def test_representable_on_basis_cochains(contexts, name):
    ctx = ComplexContext(build_fixture(name)) if name == "omni(3)" else contexts[name]
    reports = [same_report(ctx, omega)
               for n in range(3 if name == "omni(3)" else 4)
               for omega in cochain_space_basis(ctx, n)]
    assert {r.ok for r in reports} == {True, False}


@pytest.mark.parametrize("name", FIXTURES)
def test_representable_on_canonical_and_random_cochains(contexts, name):
    ctx = contexts[name]
    for omega in [theta(ctx), zeta(ctx)] + [flat_cochain(ctx, basis_vec(ctx.dim, i))
                                            for i in range(ctx.dim)]:
        same_report(ctx, omega)
    rng = Random(5)
    for _ in range(8):
        assert same_report(ctx, random_representable(ctx, rng, rng.randint(0, 3))).ok


@pytest.mark.parametrize("name", ("O1", "O2", "AFF_O1"))
def test_representable_on_single_entry_tables(contexts, name):
    ctx = contexts[name]
    rng = Random(17)
    for _ in range(40):
        degree = rng.randint(1, 4)
        k = rng.randint(0, degree // 2)
        es = tuple(rng.randrange(ctx.dim) for _ in range(degree - 2 * k))
        fs = tuple(sorted(rng.randrange(ctx.zdim) for _ in range(k)))
        same_report(ctx, Cochain(degree, ctx.zdim, {k: {(es, fs): random_poly(rng, ctx.zdim)}}))


def test_non_representable_on_aff_o1(aff_o1):
    one = SymPoly.constant(1, 1)
    for omega in (Cochain(1, 1, {0: {((0,), ()): one, ((2,), ()): one}}),
                  Cochain(2, 1, {0: {((1, 0), ()): one, ((3, 2), ()): Z1}, 1: {((), (0,)): one}}),
                  theta(aff_o1) + Cochain(3, 1, {1: {((0,), (0,)): Z1}})):
        assert not same_report(aff_o1, omega).ok
