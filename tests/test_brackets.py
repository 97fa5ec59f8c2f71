from fractions import Fraction
from itertools import product
from math import comb
from random import Random

import pytest

from dense_reference import ArityError, HomSym, circ_compose, pair_bracket
from leibniz_complex import cochains
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import (bullet, derived_bracket, derived_bracket_dual, diamond,
                                      poisson, theta, zeta)
from leibniz_complex.cochains import (MAX_SHUFFLES, Cochain, ComplexContext,
                                      ContextMismatchError, ShuffleBudgetError, coboundary, cup,
                                      validate_cochain)
from leibniz_complex.duality import (DualElement, ExtendedElement, flat, flat_cochain,
                                     is_representable)
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_representable

F = Fraction
Z1 = SymPoly.generator(1, 0)


def extended(ctx, vec):
    """The vector vec of L as an element of S(Z) (x) L with scalar coefficients."""
    return ExtendedElement(tuple(SymPoly.constant(ctx.zdim, c) for c in vec))


def const_ext(ctx, vec):
    return HomSym(0, lambda fs: extended(ctx, vec))


# -- the two ingredient operations (the oracle's defining formulas) -----------------


def test_pair_bracket_two_constants(o1):
    alpha = const_ext(o1, basis_vec(2, 0))
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)(()) == Z1  # (a, b) = b


def test_pair_bracket_with_zero(o1):
    alpha = HomSym(0, lambda fs: ExtendedElement.zero(o1))
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)(()).is_zero()


def test_pair_bracket_one_center_slot(o1):
    # alpha(f) = a constant in f, beta = b: single shuffle, (a, b) = b
    alpha = HomSym(1, lambda fs: extended(o1, basis_vec(2, 0)))
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)((0,)) == Z1


def test_circ_compose_single_term(o1):
    # gamma(f) = -(a, f), delta = (b, a) = b constant: gamma-check of b is -(a,b)
    gamma = HomSym(1, lambda fs: -o1.algebra.pairing_poly(
        basis_vec(2, 0), o1.algebra.z_basis[fs[0]]))
    delta = HomSym(0, lambda fs: Z1)
    assert circ_compose(o1, gamma, delta)(()) == -Z1


def test_circ_compose_with_zero(o1):
    gamma = HomSym(1, lambda fs: SymPoly.generator(1, fs[0]))
    delta = HomSym(0, lambda fs: SymPoly.zero(1))
    assert circ_compose(o1, gamma, delta)(()).is_zero()


def test_circ_compose_derivation_extension(o1):
    # gamma = identity on degree one, delta(f1,f2) = f1*f2:
    # feeding b^2 through the derivation gives 2b * gamma(b) = 2b^2
    gamma = HomSym(1, lambda fs: SymPoly.generator(1, fs[0]))
    delta = HomSym(2, lambda fs: SymPoly.generator(1, fs[0]) * SymPoly.generator(1, fs[1]))
    result = circ_compose(o1, gamma, delta)
    assert result.arity == 2
    assert result((0, 0)) == SymPoly.monomial(1, (0, 0), 2)


def test_circ_compose_arity_error(o1):
    gamma = HomSym(0, lambda fs: Z1)
    with pytest.raises(ArityError):
        circ_compose(o1, gamma, gamma)


# -- the canonical cochains ---------------------------------------------------------


def test_zeta_table_o1(o1):
    z = zeta(o1)
    assert z.value(0, (0, 1), ()) == Z1
    assert z.value(0, (1, 0), ()) == Z1
    assert z.value(0, (0, 0), ()).is_zero()
    assert z.value(1, (), (0,)) == SymPoly.monomial(1, (0,), -2)


def test_theta_table_o1(o1):
    t = theta(o1)
    assert t.value(0, (0, 1, 0), ()) == Z1          # (a.b, a) = b
    assert t.value(0, (0, 1, 1), ()).is_zero()
    assert t.value(1, (0,), (0,)) == -Z1            # -(a, b)
    assert t.value(1, (1,), (0,)).is_zero()


def test_theta_vanishes_on_abelian(a3):
    assert theta(a3).is_zero()
    assert coboundary(a3, zeta(a3)).is_zero()


def test_theta_equals_d_zeta_everywhere(contexts):
    for ctx in contexts.values():
        assert theta(ctx) == coboundary(ctx, zeta(ctx))
        assert coboundary(ctx, theta(ctx)).is_zero()


# -- bracket values against the hand computations -------------------------------------


def test_theta_bracket_with_flat_components(o1):
    # {theta, a-flat}_0(e2, e3) = (a.e2, e3); only (b, a) = b survives
    mu = poisson(o1, theta(o1), flat_cochain(o1, basis_vec(2, 0)))
    assert mu.degree == 2
    assert mu.value(0, (1, 0), ()) == Z1
    assert mu.value(0, (0, 1), ()).is_zero()
    assert mu.value(0, (0, 0), ()).is_zero()
    # {theta, a-flat}_1(f) = -(a, f)
    assert mu.value(1, (), (0,)) == -Z1


def test_theta_bracket_bullet_half(o1):
    # (theta bullet a-flat)_0(e2, e3) = (e2.e3, a) and the tail pairs the
    # lift of theta_1 against a: -(a, f)
    bl = bullet(o1, theta(o1), flat_cochain(o1, basis_vec(2, 0)))
    assert bl.components[0] == {((0, 1), ()): Z1}
    assert bl.components[1] == {((), (0,)): -Z1}


def test_theta_bracket_diamond_half(o1):
    # theta_1(e2) composed into a-flat(e3), antisymmetrized:
    # -(e2, (a, e3)) + (e3, (a, e2))
    dm = diamond(o1, theta(o1), flat_cochain(o1, basis_vec(2, 0)))
    assert dm.components[0] == {((0, 1), ()): -Z1, ((1, 0), ()): Z1}
    assert 1 not in dm.components


def test_bullet_and_diamond_split_for_flats(o1):
    # degree-1 operands have no higher components, so the diamond terms vanish
    fa = flat_cochain(o1, basis_vec(2, 0))
    fb = flat_cochain(o1, basis_vec(2, 1))
    assert diamond(o1, fa, fb).is_zero()
    assert diamond(o1, fb, fa).is_zero()
    assert bullet(o1, fa, fb) == poisson(o1, fa, fb)


def test_poisson_of_flats_is_the_pairing(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    fb = flat_cochain(o1, basis_vec(2, 1))
    result = poisson(o1, fa, fb)
    assert result == Cochain.constant(Z1)


def test_poisson_with_zero(o1):
    assert poisson(o1, theta(o1), Cochain.zero(1, 1)).is_zero()


def test_poisson_with_constant_is_minus_d(o1):
    # {theta, p} = -d p for degree-0 cochains
    p = Cochain.constant(Z1)
    assert poisson(o1, theta(o1), p) == coboundary(o1, p).scale(-1)


def test_theta_bracket_is_minus_d(o1, o2):
    rng = Random(1)
    for ctx in (o1, o2):
        for degree in (0, 1, 2):
            eta = random_representable(ctx, rng, degree)
            assert poisson(ctx, theta(ctx), eta) == coboundary(ctx, eta).scale(-1)


def test_theta_self_bracket_vanishes(o1, o2):
    for ctx in (o1, o2):
        assert poisson(ctx, theta(ctx), theta(ctx)).is_zero()


# -- derived brackets --------------------------------------------------------------


def test_derived_bracket_o1(o1):
    a, b = basis_vec(2, 0), basis_vec(2, 1)
    assert derived_bracket(o1, a, b) == b      # a.b = b
    assert derived_bracket(o1, b, a) == (F(0), F(0))
    assert derived_bracket(o1, a, a) == (F(0), F(0))


def test_derived_bracket_abelian(a3):
    for i, j in product(range(3), repeat=2):
        dual = derived_bracket(a3, basis_vec(3, i), basis_vec(3, j))
        assert isinstance(dual, DualElement) and all(v.is_zero() for v in dual.values)


def test_derived_bracket_dual_level_aff_o1(aff_o1):
    alg = aff_o1.algebra
    for i, j in product(range(4), repeat=2):
        ei, ej = basis_vec(4, i), basis_vec(4, j)
        dual = derived_bracket_dual(aff_o1, ei, ej)
        expected = flat(aff_o1, alg.bracket(ei, ej))
        assert dual == expected, (i, j)


def test_derived_bracket_all_pairs_o2(o2):
    alg = o2.algebra
    for i, j in product(range(6), repeat=2):
        ei, ej = basis_vec(6, i), basis_vec(6, j)
        assert derived_bracket(o2, ei, ej) == alg.bracket(ei, ej), (i, j)


# -- algebraic laws on random representable cochains -----------------------------------


def test_poisson_antisymmetry_samples(o1):
    rng = Random(2)
    for _ in range(10):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        omega = random_representable(o1, rng, n)
        eta = random_representable(o1, rng, m)
        sign = -1 if (n * m) % 2 else 1
        lhs = poisson(o1, omega, eta)
        rhs = poisson(o1, eta, omega).scale(-sign)
        assert lhs == rhs or (lhs.is_zero() and rhs.is_zero())


def test_poisson_jacobi_samples(o1):
    rng = Random(3)
    for _ in range(10):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        omega = random_representable(o1, rng, n)
        eta = random_representable(o1, rng, m)
        lam = random_representable(o1, rng, rng.randint(0, 2))
        sign = -1 if (n * m) % 2 else 1
        lhs = poisson(o1, omega, poisson(o1, eta, lam))
        rhs = poisson(o1, poisson(o1, omega, eta), lam) + \
            poisson(o1, eta, poisson(o1, omega, lam)).scale(sign)
        diff = lhs - rhs
        assert diff.is_zero()


def test_poisson_output_valid_and_representable(o1, o2):
    rng = Random(4)
    for ctx in (o1, o2):
        omega = random_representable(ctx, rng, 2)
        eta = random_representable(ctx, rng, 1)
        result = poisson(ctx, omega, eta)
        assert validate_cochain(ctx, result).ok
        assert is_representable(ctx, result).ok


def test_derived_bracket_on_omni3_spot_checks():
    alg = build_fixture("omni(3)")
    assert alg.zdim == 3 and alg.is_fat()
    ctx = ComplexContext(alg)
    assert coboundary(ctx, zeta(ctx)) == theta(ctx)
    for i, j in ((0, 9), (1, 10), (4, 0), (9, 9), (3, 7), (11, 2)):
        ei, ej = basis_vec(12, i), basis_vec(12, j)
        assert derived_bracket(ctx, ei, ej) == alg.bracket(ei, ej), (i, j)


def test_bracket_choice_independence_on_fat(algebras):
    # two different sections must give the same bracket on a fat algebra
    rng = Random(5)
    first = ComplexContext(algebras["O2"], pivot_strategy="first")
    last = ComplexContext(algebras["O2"], pivot_strategy="last")
    omega = random_representable(first, rng, 2)
    eta = random_representable(first, rng, 1)
    assert poisson(first, omega, eta) == poisson(last, omega, eta)


def test_products_check_the_shuffle_budget_of_stored_arguments(o1, monkeypatch):
    z, t, f = zeta(o1), theta(o1), flat_cochain(o1, basis_vec(2, 0))
    monkeypatch.setattr(cochains, "MAX_SHUFFLES", 3)
    cup(o1, z, f)  # argument tuples of lengths 2 and 1: C(3, 1) = 3 shuffles
    for over in (lambda: cup(o1, z, z), lambda: bullet(o1, t, t), lambda: diamond(o1, t, t),
                 lambda: poisson(o1, t, t), lambda: coboundary(o1, t)):
        with pytest.raises(ShuffleBudgetError, match="above the limit of 3"):
            over()


def test_shuffle_budget_counts_argument_tuples_not_degrees(o1):
    # degree 20 stored only at k = 10: no algebra arguments, one shuffle
    deep = Cochain(20, o1.zdim, {10: {((), (0,) * 10): SymPoly.constant(o1.zdim, 1)}})
    assert cup(o1, deep, deep).value(20, (), (0,) * 20) == SymPoly.constant(o1.zdim, comb(20, 10))
    wide = Cochain(20, o1.zdim, {0: {((0, 1) * 10, ()): SymPoly.constant(o1.zdim, 1)}})
    with pytest.raises(ShuffleBudgetError, match=str(MAX_SHUFFLES)):
        cup(o1, wide, wide)


# -- operands over another center ---------------------------------------------------


def test_bullet_rejects_operands_over_another_center(o1, o2):
    flat_o1 = flat_cochain(o1, basis_vec(2, 0))
    flat_o2 = flat_cochain(o2, basis_vec(6, 0))
    for omega, eta in ((flat_o1, flat_o2), (flat_o2, flat_o1), (flat_o1, flat_o1)):
        with pytest.raises(ContextMismatchError):
            bullet(o2, omega, eta)


def test_diamond_rejects_operands_over_another_center(o1, o2):
    for omega, eta in ((theta(o1), theta(o2)), (theta(o2), theta(o1))):
        with pytest.raises(ContextMismatchError):
            diamond(o2, omega, eta)


def test_poisson_rejects_operands_over_another_center(o1, o2):
    # flats of O1 are representable over O1, but O2 has a 2-dimensional center
    fa, fb = flat_cochain(o1, basis_vec(2, 0)), flat_cochain(o1, basis_vec(2, 1))
    with pytest.raises(ContextMismatchError):
        poisson(o2, fa, fb)
