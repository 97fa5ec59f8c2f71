from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb
from random import Random

import pytest

import dense_reference as dense
from dense_reference import (ArityError, HomSym, circ_compose, covector_values, pair_bracket,
                             pairing_poly)
from leibniz_complex import cochains
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import (basis_flat, bullet, derived_bracket, derived_bracket_dual,
                                      diamond, poisson, theta, zeta)
from leibniz_complex.cochains import (Cochain, ComplexContext, ContextMismatchError,
                                      InvalidCochainError, TableBudgetError, coboundary, cup,
                                      expand, free_part, validate_cochain)
from leibniz_complex.duality import NotRepresentableError, flat_cochain, is_representable
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_representable

F = Fraction
Z1 = SymPoly.generator(1, 0)


def extended(ctx, vec):
    """The vector vec of L as an element of S(Z) (x) L with scalar
    coefficients, {i: vec_i} over its nonzero coordinates."""
    return {i: SymPoly.constant(ctx.zdim, c) for i, c in enumerate(vec) if c != 0}


def const_ext(ctx, vec):
    return HomSym(0, lambda fs: extended(ctx, vec))


# -- the two ingredient operations (the oracle's defining formulas) -----------------


def test_pair_bracket_two_constants(o1):
    alpha = const_ext(o1, basis_vec(2, 0))
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)(()) == Z1  # (a, b) = b


def test_pair_bracket_with_zero(o1):
    alpha = HomSym(0, lambda fs: {0: SymPoly.zero(1), 1: SymPoly.zero(1)})
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)(()).is_zero()


def test_pair_bracket_one_center_slot(o1):
    # alpha(f) = a constant in f, beta = b: single shuffle, (a, b) = b
    alpha = HomSym(1, lambda fs: extended(o1, basis_vec(2, 0)))
    beta = const_ext(o1, basis_vec(2, 1))
    assert pair_bracket(o1, alpha, beta)((0,)) == Z1


def test_circ_compose_single_term(o1):
    # gamma(f) = -(a, f), delta = (b, a) = b constant: gamma-check of b is -(a,b)
    gamma = HomSym(1, lambda fs: -pairing_poly(
        o1.algebra, basis_vec(2, 0), o1.algebra.z_basis[fs[0]]))
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
    # -(e2, (a, e3)) + (e3, (a, e2)); the half keeps its free part, the
    # value -z1 at (a, b), and drops the value z1 at (b, a)
    dm = diamond(o1, theta(o1), flat_cochain(o1, basis_vec(2, 0)))
    assert dm.components[0] == {((0, 1), ()): -Z1}
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


@pytest.mark.parametrize("call", (
    lambda ctx: derived_bracket(ctx, (1,), (0, 1)),  # too short, not read as (1, 0)
    lambda ctx: derived_bracket(ctx, (0, 0), (0, 1, 5)),
    lambda ctx: derived_bracket_dual(ctx, (1, 0), (1,)),
    lambda ctx: flat_cochain(ctx, (1, 0, 7))))
def test_vectors_of_the_wrong_length_are_refused(o1, call):
    with pytest.raises(ValueError, match="in an algebra of dimension 2$"):
        call(o1)


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)"))
def test_theta_and_zeta_are_known_valid_when_built(name):
    ctx = ComplexContext(build_fixture(name))
    for omega in (zeta(ctx), theta(ctx)):
        assert omega._valid_over is ctx.algebra
        assert validate_cochain(ctx, omega).ok
    assert coboundary(ctx, zeta(ctx)) == theta(ctx)


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)"))
def test_theta_brackets_to_zero_with_itself(name):
    # {theta, theta} = 0 at every key. On O2 and omni(3) the halves are not
    # zero: bullet cancels the two diamonds. On the fixtures of dim <= 4
    # the dense bracket, built from the paper's formulas, agrees.
    ctx = ComplexContext(build_fixture(name))
    th = theta(ctx)
    bracket = poisson(ctx, th, th)
    assert bracket.degree == 4 and bracket == Cochain.zero(4, ctx.zdim)
    assert bracket.components == {}
    if name in ("O2", "omni(3)"):
        assert not bullet(ctx, th, th).is_zero() and not diamond(ctx, th, th).is_zero()
    if ctx.dim <= 4:
        assert dense.poisson(ctx, th, th).components == {}


def test_derived_bracket_abelian(a3):
    for i, j in product(range(3), repeat=2):
        dual = derived_bracket(a3, basis_vec(3, i), basis_vec(3, j))
        assert isinstance(dual, Cochain) and dual.degree == 1
        assert all(v.is_zero() for v in covector_values(a3, dual))


def test_derived_bracket_dual_level_aff_o1(aff_o1):
    alg = aff_o1.algebra
    for i, j in product(range(4), repeat=2):
        ei, ej = basis_vec(4, i), basis_vec(4, j)
        dual = derived_bracket_dual(aff_o1, ei, ej)
        expected = flat_cochain(aff_o1, alg.bracket(ei, ej))
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


def test_products_check_the_table_budget_of_their_sparse_walks(monkeypatch):
    """On O1, d(zeta) = Theta and {Theta, zeta} expand the free datum
    (1, (0,), (0,)), whose walk visits 3 keys: the key itself and the 2
    keys at k = 0 that can be nonzero. d also walks zeta's own free keys,
    (0, (0, 1), ()) and (1, (), (0,)), 2 keys each, for their free parts
    of d (`cochains._free_boundary`). zeta . e_0-flat expands
    (1, (1,), (0,)), a walk of 2 keys, and zeta . zeta walks 5. At the
    default budget an expansion walks nothing: its keys' walk bounds (7
    for each key above) sum to far less. The bracket halves expand
    nothing; they pair 4, 2 and 1 operand entries, and phi's systems on O1
    have 2 columns. So each op runs at the largest table it builds and
    raises one below it, and each expansion raises at its walk."""
    o1 = ComplexContext(build_fixture("O1"))
    z, t, f = zeta(o1), theta(o1), flat_cochain(o1, basis_vec(2, 0))
    # (op, its operands, the sizes of its walks, its output's walk, its
    # largest table)
    ops = ((coboundary, (z,), {2}, 3, 3), (cup, (z, f), set(), 2, 2),
           (poisson, (t, z), set(), 3, 4), (bullet, (t, z), set(), None, 4),
           (diamond, (t, z), set(), None, 2), (diamond, (z, t), set(), None, 1))
    outs = []
    for op, args, walks, _, _ in ops:
        fresh = ComplexContext(o1.algebra)
        outs.append(op(fresh, *args))
        assert {count for count, _ in fresh.cache.get("free_datum", {}).values()} == walks
    for (op, args, _, walk, largest), out in zip(ops, outs):
        monkeypatch.setattr(cochains, "MAX_TABLE", largest)
        assert op(o1, *args) == out
        monkeypatch.setattr(cochains, "MAX_TABLE", largest - 1)
        with pytest.raises(TableBudgetError, match=f"above the limit of {largest - 1}"):
            op(o1, *args)
        if walk:
            free = free_part(out)
            monkeypatch.setattr(cochains, "MAX_TABLE", walk - 1)
            with pytest.raises(TableBudgetError,
                               match=f"free-datum walk .* above the limit of {walk - 1}"):
                expand(o1, out.degree, free)
            monkeypatch.setattr(cochains, "MAX_TABLE", walk)
            assert expand(o1, out.degree, free) == out
    monkeypatch.setattr(cochains, "MAX_TABLE", 4)
    with pytest.raises(TableBudgetError, match="free-datum walk .* above the limit of 4"):
        cup(o1, z, z)


def test_table_budget_counts_walked_keys_not_degrees(a3):
    # degree 20 stored only at k = 10: no algebra arguments, a walk of one
    # key; a cochain on A3, where every pairing is zero, but not on O1
    # (k = 9 fails)
    deep = Cochain(20, a3.zdim, {10: {((), (0,) * 10): SymPoly.constant(a3.zdim, 1)}})
    assert cup(a3, deep, deep).value(20, (), (0,) * 20) == SymPoly.constant(a3.zdim, comb(20, 10))
    # valid omni(3) cochains of degrees 4 and 5 with disjoint supports, 24
    # and 120 entries: their product's free datum walks 9! = 362,880 keys
    ctx = ComplexContext(build_fixture("omni(3)"))
    one = SymPoly.constant(ctx.zdim, 1)
    left = expand(ctx, 4, Cochain(4, ctx.zdim, {0: {((0, 1, 2, 3), ()): one}}))
    right = expand(ctx, 5, Cochain(5, ctx.zdim, {0: {((4, 5, 6, 7, 8), ()): one}}))
    with pytest.raises(TableBudgetError, match="362880 table entries, above the limit of 100000"):
        cup(ctx, left, right)


def all_ones(ctx, degree):
    """The valid scalar cochain with value 1 at every free key of degree n."""
    one = SymPoly.constant(ctx.zdim, 1)
    free = {}
    for k in range(degree // 2 + 1):
        for es in combinations(range(ctx.dim), degree - 2 * k):
            for fs in combinations_with_replacement(range(ctx.zdim), k):
                free.setdefault(k, {})[(es, fs)] = one
    return expand(ctx, degree, Cochain(degree, ctx.zdim, free))


def test_table_budget_bounds_the_size_of_a_product():
    """The degree-2 all-ones cochain times itself: on omni(4) (194 free
    entries, 384 stored) its free part has 37,636 pairs, and its expansion
    sums 150,226 entries of free-datum cochains into 111,138; on omni(5)
    (440 free entries) the 193,600 pairs are refused before any merge."""
    for name, what in (("omni(4)", "an expansion needs 150226"),
                       ("omni(5)", "a pairing of two operands needs 193600")):
        ctx = ComplexContext(build_fixture(name))
        omega = all_ones(ctx, 2)
        with pytest.raises(TableBudgetError, match=f"{what} table entries, above the limit "
                                                   "of 100000"):
            cup(ctx, omega, omega)


# -- operands that are not valid or not representable --------------------------------


def product_less_one_entry(ctx):
    """a-flat cup b-flat less its value at the non-free key (b, a): still
    representable, no longer weakly skew-symmetric."""
    product = cup(ctx, flat_cochain(ctx, basis_vec(2, 0)), flat_cochain(ctx, basis_vec(2, 1)))
    table = dict(product.components[0])
    del table[((1, 0), ())]
    return Cochain(2, ctx.zdim, {0: table})


def test_poisson_rejects_invalid_operands(o1):
    bad = product_less_one_entry(o1)
    assert is_representable(o1, bad).ok and not validate_cochain(o1, bad).ok
    for omega, eta in ((bad, basis_flat(o1, 0)), (theta(o1), bad), (bad, bad)):
        for op in (poisson, cup):
            with pytest.raises(InvalidCochainError):
                op(o1, omega, eta)


def test_poisson_rejects_non_representable_operands(aff_o1):
    # valid (degree 1), but a scalar covector is not in the image of phi
    bad = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    assert validate_cochain(aff_o1, bad).ok and not is_representable(aff_o1, bad).ok
    for omega, eta in ((bad, basis_flat(aff_o1, 2)), (theta(aff_o1), bad)):
        with pytest.raises(NotRepresentableError):
            poisson(aff_o1, omega, eta)


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


def test_bracket_halves_reject_indices_outside_the_algebra(o1, aff_o1):
    # an AFF_O1 flat over O1: the same center size, an algebra index 3 >= 2
    omega = flat_cochain(aff_o1, basis_vec(4, 2))
    fa = flat_cochain(o1, basis_vec(2, 0))
    for op in (bullet, diamond, poisson):
        for pair in ((omega, fa), (fa, omega), (omega, omega)):
            with pytest.raises(ContextMismatchError):
                op(o1, *pair)


def test_bracket_halves_reject_center_indices_outside_the_center(o1):
    omega = Cochain(3, 1, {1: {((0,), (1,)): SymPoly.constant(1, 1)}})
    for op in (bullet, diamond, poisson):
        with pytest.raises(ContextMismatchError):
            op(o1, theta(o1), omega)
