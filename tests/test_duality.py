from fractions import Fraction
from random import Random

import pytest

import dense_reference as dense
from dense_reference import covector_values, phi, sparse, stored_prefixes
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import basis_flat, theta, zeta
from leibniz_complex import cochains, duality
from leibniz_complex.cochains import (Cochain, ComplexContext, ContextMismatchError,
                                      TableBudgetError, cochain_from_dict, cochain_space_basis,
                                      cochain_to_dict, cup, entries, validate_cochain)
from leibniz_complex.duality import (ExtendedElement, NotRepresentableError, PhiSection, bar,
                                     covector, flat_cochain, is_representable, phi_section,
                                     sharp, tilde_value)
from leibniz_complex.linalg import LinearSolver
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_poly, random_representable

F = Fraction
Z1 = SymPoly.generator(1, 0)


def zero_dual(ctx):
    return Cochain.zero(1, ctx.zdim)


def zero_ext(ctx):
    return ExtendedElement(tuple(SymPoly.zero(ctx.zdim) for _ in range(ctx.dim)))


def rendered(ctx, psi):
    return [v.render() for v in covector_values(ctx, psi)]


def test_phi_on_basis_element(o1):
    x = {0: SymPoly.constant(1, 1)}  # a
    values = covector_values(o1, phi(o1, x))
    assert values[0].is_zero()      # (a, a) = 0
    assert values[1] == Z1          # (a, b) = b


def test_phi_is_s_linear(o1):
    b2 = SymPoly.monomial(1, (0, 0))
    x = {0: b2, 1: SymPoly.zero(1)}  # b^2 (x) a
    values = covector_values(o1, phi(o1, x))
    assert values[1] == SymPoly.monomial(1, (0, 0, 0))  # b^3


def test_phi_zero(o1):
    assert phi(o1, sparse(zero_ext(o1))) == zero_dual(o1)


def test_flat_o1(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert rendered(o1, fa) == ["0", "z1"]
    fb = flat_cochain(o1, basis_vec(2, 1))
    assert rendered(o1, fb) == ["z1", "0"]


def test_flat_vanishes_on_abelian(a3):
    for i in range(3):
        assert flat_cochain(a3, basis_vec(3, i)) == zero_dual(a3)
        assert flat_cochain(a3, basis_vec(3, i)).is_zero()


def test_sharp_inverts_flat_on_fat(o1, o2):
    for ctx in (o1, o2):
        for i in range(ctx.dim):
            e = basis_vec(ctx.dim, i)
            lifted = sharp(ctx, flat_cochain(ctx, e))
            assert lifted.as_vector() == e


def test_sharp_of_zero(o1):
    assert sharp(o1, zero_dual(o1)) == zero_ext(o1)


def test_sharp_rejects_degree_zero_values(o1):
    psi = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    with pytest.raises(NotRepresentableError):
        sharp(o1, psi)


def test_sharp_checks_the_covector(o1, o2):
    # a covector over another center basis, and a cochain of another degree
    with pytest.raises(ContextMismatchError):
        sharp(o1, flat_cochain(o2, basis_vec(6, 0)))
    with pytest.raises(ValueError, match="only degree-1 cochains are covectors"):
        sharp(o1, theta(o1))


def test_phi_after_sharp_is_identity(o1, o2):
    for ctx in (o1, o2):
        for i in range(ctx.dim):
            psi = flat_cochain(ctx, basis_vec(ctx.dim, i))
            assert phi(ctx, sparse(sharp(ctx, psi))) == psi


def test_bar_of_theta_level_zero(o1):
    # e -> (a.b, e) = (b, e)
    psi = bar(o1, theta(o1), 0, (0, 1), ())
    assert psi.degree == 1 and rendered(o1, psi) == ["z1", "0"]


def test_bar_of_theta_level_one(o1):
    # e -> -(e, b)
    psi = bar(o1, theta(o1), 1, (), (0,))
    assert rendered(o1, psi) == ["-z1", "0"]


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


def test_representability_rejects_cochains_from_another_context(o1, o2, aff_o1):
    # Theta over O2 has two center generators, O1 one; the AFF_O1 flat has
    # O1's center size but stores an algebra index O1 lacks
    for omega in (theta(o2), flat_cochain(aff_o1, basis_vec(4, 2))):
        with pytest.raises(ContextMismatchError):
            is_representable(o1, omega)


def test_degree_zero_cochains_vacuously_representable(o1):
    assert is_representable(o1, Cochain.constant(Z1)).ok


def test_tilde_of_theta_is_the_product(o1):
    lift = tilde_value(o1, theta(o1), 0, (0, 1), ())
    assert lift == {1: SymPoly.constant(1, 1)}  # a.b = b, unique on a fat algebra


def test_tilde_of_flat(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert tilde_value(o1, fa, 0, (), ()) == {0: SymPoly.constant(1, 1)}


def test_tilde_of_zero(o1):
    assert tilde_value(o1, Cochain.zero(3, 1), 0, (0, 0), ()) == {}


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
            psi = flat_cochain(first, basis_vec(first.dim, i))
            assert sharp(first, psi) == sharp(last, psi)


def test_not_representable_error_from_tilde(aff_o1):
    omega = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    with pytest.raises(NotRepresentableError):
        tilde_value(aff_o1, omega, 0, (), ())


def test_mixed_degree_solve(o1):
    # psi with values in two symmetric degrees at once splits cleanly
    e = basis_vec(2, 0)
    psi_low = flat_cochain(o1, e)
    x_high = {0: SymPoly.monomial(1, (0,))}
    psi = psi_low + phi(o1, x_high)
    assert set(covector(psi)) == {1} and covector(psi)[1].degree() == 2  # z1 + z1^2
    lifted = sharp(o1, psi)
    assert phi(o1, sparse(lifted)) == psi


def test_covectors_have_one_type():
    for name in ("DualElement", "dual_from_cochain", "nonzero_values", "flat"):
        assert not hasattr(duality, name), name


def test_covector_reads_the_stored_values(o1):
    fa = flat_cochain(o1, basis_vec(2, 0))
    assert covector(fa) == {1: Z1}
    assert covector(zero_dual(o1)) == {}
    with pytest.raises(ValueError):
        covector(theta(o1))


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


# -- membership in Im(phi) by the cokernel functionals --------------------------------

MEMBERSHIP_FIXTURES = FIXTURES + ("omni(3)",)


def random_covectors(ctx, rng):
    """Seeded covectors: phi of random extended elements (members), the same
    plus a scalar part at one slot, random values (mostly non-members), and
    the bars of Theta."""
    out = []
    for _ in range(6):
        x = {i: random_poly(rng, ctx.zdim, max_degree=2) for i in range(ctx.dim)}
        member = phi(ctx, x)
        out.append(member)
        scalar = Cochain(1, ctx.zdim, {0: {((rng.randrange(ctx.dim),), ()): SymPoly.constant(
            ctx.zdim, rng.choice((1, -2)))}})
        out.append(member + scalar)
        out.append(Cochain(1, ctx.zdim, {0: {((j,), ()): random_poly(rng, ctx.zdim, max_degree=3)
                                             for j in range(ctx.dim)}}))
    t = theta(ctx)
    out += [bar(ctx, t, k, prefix, fs) for k, prefix, fs in stored_prefixes(t)][:20]
    return out


@pytest.mark.parametrize("name", MEMBERSHIP_FIXTURES)
@pytest.mark.parametrize("strategy", ("first", "last"))
def test_phi_membership_agrees_with_the_section(algebras, name, strategy):
    alg = algebras[name] if name in algebras else build_fixture(name)
    ctx = ComplexContext(alg, pivot_strategy=strategy)
    section = phi_section(ctx)
    rng = Random(f"{name}-{strategy}")
    seen = set()
    for psi in random_covectors(ctx, rng):
        x = section.solve(covector(psi))
        assert section.contains(covector(psi)) == (x is not None), psi
        if x is not None:
            assert phi(ctx, sparse(sharp(ctx, psi))) == psi
        seen.add(x is not None)
    assert seen == {True, False}


def test_membership_of_the_zero_covector_and_of_scalars(o1):
    section = phi_section(o1)
    assert section.contains({})
    assert not section.contains({0: SymPoly.constant(1, 1)})
    assert not section.contains({1: Z1 + SymPoly.constant(1, 3)})
    assert section.contains({1: Z1})  # the flat of a


# -- is_representable against the all-prefix walk, and its work -----------------------


def marked(ctx, omega):
    """omega, known valid over ctx's algebra (it must be valid)."""
    assert validate_cochain(ctx, omega).ok and omega._valid_over is ctx.algebra
    return omega


@pytest.mark.parametrize("name", FIXTURES)
def test_representable_on_known_valid_cochains(contexts, name):
    """Valid representable cochains (Theta, flats, samples), valid
    non-representable ones (basis cochains of degree 2 and 3), each known
    valid, and the same cochains rebuilt unmarked, as if loaded from a
    file: the report equals the walk over every prefix."""
    ctx = contexts[name]
    rng = Random(23)
    pool = [theta(ctx)] + [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]
    pool += [random_representable(ctx, rng, rng.randint(1, 3)) for _ in range(6)]
    pool += [omega for n in (2, 3) for omega in cochain_space_basis(ctx, n)]
    oks = set()
    for omega in pool:
        unmarked = cochain_from_dict(ctx, cochain_to_dict(omega))
        assert unmarked._valid_over is None
        oks.add(same_report(ctx, unmarked).ok)
        same_report(ctx, marked(ctx, omega))
    assert oks == {True, False}


@pytest.mark.parametrize("name", ("O1", "O2", "AFF_O1"))
def test_representable_on_invalid_cochains(contexts, name):
    ctx = contexts[name]
    rng = Random(31)
    invalid = 0
    for _ in range(20):
        omega = random_representable(ctx, rng, rng.randint(2, 3))
        k = rng.randint(0, omega.degree // 2)
        es = tuple(rng.randrange(ctx.dim) for _ in range(omega.degree - 2 * k))
        fs = tuple(sorted(rng.randrange(ctx.zdim) for _ in range(k)))
        bad = omega + Cochain(omega.degree, ctx.zdim,
                              {k: {(es, fs): random_poly(rng, ctx.zdim)}})
        if not validate_cochain(ctx, bad).ok:
            invalid += 1
            same_report(ctx, bad)
    assert invalid >= 10


def counted(monkeypatch, owner, name, record=lambda *args: args[1:]):
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args):
        calls.append(record(*args))
        return inner(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_is_representable_builds_no_preimage(contexts, monkeypatch):
    solves = counted(monkeypatch, PhiSection, "solve")
    row_solves = counted(monkeypatch, LinearSolver, "solve")
    for name in FIXTURES:
        ctx = contexts[name]
        for omega in [theta(ctx), zeta(ctx)] + cochain_space_basis(ctx, 2):
            is_representable(ctx, omega)
            is_representable(ctx, cochain_from_dict(ctx, cochain_to_dict(omega)))
    assert solves == [] and row_solves == []


def test_known_valid_cochains_are_tested_at_increasing_prefixes_only(monkeypatch):
    """On a cochain known valid, the membership test sees the bar covector of
    each strictly increasing stored prefix once, in key order, and no other;
    an unmarked copy has every stored prefix tested."""
    ctx = ComplexContext(build_fixture("O2"))
    members = counted(monkeypatch, PhiSection, "contains", lambda self, values: dict(values))
    rng = Random(3)
    pool = [theta(ctx), zeta(ctx), cup(ctx, theta(ctx), basis_flat(ctx, 1))]
    pool += [random_representable(ctx, rng, 3) for _ in range(3)]
    skipped = 0
    for omega in pool:
        omega = marked(ctx, omega)

        def bars(prefixes):
            return [{es[-1]: v for k, es, fs, v in entries(omega)
                     if es and (k, es[:-1], fs) == key} for key in prefixes]

        increasing = [key for key in stored_prefixes(omega)
                      if all(x < y for x, y in zip(key[1], key[1][1:]))]
        skipped += len(stored_prefixes(omega)) - len(increasing)
        del members[:]
        assert is_representable(ctx, omega).ok
        assert members == bars(increasing)
        del members[:]
        assert is_representable(ctx, cochain_from_dict(ctx, cochain_to_dict(omega))).ok
        assert members == bars(stored_prefixes(omega))
    assert skipped > 0


def test_phi_systems_are_built_within_the_table_budget(monkeypatch):
    """On omni(3), dim 12 and zdim 3, the value z1^d lands in phi's
    degree-(d - 1) system, C(d + 1, d - 1) * 12 columns: 12 for z1, 36
    for z1^2 and 241,200 for z1^200, which is refused before any row is
    built. A lowered budget holds for the systems built and kept before."""
    ctx = ComplexContext(build_fixture("omni(3)"))

    def power(d):
        return Cochain(1, ctx.zdim, {0: {((0,), ()): SymPoly.monomial(ctx.zdim, (0,) * d)}})

    with pytest.raises(TableBudgetError, match="241200 table entries, above the limit of 100000"):
        is_representable(ctx, power(200))
    for d in (1, 2):
        is_representable(ctx, power(d))
    monkeypatch.setattr(cochains, "MAX_TABLE", 12)
    is_representable(ctx, power(1))
    for d in (2, 3):
        with pytest.raises(TableBudgetError, match="above the limit of 12"):
            is_representable(ctx, power(d))
