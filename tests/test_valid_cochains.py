"""The valid-cochain layer against the dense reference.

`cochain_space_basis` builds the valid cochains from their free data and
`validate_cochain` tests only the weak skew-symmetry equations that
stored entries touch; `dense_reference` builds the full constraint matrix
and walks every equation. Both are exact, so bases and reports must agree
entry for entry. `expand` rebuilds a valid cochain from its values at the
free keys, and only a valid one.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, factorial
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import cochains, verify
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import poisson, theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, ContextMismatchError,
                                      InvalidCochainError, coboundary, cochain_space_basis,
                                      cochain_to_dict, cup, expand, free_part,
                                      validate_cochain)
from leibniz_complex.duality import flat_cochain, is_representable
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import (check_d_squared, d0_sign_mutant, random_poly,
                                    random_representable)

# fixture -> top degree, as in the space-basis benchmark workload
DEGREES = {"A3": 5, "O1": 6, "AFF_O1": 4, "O2": 3, "omni(3)": 2}


@pytest.fixture(scope="module")
def ctxs():
    return {name: ComplexContext(build_fixture(name)) for name in DEGREES}


def free_data_count(ctx, degree):
    """sum_k C(dim, n-2k) C(zdim+k-1, k): the number of keys (k, es, fs)
    with es strictly increasing, the dimension of the valid cochains."""
    return sum(comb(ctx.dim, degree - 2 * k) * comb(ctx.zdim + k - 1, k)
               for k in range(degree // 2 + 1))


def entry_count(cochains):
    return sum(len(table) for omega in cochains for table in omega.components.values())


def same_report(ctx, omega):
    """validate_cochain and the walk over every equation agree exactly."""
    got, expected = validate_cochain(ctx, omega), dense.validate_cochain(ctx, omega)
    assert (got.ok, got.violations) == (expected.ok, expected.violations), omega
    return got


def random_key(rng, ctx, degree):
    k = rng.randint(0, degree // 2)
    es = tuple(rng.randrange(ctx.dim) for _ in range(degree - 2 * k))
    return k, es, tuple(sorted(rng.randrange(ctx.zdim) for _ in range(k)))


# -- the basis -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(DEGREES))
def test_basis_equals_the_dense_kernel_basis(ctxs, name):
    ctx = ctxs[name]
    for n in range(DEGREES[name] + 1):
        basis = cochain_space_basis(ctx, n)
        expected = dense.cochain_space_basis(ctx, n)
        assert basis == expected
        assert [cochain_to_dict(b) for b in basis] == [cochain_to_dict(b) for b in expected]
        assert len(basis) == free_data_count(ctx, n)
        for omega in basis:
            assert same_report(ctx, omega).ok


def test_basis_dimension_on_omni4():
    ctx = ComplexContext(build_fixture("omni(4)"))
    for n in range(4):
        basis = cochain_space_basis(ctx, n)
        assert len(basis) == free_data_count(ctx, n)
        assert all(validate_cochain(ctx, omega).ok for omega in basis)


def test_basis_work_follows_the_output(monkeypatch):
    # every key the free-data walk evaluates looks up one pairing; walking
    # all 20^3 level-0 keys for each of the 1220 vectors would take millions
    ctx = ComplexContext(build_fixture("omni(4)"))
    lookup = ctx.algebra.pairing_poly_basis
    calls = []

    def counting(i, j):
        calls.append((i, j))
        return lookup(i, j)

    monkeypatch.setattr(ctx.algebra, "pairing_poly_basis", counting)
    basis = cochain_space_basis(ctx, 3)
    assert len(basis) == 1220
    assert len(calls) <= entry_count(basis)  # 1536 evaluations, 8296 entries


# -- validation ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(DEGREES))
def test_reports_on_theta_and_zeta(ctxs, name):
    ctx = ctxs[name]
    for omega in (theta(ctx), zeta(ctx)):
        assert same_report(ctx, omega).ok


def test_validating_valid_cochains_builds_no_polynomial(monkeypatch):
    # each equation is a residual summed from stored coefficients; a valid
    # cochain needs no value lookup and no SymPoly arithmetic to pass
    ctx = ComplexContext(build_fixture("omni(4)"))
    cochains = [theta(ctx), zeta(ctx)] + Random(29).sample(cochain_space_basis(ctx, 3), 40)
    calls = Counter()
    for owner, name in ((Cochain, "value"), (SymPoly, "__add__"), (SymPoly, "scale")):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    assert all(validate_cochain(ctx, omega).ok for omega in cochains)
    assert not calls, calls


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1"))
def test_reports_on_single_entry_cochains(ctxs, name):
    ctx = ctxs[name]
    rng = Random(19)
    outcomes = set()
    for _ in range(40):
        degree = rng.randint(1, 4)
        k, es, fs = random_key(rng, ctx, degree)
        omega = Cochain(degree, ctx.zdim, {k: {(es, fs): random_poly(rng, ctx.zdim)}})
        outcomes.add(same_report(ctx, omega).ok)
    assert False in outcomes


@pytest.mark.parametrize("name", list(DEGREES))
def test_reports_on_perturbed_cochains(ctxs, name):
    # S(Z)-combinations of basis cochains are valid; one more entry at a
    # random key, or a stored entry changed, usually breaks validity
    ctx = ctxs[name]
    rng = Random(23)
    outcomes = set()
    for n in range(2, min(DEGREES[name], 4) + 1):
        basis = cochain_space_basis(ctx, n)
        for _ in range(8):
            valid = Cochain.zero(n, ctx.zdim)
            for omega in rng.sample(basis, min(3, len(basis))):
                poly = random_poly(rng, ctx.zdim)
                valid = valid + Cochain(n, ctx.zdim, {
                    k: {key: value * poly for key, value in table.items()}
                    for k, table in omega.components.items()})
            assert same_report(ctx, valid).ok
            k, es, fs = random_key(rng, ctx, n)
            if valid.components and rng.random() < 0.5:
                k = rng.choice(sorted(valid.components))
                es, fs = rng.choice(sorted(valid.components[k]))
            bump = Cochain(n, ctx.zdim, {k: {(es, fs): random_poly(rng, ctx.zdim)}})
            outcomes.add(same_report(ctx, valid + bump).ok)
    assert False in outcomes


# -- expansion from free keys ------------------------------------------------------


@pytest.mark.parametrize("name", list(DEGREES))
def test_valid_cochains_are_the_expansion_of_their_free_part(ctxs, name):
    ctx = ctxs[name]
    rng = Random(31)
    # times 1 + z_1 + ... + z_N: still valid, and no longer scalar-valued
    factor = Cochain.constant(sum((SymPoly.generator(ctx.zdim, r) for r in range(ctx.zdim)),
                                  SymPoly.constant(ctx.zdim, 1)))
    cochains = [theta(ctx), zeta(ctx)]
    cochains += [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]
    cochains += [random_representable(ctx, rng, rng.randint(0, 2)) for _ in range(6)]
    for n in range(min(DEGREES[name], 3) + 1):
        for omega in cochain_space_basis(ctx, n):
            cochains += [omega, cup(ctx, factor, omega)]
    for omega in cochains:
        assert expand(ctx, omega.degree, free_part(omega)) == omega, omega


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1"))
def test_only_valid_single_entry_cochains_expand_back(ctxs, name):
    # an expansion is valid, so an invalid cochain is never one
    ctx = ctxs[name]
    rng = Random(37)
    outcomes = set()
    for _ in range(40):
        degree = rng.randint(1, 4)
        k, es, fs = random_key(rng, ctx, degree)
        omega = Cochain(degree, ctx.zdim, {k: {(es, fs): random_poly(rng, ctx.zdim)}})
        valid = same_report(ctx, omega).ok
        assert (expand(ctx, degree, free_part(omega)) == omega) == valid, omega
        outcomes.add(valid)
    assert False in outcomes
    with pytest.raises(ValueError, match="not a free key"):
        expand(ctx, 2, Cochain(2, ctx.zdim, {0: {((1, 0), ()): SymPoly.constant(ctx.zdim, 1)}}))


# -- the free-datum walk ----------------------------------------------------------

# fixture -> top degree of the free keys whose tables the walk over every
# ordering must match
WALK_DEGREES = {"A3": 7, "O1": 12, "AFF_O1": 12, "O2": 7, "omni(3)": 4}


def free_keys(ctx, degree):
    """Every free key (k, es, fs) of degree n: es strictly increasing."""
    for k in range(degree // 2 + 1):
        for es in combinations(range(ctx.dim), degree - 2 * k):
            for fs in combinations_with_replacement(range(ctx.zdim), k):
                yield k, es, fs


@pytest.mark.parametrize("name", list(WALK_DEGREES))
def test_free_datum_tables_equal_the_walk_over_every_ordering(name):
    ctx = ComplexContext(build_fixture(name))
    for n in range(WALK_DEGREES[name] + 1):
        for key in free_keys(ctx, n):
            assert cochains._free_datum_cochain(ctx, *key) == dense.free_datum_cochain(ctx, *key)[1]


def test_the_walk_visits_only_keys_that_can_be_nonzero():
    """AFF_O1 at degree 13: the walk over every ordering visits 88,938
    keys to keep 406 nonzero values; the walk visits 806, the 6
    permutations of es0 included in both counts."""
    ctx = ComplexContext(build_fixture("AFF_O1"))
    key = (5, (0, 1, 2), (0,) * 5)
    table = cochains._free_datum_cochain(ctx, *key)
    count, expected = dense.free_datum_cochain(ctx, *key)
    assert table == expected and len(table) == 406
    assert (ctx.cache["free_datum"][key][0], count) == (806, 88_938)


def test_verify_walks_stay_small(monkeypatch):
    """`leibcx verify --max-degree 12` on the default fixtures: below k0,
    no walk visits more than 1,000 keys (the largest visits 924, on AFF_O1;
    a walk over every ordering visits up to 88,932 there)."""
    made = []

    class Recorded(ComplexContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(verify, "ComplexContext", Recorded)
    assert verify.run_verify(verify.VerifyConfig(max_degree=12)).passed
    below = [count - factorial(len(es0)) for ctx in made
             for (_, es0, _), (count, _) in ctx.cache.get("free_datum", {}).items()]
    assert below and max(below) <= 1000


# -- cochains known to be valid ----------------------------------------------------


def test_known_valid_cochains_are_not_validated_again(ctxs, monkeypatch):
    """A cochain built by `expand`, `theta` or `zeta`, or one that passed
    `validate_cochain`, is known valid over its context's algebra:
    `coboundary` and the bracket's lifts skip its validation, but still
    check its context. `validate_cochain` itself always runs in full."""
    ctx = ComplexContext(build_fixture("O2"))
    calls = []
    validate = cochains.validate_cochain

    def counted(ctx, omega):
        calls.append(omega)
        return validate(ctx, omega)

    monkeypatch.setattr(cochains, "validate_cochain", counted)
    built = Cochain(2, ctx.zdim, zeta(ctx).components)  # equal to zeta, not yet known valid
    d_built = coboundary(ctx, built)
    assert calls == [built]
    coboundary(ctx, built)
    coboundary(ctx, d_built)  # an expansion
    flat = expand(ctx, 1, flat_cochain(ctx, basis_vec(ctx.dim, 0)))
    poisson(ctx, theta(ctx), flat)  # theta is valid by construction
    assert calls == [built]
    theta_copy = Cochain(3, ctx.zdim, theta(ctx).components)  # not yet known valid
    poisson(ctx, theta_copy, flat)
    assert calls == [built, theta_copy]
    assert cochains.validate_cochain(ctx, built).ok and len(calls) == 3
    with pytest.raises(ContextMismatchError):
        coboundary(ctxs["omni(3)"], d_built)


def test_validity_is_known_per_algebra(ctxs):
    # a second build of O2 is another algebra: its context validates afresh
    ctx, other = ctxs["O2"], ComplexContext(build_fixture("O2"))
    omega = coboundary(ctx, zeta(ctx))
    assert omega._valid_over is ctx.algebra
    assert omega._valid_over is not other.algebra
    assert validate_cochain(other, omega).ok and omega._valid_over is other.algebra
    bad = Cochain(2, ctx.zdim, {0: {((0, 1), ()): SymPoly.generator(ctx.zdim, 0)}})
    assert not validate_cochain(ctx, bad).ok and bad._valid_over is None
    with pytest.raises(InvalidCochainError):
        coboundary(ctx, bad)


def test_basis_cochains_are_not_validated_again(monkeypatch):
    """`cochain_space_basis` returns its rows known valid: taking d of each
    makes no `validate_cochain` call."""
    ctx = ComplexContext(build_fixture("O2"))
    calls = []
    validate = cochains.validate_cochain

    def counted(ctx, omega):
        calls.append(omega)
        return validate(ctx, omega)

    monkeypatch.setattr(cochains, "validate_cochain", counted)
    for n in range(4):
        for omega in cochain_space_basis(ctx, n):
            assert omega._valid_over is ctx.algebra
            coboundary(ctx, omega)
    assert calls == []


def test_d_squared_validates_no_cochain_of_positive_degree(monkeypatch):
    """`check_d_squared` builds the z_r-scaled copies of each basis cochain
    with `cup`, so they come out known valid: the only cochains it
    validates are the degree-0 generators z_r, once each."""
    ctx = ComplexContext(build_fixture("O2"))
    calls = []
    validate = cochains.validate_cochain

    def counted(ctx, omega):
        calls.append(omega)
        return validate(ctx, omega)

    monkeypatch.setattr(cochains, "validate_cochain", counted)
    assert check_d_squared(ctx, "O2", 3).passed
    assert [omega.degree for omega in calls] == [0] * ctx.zdim


# -- validity through linear combinations ------------------------------------------


def test_sums_and_scalings_of_expansions_are_known_valid(ctxs):
    """Weak skew-symmetry is linear, so `combine`, and through it +, -,
    `scale` and negation, marks its result valid when every nonzero
    operand is known valid over the same algebra; each such result does
    pass `validate_cochain`."""
    ctx = ctxs["O2"]
    a, b = (flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in (0, 4))
    a, b = expand(ctx, 1, a), expand(ctx, 1, b)
    ab, ba, da = cup(ctx, a, b), cup(ctx, b, a), coboundary(ctx, a)
    zero = Cochain.zero(2, ctx.zdim)  # unmarked, but zero: it does not count
    for omega in (ab + da, ba - da, ab + ba, ba.scale(3), -da, ab + zero, zero + ba,
                  cochains.combine(ctx.zdim, 2, (ab, 1), (ba, -2), (da, 5))):
        assert omega._valid_over is ctx.algebra, omega
        assert validate_cochain(ctx, omega).ok  # the check itself always runs in full


def test_mixed_combinations_stay_unmarked(ctxs):
    """One unmarked nonzero operand, a free part, or operands known valid
    over different algebras leave the combination unmarked; so does a
    combination of zero cochains only."""
    ctx, other = ctxs["O2"], ComplexContext(build_fixture("O2"))
    a, b = (flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in (0, 4))
    valid = cup(ctx, expand(ctx, 1, a), expand(ctx, 1, b))
    unmarked = Cochain(2, ctx.zdim, valid.components)  # equal and valid, not known to be
    elsewhere = cup(other, expand(other, 1, a), expand(other, 1, b))
    assert not valid.is_zero() and elsewhere._valid_over is other.algebra
    zero = Cochain.zero(2, ctx.zdim)
    for omega in (valid + unmarked, unmarked - valid, valid + free_part(valid),
                  free_part(valid).scale(2), valid + elsewhere, unmarked.scale(3), -unmarked,
                  zero + zero, zero.scale(5)):
        assert omega._valid_over is None, omega


def test_eta_of_the_omni3_workload_skips_validation(monkeypatch):
    """A sum of products, the shape of the representable samples of the
    omni(3) benchmark, is known valid: d, the bracket's lifts and
    `is_representable` do not validate it, and neither do they Theta,
    valid by construction; the flats are still validated once each."""
    ctx = ComplexContext(build_fixture("omni(3)"))
    rng = Random(3)
    calls = []
    validate = cochains.validate_cochain

    def counted(ctx, omega):
        calls.append(omega)
        return validate(ctx, omega)

    monkeypatch.setattr(cochains, "validate_cochain", counted)

    def flat():
        return flat_cochain(ctx, tuple(rng.randint(-2, 2) for _ in range(ctx.dim)))

    p = Cochain.constant(SymPoly(ctx.zdim, {(): 2, (1,): -1}))
    eta = cup(ctx, p, cup(ctx, flat(), flat())) + cup(ctx, flat(), flat())
    assert eta._valid_over is ctx.algebra
    validated = list(calls)  # the operands of the products
    assert all(omega.degree <= 1 for omega in validated)
    assert is_representable(ctx, eta).ok
    assert theta(ctx)._valid_over is ctx.algebra
    assert poisson(ctx, theta(ctx), eta) == -coboundary(ctx, eta)
    assert calls[len(validated):] == []


def test_the_d0_sign_mutant_stays_unmarked(ctxs):
    """The d0-sign mutant is d plus an unmarked scatter, so where the two
    differ the sum stays unmarked and d validates it: the mutation is
    still caught (`tests/test_verify.py`, and the golden mutation
    reports)."""
    ctx = ctxs["O1"]
    z = Cochain.constant(SymPoly.generator(ctx.zdim, 0))  # scalars have no action terms
    differing = 0
    for n in range(3):
        for omega in cochain_space_basis(ctx, n):
            scaled = cup(ctx, z, omega)
            mutant = d0_sign_mutant(ctx, scaled)
            if mutant != coboundary(ctx, scaled):
                differing += 1
                assert mutant._valid_over is None
    assert differing


def test_representability_closure_validates_every_output(monkeypatch):
    """`check_representability_closure` validates each of its three outputs
    per sample itself, although each is known valid."""
    ctx = ComplexContext(build_fixture("O2"))
    calls = []
    validate = verify.validate_cochain

    def counted(ctx, omega):
        calls.append(omega._valid_over)
        return validate(ctx, omega)

    monkeypatch.setattr(verify, "validate_cochain", counted)
    samples = 6
    assert verify.check_representability_closure(ctx, "O2", Random(1), samples).passed
    assert calls == [ctx.algebra] * (3 * samples)
