"""The scatter kernel against the dense reference implementations.

`d`, `cup`, `bullet` and `diamond` derive their terms from the stored
entries of their operands; `dense_reference` evaluates the same sums by
visiting every output key. Exact rational sums do not depend on the
order of summation, so the two must agree exactly on every input.
"""

from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import cochains
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import bullet, diamond, theta, zeta
from leibniz_complex.cochains import Cochain, ComplexContext, coboundary, cochain_space_basis, cup
from leibniz_complex.duality import NotRepresentableError, flat_cochain
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import d0_sign_mutant, random_representable

FIXTURES = ("A3", "O1", "O2", "AFF_O1")
OPERATORS = {"coboundary": (coboundary, dense.coboundary), "cup": (cup, dense.cup),
             "bullet": (bullet, dense.bullet), "diamond": (diamond, dense.diamond)}


@pytest.fixture(scope="module")
def omni3():
    return ComplexContext(build_fixture("omni(3)"))


def same(ctx, op, omega, eta=None):
    """`op` and its dense reference give equal cochains of equal degree, or
    both raise NotRepresentableError; returns the common outcome."""
    args = (ctx, omega) if eta is None else (ctx, omega, eta)
    outcomes = []
    for fn in OPERATORS[op]:
        try:
            outcomes.append(fn(*args))
        except NotRepresentableError:
            outcomes.append(NotRepresentableError)
    assert outcomes[0] == outcomes[1], (op, omega, eta)
    if isinstance(outcomes[0], Cochain):
        assert outcomes[0].degree == outcomes[1].degree
    return outcomes[0]


def flats(ctx):
    return [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]


def with_center_values(ctx, omega):
    """omega with every value times 1 + z_1 + ... + z_N: still valid, since
    validity is linear over S(Z), and unlike a scalar-valued cochain it has
    nonzero action terms."""
    factor = sum((SymPoly.generator(ctx.zdim, r) for r in range(ctx.zdim)),
                 SymPoly.constant(ctx.zdim, 1))
    return Cochain(omega.degree, ctx.zdim, {k: {key: v * factor for key, v in table.items()}
                                            for k, table in omega.components.items()})


@pytest.mark.parametrize("name", FIXTURES + ("omni(3)",))
def test_basis_cochains(contexts, omni3, name):
    ctx = omni3 if name == "omni(3)" else contexts[name]
    top = 2 if name == "omni(3)" else 3
    bases = {n: cochain_space_basis(ctx, n) for n in range(top + 1)}
    for basis in bases.values():
        for omega in basis:
            same(ctx, "coboundary", with_center_values(ctx, omega))
    for n in range(top + 1):
        for m in range(top + 1 - n):
            for omega in bases[n]:
                for eta in bases[m]:
                    same(ctx, "cup", omega, eta)
                    same(ctx, "diamond", omega, eta)


@pytest.mark.parametrize("name", FIXTURES)
def test_canonical_cochains(contexts, name):
    ctx = contexts[name]
    canonical = [theta(ctx), zeta(ctx)] + flats(ctx)
    for omega in canonical:
        same(ctx, "coboundary", omega)
        for eta in canonical:
            if ctx.dim > 2 and omega.degree + eta.degree > 4:
                continue  # the dense reference needs dim^5 keys and more
            same(ctx, "cup", omega, eta)
            same(ctx, "bullet", omega, eta)
            same(ctx, "diamond", omega, eta)


def test_canonical_cochains_on_omni3(omni3):
    th, ze = theta(omni3), zeta(omni3)
    for omega in (th, ze):
        same(omni3, "coboundary", omega)
    for flat in flats(omni3)[::3]:
        same(omni3, "coboundary", flat)
        same(omni3, "cup", ze, flat)
        for omega, eta in ((th, flat), (flat, th), (ze, flat), (flat, ze)):
            same(omni3, "bullet", omega, eta)
            same(omni3, "diamond", omega, eta)


@pytest.mark.parametrize("name", FIXTURES)
def test_random_representable_samples(contexts, name):
    ctx = contexts[name]
    rng = Random(11)
    for _ in range(6):
        omega = random_representable(ctx, rng, rng.randint(0, 2))
        eta = random_representable(ctx, rng, rng.randint(0, 2))
        same(ctx, "coboundary", omega)
        for a, b in ((omega, eta), (eta, omega)):
            same(ctx, "cup", a, b)
            same(ctx, "bullet", a, b)
            same(ctx, "diamond", a, b)


def test_repeated_center_indices(contexts, o1, o2):
    # A3 is abelian: any component-1 table is a valid cochain, and delta
    # sends omega_1(e_1; z_1) to (d omega)_2(; z_1, z_1) twice
    a3 = contexts["A3"]
    one = SymPoly.constant(3, 1)
    omega = Cochain(3, 3, {1: {((0,), (0,)): one, ((1,), (0,)): one, ((0,), (2,)): one}})
    d_omega = same(a3, "coboundary", omega)
    assert d_omega.value(2, (), (0, 0)) == SymPoly.constant(3, 2)
    for ctx in (o1, o2):
        zz = same(ctx, "cup", zeta(ctx), zeta(ctx))
        assert any(fs[0] == fs[1] for _, fs in zz.components[2])
        same(ctx, "diamond", zz, zeta(ctx))
        same(ctx, "cup", zz, flats(ctx)[0])
    zz = cup(o1, zeta(o1), zeta(o1))
    same(o1, "bullet", zz, zz)
    same(o1, "diamond", zz, zz)


def test_degree_zero_and_zero_operands(o1, o2):
    for ctx in (o1, o2):
        const = Cochain.constant(SymPoly.generator(ctx.zdim, 0) + SymPoly.constant(ctx.zdim, 1))
        zero0, zero3 = Cochain.zero(0, ctx.zdim), Cochain.zero(3, ctx.zdim)
        small = [const, zero0, Cochain.zero(1, ctx.zdim), flats(ctx)[-1]]
        for omega in small + [zero3, theta(ctx)]:
            same(ctx, "coboundary", omega)
            for eta in small if omega.degree < 3 else (const, zero0):
                for a, b in ((omega, eta), (eta, omega)):
                    for op in ("cup", "bullet", "diamond"):
                        same(ctx, op, a, b)


def test_brackets_with_clamped_degree(o1):
    # degrees n + m <= 1 put bullet and diamond in degree 0, where they vanish
    const = Cochain.constant(SymPoly.generator(1, 0))
    flat = flats(o1)[0]
    for omega, eta in ((const, flat), (flat, const), (const, const)):
        for op in ("bullet", "diamond"):
            result = same(o1, op, omega, eta)
            assert result.degree == 0 and result.is_zero()


def test_non_representable_bullet_operand_raises(aff_o1):
    bad = Cochain(1, 1, {0: {((0,), ()): SymPoly.constant(1, 1)}})
    flat = flat_cochain(aff_o1, basis_vec(4, 2))
    assert not flat.is_zero()
    for omega, eta in ((bad, flat), (flat, bad)):
        assert same(aff_o1, "bullet", omega, eta) is NotRepresentableError
    with pytest.raises(NotRepresentableError):
        bullet(aff_o1, bad, Cochain.constant(SymPoly.constant(1, 1)))


def test_d0_sign_mutant_against_dense(o1, o2):
    for ctx in (o1, o2):
        for omega in [zeta(ctx), theta(ctx)] + flats(ctx):
            expected = dense.coboundary(ctx, omega) - dense.first_slot_action(ctx, omega).scale(2)
            assert d0_sign_mutant(ctx, omega) == expected


# -- the work the kernel does ---------------------------------------------------


def stored(omega):
    return sum(len(table) for table in omega.components.values())


def test_work_follows_stored_entries_not_output_keys(monkeypatch):
    """Counts the kernel's accumulate calls (and, for cup, value lookups) on
    omni(4), dim 20. A dense loop over the 20^4 output keys of d(theta), or
    the 20^3 of a degree-3 product, exceeds these bounds many times over."""
    ctx = ComplexContext(build_fixture("omni(4)"))
    dim = ctx.dim
    work = Counter()
    accumulate, value = cochains.accumulate, Cochain.value

    def counted_accumulate(acc, poly, factor=1):
        work["accumulate"] += 1
        accumulate(acc, poly, factor)

    def counted_value(self, k, es, fs):
        work["value"] += 1
        return value(self, k, es, fs)

    monkeypatch.setattr(cochains, "accumulate", counted_accumulate)
    monkeypatch.setattr(Cochain, "value", counted_value)
    th, ze = theta(ctx), zeta(ctx)
    flat = flat_cochain(ctx, tuple(Fraction(1) for _ in range(dim)))
    assert dim == 20 and stored(th) and stored(ze) and stored(flat)

    # per entry of theta (n = 3 arguments), d has at most dim * (n + 1)
    # action terms, 8 * n(n + 1)/2 bracket terms (no basis element is a
    # component of more than 8 products) and zdim delta terms: < 2 (n + 1) dim
    table = ctx.algebra.table
    assert all(sum(table[x][y][t] != 0 for x in range(dim) for y in range(dim)) <= 8
               for t in range(dim))
    work.clear()
    assert coboundary(ctx, th).is_zero()
    bound = 2 * stored(th) * (th.degree + 1) * dim
    assert 0 < work["accumulate"] <= bound < dim ** 4 // 4

    work.clear()
    cup(ctx, ze, flat)
    # each pair of entries reaches one key per (2, 1) shuffle
    bound = stored(ze) * stored(flat) * comb(3, 1)
    assert 0 < work["accumulate"] + work["value"] <= bound < dim ** 3 // 2
