"""The bracket as one raw sum per key, and the raw derivation.

`free_poisson` hands `bullet`, `diamond` and the flipped `diamond` one
{(k, es, fs): {monomial: coefficient}} dict; each adds its pairs into it
with its sign, and the dict is settled once, so no half becomes a
cochain and nothing is combined. Its result must equal the signed sum of
the three halves taken alone and the free part of the dense bracket of
tests/dense_reference.py, on Fraction-valued operands. d adds its action
terms through the raw form of `derivation_extend`, which must add
exactly factor times the derivation its SymPoly form returns.
"""

from fractions import Fraction
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import brackets, cochains, sympoly
from leibniz_complex.algebra import build_fixture
from leibniz_complex.brackets import bullet, diamond, free_poisson, theta
from leibniz_complex.cochains import (Cochain, ComplexContext, cochain_space_basis, combine, cup,
                                      entries, free_part)
from leibniz_complex.duality import is_representable
from leibniz_complex.sympoly import DimensionError, SymPoly, derivation_extend, settle
from leibniz_complex.verify import random_poly, random_representable


@pytest.fixture(scope="module")
def ctxs():
    return {name: ComplexContext(build_fixture(name))
            for name in ("A3", "O1", "O2", "AFF_O1", "omni(3)")}


def fraction_operands(ctx, rng, top):
    """Representable operands of degree 1 to top with Fraction
    coefficients: a few basis cochains of each degree times 1/2 z_r and
    times 1/2 + z_1 + ... + z_N (a scalar-valued cochain of positive
    degree is never representable), random representable ones times 1/2 +
    3/2 z_1, and theta."""
    zs = [SymPoly.generator(ctx.zdim, r) for r in range(ctx.zdim)]
    half = SymPoly.constant(ctx.zdim, Fraction(1, 2))
    factors = [half * z for z in zs] + [sum(zs, half)]
    scale = Cochain.constant(half + zs[0].scale(Fraction(3, 2)))
    pool = [theta(ctx)]
    for n in range(1, top + 1):
        basis = cochain_space_basis(ctx, n)
        for omega in basis[::max(len(basis) // 3, 1)]:
            pool += [Cochain(n, ctx.zdim, {k: {key: v * p for key, v in table.items()}
                                           for k, table in omega.components.items()})
                     for p in factors]
        pool.append(cup(ctx, scale, random_representable(ctx, rng, n)))
    return [omega for omega in pool if not omega.is_zero() and is_representable(ctx, omega).ok]


def halves(ctx, omega, eta):
    """The signed sum of the three halves, each computed alone as a cochain."""
    flip = -1 if (omega.degree * eta.degree) % 2 else 1
    return combine(ctx.zdim, max(omega.degree + eta.degree - 2, 0), (bullet(ctx, omega, eta), 1),
                   (diamond(ctx, omega, eta), 1), (diamond(ctx, eta, omega), -flip))


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)"))
def test_the_fused_bracket_is_the_sum_of_its_halves_and_the_dense_bracket(ctxs, name):
    ctx = ctxs[name]
    top = 2 if name == "omni(3)" else 3
    pool = fraction_operands(ctx, Random(name), top)
    assert any(isinstance(c, Fraction) for omega in pool
               for *_, value in entries(omega) for _, c in value.items())
    assert {omega.degree for omega in pool} >= ({2} if name == "A3" else {1, 2})
    nonzero = 0
    for omega in pool:
        for eta in pool:
            if omega.degree + eta.degree - 2 > 3:
                continue
            fused = free_poisson(ctx, omega, eta)
            nonzero += not fused.is_zero()
            assert fused == halves(ctx, omega, eta)
            assert fused == free_part(dense.poisson(ctx, omega, eta))
            assert fused.degree == max(omega.degree + eta.degree - 2, 0)
            assert all(not value.is_zero() for *_, value in entries(fused))
    assert nonzero


@pytest.mark.parametrize("name", ("A3", "O1", "O2", "AFF_O1", "omni(3)"))
def test_theta_with_itself_sums_to_no_entry(ctxs, name):
    ctx = ctxs[name]
    th = theta(ctx)
    fused = free_poisson(ctx, th, th)
    assert fused.degree == 4 and fused.components == {} and fused.is_zero()


def test_the_fused_bracket_combines_nothing_and_settles_once(ctxs, monkeypatch):
    ctx = ctxs["O2"]
    th = theta(ctx)
    eta = fraction_operands(ctx, Random(3), 2)[-1]
    free_poisson(ctx, th, eta)  # representability and lifts are kept from here on
    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or fn(*a, **kw))

    for module in (brackets, cochains):
        counted(module, "combine")
        counted(module, "_gathered")
    fused = free_poisson(ctx, th, eta)
    assert calls == ["_gathered"] and not fused.is_zero()


@pytest.mark.parametrize("seed, nvars", [(1, 1), (2, 2), (3, 3)])
def test_the_raw_derivation_adds_factor_times_the_derivation(seed, nvars, monkeypatch):
    rng = Random(seed)
    base = [random_poly(rng, nvars) for _ in range(nvars)]
    images = {}
    for factor in (1, -1, 2, Fraction(-2, 3), 0):
        poly, start = random_poly(rng, nvars), random_poly(rng, nvars)
        expected = start + derivation_extend(base, poly, images).scale(factor)
        acc = dict(start.items())
        built = []
        for name in ("settle", "_canonical"):  # with every image kept, nothing is built
            fn = getattr(sympoly, name)
            monkeypatch.setattr(sympoly, name, lambda *a, fn=fn: built.append(a) or fn(*a))
        assert derivation_extend(base, poly, images, acc, factor) is None
        monkeypatch.undo()
        assert built == []
        assert SymPoly(nvars, settle(acc)) == expected
        assert derivation_extend(base, poly, images, factor=factor) == \
            derivation_extend(base, poly).scale(factor)


def test_both_forms_of_the_derivation_check_the_base():
    z = SymPoly.generator(2, 0)
    for acc in (None, {}):
        for base in ([z], [z, SymPoly.generator(3, 0)]):
            with pytest.raises(DimensionError):
                derivation_extend(base, z * z, {}, acc)
            assert not acc
