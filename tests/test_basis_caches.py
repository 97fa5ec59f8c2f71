"""The per-basis and per-operand caches of the bracket, checked two ways.

Values: `derivation_extend` with a shared images dict against the plain
monomial-by-monomial loop, the context's cached action of e_i against
`LeibnizAlgebra.rho_basis`, and `basis_flat` against `flat_cochain`.
Work: calls counted by monkeypatching (nothing is timed), so that a
derived-bracket table, on O2 and on omni(3), builds each basis flat once,
solves each section lift once, builds each operand's bar covectors and
derivation bases once (kept on the cochain), reads each pair back with
one solve and builds no ExtendedElement, and adds no other work
when it runs again on the same context, and `bullet` lifts only its
right operand.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from dense_reference import stored_prefixes
from leibniz_complex import brackets, duality
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import (basis_flat, bullet, derived_bracket, diamond, theta,
                                      theta_flat, zeta)
from leibniz_complex.cochains import Cochain, ComplexContext, action
from leibniz_complex.duality import flat_cochain
from leibniz_complex.sympoly import DimensionError, SymPoly, derivation_extend
from leibniz_complex.verify import random_representable

COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
FIXTURES = ("A3", "O1", "O2", "AFF_O1", "omni(2)", "omni(3)")
CACHES = ("basis_flat", "theta_flat", "lifts", "action_images")


def random_poly(rng, nvars, terms=4, max_degree=3):
    """Seeded terms over few monomials, so monomials repeat within a poly
    (the constructor sums them) and across polys; some polys keep a scalar
    part, and some sum to zero."""
    if rng.random() < 0.1:
        return SymPoly.zero(nvars)
    items = [(tuple(sorted(rng.randrange(nvars) for _ in range(rng.randint(0, max_degree)))),
              rng.choice(COEFFS)) for _ in range(terms)]
    if rng.random() < 0.2:
        items += [(mono, -c) for mono, c in items]  # cancels to zero
    return SymPoly(nvars, items)


def plain_derivation(base, poly):
    """The derivation summed monomial by monomial, position by position."""
    out = SymPoly.zero(poly.nvars)
    for mono, coeff in poly.items():
        for pos, r in enumerate(mono):
            rest = SymPoly.monomial(poly.nvars, mono[:pos] + mono[pos + 1:], coeff)
            out = out + rest * base[r]
    return out


@pytest.mark.parametrize("seed, nvars", [(1, 1), (2, 2), (3, 3)])
def test_derivation_images_match_the_plain_loop(seed, nvars):
    rng = Random(seed)
    base = [random_poly(rng, nvars, max_degree=2) for _ in range(nvars)]
    images, seen = {}, set()
    for _ in range(60):  # one dict reused across every poly
        poly = random_poly(rng, nvars)
        expected = plain_derivation(base, poly)
        assert derivation_extend(base, poly) == expected, poly
        assert derivation_extend(base, poly, images) == expected, poly
        assert derivation_extend(base, poly, images) == expected, poly  # all images read
        seen.update(mono for mono, _ in poly.items())
    assert set(images) == seen


def test_derivation_images_still_check_the_base():
    images = {}
    z = SymPoly.generator(2, 0)
    derivation_extend([z, z], z * z, images)
    with pytest.raises(DimensionError):
        derivation_extend([z], z * z, images)
    with pytest.raises(DimensionError):
        derivation_extend([z, SymPoly.generator(3, 0)], z * z, images)


@pytest.mark.parametrize("name", FIXTURES)
def test_cached_action_matches_rho_basis(name):
    alg = build_fixture(name)
    ctx = ComplexContext(alg)
    rng = Random(name)
    polys = [random_poly(rng, alg.zdim) for _ in range(12)] if alg.zdim else []
    for _ in range(2):  # the second pass reads every image from the cache
        for i, poly in product(range(alg.dim), polys):
            assert action(ctx, i, poly) == alg.rho_basis(i, poly), (i, poly)
    assert "action_images" not in ComplexContext(alg).cache


def test_basis_flat_is_computed_once_per_basis_index():
    ctx = ComplexContext(build_fixture("O2"))
    for j in range(ctx.dim):
        first = basis_flat(ctx, j)
        assert basis_flat(ctx, j) is first
        assert first == flat_cochain(ctx, basis_vec(ctx.dim, j))
    for outside in (-1, ctx.dim):
        with pytest.raises(IndexError):
            basis_flat(ctx, outside)


def test_a_new_context_starts_without_the_caches():
    algebra = build_fixture("O2")
    ctx = ComplexContext(algebra)
    derived_bracket(ctx, basis_vec(algebra.dim, 0), basis_vec(algebra.dim, 1))
    assert all(name in ctx.cache for name in CACHES[:3])
    assert not any(name in ComplexContext(algebra).cache for name in CACHES)


@pytest.mark.parametrize("name", ("O1", "O2", "AFF_O1"))
def test_diamond_of_a_flat_is_zero(name):
    ctx = ComplexContext(build_fixture(name))
    flat = basis_flat(ctx, 0)
    for eta in (Cochain.constant(SymPoly.constant(ctx.zdim, 1)), flat, zeta(ctx), theta(ctx),
                theta_flat(ctx, 0)):
        result = diamond(ctx, flat, eta)
        assert result.is_zero() and result.degree == max(flat.degree + eta.degree - 2, 0)


def count(monkeypatch, owner, name, record=lambda *args: None):
    """Count the calls made through owner.name; `record` sees their arguments."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(record(*args))
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_derived_bracket_table_computes_each_piece_once(monkeypatch):
    for name in ("O2", "omni(3)"):
        with monkeypatch.context() as patch:
            check_table_computes_each_piece_once(patch, name)


def check_table_computes_each_piece_once(monkeypatch, name):
    algebra = build_fixture(name)
    dim = algebra.dim
    ctx = ComplexContext(algebra)
    flats = count(monkeypatch, brackets, "flat_cochain")
    solves = count(monkeypatch, duality.PhiSection, "solve")
    lifts = count(monkeypatch, duality, "bar", lambda ctx, omega, *key: (omega, *key))
    lookups = count(monkeypatch, brackets, "tilde_value")
    bar_views = count(monkeypatch, duality, "_increasing_bars", id)
    base_views = count(monkeypatch, brackets, "_derivation_bases", id)
    extended = count(monkeypatch, duality.ExtendedElement, "__post_init__")

    def table():
        for i, j in product(range(dim), repeat=2):
            ei, ej = basis_vec(dim, i), basis_vec(dim, j)
            assert derived_bracket(ctx, ei, ej) == algebra.bracket(ei, ej), (i, j)

    table()
    assert len(flats) == dim
    # the basis flats are the only right operands of `bullet`; each strictly
    # increasing stored prefix of each is lifted once, and no other prefix
    # is: only those reach a free key. Theta and the {Theta, e_i-flat} are
    # left operands only, tested by membership in Im(phi) and never lifted
    operands = [basis_flat(ctx, i) for i in range(dim)]
    expected = {(omega, k, prefix, fs) for omega in operands
                for k, prefix, fs in stored_prefixes(omega)
                if all(x < y for x, y in zip(prefix, prefix[1:]))}
    assert expected
    assert len(lifts) == len(set(lifts)) == len(expected)
    assert set(lifts) == expected
    assert len(solves) == len(lifts) + dim * dim  # plus one read-back per pair
    assert len(lookups) == len(lifts)  # each operand's lifts are listed once
    # the algebra is fat, so each pair's outer bracket is read back from its
    # entries and its lift negated as a vector, and each tilde lift is kept
    # as the section's sparse output: no ExtendedElement is built
    assert extended == []
    # each operand's views are built once, kept on the cochain: the bar
    # covectors of theta, of every {Theta, e_i-flat} (left operands) and of
    # every flat (right operands, lifted at those prefixes), and the
    # derivation bases of theta and of every {Theta, e_i-flat} that stores a
    # center argument (`diamond` of a flat returns at once)
    inner = [theta_flat(ctx, i) for i in range(dim)]
    assert sorted(bar_views) == sorted(map(id, [theta(ctx)] + inner + operands))
    centered = [omega for omega in inner if omega.extent()[1]]
    assert centered
    assert sorted(base_views) == sorted(map(id, [theta(ctx)] + centered))
    before = (len(flats), len(lifts), len(lookups), len(bar_views), len(base_views),
              len(extended), len(solves))
    table()  # again: only the read-back of each pair is solved anew
    assert (len(flats), len(lifts), len(lookups), len(bar_views), len(base_views),
            len(extended), len(solves)) == before[:6] + (before[6] + dim * dim,)


def increasing_prefixes(omega):
    return [key for key in stored_prefixes(omega)
            if all(x < y for x, y in zip(key[1], key[1][1:]))]


def test_bullet_lifts_only_its_right_operand(monkeypatch):
    """The left operand is checked by membership in Im(phi), once per
    cochain and remembered on the cochain; section lifts are solved for
    the right operand only, once per strictly increasing stored prefix."""
    ctx = ComplexContext(build_fixture("O2"))
    rng = Random(7)
    lefts = [theta(ctx), zeta(ctx)] + [random_representable(ctx, rng, n) for n in (1, 2, 3)]
    rights = [basis_flat(ctx, 0), basis_flat(ctx, 3)] + \
        [random_representable(ctx, rng, n) for n in (0, 1, 2)]
    lifted = count(monkeypatch, duality, "bar", lambda ctx, omega, *key: (omega, *key))
    solves = count(monkeypatch, duality.PhiSection, "solve")
    members = count(monkeypatch, duality.PhiSection, "contains")
    for _ in range(2):
        for omega, eta in product(lefts, rights):
            bullet(ctx, omega, eta)
    expected = {(eta, *key) for eta in rights for key in increasing_prefixes(eta)}
    assert len(lifted) == len(set(lifted)) == len(solves) and set(lifted) == expected
    assert len(members) == sum(len(increasing_prefixes(omega)) for omega in lefts)
    assert all(omega._representable_over is ctx.algebra for omega in lefts)
    assert not any(omega in ctx.cache.get("lifts", {}) for omega in lefts)
