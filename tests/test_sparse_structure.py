"""What is built from the structure constants reads only their nonzero entries.

`LeibnizAlgebra.pairings` lists the nonzero pairings of each basis
element and `LeibnizAlgebra.moves` the generators each one moves.
Flats sum over the first, `duality.bar` reads a cochain only where it
stores an entry (`duality.stored_bars`), and d skips an acting e_i that
moves no generator of a value, whose image is zero. Each path is held to
its dense oracle in `dense_reference` and to the work it may do, counted
by monkeypatching; an algebra with a pairing outside the left center
still raises where it did.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import cochains, duality
from leibniz_complex.algebra import IntegrityError, LeibnizAlgebra, basis_vec, build_fixture
from leibniz_complex.brackets import theta, theta_flat, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, coboundary, component_keys, expand,
                                      free_view)
from leibniz_complex.duality import bar, flat_cochain, phi_section, stored_bars
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import random_poly, random_representable

FIXTURES = ("A3", "O1", "O2", "AFF_O1", "omni(3)")
COORDS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@pytest.fixture(scope="module")
def contexts():
    return {name: ComplexContext(build_fixture(name)) for name in FIXTURES}


def nonzero_pairings(alg, i):
    return [j for j in range(alg.dim) if not alg.pairing_poly_basis(i, j).is_zero()]


def test_the_indexes_list_the_nonzero_pairings_and_the_moved_generators(contexts):
    for ctx in contexts.values():
        alg = ctx.algebra
        for i in range(alg.dim):
            assert alg.pairings(i) == tuple((j, alg.pairing_poly_basis(i, j))
                                            for j in nonzero_pairings(alg, i))
            moved = {r for r in range(alg.zdim)
                     if not alg.rho_basis(i, SymPoly.generator(alg.zdim, r)).is_zero()}
            assert alg.moves[i] == moved
        assert alg.acting == tuple(i for i in range(alg.dim) if alg.moves[i])


@pytest.mark.parametrize("name", FIXTURES)
def test_flats_add_one_term_per_nonzero_pairing(contexts, monkeypatch, name):
    ctx = contexts[name]
    alg = ctx.algebra
    terms, scatter = [], duality.scatter

    def counted(nvars, degree, items):
        items = list(items)
        terms.append(len(items))
        return scatter(nvars, degree, items)

    monkeypatch.setattr(duality, "scatter", counted)
    rng = Random(f"flats {name}")
    vectors = [basis_vec(ctx.dim, i) for i in range(ctx.dim)]
    vectors += [tuple(rng.choice(COORDS) for _ in range(ctx.dim)) for _ in range(20)]
    for v in vectors:
        terms.clear()
        assert flat_cochain(ctx, v) == dense.flat_cochain(ctx, v), v
        assert terms == [sum(len(nonzero_pairings(alg, i)) for i, vi in enumerate(v) if vi != 0)]
    if name == "A3":
        assert all(not nonzero_pairings(alg, i) for i in range(ctx.dim))


def bar_operands(ctx, rng):
    """Cochains of degrees 1 to 3 with stored and unstored prefixes."""
    return [theta(ctx), zeta(ctx), theta_flat(ctx, 0), flat_cochain(ctx, basis_vec(ctx.dim, 1)),
            random_representable(ctx, rng, 1), random_representable(ctx, rng, 2)]


@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_bar_reads_only_the_stored_entries(contexts, monkeypatch, name):
    ctx = contexts[name]
    rng = Random(f"bar {name}")
    reads, value = [], Cochain.value

    def counted(self, k, es, fs):
        reads.append((k, tuple(es), tuple(sorted(fs))))
        return value(self, k, es, fs)

    checked = {"stored": 0, "unstored": 0}
    for omega in bar_operands(ctx, rng):
        stored = stored_bars(omega)
        for k in range(omega.degree // 2 + 1):
            if omega.degree - 2 * k < 1:
                continue
            prefixes = list(component_keys(ctx, omega.degree - 1, k))
            for prefix, fs in rng.sample(prefixes, min(len(prefixes), 40)) + \
                    [(prefix, fs) for kk, prefix, fs in stored if kk == k]:
                expected = dense.bar(ctx, omega, k, prefix, fs)
                with monkeypatch.context() as patch:
                    patch.setattr(Cochain, "value", counted)
                    reads.clear()
                    got = bar(ctx, omega, k, prefix, fs)
                entries = stored.get((k, prefix, fs), {})
                assert got == expected, (omega, k, prefix, fs)
                assert reads == [(k, (*prefix, e), fs) for e in sorted(entries)]
                checked["stored" if entries else "unstored"] += 1
    assert all(checked.values()), checked


def random_free_data(ctx, rng, degree):
    """A few free keys of the degree, each with a value of `verify.random_poly`:
    coefficients that are often Fractions, monomials of degree up to 2."""
    keys = [(k, es, fs) for k in range(degree // 2 + 1)
            for es in combinations(range(ctx.dim), degree - 2 * k)
            for fs in combinations_with_replacement(range(ctx.zdim), k)]
    free = {}
    for k, es, fs in rng.sample(keys, min(len(keys), rng.randint(1, 4))):
        free.setdefault(k, {})[es, fs] = random_poly(rng, ctx.zdim)
    return free


@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_d_acts_only_where_a_generator_moves(contexts, monkeypatch, name):
    """d adds the action of e_i on a free value v only when e_i moves a
    generator of v's monomials; every action it skips is zero."""
    ctx = contexts[name]
    alg = ctx.algebra
    rng = Random(f"action {name}")
    calls, action = [], cochains.action

    def counted(ctx, i, poly, into=None):
        calls.append((i, poly))
        return action(ctx, i, poly, into)

    monkeypatch.setattr(cochains, "action", counted)
    kinds, skipped = set(), 0
    for degree in range(4 if name == "O2" else 3):
        for _ in range(4):
            free = random_free_data(ctx, rng, degree)
            omega = expand(ctx, degree, Cochain(degree, ctx.zdim, free))
            calls.clear()
            got = coboundary(ctx, omega)
            expected = []
            for k, es, fs, value in free_view(omega):
                gens = {r for mono, _ in value.items() for r in mono}
                for i in range(ctx.dim):
                    if i in es or not gens:
                        continue
                    if any(r in alg.moves[i] for r in gens):
                        expected.append((i, value))
                    else:
                        assert alg.rho_basis(i, value).is_zero()
                        skipped += 1
            assert calls == expected, (degree, free)
            assert got == dense.coboundary(ctx, omega), (degree, free)
            kinds.update(type(c) for table in free.values() for value in table.values()
                         for c in dict(value.items()).values())
    assert Fraction in kinds and skipped


def pairs_outside_the_center():
    """a.a = a, everything else zero: not a Leibniz algebra. Z = span(b),
    and (a, a) = 2a lies outside it."""
    zero = (0, 0)
    return LeibnizAlgebra(["a", "b"], [[basis_vec(2, 0), zero], [zero, zero]])


def test_pairings_outside_the_center_still_raise():
    ctx = ComplexContext(pairs_outside_the_center())
    message = "pairing of basis elements 0,0 lies outside the left center"
    for build in (lambda: flat_cochain(ctx, (1, 0)), lambda: zeta(ctx), lambda: theta(ctx),
                  lambda: phi_section(ctx).contains({0: SymPoly.generator(1, 0)})):
        with pytest.raises(IntegrityError, match=message):
            build()
    # b pairs to zero with everything, so its flat reads no pairing of a
    assert flat_cochain(ctx, (0, 1)).is_zero()
