"""d from free data: `free_coboundary` reads only its input's free entries.

A valid cochain is the sum of v * F over its free entries v at the free
keys K, F the scalar free-datum cochain of K, and d acts on values only
through the action term, which kills scalars. So the free part of d is
the action terms of each free value at its own key plus v * B(K), B(K)
the free part of d of F, cached per context. These tests hold that
kernel to two oracles in `dense_reference`: the sparse d the package ran
before (`one_descent_coboundary`, every stored entry with at most one
descent) and the every-key dense `coboundary`; and they pin down that d
writes no expansion, neither of its input nor of its output.
"""

import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import algebra, cochains, sympoly
from leibniz_complex.algebra import build_fixture
from leibniz_complex.brackets import theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, coboundary, cochain_from_dict,
                                      cochain_space_basis, cochain_to_dict, expand,
                                      free_coboundary, free_part)
from leibniz_complex.duality import flat_cochain
from leibniz_complex.verify import VerifyConfig, random_poly

FIXTURES = ("A3", "O1", "O2", "AFF_O1", "omni(3)")


@pytest.fixture(scope="module")
def contexts():
    return {name: ComplexContext(build_fixture(name)) for name in FIXTURES}


def free_keys(ctx, degree):
    return [(k, es, fs) for k in range(degree // 2 + 1)
            for es in combinations(range(ctx.dim), degree - 2 * k)
            for fs in combinations_with_replacement(range(ctx.zdim), k)]


def random_free_data(ctx, rng, degree):
    """A few free keys of the degree, each with a value of `verify.random_poly`:
    coefficients that are often Fractions, monomials of degree up to 2."""
    keys = free_keys(ctx, degree)
    free = {}
    for k, es, fs in rng.sample(keys, min(len(keys), rng.randint(1, 4))):
        free.setdefault(k, {})[es, fs] = random_poly(rng, ctx.zdim)
    return free


def states(ctx, degree, free):
    """The valid cochain with these free entries in each state d meets,
    each built fresh: an unwritten expansion, a written one, and the
    same entries read back from the file format, unmarked."""
    def unwritten():
        return expand(ctx, degree, Cochain(degree, ctx.zdim, free))

    def written():
        omega = unwritten()
        omega.components
        return omega

    def from_file():
        text = json.dumps(cochain_to_dict(unwritten()))
        omega = cochain_from_dict(ctx, json.loads(text))
        assert omega._valid_over is None
        return omega

    return {"unwritten": unwritten, "written": written, "file": from_file}


def assert_canonical(omega):
    for table in omega.components.values():
        for value in table.values():
            for c in dict(value.items()).values():
                assert c != 0 and (type(c) is int or c.denominator > 1), c


@pytest.mark.parametrize("name", FIXTURES)
def test_free_coboundary_matches_both_oracles(contexts, name):
    ctx = contexts[name]
    rng = Random(f"free-coboundary {name}")
    top = 2 if name == "omni(3)" else 3
    kinds = set()
    for degree in range(top + 1):
        for _ in range(3):
            free = random_free_data(ctx, rng, degree)
            for state, build in states(ctx, degree, free).items():
                got = free_coboundary(ctx, build())
                assert_canonical(got)
                assert got == dense.one_descent_coboundary(ctx, build()), (name, degree, state)
                omega = build()
                whole = dense.coboundary(ctx, omega)
                assert got == free_part(whole), (name, degree, state)
                assert coboundary(ctx, build()) == whole, (name, degree, state)
            kinds.update(type(c) for table in free.values() for value in table.values()
                         for c in dict(value.items()).values())
    assert Fraction in kinds


def test_coboundary_leaves_an_unwritten_input_unwritten(contexts):
    for name, ctx in contexts.items():
        f = [flat_cochain(ctx, tuple(1 if j == i else 0 for j in range(ctx.dim)))
             for i in range(min(ctx.dim, 3))]
        inputs = [coboundary(ctx, f[0]), cochains.cup(ctx, f[0], f[-1]),
                  expand(ctx, 3, Cochain(3, ctx.zdim, random_free_data(ctx, Random(name), 3)))]
        for omega in inputs:
            assert type(omega) is cochains._Unwritten
            out = coboundary(ctx, omega)
            assert type(omega) is cochains._Unwritten, name
            assert type(out) is cochains._Unwritten, name


@pytest.fixture
def writes(monkeypatch):
    """The degree of each expansion written from here on."""
    written, write = [], cochains._write_expansion

    def counted(ctx, degree, free):
        written.append(degree)
        return write(ctx, degree, free)

    monkeypatch.setattr(cochains, "_write_expansion", counted)
    return written


@pytest.mark.parametrize("name", VerifyConfig().fixtures)
def test_d_of_d_over_the_bases_writes_no_expansion(writes, name):
    ctx = ComplexContext(build_fixture(name))
    count = 0
    for degree in range(4):
        for omega in cochain_space_basis(ctx, degree):
            assert coboundary(ctx, coboundary(ctx, omega)).is_zero()
            count += 1
    assert coboundary(ctx, coboundary(ctx, zeta(ctx))).is_zero()
    assert coboundary(ctx, theta(ctx)).is_zero()
    assert count and writes == []


def test_the_action_terms_go_through_derivation_extend(contexts, monkeypatch):
    """The benchmark's tracer counts d's action work at
    `sympoly.derivation_extend`, as bound in `algebra`, and needs those
    calls on its workloads: d of a cochain whose values are not scalars
    must reach it, and d of a scalar-valued one need not."""
    calls = []
    extend = algebra.derivation_extend

    def counted(base, poly, images=None, acc=None, factor=1):
        calls.append(poly)
        return extend(base, poly, images, acc, factor)

    monkeypatch.setattr(algebra, "derivation_extend", counted)
    ctx = contexts["O2"]
    for omega in cochain_space_basis(ctx, 2):
        coboundary(ctx, omega)
    assert calls == []
    z1 = sympoly.SymPoly.generator(ctx.zdim, 0)
    omega = expand(ctx, 2, Cochain(2, ctx.zdim, {0: {((0, 1), ()): z1}}))
    out = coboundary(ctx, omega)
    assert calls and all(not poly.is_zero() for poly in calls)
    assert out == dense.coboundary(ctx, omega)


def test_free_boundaries_are_cached_once_per_free_key(contexts):
    """B(K) is built once per free key d reads, in the one context cache
    `free_coboundary`, beside that key's free-datum table."""
    ctx = ComplexContext(contexts["O2"].algebra)
    basis = cochain_space_basis(ctx, 2)
    for omega in basis:
        free_coboundary(ctx, omega)
    store = ctx.cache["free_coboundary"]
    cached = {key: terms for key, terms in store.items()}
    for omega in basis:
        free_coboundary(ctx, omega)
    assert store.keys() == cached.keys() and all(store[key] is cached[key] for key in cached)
    assert set(store) <= set(ctx.cache["free_datum"])
    assert {(k, es, fs) for omega in basis for k, es, fs, _ in cochains.free_view(omega)} \
        == set(store)
