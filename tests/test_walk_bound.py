"""`expand` checks the table budget from a bound on each walk.

For a free key (k, es, fs), n = len(es) and s the number of pairings in
`pairing_index[r]` over the distinct centers r in fs, the free-datum walk
visits at most sum_j s^j (n + 2j)! keys over j = 0..k. When the bounds of
an output's free keys sum to at most `MAX_TABLE`, `expand` walks nothing;
the tables are walked where they are read. These tests hold the bound
against the walk on every free key of the fixtures up to a degree, and
pin what the operators of the omni(3) workload walk at the default
budget. The raises under lowered budgets are pinned in
`tests/test_brackets.py`.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from leibniz_complex import cochains, verify
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import poisson, theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, coboundary, cup, expand,
                                      free_view)
from leibniz_complex.duality import flat_cochain
from leibniz_complex.sympoly import SymPoly


def free_keys(ctx, degree):
    for k in range(degree // 2 + 1):
        for es in combinations(range(ctx.dim), degree - 2 * k):
            for fs in combinations_with_replacement(range(ctx.zdim), k):
                yield k, es, fs


@pytest.mark.parametrize("name, top", [("A3", 6), ("O2", 6), ("O1", 8), ("AFF_O1", 7),
                                       ("omni(3)", 5)])
def test_the_bound_is_at_least_the_walk(name, top):
    ctx = ComplexContext(build_fixture(name))
    checked = 0
    for degree in range(top + 1):
        for k, es, fs in free_keys(ctx, degree):
            cochains._free_datum_cochain(ctx, k, es, fs)
            visited = ctx.cache["free_datum"][k, es, fs][0]
            bound = cochains._walk_bound(ctx, (es, fs))
            assert bound >= visited, (k, es, fs)
            if k == 0:
                assert bound == visited, (es, fs)
            checked += 1
    assert checked == len(ctx.cache["walk_bound"]) == len(ctx.cache["free_datum"])


def test_a_key_that_is_not_free_gets_no_bound(o1):
    ctx = ComplexContext(o1.algebra)
    assert cochains._walk_bound(ctx, ((1, 0), ())) == float("inf")
    assert "walk_bound" not in ctx.cache
    not_free = Cochain(2, ctx.zdim, {0: {((1, 0), ()): SymPoly.constant(ctx.zdim, 1)}})
    with pytest.raises(ValueError, match=r"\(0, \(1, 0\), \(\)\) is not a free key"):
        expand(ctx, 2, not_free)


def representable(ctx, rng):
    """p.(flat(a) . flat(b)) + flat(c) . flat(d), a degree-2 representable
    cochain of the omni(3) workload's shape, with seeded entries."""
    def flat():
        return flat_cochain(ctx, verify.random_element(rng, ctx.dim))

    p = SymPoly(ctx.zdim, {(): Fraction(rng.choice((-2, -1, 1, 2))),
                           (rng.randrange(ctx.zdim),): Fraction(rng.choice((-2, -1, 1, 2)), 2)})
    return cup(ctx, Cochain.constant(p), cup(ctx, flat(), flat())) + cup(ctx, flat(), flat())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operators_walk_only_the_tables_of_d_input_at_the_default_budget(seed):
    """On omni(3), {Theta, eta}, zeta . e_i-flat and d of that product walk
    only the free data of d's input, for its B(K): the outputs' checks
    walk nothing. eta is built and written in another context over the
    same algebra, whose store writes it."""
    alg = build_fixture("omni(3)")
    rng = Random(seed)
    eta = representable(ComplexContext(alg), rng)
    eta.components
    ctx = ComplexContext(alg)
    bracket = poisson(ctx, theta(ctx), eta)
    product = cup(ctx, zeta(ctx), flat_cochain(ctx, basis_vec(ctx.dim, rng.randrange(ctx.dim))))
    assert "free_datum" not in ctx.cache
    d_product = coboundary(ctx, product)
    assert set(ctx.cache["free_datum"]) == {(k, es, fs) for k, es, fs, _ in free_view(product)}
    assert all(isinstance(out, cochains._Unwritten) for out in (bracket, product, d_product))
    assert ctx.cache["walk_bound"]


def test_walked_keys_count_their_own_walk(monkeypatch):
    """Once the store holds a key's table, `expand` adds the keys its walk
    visited, not its bound: with the budget between the two sums, an
    expansion of walked keys walks nothing and raises nothing, and one of
    keys not walked yet still walks every table to count it."""
    alg = build_fixture("O1")
    ctx = ComplexContext(alg)
    keys = [(k, es, fs) for k, es, fs in free_keys(ctx, 8) if k > 1]
    free = {}
    for k, es, fs in keys:
        free.setdefault(k, {})[es, fs] = SymPoly.constant(ctx.zdim, 1)
        cochains._free_datum_cochain(ctx, k, es, fs)
    visited = sum(ctx.cache["free_datum"][key][0] for key in keys)
    bound = sum(cochains._walk_bound(ctx, (es, fs)) for _, es, fs in keys)
    assert visited < bound
    walks, walk = [], cochains._free_datum_cochain

    def counted(ctx, k0, es0, fs0):
        walks.append((k0, es0, fs0))
        return walk(ctx, k0, es0, fs0)

    monkeypatch.setattr(cochains, "_free_datum_cochain", counted)
    monkeypatch.setattr(cochains, "MAX_TABLE", visited)
    out = expand(ctx, 8, Cochain(8, ctx.zdim, free))
    assert walks == [] and isinstance(out, cochains._Unwritten)
    fresh = ComplexContext(alg)
    expand(fresh, 8, Cochain(8, ctx.zdim, free))
    assert sorted(walks) == sorted(keys)
