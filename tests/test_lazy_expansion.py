"""Outputs of d, cup and the bracket are written on first read.

`expand` fetches each free datum's table and checks the table budget
when the operator runs, but writes the output's entries only when its
`components` are first read. Comparison, hashing, `is_zero`, scaling,
sums of valid cochains and the operators that read only free entries
work from the free part it holds. These tests pin that down: equality
agrees with comparing every entry, whatever state the operands are in,
and the readers that need every entry write the expansion exactly once.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import cochains, verify
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import poisson, theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, coboundary, cochain_space_basis,
                                      cochain_to_dict, combine, cup, free_part, validate_cochain)
from leibniz_complex.duality import flat_cochain, is_representable
from leibniz_complex.sympoly import SymPoly


@pytest.fixture(scope="module")
def ctxs():
    return {name: ComplexContext(build_fixture(name)) for name in ("O2", "omni(3)")}


def unwritten(omega):
    """Is omega an expansion whose entries are not written yet?"""
    return isinstance(omega, cochains._Unwritten)


def whole(omega):
    """Every entry of omega, as plain dicts."""
    return {k: dict(table) for k, table in omega.components.items() if table}


@pytest.fixture
def writes(monkeypatch):
    """The degree of each expansion written from here on."""
    written, write = [], cochains._write_expansion

    def counted(degree, nvars, tables):
        written.append(degree)
        return write(degree, nvars, tables)

    monkeypatch.setattr(cochains, "_write_expansion", counted)
    return written


def pool(ctx):
    """Cochains of degrees 2 and 3, several of them equal to each other
    in different forms: basis cochains, operator outputs, sums and
    scalings, each fresh and so unwritten where it is an expansion, a
    written copy, unmarked copies of the whole cochain and of its free
    part alone, and the canonical zeta and theta."""
    f = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(3)]
    th, ze = theta(ctx), zeta(ctx)

    def d(i):
        return coboundary(ctx, f[i])

    def read(omega):
        omega.components
        return omega

    out = {
        "d0": d(0), "d0 written": read(d(0)), "d1": d(1), "-d0": -d(0), "2 d0": d(0).scale(2),
        "d0 + d1": d(0) + d(1), "d0 + d1 - d1": d(0) + d(1) - d(1),
        "d0 - d0": d(0) - d(0), "f0 f1": cup(ctx, f[0], f[1]), "f1 f0": cup(ctx, f[1], f[0]),
        "-(f1 f0)": -cup(ctx, f[1], f[0]), "f0 f1 + d0": cup(ctx, f[0], f[1]) + d(0),
        "{th, f0}": poisson(ctx, th, f[0]), "zeta": ze,
        "d0 unmarked": Cochain(2, ctx.zdim, whole(d(0))),
        "d0 free part": Cochain(2, ctx.zdim, whole(free_part(d(0)))),
        "theta": th, "d zeta": coboundary(ctx, ze), "d zeta written": read(coboundary(ctx, ze)),
        "zeta f0": cup(ctx, ze, f[0]), "f0 zeta": cup(ctx, f[0], ze),
        "zeta f0 + theta": cup(ctx, ze, f[0]) + th, "d(f0 f1)": coboundary(ctx, cup(ctx, f[0], f[1])),
        "d0 f1 - f0 d1": cup(ctx, d(0), f[1]) - cup(ctx, f[0], d(1)),
        "theta unmarked": Cochain(3, ctx.zdim, whole(th)),
        "theta free part": Cochain(3, ctx.zdim, whole(free_part(th))),
    }
    for n in (2, 3):
        for i, b in enumerate(cochain_space_basis(ctx, n)[:3]):
            out[f"basis{n}_{i}"] = b
            out[f"basis{n}_{i} times 3"] = b.scale(3)
    return out


@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_equality_matches_every_entry(ctxs, name):
    ctx = ctxs[name]
    members = pool(ctx)
    pairs = list(combinations_with_replacement(members.items(), 2))
    lazy = {label for label, omega in members.items() if unwritten(omega)}
    assert {"d0", "-d0", "d0 + d1 - d1", "f0 f1", "{th, f0}", "d zeta", "d0 f1 - f0 d1",
            "2 d0"} <= lazy
    # theta holds no free-datum tables, so a sum with it is summed entry by entry
    assert "zeta f0 + theta" not in lazy
    # cochains both known valid over ctx's algebra are compared first, at
    # their free keys, and none is written; any other pair compares entries
    marked = {label for label, omega in members.items() if omega._valid_over is ctx.algebra}
    first = {}
    for (a, x), (b, y) in pairs:
        if {a, b} <= marked:
            first[a, b] = x == y
    assert all(unwritten(members[label]) for label in lazy)
    first.update({(a, b): x == y for (a, x), (b, y) in pairs if (a, b) not in first})
    for (a, x), (b, y) in pairs:
        expected = x.degree == y.degree and whole(x) == whole(y)
        assert first[a, b] == expected == (x == y) == (y == x), (a, b)
        if expected:
            assert hash(x) == hash(y), (a, b)
    equal = {(a, b) for (a, b), same in first.items() if same and a != b}
    assert {("d0", "d0 written"), ("d0", "d0 + d1 - d1"), ("d0", "d0 unmarked"),
            ("theta", "d zeta"), ("d zeta", "d zeta written"),
            ("theta", "theta unmarked")} <= equal
    # a valid cochain and an unmarked, invalid one with the same free part
    for label in ("d0", "theta"):
        valid, part = members[label], members[label + " free part"]
        assert part._valid_over is None and not validate_cochain(ctx, part).ok
        assert free_part(part) == free_part(valid) and part != valid


def benchmark_eta(ctx, rng):
    """p.(flat(a) cup flat(b)) + flat(c) cup flat(d) with p = r + (s/2).z_k,
    the degree-2 eta the omni(3) benchmark draws."""
    def flat():
        return flat_cochain(ctx, verify.random_element(rng, ctx.dim))

    p = SymPoly(ctx.zdim, {(): rng.choice((-2, -1, 1, 2)),
                           (rng.randrange(ctx.zdim),): Fraction(rng.choice((-1, 1)), 2)})
    return cup(ctx, Cochain.constant(p), cup(ctx, flat(), flat())) + cup(ctx, flat(), flat())


def test_comparisons_and_products_write_no_expansion(ctxs, writes):
    ctx = ctxs["omni(3)"]
    th = theta(ctx)
    eta = benchmark_eta(ctx, Random(11))
    assert writes == [] and unwritten(eta)
    assert is_representable(ctx, eta).ok  # reads every bar covector of eta
    assert len(writes) == 1
    writes.clear()
    bracket, d_eta = poisson(ctx, th, eta), -coboundary(ctx, eta)
    assert bracket == d_eta and hash(bracket) == hash(d_eta) and not bracket.is_zero()
    assert coboundary(ctx, th).is_zero()
    flats = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(3)]
    left, right = coboundary(ctx, flats[0]), cup(ctx, flats[1], flats[2])
    product = cup(ctx, left, right)
    assert cup(ctx, left, right) == product
    total = combine(ctx.zdim, 4, (product, 2), (cup(ctx, zeta(ctx), right), -1))
    assert writes == []
    for omega in (bracket, d_eta, left, right, product, total):
        assert unwritten(omega)


@pytest.mark.parametrize("reader", ("value", "cochain_to_dict", "validate_cochain"))
def test_readers_of_every_entry_write_it_once(ctxs, writes, reader):
    ctx = ctxs["omni(3)"]
    th = theta(ctx)
    eta = benchmark_eta(ctx, Random(12))
    assert is_representable(ctx, eta).ok
    flat = flat_cochain(ctx, basis_vec(ctx.dim, 4))
    outputs = [(poisson(ctx, th, eta), dense.poisson(ctx, th, eta)),
               (-coboundary(ctx, eta), dense.coboundary(ctx, eta).scale(-1)),
               (cup(ctx, coboundary(ctx, flat), eta), dense.cup(ctx, dense.coboundary(ctx, flat), eta))]
    read = {"value": lambda omega: omega.value(0, tuple(range(omega.degree, 0, -1)), ()),
            "cochain_to_dict": cochain_to_dict,
            "validate_cochain": lambda omega: validate_cochain(ctx, omega).ok}[reader]
    for lazy, expected in outputs:
        writes.clear()
        assert unwritten(lazy)
        first = read(lazy)
        assert read(lazy) == first
        assert len(writes) == 1
        assert whole(lazy) == whole(expected)
        assert len(writes) == 1
