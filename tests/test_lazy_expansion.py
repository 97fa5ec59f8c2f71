"""Outputs of d, cup and the bracket are written on first read.

`expand` checks the table budget when the operator runs, but writes
the output's entries only when its `components` are first read. Sums and scalings of valid cochains sum and
scale their free parts and stay unwritten too. Comparison, hashing,
`is_zero` and the operators that read only free entries work from the
free part. These tests pin that down: equality
agrees with comparing every entry, whatever state the operands are in,
and the readers that need every entry write the expansion exactly once.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import cli, cochains, verify
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import poisson, theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, coboundary, cochain_space_basis,
                                      cochain_to_dict, combine, cup, expand, free_part,
                                      validate_cochain)
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

    def counted(ctx, degree, free):
        written.append(degree)
        return write(ctx, degree, free)

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
    # theta is valid, so a sum with it sums free parts and stays unwritten
    assert "zeta f0 + theta" in lazy
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


def test_comparison_with_zero_reads_is_zero(ctxs, writes):
    """d(d(omega)) == 0, as `verify.check_d_squared` asks it, writes
    nothing; an unmarked nonzero cochain from outside, even one whose
    free part is zero, still differs from zero, both ways round."""
    ctx = ctxs["omni(3)"]
    zero = Cochain.zero(5, ctx.zdim)
    twice = coboundary(ctx, coboundary(ctx, cup(ctx, zeta(ctx), flat_cochain(ctx, (1,) * 12))))
    assert unwritten(twice) and twice == zero and zero == twice and writes == []
    z = SymPoly.generator(ctx.zdim, 0)
    for table in ({((0, 1), ()): z}, {((1, 0), ()): z}):
        outside = Cochain(2, ctx.zdim, {0: table})
        assert outside != Cochain.zero(2, ctx.zdim) and Cochain.zero(2, ctx.zdim) != outside
    assert Cochain.zero(2, ctx.zdim) == Cochain(2, ctx.zdim) != Cochain.zero(3, ctx.zdim)


def test_default_verify_writes_few_expansions(writes, capsys):
    """Default `leibcx verify` writes at most 153 expansions: comparing
    d(d(omega)) with zero writes none (`increasing_bars` still writes the
    cochains it reads)."""
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert 0 < len(writes) <= 153


def test_repr_counts_free_entries_and_writes_nothing(ctxs, writes):
    ctx = ctxs["omni(3)"]
    flats = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(2)]
    product = cup(ctx, coboundary(ctx, flats[0]), flats[1])
    free = sum(len(table) for table in free_part(product).components.values())
    assert repr(product) == f"Cochain(degree=3, free_entries={free})"
    assert unwritten(product) and writes == []


def valid_kinds(ctx):
    """One fresh cochain of each kind known valid over ctx's algebra, of
    degrees 2 and 3: `expand` outputs, theta and zeta, basis cochains, a
    validated file cochain, and scale and combine outputs."""
    f = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(3)]
    th, ze = theta(ctx), zeta(ctx)
    filed = cochains.cochain_from_dict(ctx, cochain_to_dict(cup(ctx, f[1], f[0])))
    assert filed._valid_over is None and validate_cochain(ctx, filed).ok
    kinds = {"d f0": coboundary(ctx, f[0]), "f1 f2": cup(ctx, f[1], f[2]),
             "{theta, f0}": poisson(ctx, th, f[0]), "zeta f1": cup(ctx, ze, f[1]),
             "d zeta": coboundary(ctx, ze), "zeta": ze, "theta": th, "file": filed,
             "basis2": cochain_space_basis(ctx, 2)[-1], "basis3": cochain_space_basis(ctx, 3)[-1]}
    kinds.update({"-theta": -th, "3/2 basis2": kinds["basis2"].scale(Fraction(3, 2)),
                  "zeta - d f0": ze - kinds["d f0"], "file + basis2": filed + kinds["basis2"]})
    return kinds


def entrywise(degree, nvars, *scaled):
    """sum factor * omega over the (omega, factor) pairs, summed entry by
    entry over every written entry, as plain dicts."""
    comps = {}
    for omega, factor in scaled:
        for k, table in whole(omega).items():
            out = comps.setdefault(k, {})
            for key, value in table.items():
                out[key] = out.get(key, SymPoly.zero(nvars)) + value.scale(factor)
    return whole(Cochain(degree, nvars, comps))


@pytest.mark.parametrize("strategy", ("first", "last"))
@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_every_valid_kind_is_the_expansion_of_its_free_part(name, strategy):
    ctx = ComplexContext(build_fixture(name), strategy)
    kinds = valid_kinds(ctx)
    sums = {}
    for (a, x), (b, y) in combinations_with_replacement(kinds.items(), 2):
        if x.degree == y.degree:
            sums[a, b] = combine(ctx.zdim, x.degree, (x, 2), (y, Fraction(-1, 3)))
    scalings = {a: x.scale(Fraction(-5, 2)) for a, x in kinds.items()}
    for omega in (*sums.values(), *scalings.values()):
        assert unwritten(omega) and omega._valid_over is ctx.algebra
    for label, x in kinds.items():
        assert x._valid_over is ctx.algebra and not x.is_zero(), label
        assert whole(x) == whole(expand(ctx, x.degree, free_part(x))), label
    for (a, b), total in sums.items():
        assert whole(total) == entrywise(total.degree, ctx.zdim, (kinds[a], 2),
                                         (kinds[b], Fraction(-1, 3))), (a, b)
    for a, scaled in scalings.items():
        assert whole(scaled) == entrywise(scaled.degree, ctx.zdim, (kinds[a], Fraction(-5, 2))), a


def test_sums_over_contexts_of_one_algebra_stay_unwritten():
    # a "first" and a "last" context over one algebra share their free
    # data, so a sum of cochains marked in each is the expansion of one
    alg = build_fixture("O2")
    first, last = ComplexContext(alg, "first"), ComplexContext(alg, "last")
    total = theta(first) + coboundary(last, zeta(last)).scale(2)
    assert unwritten(total) and total._valid_over is alg
    assert whole(total) == entrywise(3, first.zdim, (theta(first), 3))
