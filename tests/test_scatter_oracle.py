"""The scatter kernel against the dense reference implementations.

`d`, `cup`, `bullet` and `diamond` derive their terms from the stored
entries of their operands; `dense_reference` evaluates the same sums by
visiting every output key. Exact rational sums do not depend on the
order of summation, so the two must agree exactly on every input. The
bracket halves derive only the terms at free keys (es strictly
increasing), so each is matched with the free part of its dense half;
`poisson` expands their signed sum, and is matched at every key with the
signed sum of the dense halves, on representable operands. Each public
operator is the expansion of its free part (`free_coboundary`, `free_cup`,
`free_poisson`), which the verify suites compare directly; those free
parts are matched with the free parts of the public outputs.
"""

from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest

import dense_reference as dense
from leibniz_complex import brackets, cochains, verify
from leibniz_complex.algebra import basis_vec, build_fixture
from leibniz_complex.brackets import bullet, diamond, free_poisson, poisson, theta, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, InvalidCochainError, coboundary,
                                      cochain_space_basis, cup, entries, free_coboundary,
                                      free_cup, free_part, scatter)
from leibniz_complex.duality import NotRepresentableError, flat_cochain, is_representable
from leibniz_complex.sympoly import SymPoly, add_scaled
from leibniz_complex.verify import (check_dga_axioms, check_poisson_axioms, check_theta_bracket,
                                    d0_sign_mutant, random_representable)

FIXTURES = ("A3", "O1", "O2", "AFF_O1")
OPERATORS = {"coboundary": (coboundary, dense.coboundary), "cup": (cup, dense.cup),
             "bullet": (bullet, lambda *args: free_part(dense.bullet(*args))),
             "diamond": (diamond, lambda *args: free_part(dense.diamond(*args))),
             "poisson": (poisson, dense.poisson)}


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
        assert_canonical(outcomes[0])
    return outcomes[0]


def assert_canonical(result):
    """The builders build their results unchecked; the checked constructor
    must find nothing to change: no zero value, tuple keys of the right
    arity with sorted centers, and values whose terms SymPoly would store
    as they are, each coefficient of the same type too (an int, not a
    whole Fraction)."""
    checked = Cochain(result.degree, result.nvars, result.components)
    assert checked.components == result.components
    for table in result.components.values():
        for value in table.values():
            rebuilt = SymPoly(value.nvars, dict(value.items()))
            assert {m: (c, type(c)) for m, c in value.items()} == \
                {m: (c, type(c)) for m, c in rebuilt.items()}


def flats(ctx):
    return [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]


def scaled(ctx, omega, factor):
    """omega with every value times factor in S(Z): still valid, since
    validity is linear over S(Z)."""
    return Cochain(omega.degree, ctx.zdim, {k: {key: v * factor for key, v in table.items()}
                                            for k, table in omega.components.items()})


def with_center_values(ctx, omega):
    """omega with every value times 1 + z_1 + ... + z_N: unlike a
    scalar-valued cochain it has nonzero action terms."""
    return scaled(ctx, omega, sum((SymPoly.generator(ctx.zdim, r) for r in range(ctx.zdim)),
                                  SymPoly.constant(ctx.zdim, 1)))


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


@pytest.mark.parametrize("name", FIXTURES + ("omni(3)",))
def test_poisson_of_basis_cochains(contexts, omni3, name):
    """The bracket at every key, on the representable basis cochains and
    center-valued copies (a scalar-valued cochain of positive degree is
    never representable: phi raises the symmetric degree) of degree up to
    that of the basis test, for outputs of degree up to it too."""
    ctx = omni3 if name == "omni(3)" else contexts[name]
    top = 2 if name == "omni(3)" else 3
    pool = {}
    for n in range(top + 1):
        basis = cochain_space_basis(ctx, n)
        copies = [scaled(ctx, omega, SymPoly.generator(ctx.zdim, r))
                  for omega in basis for r in range(ctx.zdim)]
        copies += [with_center_values(ctx, omega) for omega in basis]
        pool[n] = [omega for omega in basis + copies if is_representable(ctx, omega).ok]
    assert any(pool[n] for n in range(1, top + 1))
    for n in range(top + 1):
        for m in range(top + 3 - n):
            for omega in pool[n]:
                for eta in pool.get(m, ()):
                    same(ctx, "poisson", omega, eta)


def test_coboundary_of_entries_with_many_descents(contexts):
    """d skips at once an entry whose es has two descents or more: no term
    reaches a free key from it. The basis cochains of degrees 4 and 5 on
    AFF_O1 store such entries, with two adjacent descents, two apart and
    three, and d of them, with center values so that the action terms run
    too, is d at every key."""
    ctx = contexts["AFF_O1"]
    shapes = set()
    for n in (4, 5):
        for omega in cochain_space_basis(ctx, n):
            for _, es, _, _ in cochains.entries(omega):
                descents = [j for j in range(len(es) - 1) if es[j] >= es[j + 1]]
                if len(descents) > 1:
                    shapes.add((len(descents), descents[1] - descents[0]))
            same(ctx, "coboundary", with_center_values(ctx, omega))
    assert {(2, 1), (2, 2), (3, 1)} <= shapes


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
            same(ctx, "poisson", omega, eta)


def test_canonical_cochains_on_omni3(omni3):
    th, ze = theta(omni3), zeta(omni3)
    for omega in (th, ze):
        same(omni3, "coboundary", omega)
    for flat in flats(omni3)[::3]:
        d_flat = same(omni3, "coboundary", flat)
        same(omni3, "cup", ze, flat)
        # degree-4 products, the ones whose free values expand the furthest
        same(omni3, "cup", th, flat)
        same(omni3, "cup", ze, d_flat)
        for omega, eta in ((th, flat), (flat, th), (ze, flat), (flat, ze)):
            same(omni3, "bullet", omega, eta)
            same(omni3, "diamond", omega, eta)
            same(omni3, "poisson", omega, eta)


def fraction_valued_eta(ctx, rng):
    """p.(flat(a) cup flat(b)) + flat(c) cup flat(d), a..d drawn by
    `verify.random_element` and p = r + (s/2).z_k with s odd: the shape of
    the benchmark's degree-2 eta on omni(3), with values whose
    coefficients are Fractions, built by the package's own operators."""
    def flat():
        return flat_cochain(ctx, verify.random_element(rng, ctx.dim))

    p = SymPoly(ctx.zdim, {(): rng.choice((-2, -1, 1, 2)),
                           (rng.randrange(ctx.zdim),): Fraction(rng.choice((-1, 1)), 2)})
    scaled = same(ctx, "cup", Cochain.constant(p), same(ctx, "cup", flat(), flat()))
    return scaled + same(ctx, "cup", flat(), flat())


@pytest.mark.parametrize("seed", (3, 4))
def test_fraction_valued_eta_on_omni3(omni3, seed):
    """Every operator on the benchmark's eta shape, at every key: cup
    (building it), d, both bracket halves both ways round and the bracket
    with theta, and `expand` of each dense output's free part."""
    eta = fraction_valued_eta(omni3, Random(seed))
    assert any(isinstance(c, Fraction) for *_, value in entries(eta) for _, c in value.items())
    assert is_representable(omni3, eta).ok
    th = theta(omni3)
    d_eta = same(omni3, "coboundary", eta)
    for omega, other in ((th, eta), (eta, th)):
        same(omni3, "bullet", omega, other)
        same(omni3, "diamond", omega, other)
    assert same(omni3, "poisson", th, eta) == -d_eta
    for whole in (dense.coboundary(omni3, eta), dense.poisson(omni3, th, eta)):
        assert cochains.expand(omni3, whole.degree, free_part(whole)) == whole


def test_expansions_leave_shared_values_unchanged(omni3):
    """`expand` writes an input value itself at its +1 keys, one shared
    multiple at each other coefficient, and a summed copy where two tables
    share a key. Expansions that overlap everywhere, one value object at
    every free key, change neither that value, nor the values of the
    cochains it came from, nor those an earlier output shares."""
    eta = fraction_valued_eta(omni3, Random(5))
    d_eta = coboundary(omni3, eta)
    free = free_part(d_eta)
    one = next(entries(free))[3]
    everywhere = Cochain(3, omni3.zdim, {k: dict.fromkeys(table, one)
                                         for k, table in free.components.items()})
    held = [value for omega in (eta, d_eta, free, everywhere) for *_, value in entries(omega)]
    before = [dict(value.items()) for value in held]
    first = cochains.expand(omni3, 3, free)
    shared = [value for *_, value in entries(first)]
    shared_before = [dict(value.items()) for value in shared]
    overlapping = cochains.expand(omni3, 3, everywhere)
    assert any(value is one for *_, value in entries(overlapping))
    assert cochains.expand(omni3, 3, free) == first == d_eta
    assert [dict(value.items()) for value in held] == before
    assert [dict(value.items()) for value in shared] == shared_before
    copies = Cochain(3, omni3.zdim, {
        k: {key: SymPoly(omni3.zdim, dict(one.items())) for key in table}
        for k, table in free.components.items()})
    assert overlapping == cochains.expand(omni3, 3, copies)
    assert free_part(overlapping) == everywhere


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
            same(ctx, "poisson", a, b)


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
        same(ctx, "poisson", zz, flats(ctx)[0])
    zz = cup(o1, zeta(o1), zeta(o1))
    same(o1, "bullet", zz, zz)
    same(o1, "diamond", zz, zz)
    same(o1, "poisson", zz, zeta(o1))


def test_degree_zero_and_zero_operands(o1, o2):
    for ctx in (o1, o2):
        const = Cochain.constant(SymPoly.generator(ctx.zdim, 0) + SymPoly.constant(ctx.zdim, 1))
        zero0, zero3 = Cochain.zero(0, ctx.zdim), Cochain.zero(3, ctx.zdim)
        small = [const, zero0, Cochain.zero(1, ctx.zdim), flats(ctx)[-1]]
        for omega in small + [zero3, theta(ctx)]:
            same(ctx, "coboundary", omega)
            for eta in small if omega.degree < 3 else (const, zero0):
                for a, b in ((omega, eta), (eta, omega)):
                    for op in ("cup", "bullet", "diamond", "poisson"):
                        same(ctx, op, a, b)


def test_brackets_with_clamped_degree(o1):
    # degrees n + m <= 1 put bullet and diamond in degree 0, where they vanish
    const = Cochain.constant(SymPoly.generator(1, 0))
    flat = flats(o1)[0]
    for omega, eta in ((const, flat), (flat, const), (const, const)):
        for op in ("bullet", "diamond", "poisson"):
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


@pytest.mark.parametrize("name", FIXTURES)
def test_built_cochains_are_canonical(contexts, name):
    ctx = contexts[name]
    flat, basis = flats(ctx)[-1], cochain_space_basis(ctx, 2)
    results = [zeta(ctx), theta(ctx), flat, *basis, flat + flat, flat - flat, -flat,
               zeta(ctx).scale(Fraction(1, 2)), d0_sign_mutant(ctx, zeta(ctx))]
    if ctx.algebra.is_fat():
        results.append(poisson(ctx, theta(ctx), flat))
    for result in results:
        assert_canonical(result)


def test_d0_sign_mutant_against_dense(o1, o2):
    for ctx in (o1, o2):
        for omega in [zeta(ctx), theta(ctx)] + flats(ctx):
            expected = dense.coboundary(ctx, omega) - dense.first_slot_action(ctx, omega).scale(2)
            assert d0_sign_mutant(ctx, omega) == expected


# -- the work the kernel does ---------------------------------------------------


def stored(omega):
    return sum(len(table) for table in omega.components.values())


def test_work_follows_stored_entries_not_output_keys(monkeypatch):
    """Counts the kernels' units of work on omni(4), dim 20: for d, the
    entries of B(K) it reads and the action terms it adds; for cup, its
    accumulate calls and value lookups. A dense loop over the 20^4 output
    keys of d(theta), or the 20^3 of a degree-3 product, exceeds these
    bounds many times over."""
    ctx = ComplexContext(build_fixture("omni(4)"))
    dim = ctx.dim
    work = Counter()
    accumulate, value = cochains.accumulate, Cochain.value
    free_boundary, action = cochains._free_boundary, cochains.action

    def counted_accumulate(acc, poly, factor=1):
        work["accumulate"] += 1
        accumulate(acc, poly, factor)

    def counted_value(self, k, es, fs):
        work["value"] += 1
        return value(self, k, es, fs)

    def counted_free_boundary(ctx, k, es, fs):
        terms = free_boundary(ctx, k, es, fs)
        work["d"] += len(terms)
        return terms

    def counted_action(ctx, i, poly, images=None):
        work["d"] += 1
        return action(ctx, i, poly, images)

    monkeypatch.setattr(cochains, "accumulate", counted_accumulate)
    monkeypatch.setattr(Cochain, "value", counted_value)
    monkeypatch.setattr(cochains, "_free_boundary", counted_free_boundary)
    monkeypatch.setattr(cochains, "action", counted_action)
    th, ze = theta(ctx), zeta(ctx)
    flat = flat_cochain(ctx, tuple(Fraction(1) for _ in range(dim)))
    assert dim == 20 and stored(th) and stored(ze) and stored(flat)

    # per entry of theta (n = 3 arguments), d has at most dim * (n + 1)
    # action terms, 8 * n(n + 1)/2 bracket terms (no basis element is a
    # component of more than 8 products) and zdim delta terms: < 2 (n + 1) dim;
    # d reads them at theta's free entries only, the action terms of each
    # free value and the summed bracket and delta terms of its key, B(K)
    table = ctx.algebra.table
    assert all(sum(table[x][y][t] != 0 for x in range(dim) for y in range(dim)) <= 8
               for t in range(dim))
    work.clear()
    assert coboundary(ctx, th).is_zero()
    bound = 2 * stored(th) * (th.degree + 1) * dim
    assert 0 < work["d"] <= bound < dim ** 4 // 4
    assert work["accumulate"] == work["value"] == 0

    work.clear()
    cup(ctx, ze, flat)
    # an every-key product derives one term per pair of entries and (2, 1)
    # shuffle; this one derives at most one per pair, the one at a free key,
    # and its work on top (validating zeta, expanding the free values) stays
    # within that count
    bound = stored(ze) * stored(flat) * comb(3, 1)
    assert 0 < work["accumulate"] + work["value"] <= bound < dim ** 3 // 2


def is_free(es):
    return all(x < y for x, y in zip(es, es[1:]))


def record_written_keys(monkeypatch):
    """The es of every key d and the pair kernel write: the keys of the
    sums d and `pair_at_free_keys` hand to `cochains._gathered`,
    a key whose sum is zero included. `expand`, which fills in the other
    keys, writes its output itself."""
    gathered, keys = cochains._gathered, []

    def recording_gathered(nvars, degree, sums, *raw):
        keys.extend(es for _, es, _ in sums)
        return gathered(nvars, degree, sums, *raw)

    monkeypatch.setattr(cochains, "_gathered", recording_gathered)
    return keys


def free_key_inputs(ctx, name):
    top = 2 if name == "omni(3)" else 3
    return [theta(ctx), zeta(ctx)] + flats(ctx) + [
        with_center_values(ctx, omega) for n in range(top + 1)
        for omega in cochain_space_basis(ctx, n)]


@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_d_derives_terms_only_at_free_keys(contexts, omni3, monkeypatch, name):
    """d writes only keys at strictly increasing es, and `expand` fills in
    the other keys; an every-key d sends most of its terms to the permuted
    copies of the free keys."""
    ctx = omni3 if name == "omni(3)" else contexts[name]
    inputs = free_key_inputs(ctx, name)
    keys = record_written_keys(monkeypatch)
    for omega in inputs:
        coboundary(ctx, omega)
    assert keys and all(is_free(es) for es in keys)


@pytest.mark.parametrize("name", ("O2", "omni(3)"))
def test_cup_derives_terms_only_at_free_keys(contexts, omni3, monkeypatch, name):
    """The product's pair kernel too writes only keys at strictly
    increasing es before `expand`: one per pair of disjoint strictly
    increasing argument tuples, where an every-key product writes one per
    shuffle."""
    ctx = omni3 if name == "omni(3)" else contexts[name]
    inputs = free_key_inputs(ctx, name)
    keys = record_written_keys(monkeypatch)
    for omega in inputs:
        for eta in (zeta(ctx), flats(ctx)[-1], inputs[-1]):
            if omega.degree + eta.degree <= 4:
                cup(ctx, omega, eta)
    assert keys and all(is_free(es) for es in keys)


def test_action_runs_only_on_values_it_can_move(contexts, omni3, monkeypatch):
    """The action kills scalars, and on A3 every e_i acts as zero, so d
    calls `action` on neither; center-valued cochains on O2 do reach it."""
    calls = []
    action = cochains.action

    def counted_action(ctx, i, poly, images=None):
        calls.append(i)
        return action(ctx, i, poly, images)

    monkeypatch.setattr(cochains, "action", counted_action)
    for name, ctx in (*contexts.items(), ("omni(3)", omni3)):
        for n in range(3 if name == "omni(3)" else 4):
            for omega in cochain_space_basis(ctx, n):
                coboundary(ctx, omega)
    a3, o2 = contexts["A3"], contexts["O2"]
    assert a3.algebra.acting == ()
    center_valued = [with_center_values(a3, omega)
                     for n in range(4) for omega in cochain_space_basis(a3, n)]
    for omega in [theta(a3), zeta(a3)] + flats(a3) + center_valued:
        coboundary(a3, omega)
    assert not calls
    coboundary(o2, with_center_values(o2, flats(o2)[0]))
    assert calls


# -- the free parts the verify suites compare ---------------------------------------

FREE_OPERATORS = {"coboundary": (free_coboundary, coboundary), "cup": (free_cup, cup),
                  "poisson": (free_poisson, poisson)}


def same_free(ctx, op, *operands):
    """The free operator gives the free part of the public one, or both
    raise NotRepresentableError; returns the free part (None on a raise)."""
    free, whole = FREE_OPERATORS[op]
    try:
        expected = free_part(whole(ctx, *operands))
    except NotRepresentableError:
        with pytest.raises(NotRepresentableError):
            free(ctx, *operands)
        return None
    got = free(ctx, *operands)
    assert got == expected and got.degree == expected.degree, (op, operands)
    assert_canonical(got)
    assert all(is_free(es) for _, es, _, _ in entries(got))
    return got


@pytest.mark.parametrize("name", FIXTURES)
def test_free_operators_are_the_free_parts_of_the_operators(contexts, name):
    ctx = contexts[name]
    rng = Random(17)
    pool = [theta(ctx), zeta(ctx)] + flats(ctx)
    pool += [random_representable(ctx, rng, rng.randint(0, 2)) for _ in range(4)]
    for omega in pool:
        same_free(ctx, "coboundary", omega)
        same_free(ctx, "coboundary", with_center_values(ctx, omega))
        for eta in pool:
            if omega.degree + eta.degree <= 4:
                product = same_free(ctx, "cup", omega, eta)
                # the product reads only free entries: free parts are operands too
                assert free_cup(ctx, free_part(omega), free_part(eta)) == product
                assert free_cup(ctx, free_part(omega), eta) == product
            same_free(ctx, "poisson", omega, eta)


def test_free_operators_on_omni3(omni3):
    th, ze = theta(omni3), zeta(omni3)
    for omega in (th, ze):
        same_free(omni3, "coboundary", omega)
    for flat in flats(omni3)[::4]:
        d_flat = coboundary(omni3, flat)
        same_free(omni3, "coboundary", flat)
        for omega, eta in ((th, flat), (ze, d_flat)):
            product = same_free(omni3, "cup", omega, eta)
            assert free_cup(omni3, free_part(omega), free_part(eta)) == product
            assert same_free(omni3, "poisson", omega, eta) is not None


@pytest.mark.parametrize("name", ("O1", "O2", "AFF_O1"))
def test_free_parts_are_refused_by_the_public_operators(contexts, name):
    """A free part is never marked valid: unless it is the whole cochain,
    an operator that validates its operands refuses it instead of reading
    its missing keys as zero. One of degree below 2 is the whole cochain."""
    ctx = contexts[name]
    flat = flats(ctx)[-1]
    for omega in (theta(ctx), zeta(ctx)):
        cut = free_part(omega)
        assert cut != omega and cut._valid_over is None
        for call in (lambda: cup(ctx, cut, flat), lambda: cup(ctx, flat, cut),
                     lambda: coboundary(ctx, cut), lambda: free_coboundary(ctx, cut),
                     lambda: poisson(ctx, flat, cut), lambda: free_poisson(ctx, cut, flat)):
            with pytest.raises(InvalidCochainError):
                call()
    assert free_part(flat) == flat and free_part(flat)._valid_over is None
    assert cup(ctx, free_part(flat), flat) == cup(ctx, flat, flat)


def flip_one_value(fn):
    """fn with the value at the least key of each nonzero result negated:
    one wrong sign among the free values of an operator. Given a caller's
    raw sums, as `free_poisson` hands each bracket half, the half is
    computed alone, flipped, and added into them times factor."""

    def mutant(ctx, *operands, sums=None, factor=1):
        result = fn(ctx, *operands)
        keys = sorted((k, es, fs) for k, es, fs, _ in entries(result))
        flipped = scatter(result.nvars, result.degree, (
            (k, es, fs, value, -1 if keys and (k, es, fs) == keys[0] else 1)
            for k, es, fs, value in entries(result)))
        if sums is None:
            return flipped
        for k, es, fs, value in entries(flipped):
            add_scaled(sums.setdefault((k, es, fs), {}), value, factor)

    return mutant


def test_a_wrong_sign_in_the_free_product_fails_the_dga_axioms(monkeypatch):
    ctx = ComplexContext(build_fixture("O1"))
    monkeypatch.setattr(verify, "free_cup", flip_one_value(free_cup))
    result = check_dga_axioms(ctx, "O1", Random(0), 5)
    assert not result.passed and "fails at degrees" in result.details, result
    assert result.counterexample["lhs"] != result.counterexample["rhs"]


@pytest.mark.parametrize("check", (check_poisson_axioms, check_theta_bracket))
def test_a_wrong_sign_in_bullet_fails_the_bracket_checks(monkeypatch, check):
    ctx = ComplexContext(build_fixture("O1"))  # a new context: no cached bracket
    monkeypatch.setattr(brackets, "bullet", flip_one_value(bullet))
    result = check(ctx, "O1", Random(2), 10)
    assert not result.passed and not result.details.startswith("raised"), result
    assert result.counterexample["lhs"] != result.counterexample["rhs"]
