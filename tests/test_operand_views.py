"""The views an operand keeps on itself change no value.

`cochains.operand_view` keeps on each cochain what the operators read of
it as an operand: its free entries (`cochains.free_view`), its bar
covectors at strictly increasing prefixes (`duality.increasing_bars`)
and `diamond`'s derivation bases with their monomial images. An operator
gives on an operand it has read before, views kept, what it gives on a
fresh equal copy, views built anew: the same cochain or the same error.
That holds in a "first" and a "last" pivot-strategy context alike, with
views built in one and read in the other, and no table kept in a context
skips a lowered table budget.
"""

from itertools import product
from random import Random

import pytest

from leibniz_complex import cochains
from leibniz_complex.algebra import build_fixture
from leibniz_complex.brackets import basis_flat, bullet, diamond, poisson, theta, theta_flat, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, TableBudgetError, coboundary,
                                      cochain_from_dict, cochain_space_basis, cochain_to_dict, cup)
from leibniz_complex.duality import is_representable
from leibniz_complex.sympoly import SymPoly
from leibniz_complex.verify import VerifyConfig, random_representable

FIXTURES = VerifyConfig().fixtures + ("omni(3)",)
OPERATORS = (cup, bullet, diamond, poisson)


def pairs(pool):
    """(op, omega, eta) for every operator and pair of operands, less the
    products of degree 5 and up: on omni(3) those take most of the time
    and read the same free view as the lower products."""
    return [(op, omega, eta) for op, (omega, eta) in product(OPERATORS, product(pool, repeat=2))
            if op is not cup or omega.degree + eta.degree <= 4]


def fresh(ctx, omega):
    """An equal copy that keeps no view and is not marked valid or representable."""
    return cochain_from_dict(ctx, cochain_to_dict(omega))


def outcome(op, ctx, omega, eta):
    """op's cochain, or the type and message of what it raised."""
    try:
        return op(ctx, omega, eta)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def operands(ctx, seed):
    """Representable cochains of degrees 0 to 3 (theta, zeta, flats, a
    {theta, e_i-flat}, seeded samples), degree-1 basis cochains, which
    are not representable on every fixture, and one cochain that is not
    weakly skew-symmetric."""
    rng = Random(seed)
    pool = [theta(ctx), zeta(ctx), basis_flat(ctx, 0), basis_flat(ctx, ctx.dim - 1),
            theta_flat(ctx, 0), random_representable(ctx, rng, 0),
            random_representable(ctx, rng, 2)]
    pool += cochain_space_basis(ctx, 1)[:2]
    pool.append(Cochain(2, ctx.zdim, {0: {((0, 1), ()): SymPoly.constant(ctx.zdim, 1)}}))
    return pool


@pytest.mark.parametrize("name", FIXTURES)
def test_reused_operands_give_what_fresh_copies_give(name):
    algebra = build_fixture(name)
    ctx, reference = ComplexContext(algebra), ComplexContext(algebra)
    pool = operands(ctx, name)
    raised = 0
    for op, omega, eta in pairs(pool):
        first = outcome(op, ctx, omega, eta)
        assert outcome(op, ctx, omega, eta) == first, (op.__name__, omega, eta)
        assert outcome(op, reference, fresh(ctx, omega), fresh(ctx, eta)) == first, \
            (op.__name__, omega, eta)
        raised += isinstance(first, tuple)
    assert raised > 0


@pytest.mark.parametrize("name", FIXTURES)
def test_views_built_in_one_pivot_context_serve_the_other(name):
    algebra = build_fixture(name)
    contexts = {strategy: ComplexContext(algebra, strategy) for strategy in ("first", "last")}
    references = {strategy: ComplexContext(algebra, strategy) for strategy in ("first", "last")}
    pool = operands(contexts["first"], name)
    for op, omega, eta in pairs(pool):
        expected = {strategy: outcome(op, ctx, fresh(ctx, omega), fresh(ctx, eta))
                    for strategy, ctx in references.items()}
        for strategy in ("first", "last", "first"):  # the views are built in "first"
            assert outcome(op, contexts[strategy], omega, eta) == expected[strategy], \
                (op.__name__, strategy, omega, eta)


def test_cached_tables_never_skip_a_lowered_budget(monkeypatch):
    """cup, d and the bracket of theta and zeta on O2 expand free data
    whose walks are kept in the context's cache, and is_representable
    tests theta on phi's degree-0 system (6 columns), kept in the section.
    With the budget lowered to one entry, every walk of more than one key
    and every system of more than one column is over it, so each call
    raises again, although each ran on the same objects before."""
    ctx = ComplexContext(build_fixture("O2"))
    omega, eta = theta(ctx), zeta(ctx)
    calls = (lambda: cup(ctx, omega, eta), lambda: coboundary(ctx, eta),
             lambda: poisson(ctx, omega, eta), lambda: is_representable(ctx, omega))
    for call in calls:
        call()
    monkeypatch.setattr(cochains, "MAX_TABLE", 1)
    for call in calls:
        with pytest.raises(TableBudgetError, match="above the limit of 1"):
            call()
