"""The views an operand keeps on itself change no value.

`cochains.operand_view` keeps on each cochain what the operators read of
it as an operand: its free entries (`cochains.free_view`), its bar
covectors at strictly increasing prefixes (`duality.increasing_bars`)
and `diamond`'s derivation bases with their monomial images. An operator
gives on an operand it has read before, views kept, what it gives on a
fresh equal copy, views built anew: the same cochain or the same error.
That holds in a "first" and a "last" pivot-strategy context alike, with
views built in one and read in the other, and no kept view skips the
shuffle budget.
"""

from itertools import product
from random import Random

import pytest

from leibniz_complex import cochains
from leibniz_complex.algebra import build_fixture
from leibniz_complex.brackets import basis_flat, bullet, diamond, poisson, theta, theta_flat, zeta
from leibniz_complex.cochains import (Cochain, ComplexContext, ShuffleBudgetError,
                                      cochain_from_dict, cochain_space_basis, cochain_to_dict, cup)
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


def test_kept_views_never_skip_the_shuffle_budget(monkeypatch):
    """theta's longest argument tuple has 3 entries, its longest prefix 2 and
    its longest tuple beside a center argument 1; zeta's longest tuple has
    2 and its longest prefix 1. Two shuffles are then too few for the
    product (C(5, 3) = 10), for `bullet` (C(3, 2) = 3) and for `diamond`
    (C(3, 1) = 3), although each ran on the same objects before."""
    ctx = ComplexContext(build_fixture("O2"))
    omega, eta = theta(ctx), zeta(ctx)
    for op in (cup, bullet, diamond):
        op(ctx, omega, eta)
    monkeypatch.setattr(cochains, "MAX_SHUFFLES", 2)
    for op in (cup, bullet, diamond):
        with pytest.raises(ShuffleBudgetError):
            op(ctx, omega, eta)
