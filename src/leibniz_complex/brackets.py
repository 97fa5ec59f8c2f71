"""The graded bracket on representable cochains and the derived bracket.

The bracket has two halves, each a sum over signed shuffles of the
algebra arguments. `bullet` pairs the section lifts of both operands'
partial evaluations; `diamond` feeds one operand's value into the first
center slot of the other, extended as a derivation. Both scatter that
sum from the operands' stored entries (the paper's defining formulas,
pair_bracket and circ_compose, are the test oracle in
tests/dense_reference.py), and

    {w, h} = bullet(w, h) + diamond(w, h) - (-1)^(nm) diamond(h, w).

The canonical cochains live here too: the degree-2 `zeta` (symmetric
product plus the -2f tail) whose coboundary is the degree-3 `theta`,
and the derived-bracket reconstruction

    (e1 . e2)-flat = -{{theta, e1-flat}, e2-flat},

which on a fat algebra recovers e1 . e2 itself through the section.
"""

from .algebra import basis_vec
from .cochains import Cochain, check_context, entries, pair_terms, scatter
from .duality import (NotRepresentableError, dual_from_cochain, flat_cochain,
                      sharp, stored_prefixes, tilde_value)
from .sympoly import SymPoly, derivation_extend


def _lifts(ctx, omega):
    """(k, prefix, fs, lift) for each distinct stored prefix of omega: the
    section lift of its bar covector, nonzero because the covector is."""
    return [(k, prefix, fs, tilde_value(ctx, omega, k, prefix, fs))
            for k, prefix, fs in stored_prefixes(omega)]


def bullet(ctx, omega, eta):
    """Pairing half of the bracket: the lifts of both operands paired.

    A lift x of omega's bar covector at (prefix, fs) has phi(x) =
    omega(prefix, -; fs), so pairing x with a lift y of eta's is the sum of
    omega's entries omega(prefix, e; fs) times y's e-coefficient.
    Raises NotRepresentableError when either operand is not representable.
    """
    check_context(ctx, omega, eta)
    _lifts(ctx, omega)  # only to raise when omega is not representable
    left = [(k, es[:-1], fs, (es[-1], v)) for k, es, fs, v in entries(omega) if es]
    terms = pair_terms(left, _lifts(ctx, eta), lambda ev, y: ev[1] * y.coeffs[ev[0]])
    sign = -1 if eta.degree % 2 == 0 else 1  # (-1)^(m-1)
    return scatter(ctx, max(omega.degree + eta.degree - 2, 0), terms).scale(sign)


def diamond(ctx, omega, eta):
    """Composition half of the bracket: each eta entry fed, as a
    derivation, into the first center argument of omega's components."""
    check_context(ctx, omega, eta)
    bases = {}  # (k, es, other centers) -> [omega_{k+1}(es; r, others) for each r]
    for k, es, fs, value in entries(omega):
        for pos, r in enumerate(fs):
            key = (k - 1, es, fs[:pos] + fs[pos + 1:])
            bases.setdefault(key, [SymPoly.zero(ctx.zdim)] * ctx.zdim)[r] = value
    left = [(i, es, rest, base) for (i, es, rest), base in bases.items()]
    terms = pair_terms(left, entries(eta), derivation_extend)
    return scatter(ctx, max(omega.degree + eta.degree - 2, 0), terms)


def poisson(ctx, omega, eta):
    """{omega, eta} = bullet + diamond - (-1)^(nm) diamond flipped."""
    n, m = omega.degree, eta.degree
    sign = -1 if (n * m) % 2 else 1
    return bullet(ctx, omega, eta) + diamond(ctx, omega, eta) - diamond(ctx, eta, omega).scale(sign)


def zeta(ctx):
    """Degree-2 cochain: the symmetric product with tail f -> -2f."""
    cached = ctx.cache.get("zeta")
    if cached is None:
        alg = ctx.algebra
        table0 = {}
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                value = alg.pairing_poly_basis(i, j)
                if not value.is_zero():
                    table0[((i, j), ())] = value
        table1 = {((), (r,)): SymPoly.monomial(ctx.zdim, (r,), -2) for r in range(ctx.zdim)}
        cached = Cochain(2, ctx.zdim, {0: table0, 1: table1})
        ctx.cache["zeta"] = cached
    return cached


def theta(ctx):
    """The canonical degree-3 cocycle: (e1.e2, e3) with tail -(e, f)."""
    cached = ctx.cache.get("theta")
    if cached is None:
        alg = ctx.algebra
        table0 = {}
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                w = alg.table[i][j]
                if all(c == 0 for c in w):
                    continue
                for l in range(ctx.dim):
                    acc = SymPoly.zero(ctx.zdim)
                    for t, c in enumerate(w):
                        if c != 0:
                            acc = acc + alg.pairing_poly_basis(t, l).scale(c)
                    if not acc.is_zero():
                        table0[((i, j, l), ())] = acc
        table1 = {}
        for i in range(ctx.dim):
            for r in range(ctx.zdim):
                value = alg.pairing_poly(basis_vec(ctx.dim, i), alg.z_basis[r]).scale(-1)
                if not value.is_zero():
                    table1[((i,), (r,))] = value
        cached = Cochain(3, ctx.zdim, {0: table0, 1: table1})
        ctx.cache["theta"] = cached
    return cached


def derived_bracket_dual(ctx, v, w):
    """-{{theta, v-flat}, w-flat} as a covector (defined for any algebra)."""
    inner = poisson(ctx, theta(ctx), flat_cochain(ctx, v))
    outer = poisson(ctx, inner, flat_cochain(ctx, w))
    return -dual_from_cochain(ctx, outer)


def derived_bracket(ctx, v, w):
    """Reconstruct v . w from the bracket machinery.

    Returns the algebra element when the symmetric product is
    non-degenerate; otherwise the covector level is all there is and the
    DualElement is returned.
    """
    dual = derived_bracket_dual(ctx, v, w)
    if not ctx.algebra.is_fat():
        return dual
    lift = sharp(ctx, dual)
    vec = lift.as_vector()
    if vec is None:
        raise NotRepresentableError("derived bracket lift has non-scalar coefficients")
    return vec
