"""The graded bracket on representable cochains and the derived bracket.

Two ingredient operations act on partially evaluated components:

  * pair_bracket combines two lifted maps valued in S(Z) (x) L by
    shuffling the center arguments between them and pairing the values.
  * circ_compose feeds one map's value into the first slot of another,
    extending that first slot as a derivation (so polynomial values are
    consumed Leibniz-style), again shuffling the remaining arguments.

The two halves of the bracket are these operations summed over signed
shuffles of the algebra arguments; `bullet` and `diamond` scatter that
sum from the operands' stored entries, and

    {w, h} = bullet(w, h) + diamond(w, h) - (-1)^(nm) diamond(h, w).

The canonical cochains live here too: the degree-2 `zeta` (symmetric
product plus the -2f tail) whose coboundary is the degree-3 `theta`,
and the derived-bracket reconstruction

    (e1 . e2)-flat = -{{theta, e1-flat}, e2-flat},

which on a fat algebra recovers e1 . e2 itself through the section.
"""

from dataclasses import dataclass

from .cochains import Cochain, entries, pair_terms, position_splits, scatter
from .duality import (NotRepresentableError, dual_from_cochain, flat_cochain,
                      pair_extended, sharp, stored_prefixes, tilde_value)
from .sympoly import SymPoly, derivation_extend


class ArityError(ValueError):
    pass


@dataclass
class HomSym:
    """Map from size-`arity` Z-multisets to S(Z), or to S(Z) (x) L."""

    arity: int
    fn: object

    def __call__(self, fs):
        return self.fn(tuple(sorted(fs)))


def pair_bracket(ctx, alpha, beta):
    """Shuffle the center arguments over alpha and beta and pair the values."""

    k, l = alpha.arity, beta.arity

    def fn(fs):
        acc = SymPoly.zero(ctx.zdim)
        for left, right in position_splits(k + l, k):
            x = alpha(tuple(fs[p] for p in left))
            if x.is_zero():
                continue
            y = beta(tuple(fs[p] for p in right))
            if y.is_zero():
                continue
            acc = acc + pair_extended(ctx, x, y)
        return acc

    return HomSym(k + l, fn)


def circ_compose(ctx, gamma, delta):
    """Feed delta's value into gamma's derivation-extended first slot."""

    k, l = gamma.arity, delta.arity
    if k < 1:
        raise ArityError("the first operand needs at least one center argument")

    def fn(fs):
        acc = SymPoly.zero(ctx.zdim)
        for left, right in position_splits(k + l - 1, l):
            value = delta(tuple(fs[p] for p in left))
            if value.is_zero():
                continue
            rest = tuple(fs[p] for p in right)
            base = [gamma(tuple(sorted((r,) + rest))) for r in range(ctx.zdim)]
            acc = acc + derivation_extend(base, value)
        return acc

    return HomSym(k + l - 1, fn)


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
    _lifts(ctx, omega)  # only to raise when omega is not representable
    left = [(k, es[:-1], fs, (es[-1], v)) for k, es, fs, v in entries(omega) if es]
    terms = pair_terms(left, _lifts(ctx, eta), lambda ev, y: ev[1] * y.coeffs[ev[0]])
    sign = -1 if eta.degree % 2 == 0 else 1  # (-1)^(m-1)
    return scatter(ctx, max(omega.degree + eta.degree - 2, 0), terms).scale(sign)


def diamond(ctx, omega, eta):
    """Composition half of the bracket: each eta entry fed, as a
    derivation, into the first center argument of omega's components."""
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
                value = alg.pairing_poly(alg.basis_vector(i), alg.z_basis[r]).scale(-1)
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
