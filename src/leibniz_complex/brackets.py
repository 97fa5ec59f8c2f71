"""The graded bracket on representable cochains and the derived bracket.

The bracket has two halves, each a sum over signed shuffles of the
algebra arguments: `bullet` pairs the section lifts of both operands'
partial evaluations, and `diamond` feeds one operand's value into the
first center slot of the other, extended as a derivation:

    {w, h} = bullet(w, h) + diamond(w, h) - (-1)^(nm) diamond(h, w).

Each half sums its operand pairs straight into its free part, its values
at the free keys (`cochains.pair_at_free_keys`), and `poisson` expands
their signed sum. The paper's defining formulas, pair_bracket and
circ_compose, evaluate each half at every key in the test oracle
tests/dense_reference.py.

The canonical cochains live here too: the degree-2 `zeta` (symmetric
product plus the -2f tail) whose coboundary is the degree-3 `theta`, and
the derived-bracket reconstruction

    (e1 . e2)-flat = -{{theta, e1-flat}, e2-flat},

which on a fat algebra recovers e1 . e2 itself through the section.
"""

from itertools import chain

from .algebra import basis_vec
from .cochains import (Cochain, _increasing, check_context, combine, entries, expand,
                       free_view, operand_view, pair_at_free_keys, require_valid, scatter)
from .duality import (NotRepresentableError, covector, dual_from_cochain, flat_cochain,
                      increasing_bars, lift, require_representable, tilde_value)
from .sympoly import SymPoly, add_derivation, add_product


def _lifts(ctx, omega):
    """(k, prefix, fs, lift) at each strictly increasing stored prefix of
    omega (`duality.increasing_bars`), in key order: the nonzero section
    lift of its bar covector, the only lifts `bullet` reads, and only of
    its right operand.

    omega must be valid (InvalidCochainError otherwise); weak
    skew-symmetry then writes every bar covector as a rational combination
    of these, so omega is representable exactly when they exist
    (NotRepresentableError otherwise). A lift depends on the section, so
    the list is kept per cochain in the context's cache; `tilde_value`
    solves and stores each lift.
    """
    cache = ctx.cache.setdefault("lifts", {})
    lifts = cache.get(omega)
    if lifts is None:
        require_valid(ctx, omega)
        lifts = cache[omega] = tuple((k, prefix, fs, tilde_value(ctx, omega, k, prefix, fs))
                                     for k, prefix, fs, _ in increasing_bars(omega))
    return lifts


def bullet(ctx, omega, eta):
    """Pairing half of the bracket at the free keys: the lifts of both
    operands paired.

    A lift x of omega's bar covector at (prefix, fs) has phi(x) =
    omega(prefix, -; fs), so pairing x with a lift y of eta's is the dot
    product of omega's entries omega(prefix, e; fs) with y's
    e-coefficients, signed by (-1)^(m-1). So omega is only checked to be
    representable, never lifted: each of its bar covectors at a strictly
    increasing prefix (`duality.increasing_bars`) has each product v *
    y_e added into the pair's key. Raises InvalidCochainError when either
    operand is not weakly skew-symmetric, NotRepresentableError when it
    is not representable, omega checked first.
    """
    check_context(ctx, omega, eta)
    require_representable(ctx, omega)
    sign = -1 if eta.degree % 2 == 0 else 1

    def add_pair(acc, bar, y, factor):
        for e, v in bar.items():
            add_product(acc, v, y.coeffs[e], sign * factor)

    return pair_at_free_keys(ctx.zdim, max(omega.degree + eta.degree - 2, 0),
                             increasing_bars(omega), _lifts(ctx, eta), add_pair)


def diamond(ctx, omega, eta):
    """Composition half of the bracket at the free keys: each free eta
    entry fed, as a derivation, into the first center argument of omega's
    components, wherever the two argument tuples are strictly increasing
    and disjoint, and added into the key from the monomial images kept
    with omega's derivation bases (`_derivation_bases`)."""
    check_context(ctx, omega, eta)
    degree = max(omega.degree + eta.degree - 2, 0)
    if omega.extent()[1] == 0:  # no stored center argument: nothing to feed into
        return Cochain.zero(degree, ctx.zdim)
    return pair_at_free_keys(ctx.zdim, degree, operand_view(omega, "bases", _derivation_bases),
                             free_view(eta), lambda acc, b, y, f: add_derivation(acc, b[0], y, b[1], f))


def _derivation_bases(omega):
    """(k, es, others, (base, images)) for each strictly increasing es of
    omega stored with a center argument: base lists omega_{k+1}(es; r,
    others) for each center generator r, and images is the dict of its
    monomial images `sympoly.add_derivation` fills, kept on the cochain."""
    bases = {}
    for k, es, fs, value in entries(omega):
        if fs and _increasing(es):
            for pos, r in enumerate(fs):
                base = bases.setdefault((k - 1, es, fs[:pos] + fs[pos + 1:]),
                                        [SymPoly.zero(omega.nvars)] * omega.nvars)
                base[r] = value
    return tuple((i, es, rest, (base, {})) for (i, es, rest), base in bases.items())


def poisson(ctx, omega, eta):
    """{omega, eta} = bullet + diamond - (-1)^(nm) diamond flipped, the
    expansion of `free_poisson`. The operands must be valid and
    representable (InvalidCochainError, NotRepresentableError otherwise)."""
    free = free_poisson(ctx, omega, eta)
    return expand(ctx, free.degree, free)


def free_poisson(ctx, omega, eta):
    """The free part of {omega, eta}: the signed sum of the three halves.
    `bullet` reads whole bar covectors of both operands, so both must be
    whole valid cochains, not free parts (it validates them)."""
    n, m = omega.degree, eta.degree
    sign = -1 if (n * m) % 2 else 1
    return combine(ctx.zdim, max(n + m - 2, 0), (bullet(ctx, omega, eta), 1),
                   (diamond(ctx, omega, eta), 1), (diamond(ctx, eta, omega), -sign))


def zeta(ctx):
    """Degree-2 cochain: the symmetric product with tail f -> -2f."""
    cached = ctx.cache.get("zeta")
    if cached is None:
        alg = ctx.algebra
        pairings = ((0, (i, j), (), alg.pairing_poly_basis(i, j), 1)
                    for i in range(ctx.dim) for j in range(ctx.dim))
        tail = ((1, (), (r,), SymPoly.generator(ctx.zdim, r), -2) for r in range(ctx.zdim))
        cached = scatter(ctx.zdim, 2, chain(pairings, tail))
        ctx.cache["zeta"] = cached
    return cached


def theta(ctx):
    """The canonical degree-3 cocycle: (e1.e2, e3) with tail -(e, f)."""
    cached = ctx.cache.get("theta")
    if cached is None:
        alg = ctx.algebra
        pairing = alg.pairing_poly_basis
        products = ((0, (x, y, l), (), pairing(t, l), c) for t in range(ctx.dim)
                    for x, y, c in alg.product_index[t] for l in range(ctx.dim))
        tail = ((1, (i,), (r,), pairing(i, s), -c) for i in range(ctx.dim)
                for r, zvec in enumerate(alg.z_basis) for s, c in enumerate(zvec) if c != 0)
        cached = scatter(ctx.zdim, 3, chain(products, tail))
        ctx.cache["theta"] = cached
    return cached


def _per_basis(ctx, name, i, compute):
    """ctx.cache[name][i], computed by compute(i) on first use (at most dim values)."""
    if not 0 <= i < ctx.dim:
        raise IndexError(f"basis index {i} outside 0..{ctx.dim - 1}")
    cached = ctx.cache.setdefault(name, {})
    value = cached.get(i)
    if value is None:
        value = cached[i] = compute(i)
    return value


def basis_flat(ctx, j):
    """e_j-flat as a degree-1 cochain, computed once per context and basis index."""
    return _per_basis(ctx, "basis_flat", j,
                      lambda j: flat_cochain(ctx, basis_vec(ctx.dim, j)))


def theta_flat(ctx, i):
    """{theta, e_i-flat}, computed once per context and basis index."""
    return _per_basis(ctx, "theta_flat", i,
                      lambda i: poisson(ctx, theta(ctx), basis_flat(ctx, i)))


def _unit_index(v):
    """i when v is the basis vector e_i, else None."""
    support = [i for i, vi in enumerate(v) if vi != 0]
    return support[0] if len(support) == 1 and v[support[0]] == 1 else None


def _outer_bracket(ctx, v, w):
    """{{theta, v-flat}, w-flat}, the degree-1 cochain both derived
    brackets read. The inner bracket is sum_i v_i {theta, e_i-flat}; for
    basis vectors v and w the cached {theta, e_i-flat} and `basis_flat` are
    the operands, so their section lifts are found by identity."""
    i = _unit_index(v)
    if i is not None:
        inner = theta_flat(ctx, i)
    else:  # degree 3 + 1 - 2
        inner = combine(ctx.zdim, 2, *((theta_flat(ctx, t), vt)
                                       for t, vt in enumerate(v) if vt != 0))
    j = _unit_index(w)
    return poisson(ctx, inner, flat_cochain(ctx, w) if j is None else basis_flat(ctx, j))


def derived_bracket_dual(ctx, v, w):
    """-{{theta, v-flat}, w-flat} as a covector (defined for any algebra)."""
    return -dual_from_cochain(ctx, _outer_bracket(ctx, v, w))


def derived_bracket(ctx, v, w):
    """Reconstruct v . w from the bracket machinery.

    Returns the algebra element when the symmetric product is
    non-degenerate; otherwise the covector level is all there is and the
    DualElement `derived_bracket_dual` is returned.

    On a fat algebra the outer bracket is read back in one pass: its
    stored entries as a covector (`duality.covector`), one section lift
    (`duality.lift`) of it, not of its negative, and one negation of the
    scalar coordinates, exact since the section is linear on Im(phi); no
    DualElement or ExtendedElement is built. NotRepresentableError when
    the covector is outside Im(phi) or its lift has a coefficient of
    positive degree.
    """
    if not ctx.algebra.is_fat():
        return derived_bracket_dual(ctx, v, w)
    vec = [0] * ctx.dim
    for (mono, i), c in lift(ctx, covector(_outer_bracket(ctx, v, w))).items():
        if mono:
            raise NotRepresentableError("derived bracket lift has non-scalar coefficients")
        vec[i] = -c
    return tuple(vec)
