"""The graded bracket on representable cochains and the derived bracket.

The bracket has two halves, each a sum over signed shuffles of the
algebra arguments. `bullet` pairs the section lifts of both operands'
partial evaluations; since phi of the left operand's lift is its bar
covector, only the right operand is lifted, and the left one is paired
with those lifts entry by entry after a membership test in Im(phi)
(`duality.require_representable`); `diamond` feeds one operand's value
into the first center slot of the other, extended as a derivation, and

    {w, h} = bullet(w, h) + diamond(w, h) - (-1)^(nm) diamond(h, w).

The bracket of valid representable cochains is valid, so it is fixed by
its values at the free keys, the keys whose es is strictly increasing
(`cochains.expand`). A shuffle lands on a free key only when both
argument tuples it merges are strictly increasing and disjoint, so each
half derives only those terms (`cochains.free_pair_terms`) from the
operands' stored entries and returns its free part: the values of the
half at the free keys, zero elsewhere. `free_poisson` is one signed sum
(`cochains.combine`) of the three free parts, and `poisson` expands it,
so its result is valid by construction. The paper's defining formulas,
pair_bracket and circ_compose, evaluate each half at every key in the
test oracle tests/dense_reference.py.

The canonical cochains live here too, each a stream of terms into
`cochains.scatter` read off the stored basis pairings: the degree-2 `zeta`
(symmetric product plus the -2f tail) whose coboundary is the degree-3
`theta`, and the derived-bracket reconstruction

    (e1 . e2)-flat = -{{theta, e1-flat}, e2-flat},

which on a fat algebra recovers e1 . e2 itself through the section.
The bracket is bilinear and the inner bracket {theta, v-flat} depends
on v alone, so it is summed as sum_i v_i {theta, e_i-flat} from the
per-basis values `theta_flat` keeps in the context's cache; only the
outer bracket is computed per pair, by the one helper both derived
brackets share. On a fat algebra it is read back in one pass: its
stored entries as a covector (`duality.covector`), one section lift
(`duality.lift`) of it, not of its negative, and one negation of the
scalar coordinate vector, exact since the section is linear on Im(phi).

Every piece that depends on a basis index, or on one operand and the
context's section, is computed once per context and kept in its cache:
`theta`, `zeta`, `basis_flat` (e_j-flat) and `theta_flat` (at most dim
values each), and the section lifts of each right operand of `bullet` at
its strictly increasing stored prefixes (`_lifts`, one list per cochain,
solved and stored by `duality.tilde_value`). What depends on one
operand's entries alone is kept on the cochain (`cochains.operand_view`)
and shared by every context: its bar covectors at strictly increasing
prefixes (`duality.increasing_bars`), which `bullet` pairs with those
lifts, its free entries (`cochains.free_view`), and `diamond`'s
derivation bases, each with the image of every monomial it has met
(`sympoly.derivation_extend`'s `images`). A left operand found
representable is remembered on the cochain itself.
"""

from itertools import chain

from .algebra import basis_vec
from .cochains import (_increasing, check_context, combine, entries, expand, free_pair_terms,
                       free_view, operand_view, require_valid, scatter)
from .duality import (NotRepresentableError, covector, dual_from_cochain, flat_cochain,
                      increasing_bars, lift, require_representable, tilde_value)
from .sympoly import SymPoly, derivation_extend, dot


def _lifts(ctx, omega):
    """(k, prefix, fs, lift) at each strictly increasing stored prefix of
    omega (`duality.increasing_bars`), in key order: the section lift of
    its bar covector, nonzero because the covector is. These are the only
    lifts `bullet` reads at free keys, and only of its right operand.

    omega must be valid (`cochains.require_valid`, InvalidCochainError
    otherwise). Weak skew-symmetry then writes every bar covector as a
    rational combination of those at strictly increasing prefixes, so
    omega is representable exactly when these lifts exist
    (NotRepresentableError otherwise). A lift depends on the context's
    section, so the list is kept per cochain in the context's cache, and a
    right operand bracketed again (a cached `basis_flat`) is validated
    once and then costs one lookup; `tilde_value` still solves and stores
    each lift.
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
    e-coefficients, signed by (-1)^(m-1): omega is never lifted, only
    checked to be representable (`duality.require_representable`), and
    each of its bar covectors at a strictly increasing prefix, read from
    the view kept on the cochain (`duality.increasing_bars`), is paired
    with each lift by one dot product. Only the pairs of strictly
    increasing, disjoint prefixes reach a free key, so only those lifts of
    eta are solved. Raises InvalidCochainError when either operand is not
    weakly skew-symmetric, NotRepresentableError when it is not
    representable, omega checked first.
    """
    check_context(ctx, omega, eta)
    require_representable(ctx, omega)
    terms = free_pair_terms(increasing_bars(omega), _lifts(ctx, eta), lambda bar, y: dot(
        ctx.zdim, ((v, y.coeffs[e]) for e, v in bar.items())))
    sign = -1 if eta.degree % 2 == 0 else 1
    return scatter(ctx.zdim, max(omega.degree + eta.degree - 2, 0),
                   ((k, es, fs, value, sign * factor) for k, es, fs, value, factor in terms))


def diamond(ctx, omega, eta):
    """Composition half of the bracket at the free keys: each eta entry
    fed, as a derivation, into the first center argument of omega's
    components, wherever the two argument tuples are strictly increasing
    and disjoint. omega's derivation bases (`_derivation_bases`) and
    eta's free entries (`cochains.free_view`) are read from the views
    kept on the cochains."""
    check_context(ctx, omega, eta)
    degree = max(omega.degree + eta.degree - 2, 0)
    if omega.extent()[1] == 0:  # no stored center argument: nothing to feed into
        return scatter(ctx.zdim, degree, ())
    terms = free_pair_terms(operand_view(omega, "bases", _derivation_bases), free_view(eta),
                            lambda b, y: derivation_extend(b[0], y, b[1]))
    return scatter(ctx.zdim, degree, terms)


def _derivation_bases(omega):
    """(k, es, others, (base, images)) for each strictly increasing es of
    omega stored with a center argument: base lists omega_{k+1}(es; r,
    others) for each center generator r, and images is the dict of the
    monomial images `sympoly.derivation_extend` fills for that base, kept
    with it for as long as the cochain lives."""
    bases = {}
    for k, es, fs, value in entries(omega):
        if fs and _increasing(es):
            for pos, r in enumerate(fs):
                base = bases.setdefault((k - 1, es, fs[:pos] + fs[pos + 1:]),
                                        [SymPoly.zero(omega.nvars)] * omega.nvars)
                base[r] = value
    return tuple((i, es, rest, (base, {})) for (i, es, rest), base in bases.items())


def poisson(ctx, omega, eta):
    """{omega, eta} = bullet + diamond - (-1)^(nm) diamond flipped.

    The operands must be valid and representable (InvalidCochainError,
    NotRepresentableError otherwise, raised by `bullet`). Their bracket is
    valid, so it is the expansion of `free_poisson`, and valid by
    construction."""
    free = free_poisson(ctx, omega, eta)
    return expand(ctx, free.degree, free)


def free_poisson(ctx, omega, eta):
    """The free part of {omega, eta}: one signed sum of the three halves'
    free parts, its values at the free keys.

    `bullet` reads whole bar covectors of both operands, the values at
    every last argument after a strictly increasing prefix, so both
    operands must be whole valid cochains, not free parts (it validates
    them, see `cochains.free_part`)."""
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
    brackets read.

    The inner bracket is sum_i v_i {theta, e_i-flat}; for a basis vector v
    it is the cached cochain itself, and for a basis vector w the flat is
    the cached `basis_flat`, so both operands' section lifts are found by
    identity.
    """
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

    On a fat algebra the outer bracket is read back in one solve (see the
    module docstring), with no DualElement or ExtendedElement built.
    NotRepresentableError when its covector is outside Im(phi) or its
    lift has a coefficient of positive degree.
    """
    if not ctx.algebra.is_fat():
        return derived_bracket_dual(ctx, v, w)
    vec = [0] * ctx.dim
    for (mono, i), c in lift(ctx, covector(_outer_bracket(ctx, v, w))).items():
        if mono:
            raise NotRepresentableError("derived bracket lift has non-scalar coefficients")
        vec[i] = -c
    return tuple(vec)
