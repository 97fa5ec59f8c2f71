"""The standard cochain complex of a Leibniz algebra with S(Z) coefficients.

A degree-n cochain is a sequence of components (w_0, ..., w_{n//2}) where
w_k takes n-2k algebra arguments and k symmetric center arguments and is
stored sparsely on basis keys:

    components[k][(e-index tuple, sorted z-index tuple)] = SymPoly

Weak skew-symmetry ties neighbouring components together: swapping two
adjacent algebra arguments is skew only up to a correction by the next
component evaluated on the symmetric product of the swapped pair,

    w_k(..e,e'..; fs) + w_k(..e',e..; fs) = -w_{k+1}(.. ; (e,e'), fs).

Storage does not canonicalize this; `validate_cochain` checks it. A valid
cochain is fixed by its values at the free keys, the keys (k, es, fs)
with es strictly increasing (`free_part`): `expand` fills in every other
key from one free-datum cochain per free key (`_free_datum_cochain`),
and `cochain_space_basis` is built from the same cochains. d, the product
and the bracket map valid cochains to valid ones, so each derives only
its free part (`free_coboundary`, `free_cup`, `brackets.free_poisson`)
and returns its `expand`, and identities between their outputs can be
decided on free parts. `Cochain` says which cochains are known valid, so
that `require_valid` does not check them again.

d = d0 + delta. d0 is the Chevalley-Eilenberg style sum of action terms
and bracket insertions; delta feeds each center argument back in as the
first algebra argument. The term moving center arguments along the
bracket vanishes identically here because the left center kills
everything on the left, so it is not implemented.

`scatter` is the one builder of computed cochains: the operators, sums
and scalings (`combine`), flats, Theta and zeta stream it terms and it
stores their sum unchecked. `Cochain()` checks every key and value: it is
the entry point for cochains from files, tests and library callers. No
other module of the package reads or writes the `components` layout.
What an operator reads of an operand is kept on the cochain
(`operand_view`), what depends on a context in ctx.cache, and a table
whose size the input's own size does not bound is checked against
MAX_TABLE first (`check_table`).
"""

import json
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, prod

from .algebra import _is_index
from .linalg import rref
from .sympoly import SymPoly, SymPolyParseError, _canonical, exact, parse_sympoly


class CochainShapeError(ValueError):
    """Component tables inconsistent with the declared degree."""


class InvalidCochainError(ValueError):
    """Weak skew-symmetry fails; carries the validation report."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__(f"cochain is not weakly skew-symmetric, first violation: {first}")


class ContextMismatchError(ValueError):
    """An operand built over another center basis than the context's."""


class CochainFormatError(ValueError):
    """Malformed cochain file."""


class TableBudgetError(ValueError):
    """A table the input does not bound would hold more than MAX_TABLE entries."""


class ComplexContext:
    """A Leibniz algebra together with the caches cochain operations share.

    `pivot_strategy` picks the deterministic linear section used for
    duality lifts ("first" scans columns left to right, "last" right to
    left); all contexts over the same algebra agree on every operation
    whose value is choice-independent.
    """

    def __init__(self, algebra, pivot_strategy="first"):
        self.algebra = algebra
        self.dim = algebra.dim
        self.zdim = algebra.zdim
        self.pivot_strategy = pivot_strategy
        self.cache = {}

    def __repr__(self):
        return f"ComplexContext({self.algebra!r}, pivot_strategy={self.pivot_strategy!r})"


_zero = cache(SymPoly.zero)  # one shared zero per generator count; SymPoly is immutable


class Cochain:
    """Immutable sparse cochain; missing keys are zero."""

    # _valid_over: the algebra the cochain is known to be weakly
    # skew-symmetric over (set by `expand`, `cochain_space_basis`, a
    # passing `validate_cochain` and `combine` of cochains known valid
    # over it); _representable_over: the algebra it is
    # known representable over (set by `duality.require_representable`);
    # _views: what the operators read of it as an operand, by name, built
    # from its entries alone on first use (`operand_view`), so every
    # context shares them; what depends on a context stays in ctx.cache
    __slots__ = ("degree", "nvars", "components", "_hash", "_extent", "_valid_over",
                 "_representable_over", "_views")

    def __init__(self, degree, nvars, components=None):
        if degree < 0:
            raise CochainShapeError(f"negative degree {degree}")
        self.degree = degree
        self.nvars = nvars
        clean = {}
        for k, table in (components or {}).items():
            if not (0 <= k <= degree // 2):
                raise CochainShapeError(f"component index {k} out of range for degree {degree}")
            nl = degree - 2 * k
            out = {}
            for (es, fs), value in table.items():
                es = tuple(es)
                fs = tuple(sorted(fs))
                if len(es) != nl or len(fs) != k:
                    raise CochainShapeError(
                        f"key {(es, fs)} has wrong arity for component {k} of degree {degree}")
                if not isinstance(value, SymPoly):
                    raise TypeError("cochain values must be SymPoly")
                if value.nvars != nvars:
                    raise CochainShapeError("cochain value over wrong number of generators")
                if not value.is_zero():
                    out[(es, fs)] = value
            if out:
                clean[k] = out
        self.components = clean
        self._hash = self._extent = self._valid_over = self._representable_over = None
        self._views = None

    @classmethod
    def zero(cls, degree, nvars):
        return cls(degree, nvars)

    @classmethod
    def constant(cls, poly):
        """Degree-0 cochain holding one element of S(Z)."""
        return cls(0, poly.nvars, {0: {((), ()): poly}})

    def value(self, k, es, fs):
        table = self.components.get(k)
        found = table and table.get((tuple(es), tuple(sorted(fs))))
        return found or _zero(self.nvars)

    def is_zero(self):
        return not self.components

    def extent(self):
        """One more than the largest stored algebra index and than the largest
        stored center index: the least dim and zdim a context must have."""
        if self._extent is None:
            dim = zdim = 0
            for table in self.components.values():
                for es, fs in table:
                    if es and max(es) >= dim:
                        dim = max(es) + 1
                    if fs and fs[-1] >= zdim:
                        zdim = fs[-1] + 1
            self._extent = (dim, zdim)
        return self._extent

    def scale(self, factor):
        return combine(self.nvars, self.degree, (self, factor))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, Cochain):
            return NotImplemented
        # the zero cochain sits in every degree (brackets of low-degree
        # cochains land there with a clamped degree)
        degree = other.degree if self.is_zero() else self.degree
        return combine(self.nvars, degree, (self, 1), (other, sign))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree == other.degree and self.nvars == other.nvars
                and self.components == other.components)

    def __hash__(self):
        if self._hash is None:
            frozen = tuple(sorted(
                (k, key, value) for k, table in self.components.items()
                for key, value in table.items()))
            self._hash = hash((self.degree, self.nvars, frozen))
        return self._hash

    def __repr__(self):
        entries = sum(len(t) for t in self.components.values())
        return f"Cochain(degree={self.degree}, entries={entries})"


# -- the table budget ------------------------------------------------------------

# The most entries of a table whose size the input's own size does not
# bound: the keys a free-datum walk visits (`_free_datum_cochain`), the
# entries of an `expand` output, the operand pairs of `free_pair_terms`
# and the columns of a system of phi (`duality.PhiSection`), each counted
# before it is built.
MAX_TABLE = 100_000


def check_table(count, what):
    """TableBudgetError when `what`, a table of `count` entries, is over
    MAX_TABLE as it is when this is called."""
    if count > MAX_TABLE:
        raise TableBudgetError(f"{what} needs {count} table entries, above the limit "
                               f"of {MAX_TABLE}")


# -- shuffles ------------------------------------------------------------------


@cache
def merge_centers(fs1, fs2):
    """The sorted union of two center multisets, and the number of ways to
    place fs1 in it (a sum over center splits counts each placement)."""
    fs = tuple(sorted(fs1 + fs2))
    return fs, prod(comb(fs.count(r), fs1.count(r)) for r in set(fs1))


# -- the scatter kernel --------------------------------------------------------


def check_context(ctx, *cochains):
    """ContextMismatchError unless every cochain lives over ctx: its center
    basis has ctx's size, and its stored algebra and center indices lie
    below ctx.dim and ctx.zdim. d (through `require_valid`), cup,
    bullet, diamond and `duality.is_representable` call it before anything
    else."""
    for omega in cochains:
        if omega.nvars != ctx.zdim:
            raise ContextMismatchError("cochains built over a different center basis")
        dim, zdim = omega.extent()
        if dim > ctx.dim or zdim > ctx.zdim:
            raise ContextMismatchError(
                f"cochain indices need an algebra of dimension {dim} with {zdim} center "
                f"generators, the context has {ctx.dim} and {ctx.zdim}")


def entries(omega):
    """The stored (k, es, fs, value) of a cochain."""
    for k, table in omega.components.items():
        for (es, fs), value in table.items():
            yield k, es, fs, value


def operand_view(omega, name, build):
    """omega's view `name`, build(omega) on first use: what an operator
    reads of omega as an operand, built from its `entries` alone. It
    depends on no context, so it is kept on the cochain for as long as the
    cochain lives and every context shares it; callers must not change
    it."""
    views = omega._views
    if views is None:
        views = omega._views = {}
    view = views.get(name)
    if view is None:
        view = views[name] = build(omega)
    return view


def free_view(omega):
    """omega's entries (k, es, fs, value) at the free keys, es strictly
    increasing, in storage order. Kept on the cochain (`operand_view`)."""
    return operand_view(omega, "free", _free_view)


def _free_view(omega):
    return tuple(item for item in entries(omega) if _increasing(item[1]))


def accumulate(acc, poly, factor=1):
    """Add factor * poly into the monomial -> coefficient dict acc."""
    if poly.is_zero() or factor == 0:
        return
    for mono, coeff in poly.items():
        total = acc.get(mono, 0) + coeff * factor
        if total == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = exact(total)


def scatter(nvars, degree, terms):
    """The degree-n cochain summing factor * poly over its terms (k, es, fs,
    poly, factor); operators derive them from stored entries, so the cost
    follows the terms, never the dim^degree output keys. It is built
    unchecked, as `sympoly._canonical` builds a SymPoly: each es must be a
    tuple of n - 2k algebra indices, each fs a sorted tuple of k center
    indices, each poly over nvars generators (see `check_context`), and
    each factor exact."""
    sums = {}
    for k, es, fs, poly, factor in terms:
        key = (k, es, fs)
        acc = sums.get(key)
        # most keys get one term (each permuted key of an expansion does),
        # and a first term with factor 1 or -1 is copied as it is: the
        # coefficients of a SymPoly are canonical, and so are their negatives
        if acc is not None:
            accumulate(acc, poly, factor)
        elif factor == 1:
            sums[key] = dict(poly.items())
        elif factor == -1:
            sums[key] = {mono: -coeff for mono, coeff in poly.items()}
        else:
            accumulate(sums.setdefault(key, {}), poly, factor)
    comps = {}
    for (k, es, fs), acc in sums.items():
        if acc:
            comps.setdefault(k, {})[(es, fs)] = _canonical(nvars, acc)
    return _stored(degree, nvars, comps)


def _stored(degree, nvars, comps):
    """The cochain holding the components comps as they are, unchecked."""
    out = Cochain.__new__(Cochain)
    out.degree, out.nvars, out.components = degree, nvars, comps
    out._hash = out._extent = out._valid_over = out._representable_over = None
    out._views = None
    return out


def combine(nvars, degree, *scaled):
    """sum factor * omega over the (omega, factor) pairs, a degree-n
    cochain; a zero omega may have any degree.

    Weak skew-symmetry is linear, so when every nonzero omega is marked
    valid over one algebra, the sum is marked valid over it too; any
    other sum (an unmarked operand, a `free_part`, operands valid over
    different algebras, only zero operands) is left unmarked."""
    scaled = [(omega, exact(factor)) for omega, factor in scaled]
    valid_over = set()
    for omega, _ in scaled:
        if omega.nvars != nvars:
            raise CochainShapeError("cannot add cochains over different centers")
        if not omega.is_zero():
            if omega.degree != degree:
                raise CochainShapeError("cannot add nonzero cochains of different degree")
            valid_over.add(omega._valid_over)
    out = scatter(nvars, degree, ((k, es, fs, value, factor) for omega, factor in scaled
                                  for k, es, fs, value in entries(omega)))
    if len(valid_over) == 1:
        out._valid_over = valid_over.pop()
    return out


def free_pair_terms(left, right, combine):
    """The terms a product-like operator puts at the free keys, the keys
    with es strictly increasing.

    Items (i, es1, fs1, x) of the view `left` and (j, es2, fs2, y) of
    `right`, one from each operand, put combine(x, y) at every signed
    shuffle of es1 and es2, on the merged center multiset. A shuffle lands
    on a free key only when es1 and es2 are strictly increasing and share
    no index, and then it is the one that sorts es1 + es2. So a view lists
    only the items whose es is strictly increasing (`free_view`), and each
    disjoint pair is merged once with the sign of that shuffle. `cup`,
    `bullet` and `diamond` derive their terms here. The |left| * |right|
    pairs are checked against the table budget before the first merge.
    """
    check_table(len(left) * len(right), "a pairing of two operands")
    for i, es1, fs1, x in left:
        for j, es2, fs2, y in right:
            if es1 and es2:
                merged = _sorted_merge(es1, es2)
                if merged is None:
                    continue
                es, sign = merged
            else:
                es, sign = es1 or es2, 1
            value = combine(x, y)
            if not value.is_zero():
                fs, mult = merge_centers(fs1, fs2)
                yield i + j, es, fs, value, sign * mult


def _increasing(es):
    return all(x < y for x, y in zip(es, es[1:]))


@cache
def _sorted_merge(es1, es2):
    """(sorted es1 + es2, the sign of that shuffle) for strictly increasing
    es1 and es2 with no common index, else None."""
    if not set(es1).isdisjoint(es2):
        return None
    inversions = sum(bisect_left(es2, x) for x in es1)
    return tuple(sorted(es1 + es2)), -1 if inversions % 2 else 1


# -- validity ------------------------------------------------------------------


def component_keys(ctx, degree, k):
    """Every basis key (es, fs) of component k of a degree-n cochain, es in
    lexicographic order, then fs."""
    nl = degree - 2 * k
    for es in product(range(ctx.dim), repeat=nl):
        for fs in combinations_with_replacement(range(ctx.zdim), k):
            yield es, fs


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)  # (k, position, es, fs, lhs, rhs)


def validate_cochain(ctx, omega):
    """Check weak skew-symmetry wherever it can fail.

    The equation at (k, es, fs, pos), for es[pos] <= es[pos+1], reads

        w_k(es; fs) + w_k(swapped; fs) = -sum_r c_r w_{k+1}(reduced; fs + (r,))

    with pair = sum_r c_r z_r = (es[pos], es[pos+1]). One whose terms are
    all zero holds, so only those touching a stored entry are tested: each
    adjacent pair of a stored es, at its own level, and each key one level
    down made by inserting a pair (x <= y) whose pairing has a
    z_r-component, r in the stored fs. Each stored entry adds itself,
    coefficient by coefficient, into the residual lhs - rhs of every such
    equation, a {monomial: coefficient} dict, so a valid cochain costs a
    dict update per stored coefficient and builds no SymPoly. Only an
    equation whose residual is nonzero has its lhs and rhs built for the
    report. Violations are sorted by (k, es, fs, pos), the order of a walk
    over every key. A cochain that passes is marked valid over ctx's
    algebra (see `require_valid`); the check itself always runs in full.
    ContextMismatchError for a cochain from another context.
    """
    check_context(ctx, omega)
    alg = ctx.algebra
    residuals = {}
    for k, es, fs, value in entries(omega):
        for pos in range(len(es) - 1):
            x, y = es[pos], es[pos + 1]
            key = es if x <= y else es[:pos] + (y, x) + es[pos + 2:]
            # at x == y, es is its own swap and stands in lhs twice
            accumulate(residuals.setdefault((k, key, fs, pos), {}), value, 2 if x == y else 1)
        for r in set(fs):
            rest = _remove_one(fs, r)
            for x, y, c in alg.pairing_index[r]:
                for pos in range(len(es) + 1):
                    key = (k - 1, es[:pos] + (x, y) + es[pos:], rest, pos)
                    accumulate(residuals.setdefault(key, {}), value, c)
    violations = []
    for (k, es, fs, pos), residual in residuals.items():
        if residual:
            swapped = es[:pos] + (es[pos + 1], es[pos]) + es[pos + 2:]
            reduced = es[:pos] + es[pos + 2:]
            lhs = omega.value(k, es, fs) + omega.value(k, swapped, fs)
            rhs = SymPoly.zero(ctx.zdim)
            for (r,), c in alg.pairing_poly_basis(es[pos], es[pos + 1]).items():
                rhs = rhs + omega.value(k + 1, reduced, fs + (r,)).scale(-c)
            violations.append((k, pos, es, fs, lhs, rhs))
    violations.sort(key=lambda v: (v[0], v[2], v[3], v[1]))
    if not violations:
        omega._valid_over = alg
    return ValidationReport(ok=not violations, violations=violations)


def require_valid(ctx, omega):
    """InvalidCochainError unless omega is weakly skew-symmetric. A cochain
    already known valid over ctx's algebra, built by `expand`,
    `cochain_space_basis` or `combine` of such cochains, or passed by
    `validate_cochain`, is only checked against the context."""
    if omega._valid_over is ctx.algebra:
        check_context(ctx, omega)
        return
    report = validate_cochain(ctx, omega)
    if not report.ok:
        raise InvalidCochainError(report)


def _remove_one(fs, r):
    """The sorted multiset fs with one copy of r taken out."""
    i = fs.index(r)
    return fs[:i] + fs[i + 1:]


# -- the differential ----------------------------------------------------------


def coboundary(ctx, omega):
    """d(omega) = d0(omega) + delta(omega), one degree up.

    The input must be a valid cochain (InvalidCochainError otherwise,
    through `require_valid`). Its image is valid too, so it is the
    expansion of its values at the free keys, `free_coboundary`, and valid
    by construction whatever those values; the every-key evaluation of d
    is `coboundary` in `tests/dense_reference.py`.
    """
    return expand(ctx, omega.degree + 1, free_coboundary(ctx, omega))


def free_coboundary(ctx, omega):
    """The free part of d(omega): its values at the free keys (es strictly
    increasing), from `_free_coboundary_terms`, and zero elsewhere.

    d reads the entries of omega whose es has up to one descent, not only
    its free entries, so omega must be a whole valid cochain, not a free
    part: `require_valid` checks it (InvalidCochainError otherwise, see
    `free_part`).
    """
    require_valid(ctx, omega)
    return scatter(ctx.zdim, omega.degree + 1, _free_coboundary_terms(ctx, omega))


def action(ctx, i, poly):
    """e_i acting on poly in S(Z) (`LeibnizAlgebra.rho_basis`), with the
    image of every monomial kept in the context's cache, one dict per i."""
    images = ctx.cache.setdefault("action_images", {}).setdefault(i, {})
    return ctx.algebra.rho_basis(i, poly, images)


def _free_coboundary_terms(ctx, omega):
    """The terms of d that land on free keys, from each stored entry
    omega_k(es; fs).

    d0's action terms put e_i acting on it at each position a; the key is
    free only when es is strictly increasing, i is not in es and a is
    bisect(es, i). The action kills scalars, and only the indices in
    `LeibnizAlgebra.acting` act at all. d0's bracket terms replace the
    argument t = es[b] by y and put x at a position a <= b, for each pair
    (x, y) whose product x.y has a t-component c; the key is free only when
    es less es[b] is strictly increasing, x < y, es[b-1] < y < es[b+1], x
    is not in es and a = bisect_left(es, x, 0, b). delta trades the first
    argument t for each center generator z_r whose basis vector has a
    t-coordinate; the key is free only when es[1:] is strictly increasing.
    So an entry whose es has two descents or more reaches no free key (two
    adjacent ones, at b-1 and b, leave no room for y) and is skipped at
    once.
    """
    alg = ctx.algebra
    for k, es, fs, val in entries(omega):
        n = len(es)
        descents = [j for j in range(n - 1) if es[j] >= es[j + 1]]
        if len(descents) > 1:
            continue
        if not descents and val.degree() > 0:
            for i in alg.acting:
                a = bisect_left(es, i)
                if a == n or es[a] != i:
                    yield k, es[:a] + (i,) + es[a:], fs, action(ctx, i, val), -1 if a % 2 else 1
        for b, t in enumerate(es):
            # es less es[b] is strictly increasing if every descent touches
            # position b and es[b-1] < es[b+1]; the window for y checks the latter
            if any(j != b and j != b - 1 for j in descents):
                continue
            lo = es[b - 1] if b else -1
            hi = es[b + 1] if b + 1 < n else ctx.dim
            for x, y, c in alg.product_index[t]:
                if x < y and lo < y < hi:
                    a = bisect_left(es, x, 0, b)
                    if a == b or es[a] != x:
                        yield (k, es[:a] + (x,) + es[a:b] + (y,) + es[b + 1:], fs, val,
                               c if a % 2 else -c)
        if es and all(j == 0 for j in descents):
            for r, zvec in enumerate(alg.z_basis):
                if zvec[es[0]] != 0:
                    out_fs, mult = merge_centers((r,), fs)
                    yield k + 1, es[1:], out_fs, val, zvec[es[0]] * mult


def expand(ctx, degree, free):
    """The valid degree-n cochain whose values at the free keys, the keys
    with es strictly increasing, are those the degree-n cochain `free`
    stores: the sum of v * F over its entries v at (k, es, fs), F the
    free-datum cochain of that key. Every key `free` stores must be free;
    a valid cochain is the expansion of its entries at free keys. Below
    degree 2 every key is free and is its own free-datum cochain, so
    `free` itself is returned. The result is marked valid over ctx's
    algebra. The entries of the free-datum cochains it sums are checked
    against the table budget before any is scattered."""
    if degree >= 2:
        tables = [(value, _free_datum_cochain(ctx, k0, es0, fs0))
                  for k0, es0, fs0, value in entries(free)]
        check_table(sum(len(table) for _, table in tables), "an expansion")
        free = scatter(ctx.zdim, degree, (
            (k, es, fs, value, c) for value, table in tables
            for (k, es, fs), c in table.items()))
    free._valid_over = ctx.algebra
    return free


# -- the product ----------------------------------------------------------------


def cup(ctx, omega, eta):
    """Graded product: double shuffle sum over argument splittings.

    The algebra arguments contribute the shuffle sign; the symmetric
    center arguments shuffle without sign. The operands must be valid
    (InvalidCochainError otherwise, checked after the context), and so is
    their product: it is the expansion of
    `free_cup`, its values at the free keys. The every-key shuffle sum is
    `cup` in `tests/dense_reference.py`.
    """
    free = free_cup(ctx, omega, eta)
    require_valid(ctx, omega)
    require_valid(ctx, eta)
    return expand(ctx, free.degree, free)


def free_cup(ctx, omega, eta):
    """The free part of omega . eta: its values at the free keys, derived
    by `free_pair_terms`, and zero elsewhere.

    A shuffle lands on a free key only when it merges two strictly
    increasing argument tuples, so the product reads only the free entries
    of its operands: either may be a free part (`free_part`), with the same
    result. It checks the context, not validity.
    """
    check_context(ctx, omega, eta)
    return scatter(ctx.zdim, omega.degree + eta.degree,
                   free_pair_terms(free_view(omega), free_view(eta), operator.mul))


def free_part(omega):
    """omega's entries at the free keys, those with es strictly increasing.

    A valid cochain is the `expand` of its free part, so two valid
    cochains are equal exactly when their free parts are. The result is
    never marked valid, and it is valid only when it is the whole cochain,
    so an operator that validates its operands either gets the whole
    cochain or raises InvalidCochainError; it never reads the missing keys
    as zero."""
    comps = {}
    for k, table in omega.components.items():
        free = {(es, fs): value for (es, fs), value in table.items() if _increasing(es)}
        if free:
            comps[k] = free
    return _stored(omega.degree, omega.nvars, comps)


# -- a basis of the space of valid cochains --------------------------------------


def cochain_space_basis(ctx, degree):
    """Deterministic basis of the degree-n valid cochains with scalar values.

    A valid cochain is fixed by its free data, its values at the keys
    (k, es, fs) with es strictly increasing: from the top component down,
    weak skew-symmetry gives every other value of w_k from w_k at a key
    with one inversion fewer and from w_{k+1}. Every choice of free data
    occurs (their count, sum_k C(dim, n-2k) C(zdim+k-1, k), is the
    dimension of the space), so the cochains with one unit free datum span
    it. Their reduced echelon form over the keys they touch, ordered by
    (k, es, fs), is returned in pivot order from one `rref` call, whose
    work stays inside each key-disjoint group of them; each row becomes a
    cochain as it is, one constant per entry. It depends only on the
    space, so it is the kernel basis of the full constraint matrix, entry
    for entry. Each is valid by construction and marked valid over ctx's
    algebra, so d does not validate it again. Single-key indicator tables
    are NOT valid cochains in general, which is why the exhaustive d.d = 0
    and product suites run over this basis instead.
    """
    vectors = [_free_datum_cochain(ctx, k, es, fs)
               for k in range(degree // 2 + 1)
               for es in combinations(range(ctx.dim), degree - 2 * k)
               for fs in combinations_with_replacement(range(ctx.zdim), k)]
    basis = []
    for row in rref(vectors):
        comps = {}
        for (k, es, fs), c in row.items():
            comps.setdefault(k, {})[(es, fs)] = _canonical(ctx.zdim, {(): c})
        omega = _stored(degree, ctx.zdim, comps)
        omega._valid_over = ctx.algebra
        basis.append(omega)
    return basis


def _free_datum_cochain(ctx, k0, es0, fs0):
    """The valid scalar cochain whose one nonzero free datum is
    w_{k0}(es0; fs0) = 1, as {(k, es, fs): value}; es0 must be strictly
    increasing. It is kept in ctx.cache["free_datum"] with the number of
    keys its walk visited; callers must not change it.

    w_{k0} is sign(sigma) at each permutation sigma(es0), read from the
    cached `signed_permutations`. Each level below follows from the one
    above by weak skew-symmetry at the first descent pos of es,
    x = es[pos] >= y = es[pos+1], with (x, y) = sum_r c_r z_r:

        w(..x,y..; fs) = -w(..y,x..; fs) - sum_r c_r w_{k+1}(..; fs + (r,))   x > y
        w(..x,x..; fs) = -1/2 sum_r c_r w_{k+1}(..; fs + (r,))

    (..y,x.. is lexicographically smaller, so keys are evaluated in
    lexicographic order), and a strictly increasing key below k0 is a
    free datum, zero here. Only the keys `_reachable_keys` finds are
    evaluated; every other key is zero.

    The number of keys visited, len(es0)! at k0 and the reachable keys
    below, is checked against the table budget as it grows, and again
    on every call for a cached table, so a lowered budget holds too.
    """
    store = ctx.cache.setdefault("free_datum", {})
    walked = store.get((k0, es0, fs0))
    if walked is not None:
        check_table(walked[0], _WALK)
        return walked[1]
    if not _increasing(es0):
        raise ValueError(f"({k0}, {es0}, {fs0}) is not a free key: es is not strictly increasing")
    alg = ctx.algebra
    count = factorial(len(es0))
    check_table(count, _WALK)
    upper = {(tuple([es0[i] for i in perm]), fs0): sign
             for perm, sign in signed_permutations(len(es0))}
    out = {(k0, es, fs): value for (es, fs), value in upper.items()}
    for k in range(k0 - 1, -1, -1):
        reachable = _reachable_keys(alg, upper, count)
        count += len(reachable)
        lower = {}
        for (es, fs), pos in sorted(reachable.items()):
            x, y = es[pos], es[pos + 1]
            reduced = es[:pos] + es[pos + 2:]
            correction = sum(c * upper.get((reduced, tuple(sorted(fs + (r,)))), 0)
                             for (r,), c in alg.pairing_poly_basis(x, y).items())
            if x == y:
                value = exact(Fraction(-correction, 2))
            else:
                value = exact(-lower.get((es[:pos] + (y, x) + es[pos + 2:], fs), 0) - correction)
            if value != 0:
                lower[es, fs] = value
        out.update(((k, es, fs), value) for (es, fs), value in lower.items())
        upper = lower
    store[(k0, es0, fs0)] = count, out
    return out


_WALK = "a free-datum walk"


def _reachable_keys(alg, upper, count):
    """{(es, fs): the first descent of es} for the keys one level below
    the stored keys `upper` whose value can be nonzero: those whose
    correction reads a stored key, and those whose swap at the first
    descent is a key found.

    The first are each stored (reduced, fs') with a pair x <= y whose
    pairing has a z_r-component, r in fs', inserted as (y, x) at a
    position q with reduced[:q] + (y,) strictly increasing, so that q is
    the first descent; the key carries fs' less r. The others come from a
    found key by swapping a strict ascent es[p] < es[p+1] where es[:p] is
    strictly increasing and es[p-1] < es[p+1], which makes p the first
    descent: each p before the first descent pos, and pos + 1. count is
    the number of keys the walk visited above; TableBudgetError as soon
    as it and the keys found pass MAX_TABLE.
    """
    found = {}
    stack = []
    for reduced, fs in upper:
        rise = next((i + 1 for i in range(len(reduced) - 1) if reduced[i] >= reduced[i + 1]),
                    len(reduced))
        for r in set(fs):
            rest = _remove_one(fs, r)
            for x, y, _ in alg.pairing_index[r]:
                for q in range(bisect_left(reduced, y, 0, rise) + 1):
                    stack.append((reduced[:q] + (y, x) + reduced[q:], rest, q))
    while stack:
        es, fs, pos = stack.pop()
        if (es, fs) in found:
            continue
        found[es, fs] = pos
        if count + len(found) > MAX_TABLE:
            check_table(count + len(found), _WALK)
        for p in range(min(pos + 2, len(es) - 1)):
            if es[p] < es[p + 1] and (p == 0 or es[p - 1] < es[p + 1]):
                stack.append((es[:p] + (es[p + 1], es[p]) + es[p + 2:], fs, p))
    return found


def _inversion_sign(es):
    return -1 if sum(a > b for a, b in combinations(es, 2)) % 2 else 1


@cache
def signed_permutations(n):
    """(sigma, sign(sigma)) for each permutation sigma of range(n), in
    lexicographic order."""
    return tuple((sigma, _inversion_sign(sigma)) for sigma in permutations(range(n)))


# -- the JSON file format ---------------------------------------------------------


def cochain_to_dict(omega):
    components = []
    for k in sorted(omega.components):
        entries = []
        for (es, fs) in sorted(omega.components[k]):
            entries.append({"es": list(es), "fs": list(fs),
                            "value": omega.components[k][(es, fs)].render()})
        components.append({"k": k, "entries": entries})
    return {"degree": omega.degree, "components": components}


def cochain_from_dict(ctx, data):
    if not isinstance(data, dict) or not _is_index(data.get("degree")):
        raise CochainFormatError("cochain file needs an integer 'degree'")
    degree = data["degree"]
    comps = {}
    blocks = data.get("components", [])
    if not isinstance(blocks, list):
        raise CochainFormatError("'components' must be a list")
    for block in blocks:
        try:
            k = block["k"]
            entries = block["entries"]
        except (KeyError, TypeError) as exc:
            raise CochainFormatError(f"bad component block {block!r}") from exc
        if not _is_index(k) or not isinstance(entries, list):
            raise CochainFormatError(f"bad component block {block!r}")
        table = comps.setdefault(k, {})
        for entry in entries:
            try:
                es = tuple(entry["es"])
                fs = tuple(entry["fs"])
                value = parse_sympoly(ctx.zdim, entry["value"])
            except (KeyError, TypeError, SymPolyParseError) as exc:
                raise CochainFormatError(f"bad cochain entry {entry!r}") from exc
            if not all(_is_index(i) for i in es + fs):
                raise CochainFormatError(f"non-integer index in {entry!r}")
            if any(not (0 <= i < ctx.dim) for i in es):
                raise CochainFormatError(f"algebra index out of range in {entry!r}")
            if any(not (0 <= r < ctx.zdim) for r in fs):
                raise CochainFormatError(f"center index out of range in {entry!r}")
            key = (es, tuple(sorted(fs)))
            table[key] = table[key] + value if key in table else value
    try:
        return Cochain(degree, ctx.zdim, comps)
    except (CochainShapeError, TypeError) as exc:
        raise CochainFormatError(str(exc)) from exc


def load_cochain(ctx, path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also an integer literal too long for int()
            raise CochainFormatError(str(exc)) from exc
    return cochain_from_dict(ctx, data)
