"""The standard cochain complex of a Leibniz algebra with S(Z) coefficients.

A degree-n cochain is a sequence of components (w_0, ..., w_{n//2}) where
w_k takes n-2k algebra arguments and k symmetric center arguments and is
stored sparsely on basis keys:

    components[k][(e-index tuple, sorted z-index tuple)] = SymPoly

Weak skew-symmetry, which `validate_cochain` checks and storage does not
canonicalize, ties neighbouring components together:

    w_k(..e,e'..; fs) + w_k(..e',e..; fs) = -w_{k+1}(.. ; (e,e'), fs).

A valid cochain is fixed by its values at the free keys, the keys with es
strictly increasing, so d, the product and the bracket each derive only
those (`free_coboundary`, `free_cup`, `brackets.free_poisson`) and return
their `expand`. d = d0 + delta: d0 sums action terms and bracket
insertions, delta feeds each center argument back in as the first
algebra argument; the term moving center arguments along the bracket
vanishes, as the left center kills everything on the left.

Computed cochains are built unchecked: d sums the action terms of its
input's free values and their keys' cached B(K), `scatter` the terms a
sum of cochains derives, and the pair kernel `pair_at_free_keys` sums each
operand pair of the product and the bracket halves straight into its
key. A valid cochain is its free part plus the context that marked it
(`mark_valid`), whose free-datum store writes its other entries: `expand`
checks the output against the table budget from each free datum's walk
count, once walked, or a closed-form bound on it, walking the tables only
when those pass the budget, and writes the output when an entry is first
read; sums and scalings of valid cochains sum and scale their free parts
into unwritten outputs of the same kind. Comparison, `is_zero`, `cup`
and `diamond` work from the free part. `Cochain()`, which checks the
entry count against the table budget and then every key and value, is
the entry point for cochains from outside. No other module reads or
writes the `components` layout."""

import json
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, prod

from .algebra import _is_index
from .linalg import rref
from .sympoly import (SymPoly, SymPolyParseError, _canonical, accumulate, add_scaled, exact,
                      parse_sympoly, settle)


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
    """Immutable sparse cochain; missing keys are zero.

    A valid cochain is fixed by its free part, its entries at the free
    keys, and holds the context that marked it (`mark_valid`), whose
    free-datum store writes every other entry. One that is not written
    yet (`_Unwritten`) writes them on first read of `components`.
    Comparison, hashing, `is_zero`, `scale`, sums of valid cochains and
    the operators that read only free entries work from the free part.
    """

    # components: the entries, {k: {(es, fs): value}}, unset on an
    # unwritten cochain until first read (`_Unwritten`); _free: the
    # entries at the free keys, in component order, kept once asked for;
    # _valid_over: the algebra it is known weakly skew-symmetric over and
    # _valid_in: the context that marked it so, whose free-datum store
    # writes it from _free (both set by `mark_valid` alone);
    # _representable_over: the algebra it is known representable over
    # (`duality.require_representable`); _views: what operators read of
    # it as an operand (`operand_view`)
    __slots__ = ("degree", "nvars", "components", "_free", "_valid_in", "_hash", "_extent",
                 "_valid_over", "_representable_over", "_views")

    def __init__(self, degree, nvars, components=None):
        if degree < 0:
            raise CochainShapeError(f"negative degree {degree}")
        components = components or {}
        check_table(sum(len(table) for table in components.values()), "a cochain")
        clean = {}
        for k, table in components.items():
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
        self.degree, self.nvars, self.components = degree, nvars, clean
        self._free = self._valid_in = self._hash = self._extent = None
        self._valid_over = self._representable_over = self._views = None

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
        return not (self.components if self._valid_in is None else _free_table(self))

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
        """factor * self, a sum of one term (`combine`): a valid cochain
        scales its free part and is not written."""
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
        """Equal entries. Two cochains known valid over one algebra are
        compared at the free keys: each is the expansion of its free part.
        Against a zero cochain, `is_zero` decides, so nothing is written."""
        if not isinstance(other, Cochain):
            return NotImplemented
        if self.degree != other.degree or self.nvars != other.nvars:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self._valid_over is not None and self._valid_over is other._valid_over:
            return _free_table(self) == _free_table(other)
        return self.components == other.components

    def __hash__(self):
        """Hashes the free entries, which equal cochains share."""
        if self._hash is None:
            self._hash = hash((self.degree, self.nvars, frozenset(
                (k, key, value) for k, table in _free_table(self).items()
                for key, value in table.items())))
        return self._hash

    def __repr__(self):
        """Counts the free entries, so an unwritten cochain stays unwritten."""
        entries = sum(len(t) for t in _free_table(self).values())
        return f"Cochain(degree={self.degree}, free_entries={entries})"


class _Unwritten(Cochain):
    """A valid cochain whose entries are not written yet. Its first read
    of `components` writes them from its free part through its context's
    free-datum store (`_write_expansion`) and makes it a plain `Cochain`.
    A subclass, not a `components` property or `__getattr__` on `Cochain`:
    every later read stays a plain slot read, which CPython specialises,
    and the hot loops read `components` of written cochains."""

    __slots__ = ()

    @property
    def components(self):
        comps = _write_expansion(self._valid_in, self.degree, self._free)
        self.__class__ = Cochain
        self.components = comps
        return comps


# -- the table budget ------------------------------------------------------------

# The most entries of a table the input's size does not bound, counted
# before it is built: the keys a free-datum walk visits, the entries of an
# `expand` output, the operand pairs of `pair_at_free_keys` and the columns
# of a system of phi (`duality.PhiSection`); and the most entries of a
# cochain file or of a `Cochain(...)`, counted before any value is
# parsed or checked.
MAX_TABLE = 100_000


def check_table(count, what):
    """TableBudgetError when `what`, a table of `count` entries, is over
    MAX_TABLE as it is when this is called."""
    if count > MAX_TABLE:
        raise TableBudgetError(f"{what} needs {count} table entries, above the limit "
                               f"of {MAX_TABLE}")


# -- center multisets -----------------------------------------------------------


@cache
def merge_centers(fs1, fs2):
    """The sorted union of two center multisets, and the number of ways to
    place fs1 in it (a sum over center splits counts each placement)."""
    fs = tuple(sorted(fs1 + fs2))
    return fs, prod(comb(fs.count(r), fs1.count(r)) for r in set(fs1))


# -- the scatter kernel --------------------------------------------------------


def check_context(ctx, *cochains):
    """ContextMismatchError unless every cochain lives over ctx: its center
    basis has ctx's size, and its stored indices lie below ctx.dim and
    ctx.zdim. Every operator calls it before anything else. A cochain
    known valid over ctx's algebra has its keys in range and is not
    scanned."""
    for omega in cochains:
        if omega.nvars != ctx.zdim:
            raise ContextMismatchError("cochains built over a different center basis")
        if omega._valid_over is ctx.algebra:
            continue
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
    reads of omega as an operand, built from its entries alone, so it is
    kept on the cochain and every context shares it; callers must not
    change it."""
    views = omega._views
    if views is None:
        views = omega._views = {}
    view = views.get(name)
    if view is None:
        view = views[name] = build(omega)
    return view


def free_view(omega):
    """omega's entries (k, es, fs, value) at the free keys, es strictly
    increasing, in storage order, read from its free part (an expansion
    is not written). Kept on the cochain (`operand_view`)."""
    return operand_view(omega, "free", _free_view)


def _free_view(omega):
    return tuple((k, es, fs, value) for k, table in _free_table(omega).items()
                 for (es, fs), value in table.items())


def has_free_centers(omega):
    """Does omega hold a free entry with a center argument, one in a
    component k > 0? Read from its free part, which keeps only nonempty
    components."""
    free = _free_table(omega)
    return len(free) > (0 in free)


def _free_table(omega):
    """omega's entries at the free keys, {k: {(es, fs): value}}, kept on
    it: an unwritten cochain holds them from the start."""
    if omega._free is None:
        free = {}
        for k, table in omega.components.items():
            kept = {key: value for key, value in table.items() if _increasing(key[0])}
            if kept:
                free[k] = kept
        omega._free = free
    return omega._free


def scatter(nvars, degree, terms):
    """The degree-n cochain summing factor * poly over its terms (k, es, fs,
    poly, factor), derived from stored entries, so the cost follows the
    terms, not the dim^degree keys. Built unchecked, as `sympoly._canonical`
    builds a SymPoly: each es a tuple of n - 2k algebra indices, each fs a
    sorted tuple of k center indices, each poly over nvars generators."""
    sums = {}
    for k, es, fs, poly, factor in terms:
        accumulate(sums.setdefault((k, es, fs), {}), poly, factor)
    return _gathered(nvars, degree, sums)


def _gathered(nvars, degree, sums, raw=False):
    """The degree-n cochain of the sums {(k, es, fs): {monomial: coefficient}},
    unchecked (see `scatter`), raw ones settled first, zero ones left out."""
    comps = {}
    for (k, es, fs), acc in sums.items():
        if raw:
            acc = settle(acc)
        if acc:
            comps.setdefault(k, {})[(es, fs)] = _canonical(nvars, acc)
    return _stored(degree, nvars, comps)


def _stored(degree, nvars, comps, cls=Cochain):
    """The cochain holding the components comps as they are, unchecked."""
    out = cls.__new__(cls)
    out.degree, out.nvars = degree, nvars
    if comps is not None:
        out.components = comps
    out._free = out._valid_in = out._hash = out._extent = None
    out._valid_over = out._representable_over = out._views = None
    return out


def mark_valid(ctx, omega):
    """Mark omega weakly skew-symmetric over ctx's algebra, its entries
    written from ctx's free-datum store, and return it. The one writer of
    a validity mark: omega must be valid over that algebra, and written if
    another context marked it before, as that context's store writes it."""
    omega._valid_over, omega._valid_in = ctx.algebra, ctx
    return omega


def _expansion(ctx, degree, free):
    """The valid cochain with the free entries `free`, {k: {(es, fs):
    value}}, marked valid in ctx: unwritten from degree 2 on, and `free`
    itself as its components below, where every key is free."""
    out = _stored(degree, ctx.zdim, free if degree < 2 else None,
                  Cochain if degree < 2 else _Unwritten)
    out._free = {k: free[k] for k in sorted(free)}
    return mark_valid(ctx, out)


def combine(nvars, degree, *scaled):
    """sum factor * omega over the (omega, factor) pairs, a degree-n
    cochain; a zero omega may have any degree. Weak skew-symmetry is
    linear, so when every nonzero omega is valid over one algebra the sum
    is too: the unwritten sum of their free parts, marked in the first
    one's context. Any other sum is summed entry by entry, unmarked."""
    live = []
    for omega, factor in scaled:
        if omega.nvars != nvars:
            raise CochainShapeError("cannot add cochains over different centers")
        if not omega.is_zero():
            if omega.degree != degree:
                raise CochainShapeError("cannot add nonzero cochains of different degree")
            live.append((omega, exact(factor)))
    marks = {omega._valid_over for omega, _ in live}
    if len(marks) == 1 and None not in marks:
        free = scatter(nvars, degree, ((k, es, fs, value, factor) for omega, factor in live
                                       for k, table in _free_table(omega).items()
                                       for (es, fs), value in table.items()))
        return _expansion(live[0][0]._valid_in, degree, free.components)
    return scatter(nvars, degree, ((k, es, fs, value, factor) for omega, factor in live
                                   for k, es, fs, value in entries(omega)))


def pair_at_free_keys(nvars, degree, left, right, add_pair, raw=True, sums=None):
    """The pair kernel: the degree-n cochain `cup`, `bullet` or `diamond`
    builds at the free keys, the keys with es strictly increasing.

    Items (i, es1, fs1, x) of the view `left` and (j, es2, fs2, y) of
    `right` put pair(x, y) at every signed shuffle of es1 and es2, on the
    merged center multiset. Only the shuffle sorting es1 + es2, of strictly
    increasing es1 and es2 with no common index, lands on a free key, so a
    view lists the items with es strictly increasing (`free_view`) and
    add_pair(acc, x, y, factor) adds factor * pair(x, y), factor that
    shuffle's sign times the center multiplicity, straight into acc, the
    key's {monomial: coefficient} sum; `raw` sums are made canonical once,
    at the end. Given a caller's raw `sums`, {(k, es, fs): sum}, the pairs
    are added into it and nothing is returned: the caller settles it (one
    sum for the three halves of a bracket). The |left| * |right| pairs are
    checked against the table budget before the first.
    """
    check_table(len(left) * len(right), "a pairing of two operands")
    out = {} if sums is None else sums
    for i, es1, fs1, x in left:
        for j, es2, fs2, y in right:
            if es1 and es2:
                merged = _sorted_merge(es1, es2)
                if merged is None:
                    continue
                es, sign = merged
            else:
                es, sign = es1 or es2, 1
            fs, mult = merge_centers(fs1, fs2)
            key = (i + j, es, fs)
            add_pair(out.get(key) or out.setdefault(key, {}), x, y, sign * mult)
    return _gathered(nvars, degree, out, raw) if sums is None else None


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


# -- every key of a component ----------------------------------------------------


# The package walks every key nowhere; the benchmark's tests and the dense
# oracles in tests/dense_reference.py read this from it.
def component_keys(ctx, degree, k):
    """Every basis key (es, fs) of component k of a degree-n cochain, es in
    lexicographic order, then fs."""
    nl = degree - 2 * k
    for es in product(range(ctx.dim), repeat=nl):
        for fs in combinations_with_replacement(range(ctx.zdim), k):
            yield es, fs


# -- validity ------------------------------------------------------------------


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
    if not violations and omega._valid_over is not alg:
        mark_valid(ctx, omega)  # written above, by `entries`
    return ValidationReport(ok=not violations, violations=violations)


def require_valid(ctx, omega):
    """InvalidCochainError unless omega is weakly skew-symmetric. A cochain
    already known valid over ctx's algebra (`mark_valid`: built by
    `expand`, `cochain_space_basis`, `brackets.theta`, `brackets.zeta`,
    or `combine` or `scale` of such cochains, or passed by
    `validate_cochain`) is only checked against the context."""
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
    """d(omega) = d0(omega) + delta(omega), one degree up: the expansion of
    `free_coboundary`, valid by construction. omega must be valid
    (InvalidCochainError otherwise); the every-key evaluation of d is
    `coboundary` in `tests/dense_reference.py`."""
    return expand(ctx, omega.degree + 1, free_coboundary(ctx, omega))


def free_coboundary(ctx, omega):
    """The free part of d(omega), from its free entries alone (`free_view`).
    A valid omega is the sum of v * F over its free entries v at K, F the
    scalar free-datum table of K, and d acts on values only through the
    action term, which kills scalars and reaches a free key only from K.
    So each v adds e_i acting on it at position a = bisect(es, i), for i
    in `LeibnizAlgebra.acting` and not in es, and v * B(K)
    (`_free_boundary`), all summed raw into the key's sum (the action with
    its sign through `action`'s `into`) and settled once. omega must be
    valid (InvalidCochainError otherwise), so a free part is refused.
    An e_i that moves none of the generators in v's monomials
    (`LeibnizAlgebra.moves`) maps v to zero and is skipped."""
    require_valid(ctx, omega)
    acting, moves = ctx.algebra.acting, ctx.algebra.moves
    sums = {}
    for k, es, fs, val in free_view(omega):
        gens = {r for mono, _ in val.items() for r in mono}
        if gens:
            for i in acting:
                if gens.isdisjoint(moves[i]):
                    continue
                a = bisect_left(es, i)
                if a == len(es) or es[a] != i:
                    key = (k, es[:a] + (i,) + es[a:], fs)
                    action(ctx, i, val, (sums.get(key) or sums.setdefault(key, {}),
                                         -1 if a % 2 else 1))
        for key, c in _free_boundary(ctx, k, es, fs):
            add_scaled(sums.get(key) or sums.setdefault(key, {}), val, c)
    return _gathered(ctx.zdim, omega.degree + 1, sums, True)


def action(ctx, i, poly, into=None):
    """e_i acting on poly in S(Z) (`LeibnizAlgebra.rho_basis`), each
    monomial's image kept in ctx.cache["action_images"], one dict per i.
    With into = (acc, factor), factor times the action is added into the
    raw {monomial: coefficient} sum acc instead and no SymPoly is built:
    d passes its key's sum and sign so."""
    images = ctx.cache.setdefault("action_images", {})
    images = images.get(i) or images.setdefault(i, {})
    return ctx.algebra.rho_basis(i, poly, images, *(into or ()))


def _free_boundary(ctx, k0, es0, fs0):
    """B(K), the free part of d of the scalar free-datum table of the free
    key K = (k0, es0, fs0), as ((k, es, fs), c) over its nonzero c, kept in
    ctx.cache["free_coboundary"]; the table is fetched on every call, so
    its walk is checked against the budget. Only d0's bracket terms and
    delta act on scalars. A bracket term replaces t = es[b] by y and puts
    x at a <= b, for each x.y with a t-component c; the key is free only
    when es less es[b] is strictly increasing, x < y, es[b-1] < y <
    es[b+1], x is not in es and a = bisect_left(es, x, 0, b). delta trades
    es[0] for each z_r with an es[0]-coordinate; the key is free only when
    es[1:] is strictly increasing. So only b = j and j + 1 reach a free key
    from an entry with one descent j, delta only when j = 0, and nothing
    from an entry with two descents or more."""
    table = _free_datum_cochain(ctx, k0, es0, fs0)
    store = ctx.cache.setdefault("free_coboundary", {})
    found = store.get((k0, es0, fs0))
    if found is not None:
        return found
    alg, sums = ctx.algebra, {}
    for (k, es, fs), value in table.items():
        n = len(es)
        descents = [j for j in range(n - 1) if es[j] >= es[j + 1]]
        if len(descents) > 1:
            continue
        for b in (descents[0], descents[0] + 1) if descents else range(n):
            t = es[b]
            lo = es[b - 1] if b else -1
            hi = es[b + 1] if b + 1 < n else ctx.dim
            for x, y, c in alg.product_index[t]:
                if x < y and lo < y < hi:
                    a = bisect_left(es, x, 0, b)
                    if a == b or es[a] != x:
                        key = (k, es[:a] + (x,) + es[a:b] + (y,) + es[b + 1:], fs)
                        sums[key] = sums.get(key, 0) + (c if a % 2 else -c) * value
        if n and descents in ([], [0]):
            for r, zvec in enumerate(alg.z_basis):
                if zvec[es[0]] != 0:
                    out_fs, mult = merge_centers((r,), fs)
                    key = (k + 1, es[1:], out_fs)
                    sums[key] = sums.get(key, 0) + zvec[es[0]] * mult * value
    store[k0, es0, fs0] = found = tuple((key, exact(c)) for key, c in sums.items() if c)
    return found


def expand(ctx, degree, free):
    """The valid degree-n cochain whose values at the free keys are those
    `free` stores, all at free keys: the sum of v * F over its entries v at
    (k, es, fs), F the free-datum table of that key. Below degree 2 every
    key is free and `free` itself is returned. The result is marked valid
    in ctx (`mark_valid`).

    From degree 2 on the result keeps only `free`'s entries, its free part,
    and is written from ctx's free-datum store when its `components` are
    first read (`_write_expansion`). Its entries are checked against the
    table budget now: each key counts the keys its walk visited when the
    store holds its table, else its `_walk_bound`; when those sum to at
    most MAX_TABLE no walk or table can pass it and nothing is walked;
    else every table is walked, in the store, and its entries counted, so
    each budget raises where and as a walk of every table would."""
    if degree < 2:
        return mark_valid(ctx, free)
    comps = free.components
    walked = ctx.cache.get("free_datum", {})
    bounds = ctx.cache.setdefault("walk_bound", {})
    if sum(walked[k, es, fs][0] if (k, es, fs) in walked else
           bounds.get((es, fs)) or _walk_bound(ctx, (es, fs))
           for k, table in comps.items() for es, fs in table) > MAX_TABLE:
        check_table(sum(len(_free_datum_cochain(ctx, k, es, fs)) for k, table in comps.items()
                        for es, fs in table), "an expansion")
    return _expansion(ctx, degree, comps)


def _walk_bound(ctx, key):
    """An upper bound on the keys the walk of the free key (len(fs), es,
    fs) visits, so on its table's entries: sum_j s^j (n + 2j)! over
    j = 0..len(fs), n = len(es), s the number of pairings (x, y) in
    `pairing_index[r]` over the distinct r in fs. A key j levels down
    orders es and j inserted pairs, each drawn for a center taken out of
    fs: at most s^j choices of pairs and (n + 2j)! orders. Kept in
    ctx.cache["walk_bound"] under (es, fs). A key that is not free gets
    no bound (infinity, not kept), so `expand` walks it and raises."""
    es, fs = key
    if not _increasing(es):
        return float("inf")
    pairings = ctx.algebra.pairing_index
    s = sum(len(pairings[r]) for r in set(fs))
    bound = sum(s ** j * factorial(len(es) + 2 * j) for j in range(len(fs) + 1))
    ctx.cache.setdefault("walk_bound", {})[key] = bound
    return bound


def _write_expansion(ctx, degree, free):
    """The components of the sum of v * F over the free entries v at
    (k, es, fs) of `free`, F that key's free-datum table in ctx's store
    (`_free_datum_cochain`). Each table is written straight into the
    output: v itself at +1, one shared multiple of v at each other
    coefficient, and a summed copy only where two tables share a key."""
    comps, summed = {k: {} for k in range(degree // 2 + 1)}, {}
    for k0, table in free.items():
        for (es0, fs0), value in table.items():
            scaled = {1: value}  # each multiple of value built once and shared
            for key, c in _free_datum_cochain(ctx, k0, es0, fs0).items():
                multiple = scaled.get(c)
                if multiple is None:
                    multiple = scaled[c] = value.scale(c)
                k, es, fs = key
                out = comps[k]
                held = out.get((es, fs))
                if held is None:
                    out[es, fs] = multiple
                else:  # a key two tables share is summed in a dict of its own
                    accumulate(summed.get(key) or summed.setdefault(key, dict(held.items())),
                               multiple)
    for (k, es, fs), acc in summed.items():
        if acc:
            comps[k][es, fs] = _canonical(ctx.zdim, acc)
        else:
            del comps[k][es, fs]
    return {k: table for k, table in comps.items() if table}


# -- the product ----------------------------------------------------------------


def cup(ctx, omega, eta):
    """Graded product, a double shuffle sum over argument splittings: the
    algebra arguments shuffle with sign, the center arguments without. The
    operands must be valid (InvalidCochainError otherwise, checked after
    the context); the product is the expansion of `free_cup`. The every-key
    shuffle sum is `cup` in `tests/dense_reference.py`."""
    free = free_cup(ctx, omega, eta)
    require_valid(ctx, omega)
    require_valid(ctx, eta)
    return expand(ctx, free.degree, free)


def free_cup(ctx, omega, eta):
    """The free part of omega . eta, from the pair kernel, which sums each
    pair's product canonically. It reads only free entries, so either
    operand may be a free part; it checks the context, not validity."""
    check_context(ctx, omega, eta)
    return pair_at_free_keys(ctx.zdim, omega.degree + eta.degree, free_view(omega), free_view(eta),
                             lambda acc, x, y, f: accumulate(acc, x * y, f), raw=False)


def free_part(omega):
    """omega's entries at the free keys; an expansion's are read without
    writing it. A valid cochain is the `expand` of its free part, so two
    valid cochains are equal exactly when their free parts are. It is
    never marked valid, so an operator that validates its operands refuses
    it unless it is the whole cochain."""
    out = _stored(omega.degree, omega.nvars, _free_table(omega))
    out._free = out.components
    return out


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
        basis.append(mark_valid(ctx, _stored(degree, ctx.zdim, comps)))
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
    """The cochain a file's JSON data describes, over ctx. Its entries are
    counted before any value is parsed, and a file of more than MAX_TABLE
    entries is refused (TableBudgetError)."""
    if not isinstance(data, dict) or not _is_index(data.get("degree")):
        raise CochainFormatError("cochain file needs an integer 'degree'")
    degree = data["degree"]
    blocks = data.get("components", [])
    if not isinstance(blocks, list):
        raise CochainFormatError("'components' must be a list")
    tables = []
    for block in blocks:
        try:
            k = block["k"]
            entries = block["entries"]
        except (KeyError, TypeError) as exc:
            raise CochainFormatError(f"bad component block {block!r}") from exc
        if not _is_index(k) or not isinstance(entries, list):
            raise CochainFormatError(f"bad component block {block!r}")
        tables.append((k, entries))
    check_table(sum(len(entries) for _, entries in tables), "a cochain file")
    comps = {}
    for k, entries in tables:
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


# A cochain file longer than MAX_FILE_BYTES_PER_ENTRY * MAX_TABLE bytes
# (100 MB) is refused before it is read.
MAX_FILE_BYTES_PER_ENTRY = 1000


def load_cochain(ctx, path):
    with open(path, "r", encoding="utf-8") as fh:
        size, limit = os.fstat(fh.fileno()).st_size, MAX_FILE_BYTES_PER_ENTRY * MAX_TABLE
        if size > limit:
            raise TableBudgetError(f"a cochain file of {size} bytes is above the limit of "
                                   f"{limit} bytes")
        try:
            data = json.load(fh)
        except ValueError as exc:  # also an integer literal too long for int()
            raise CochainFormatError(str(exc)) from exc
    return cochain_from_dict(ctx, data)
