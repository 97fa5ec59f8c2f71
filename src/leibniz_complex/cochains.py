"""The standard cochain complex of a Leibniz algebra with S(Z) coefficients.

A degree-n cochain is a sequence of components (w_0, ..., w_{n//2}) where
w_k takes n-2k algebra arguments and k symmetric center arguments and is
stored sparsely on basis keys:

    components[k][(e-index tuple, sorted z-index tuple)] = SymPoly

Weak skew-symmetry ties neighbouring components together: swapping two
adjacent algebra arguments is skew only up to a correction by the next
component evaluated on the symmetric product of the swapped pair,

    w_k(..e,e'..; fs) + w_k(..e',e..; fs) = -w_{k+1}(.. ; (e,e'), fs).

Storage does not canonicalize this (the structure is only weakly skew);
`validate_cochain` checks it instead, on the equations stored entries
touch, and `cochain_space_basis` builds valid cochains from their values
at strictly increasing keys.

The differential splits as d = d0 + delta. d0 is the Chevalley-Eilenberg
style sum of action terms and bracket insertions; delta feeds each center
argument back in as the first algebra argument. The term moving center
arguments along the bracket vanishes identically here because the left
center kills everything on the left, so it is not implemented.

Everything expands multilinearly over the chosen bases, and all shuffle
enumerations are lexicographic so failure reports are reproducible.
"""

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

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


class ShuffleBudgetError(ValueError):
    """A product whose operands' argument tuples need more than MAX_SHUFFLES shuffles."""


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

    __slots__ = ("degree", "nvars", "components", "_hash")

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
        self._hash = None

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

    def scale(self, factor):
        factor = exact(factor)
        if factor == 0:
            return Cochain.zero(self.degree, self.nvars)
        comps = {k: {key: v.scale(factor) for key, v in table.items()}
                 for k, table in self.components.items()}
        return Cochain(self.degree, self.nvars, comps)

    def __add__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if self.nvars != other.nvars:
            raise CochainShapeError("cannot add cochains over different centers")
        if self.degree != other.degree:
            # the zero cochain sits in every degree (brackets of low-degree
            # cochains land there with a clamped degree)
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise CochainShapeError("cannot add nonzero cochains of different degree")
        comps = {k: dict(table) for k, table in self.components.items()}
        for k, table in other.components.items():
            mine = comps.setdefault(k, {})
            for key, value in table.items():
                mine[key] = mine[key] + value if key in mine else value
        return Cochain(self.degree, self.nvars, comps)

    def __sub__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self + other.scale(-1)

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


# -- shuffles ------------------------------------------------------------------

# The most shuffles one product may merge a pair of argument tuples with.
# `pair_terms`, which derives the terms of `cup`, `bullet`, `diamond` and
# d's action terms, checks C(p + q, p) for the longest argument tuples p
# and q its operands store, once per call and before any shuffle table is
# built: two entries with 20 algebra arguments each would otherwise need
# C(40, 20) = 1.4e11 of them.
MAX_SHUFFLES = 100_000


def position_splits(n, p):
    """All splits of positions 0..n-1 into an ordered p-subset and its
    complement, lexicographically; these enumerate the (p, n-p) shuffles."""
    universe = range(n)
    for left in combinations(universe, p):
        chosen = set(left)
        right = tuple(i for i in universe if i not in chosen)
        yield left, right


def split_sign(left, right):
    """Sign of the permutation (left + right) of 0..n-1, both halves ascending."""
    inversions = sum(1 for s in left for t in right if s > t)
    return -1 if inversions % 2 else 1


@cache
def shuffle_table(n, p):
    """(order, sign) for each (p, n-p) shuffle: merging a p-tuple a with an
    (n-p)-tuple b puts (a + b)[order[x]] at position x."""
    return tuple((tuple(map((left + right).index, range(n))), split_sign(left, right))
                 for left, right in position_splits(n, p))


@cache
def merge_centers(fs1, fs2):
    """The sorted union of two center multisets, and the number of ways to
    place fs1 in it (a sum over center splits counts each placement)."""
    fs = tuple(sorted(fs1 + fs2))
    return fs, prod(comb(fs.count(r), fs1.count(r)) for r in set(fs1))


# -- the scatter kernel --------------------------------------------------------


def check_context(ctx, *cochains):
    """ContextMismatchError unless every cochain lives over ctx's center
    basis; d, cup, bullet and diamond call it before anything else."""
    if any(omega.nvars != ctx.zdim for omega in cochains):
        raise ContextMismatchError("cochains built over a different center basis")


def entries(omega):
    """The stored (k, es, fs, value) of a cochain."""
    for k, table in omega.components.items():
        for (es, fs), value in table.items():
            yield k, es, fs, value


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


def scatter(ctx, degree, terms):
    """The one output loop of d, cup, bullet and diamond: the degree-n
    cochain summing factor * poly over its terms (k, es, fs, poly, factor),
    fs sorted. Operators derive their terms from stored entries, so the
    cost follows the terms, never the dim^degree output keys. The polys
    must live over ctx's center (see `check_context`): their monomials
    are taken as they are, without re-checking."""
    sums = {}
    for k, es, fs, poly, factor in terms:
        accumulate(sums.setdefault((k, es, fs), {}), poly, factor)
    comps = {}
    for (k, es, fs), acc in sums.items():
        if acc:
            comps.setdefault(k, {})[(es, fs)] = _canonical(ctx.zdim, acc)
    return Cochain(degree, ctx.zdim, comps)


def pair_terms(left, right, combine):
    """Terms of a product-like operator: items (i, es1, fs1, x) and (j, es2,
    fs2, y), one from each side, put combine(x, y) at every signed shuffle
    of es1 and es2, on the merged center multiset."""
    left, right = list(left), list(right)
    p = max((len(item[1]) for item in left), default=0)
    q = max((len(item[1]) for item in right), default=0)
    count = comb(p + q, p)
    if count > MAX_SHUFFLES:
        raise ShuffleBudgetError(f"merging argument tuples of lengths {p} and {q} takes "
                                 f"{count} shuffles, above the limit of {MAX_SHUFFLES}")
    for i, es1, fs1, x in left:
        for j, es2, fs2, y in right:
            value = combine(x, y)
            if not value.is_zero():
                fs, mult = merge_centers(fs1, fs2)
                merged = es1 + es2
                for order, sign in shuffle_table(len(merged), len(es1)):
                    yield i + j, tuple([merged[o] for o in order]), fs, value, sign * mult


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
    z_r-component, r in the stored fs. Violations are sorted by
    (k, es, fs, pos), the order of a walk over every key.
    """
    equations = set()
    for k, es, fs, _ in entries(omega):
        for pos in range(len(es) - 1):
            x, y = es[pos], es[pos + 1]
            equations.add((k, es if x <= y else es[:pos] + (y, x) + es[pos + 2:], fs, pos))
        for r in set(fs):
            rest = _remove_one(fs, r)
            for x, y, _ in ctx.algebra.pairing_index[r]:
                for pos in range(len(es) + 1):
                    equations.add((k - 1, es[:pos] + (x, y) + es[pos:], rest, pos))
    violations = []
    for k, es, fs, pos in sorted(equations):
        swapped = es[:pos] + (es[pos + 1], es[pos]) + es[pos + 2:]
        reduced = es[:pos] + es[pos + 2:]
        lhs = omega.value(k, es, fs) + omega.value(k, swapped, fs)
        rhs = SymPoly.zero(ctx.zdim)
        for (r,), c in ctx.algebra.pairing_poly_basis(es[pos], es[pos + 1]).items():
            rhs = rhs + omega.value(k + 1, reduced, fs + (r,)).scale(-c)
        if lhs != rhs:
            violations.append((k, pos, es, fs, lhs, rhs))
    return ValidationReport(ok=not violations, violations=violations)


def _remove_one(fs, r):
    """The sorted multiset fs with one copy of r taken out."""
    i = fs.index(r)
    return fs[:i] + fs[i + 1:]


# -- the differential ----------------------------------------------------------


def coboundary(ctx, omega):
    """d(omega) = d0(omega) + delta(omega), one degree up.

    The input must be a valid cochain (InvalidCochainError otherwise).
    """
    check_context(ctx, omega)
    report = validate_cochain(ctx, omega)
    if not report.ok:
        raise InvalidCochainError(report)
    return scatter(ctx, omega.degree + 1, _coboundary_terms(ctx, omega))


def _coboundary_terms(ctx, omega):
    """The terms of d, from each stored entry omega_k(es; fs): d0's action
    terms, e_i acting on it from every position; d0's bracket terms, each
    argument t replaced by every pair (x, y) whose product x.y has a
    t-component c, x moved left; and delta, the first argument t traded
    for each center generator z_r whose basis vector has a t-coordinate."""
    alg = ctx.algebra
    basis = [(0, (i,), (), i) for i in range(ctx.dim)]
    yield from pair_terms(basis, entries(omega), alg.rho_basis)
    for k, es, fs, val in entries(omega):
        for b, t in enumerate(es):
            for x, y, c in alg.product_index[t]:
                for a in range(b + 1):
                    yield (k, es[:a] + (x,) + es[a:b] + (y,) + es[b + 1:], fs, val,
                           c if a % 2 else -c)
        for r, zvec in enumerate(alg.z_basis):
            if es and zvec[es[0]] != 0:
                out_fs, mult = merge_centers((r,), fs)
                yield k + 1, es[1:], out_fs, val, zvec[es[0]] * mult


# -- the product ----------------------------------------------------------------


def cup(ctx, omega, eta):
    """Graded product: double shuffle sum over argument splittings.

    The algebra arguments contribute the shuffle sign; the symmetric
    center arguments shuffle without sign.
    """
    check_context(ctx, omega, eta)
    terms = pair_terms(entries(omega), entries(eta), operator.mul)
    return scatter(ctx, omega.degree + eta.degree, terms)


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
    (k, es, fs), is returned; it depends only on the space, so it is the
    kernel basis of the full constraint matrix, entry for entry. Single-key
    indicator tables are NOT valid cochains in general, which is why the
    exhaustive d.d = 0 and product suites run over this basis instead.
    """
    vectors = [_free_datum_cochain(ctx, k, es, fs)
               for k in range(degree // 2 + 1)
               for es in combinations(range(ctx.dim), degree - 2 * k)
               for fs in combinations_with_replacement(range(ctx.zdim), k)]
    rows = []
    for block in _blocks(vectors):
        keys = sorted(set().union(*block))
        index = {key: c for c, key in enumerate(keys)}
        matrix = []
        for vec in block:
            row = [0] * len(keys)
            for key, c in vec.items():
                row[index[key]] = c
            matrix.append(row)
        reduced, pivots = rref(matrix)
        rows.extend((keys[p], [(keys[c], v) for c, v in enumerate(row) if v != 0])
                    for row, p in zip(reduced, pivots))
    basis = []
    for _, row in sorted(rows, key=lambda item: item[0]):
        comps = {}
        for (k, es, fs), c in row:
            comps.setdefault(k, {})[(es, fs)] = SymPoly.constant(ctx.zdim, c)
        basis.append(Cochain(degree, ctx.zdim, comps))
    return basis


def _blocks(vectors):
    """The vectors grouped so that no two groups share a key. The echelon
    form of the span is the union of the groups' echelon forms, and each
    group is reduced over its own keys only."""
    parent = list(range(len(vectors)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for i, vec in enumerate(vectors):
        for key in vec:
            parent[root(i)] = root(first.setdefault(key, i))
    groups = {}
    for i, vec in enumerate(vectors):
        groups.setdefault(root(i), []).append(vec)
    return list(groups.values())


def _free_datum_cochain(ctx, k0, es0, fs0):
    """The valid scalar cochain whose one nonzero free datum is
    w_{k0}(es0; fs0) = 1, as {(k, es, fs): value}.

    w_{k0} is sign(sigma) at each permutation sigma(es0), with fs0, and zero
    elsewhere. Below k0, w_k can be nonzero only at a key holding a stored
    (es', fs') of w_{k+1} plus a pair (x, y) whose pairing has a
    z_r-component, r in fs'; each such multiset of arguments is evaluated
    at its distinct orderings, in lexicographic order, at the first
    adjacent pair that is not strictly increasing:

        w(..x,y..; fs) = -w(..y,x..; fs) - sum_r c_r w_{k+1}(..; fs + (r,))   x > y
        w(..x,x..; fs) = -1/2 sum_r c_r w_{k+1}(..; fs + (r,))

    (..y,x.. comes earlier in that order), and a strictly increasing key
    below k0 is a free datum, zero here.
    """
    alg = ctx.algebra
    upper = {(es, fs0): _inversion_sign(es) for es in _orderings(es0)}
    out = {(k0, es, fs): value for (es, fs), value in upper.items()}
    for k in range(k0 - 1, -1, -1):
        groups = {(tuple(sorted(es + (x, y))), _remove_one(fs, r))
                  for es, fs in upper for r in set(fs) for x, y, _ in alg.pairing_index[r]}
        lower = {}
        for args, fs in groups:
            known = {}
            for es in _orderings(args):
                pos = next((i for i in range(len(es) - 1) if es[i] >= es[i + 1]), None)
                if pos is None:
                    known[es] = 0
                    continue
                x, y = es[pos], es[pos + 1]
                reduced = es[:pos] + es[pos + 2:]
                correction = sum(c * upper.get((reduced, tuple(sorted(fs + (r,)))), 0)
                                 for (r,), c in alg.pairing_poly_basis(x, y).items())
                if x == y:
                    value = exact(Fraction(-correction, 2))
                else:
                    value = exact(-known[es[:pos] + (y, x) + es[pos + 2:]] - correction)
                known[es] = value
                if value != 0:
                    lower[(es, fs)] = value
        out.update(((k, es, fs), value) for (es, fs), value in lower.items())
        upper = lower
    return out


def _orderings(args):
    """The distinct orderings of the sorted tuple args, in lexicographic order."""
    seq = list(args)
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _inversion_sign(es):
    return -1 if sum(a > b for a, b in combinations(es, 2)) % 2 else 1


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
        data = json.load(fh)
    return cochain_from_dict(ctx, data)
