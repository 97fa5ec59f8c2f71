"""Finite-dimensional Leibniz algebras given by structure constants.

The product convention is left Leibniz throughout:

    e1 . (e2 . e3) = (e1 . e2) . e3 + e2 . (e1 . e3)

which makes every square e.e annihilate from the left. The left center
Z = {z : z . e = 0 for all e} is computed from the structure constants,
never user-supplied, and all symmetric products

    (e1, e2) = e1 . e2 + e2 . e1

are stored once, as degree-1 elements of S(Z) over the computed echelon
basis of Z. The generators of the symmetric algebra S(Z) are identified
with that basis, in order, so z1 is the first echelon basis vector and so on.

Elements are plain coordinate tuples over the chosen basis, each
coordinate an exact rational in the canonical form of `sympoly.exact`
(an int when it is whole, a Fraction only when it is not).
"""

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .linalg import kernel_basis
from .sympoly import SymPoly, derivation_extend, exact, rational_text

ZERO = 0


class IntegrityError(RuntimeError):
    """A cached structural fact (pairing in Z, closure of an ideal) failed."""


class PreconditionError(ValueError):
    """An operation's hypothesis does not hold for this algebra."""


class UnknownFixtureError(KeyError):
    pass


class AlgebraFormatError(ValueError):
    """Structurally malformed algebra file (bad JSON shape, indices, coeffs)."""


class InvalidAlgebraError(ValueError):
    """A structure-constant table violating the Leibniz identity."""

    def __init__(self, report):
        self.report = report
        first = report.violations[0][:3] if report.violations else None
        super().__init__(f"Leibniz identity fails, first violating triple: {first}")


@dataclass
class LeibnizReport:
    """Outcome of the exhaustive Leibniz-identity check over basis triples."""

    ok: bool
    violations: list = field(default_factory=list)  # (i, j, l, lhs, rhs)


def _vec(coords):
    return tuple(exact(c) for c in coords)


def vec_add(v, w):
    return tuple(exact(a + b) for a, b in zip(v, w))


def vec_scale(v, factor):
    factor = exact(factor)
    return tuple(exact(factor * a) for a in v)


def zero_vec(dim):
    return (ZERO,) * dim


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def basis_vec(dim, i):
    return tuple(1 if j == i else ZERO for j in range(dim))


class LeibnizAlgebra:
    """Structure constants plus the facts every layer reads, each computed
    once here: the left center, the pairing kernel, the pairing and the
    action on Z as SymPolys, the generators each basis element moves, and
    the indexes of nonzero pairings, pairing coefficients and structure
    constants."""

    def __init__(self, labels, table):
        self.labels = tuple(str(s) for s in labels)
        self.dim = len(self.labels)
        if len(table) != self.dim or any(len(row) != self.dim for row in table):
            raise ValueError(f"structure table must be {self.dim}x{self.dim}")
        self.table = tuple(tuple(_vec(entry) for entry in row) for row in table)
        for row in self.table:
            for entry in row:
                if len(entry) != self.dim:
                    raise ValueError("structure constants have the wrong length")
        dims = range(self.dim)
        sym = [[vec_add(self.table[i][j], self.table[j][i]) for j in dims] for i in dims]
        self.z_basis = _annihilator(self.table)
        self.zdim = len(self.z_basis)
        self._z_pivots = [_leading_index(v) for v in self.z_basis]
        self.kernel_basis = _annihilator(sym)
        # (e_i, e_j) and e_i acting on the Z-basis, as degree-1 elements of
        # S(Z); None marks values outside span(Z), which only happen for
        # tables violating the Leibniz identity.
        self._pairing = [[self._z_poly(sym[i][j]) for j in dims] for i in dims]
        rho = [[self._z_poly(self.bracket(basis_vec(self.dim, i), z)) for z in self.z_basis] for i in dims]
        self._rho_base = [None if None in base else base for base in rho]
        # i -> the generators z_r that e_i moves, every one when e_i moves
        # one outside Z (so that using the action raises); d's action terms
        # come from the basis indices i that move some generator, `acting`
        self.moves = tuple(frozenset(range(self.zdim)) if base is None else
                           frozenset(r for r, b in enumerate(base) if b) for base in self._rho_base)
        self.acting = tuple(i for i, moved in enumerate(self.moves) if moved)
        # i -> ((j, (e_i, e_j)), ...) over the nonzero pairings of e_i, in j
        # order, or None when one lies outside Z (`pairings` raises then)
        self._paired = [None if None in row else tuple((j, p) for j, p in enumerate(row) if p)
                        for row in self._pairing]
        # r -> [(x, y, c)]: x <= y and (e_x, e_y) has z_r-component c != 0
        self.pairing_index = [[] for _ in range(self.zdim)]
        for x, y in combinations_with_replacement(dims, 2):
            for (r,), c in (self._pairing[x][y] or {}).items():
                self.pairing_index[r].append((x, y, c))
        # t -> [(x, y, c)]: x.y has t-component c != 0
        self.product_index = [[(x, y, self.table[x][y][t]) for x, y in product(dims, repeat=2)
                               if self.table[x][y][t] != 0] for t in dims]

    # -- products ----------------------------------------------------------

    def bracket(self, v, w):
        out = [ZERO] * self.dim
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            for j, wj in enumerate(w):
                if wj == 0:
                    continue
                entry = self.table[i][j]
                f = vi * wj
                for t, c in enumerate(entry):
                    if c != 0:
                        out[t] += f * c
        return _vec(out)

    # -- the left center and Z-coordinates ----------------------------------

    def z_coords(self, v):
        """Coordinates of v over the echelon Z-basis; IntegrityError if v is not in Z."""
        if any(_echelon_residual(self.z_basis, self._z_pivots, v)):
            raise IntegrityError("vector outside the left center span")
        return _vec(v[p] for p in self._z_pivots)

    def _z_poly(self, v):
        """v as a degree-1 element of S(Z), or None when v lies outside span(Z)."""
        try:
            coords = self.z_coords(v)
        except IntegrityError:
            return None
        return SymPoly(self.zdim, {(r,): c for r, c in enumerate(coords) if c != 0})

    # -- the symmetric product valued in S(Z) --------------------------------

    def pairing_poly_basis(self, i, j):
        entry = self._pairing[i][j]
        if entry is None:
            raise IntegrityError(f"pairing of basis elements {i},{j} lies outside the left center")
        return entry

    def pairings(self, i):
        """((j, (e_i, e_j)), ...) over the nonzero pairings of e_i, in j
        order: what flats, zeta, theta and the systems of phi sum over.
        IntegrityError, as `pairing_poly_basis` raises it at the first j,
        when a pairing of e_i lies outside the left center."""
        row = self._paired[i]
        if row is None:
            for j in range(self.dim):
                self.pairing_poly_basis(i, j)
        return row

    # -- the action on S(Z) ---------------------------------------------------

    def rho_basis(self, i, poly, images=None, acc=None, factor=1):
        """Action of basis element e_i on S(Z), extended as a derivation;
        `images` (one dict per i), and the raw sum `acc` that factor times
        the action is added into, are passed on to `derivation_extend`."""
        base = self._rho_base[i]
        if base is None:
            raise IntegrityError(f"e_{i} does not preserve the left center")
        return derivation_extend(base, poly, images, acc, factor)

    # -- fatness and the quotient ---------------------------------------------

    def is_fat(self):
        return not self.kernel_basis

    def two_sided_center(self):
        return _annihilator(self.table, tuple(zip(*self.table)))

    def __repr__(self):
        return f"LeibnizAlgebra(dim={self.dim}, labels={list(self.labels)})"


def check_leibniz(algebra):
    """Exhaustively test the left Leibniz identity on basis triples (i, j,
    l), both sides summed from the nonzero structure constants. A triple
    whose products e_j.e_l, e_i.e_j and e_i.e_l all vanish holds with both
    sides zero and is skipped. Violations come in (i, j, l) order."""
    dim = algebra.dim
    prods = [[{t: c for t, c in enumerate(entry) if c != 0} for entry in row]
             for row in algebra.table]

    def summed(terms):
        """The nonzero coordinates {t: value} of sum c * entry over the terms."""
        out = {}
        for c, entry in terms:
            for t, d in entry.items():
                out[t] = out.get(t, ZERO) + c * d
        return {t: v for t, v in out.items() if v != 0}

    violations = []
    for i, j, l in product(range(dim), repeat=3):
        jl, ij, il = prods[j][l], prods[i][j], prods[i][l]
        if jl or ij or il:
            lhs = summed((c, prods[i][t]) for t, c in jl.items())
            rhs = summed([(c, prods[t][l]) for t, c in ij.items()]
                         + [(c, prods[j][t]) for t, c in il.items()])
            if lhs != rhs:
                lhs, rhs = (_vec(side.get(t, ZERO) for t in range(dim)) for side in (lhs, rhs))
                violations.append((i, j, l, lhs, rhs))
    return LeibnizReport(ok=not violations, violations=violations)


def require_leibniz(algebra):
    """InvalidAlgebraError unless the algebra passes `check_leibniz`."""
    report = check_leibniz(algebra)
    if not report.ok:
        raise InvalidAlgebraError(report)


def quotient_by_kernel(algebra):
    """The induced algebra on L/K for K the kernel of the symmetric product.

    Requires a trivial two-sided center. The quotient is realized on the
    standard basis vectors complementary to the pivot columns of K, so
    for block-built fixtures the projected structure constants are
    directly comparable to the block's own table.
    """
    if algebra.two_sided_center():
        raise PreconditionError("the two-sided center must be trivial to quotient by the pairing kernel")
    kernel = algebra.kernel_basis
    dim = algebra.dim
    pivots = [_leading_index(v) for v in kernel]
    comp = [i for i in range(dim) if i not in pivots]

    def complement_coords(w):
        """w's coordinates over the non-pivot axes: w = k + c, k in span(kernel)."""
        residual = _echelon_residual(kernel, pivots, w)
        return tuple(residual[i] for i in comp)

    for kvec in kernel:
        for i in range(dim):
            e = basis_vec(dim, i)
            for w in (algebra.bracket(e, kvec), algebra.bracket(kvec, e)):
                if any(complement_coords(w)):
                    raise IntegrityError("pairing kernel is not a two-sided ideal")
    labels = [algebra.labels[i] for i in comp]
    table = [[complement_coords(algebra.bracket(basis_vec(dim, i), basis_vec(dim, j)))
              for j in comp] for i in comp]
    quotient = LeibnizAlgebra(labels, table)
    report = check_leibniz(quotient)
    if not report.ok:
        raise IntegrityError("quotient table violates the Leibniz identity")
    return quotient


def _leading_index(v):
    return next(i for i, c in enumerate(v) if c != 0)


def _annihilator(*tables):
    """Reduced echelon basis of {x : sum_i x_i table[i][j] = 0 for every j
    and every table}; for the structure table that is the left center."""
    dim = len(tables[0])
    rows = [{i: table[i][j][t] for i in range(dim) if table[i][j][t] != 0}
            for table in tables for j in range(dim) for t in range(dim)]
    return tuple(tuple(v.get(i, 0) for i in range(dim)) for v in kernel_basis(rows, range(dim)))


def _echelon_residual(basis, pivots, v):
    """v minus v[p] times each reduced echelon row of `basis`, p its pivot:
    zero exactly when v lies in the span of `basis`."""
    residual = list(v)
    for p, row in zip(pivots, basis):
        c = residual[p]
        if c != 0:
            residual = [a - c * b for a, b in zip(residual, row)]
    return residual


# -- fixtures ----------------------------------------------------------------

_OMNI_RE = re.compile(r"^omni\(([0-9]+)\)$")

# The most digits an algebra-file coefficient may spell out, counting the
# zeros its exponent stands for: `Fraction("1e10000000")` would expand ten
# million of them, so `_coefficient` checks the text before converting it.
MAX_COEFF_DIGITS = 1000

# The largest dimension an algebra may have. `build_fixture` and
# `algebra_from_dict` check it before any dim x dim x dim table is built;
# omni(7), dim 56, is the largest omni(n) under it.
MAX_DIM = 64

# The most bytes per structure constant an algebra file may spend: a
# coefficient at MAX_COEFF_DIGITS, its quotes and, in `json.dump`'s
# indented form, its separator and indentation, with room to spare for
# the entry keys and the labels. A file longer than this times MAX_DIM^3,
# the constants of a full table at MAX_DIM (about 268 MB), holds no valid
# algebra and is refused before it is read.
MAX_FILE_BYTES_PER_COEFF = MAX_COEFF_DIGITS + 24


def build_fixture(name):
    """Named test algebras: A3, O1, O2, AFF_O1, or omni(n)."""
    if name == "A3":
        dim = 3
        return LeibnizAlgebra(["e1", "e2", "e3"], [[zero_vec(dim)] * dim for _ in range(dim)])
    if name == "O1":
        table = [[zero_vec(2), basis_vec(2, 1)], [zero_vec(2), zero_vec(2)]]
        return LeibnizAlgebra(["a", "b"], table)
    if name == "O2":
        return _omni(2)
    if name == "AFF_O1":
        dim = 4
        table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        table[0][1] = basis_vec(dim, 1)                  # x.y = y
        table[1][0] = vec_scale(basis_vec(dim, 1), -1)   # y.x = -y
        table[2][3] = basis_vec(dim, 3)                  # a.b = b
        return LeibnizAlgebra(["x", "y", "a", "b"], table)
    match = _OMNI_RE.match(name)
    if match:
        digits = match.group(1).lstrip("0")
        # more digits than MAX_DIM has means n * n + n > MAX_DIM: reject before int()
        # converts an arbitrarily long string
        if len(digits) > len(str(MAX_DIM)):
            raise AlgebraFormatError(f"omni(n): n has {len(digits)} digits, so its dimension "
                                     f"exceeds MAX_DIM = {MAX_DIM}")
        n = int(digits or "0")
        if n < 1:
            raise AlgebraFormatError(f"{name}: n must be at least 1")
        if n * n + n > MAX_DIM:
            raise AlgebraFormatError(f"{name}: dimension {n * n + n} exceeds MAX_DIM = {MAX_DIM}")
        return _omni(n)
    raise UnknownFixtureError(name)


def _omni(n):
    """gl(n) + k^n with (A,u).(B,v) = ([A,B], Av)."""
    dim = n * n + n
    labels = [f"E{i+1}{j+1}" for i in range(n) for j in range(n)] + [f"u{i+1}" for i in range(n)]

    def eidx(i, j):
        return i * n + j

    def uidx(i):
        return n * n + i

    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for a, b, c, d in product(range(n), repeat=4):
        out = [ZERO] * dim
        if b == c:
            out[eidx(a, d)] += 1
        if d == a:
            out[eidx(c, b)] -= 1
        table[eidx(a, b)][eidx(c, d)] = tuple(out)
    for a, b, c in product(range(n), repeat=3):
        if b == c:
            table[eidx(a, b)][uidx(c)] = basis_vec(dim, uidx(a))
    return LeibnizAlgebra(labels, table)


# -- the JSON file format -----------------------------------------------------


def algebra_to_dict(algebra):
    brackets = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            entry = algebra.table[i][j]
            if any(c != 0 for c in entry):
                brackets.append({"i": i, "j": j, "coeffs": [rational_text(c) for c in entry]})
    return {"dim": algebra.dim, "basis": list(algebra.labels), "brackets": brackets}


def algebra_from_dict(data):
    if not isinstance(data, dict):
        raise AlgebraFormatError("algebra file must hold a JSON object")
    try:
        dim = data["dim"]
        basis = data["basis"]
    except (KeyError, TypeError) as exc:
        raise AlgebraFormatError(f"missing algebra field: {exc}") from exc
    # dim 0 is allowed: `quotient_by_kernel` of an algebra whose pairing
    # vanishes (a Lie algebra with trivial center) is the zero algebra
    if not _is_index(dim) or dim < 0:
        raise AlgebraFormatError("'dim' must be a non-negative integer")
    if dim > MAX_DIM:
        raise AlgebraFormatError(f"'dim' {dim} exceeds MAX_DIM = {MAX_DIM}")
    if not isinstance(basis, list) or len(basis) != dim:
        raise AlgebraFormatError("'basis' must list exactly dim labels")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise AlgebraFormatError("'brackets' must be a list")
    table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    given = set()
    for entry in brackets:
        try:
            i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        except (KeyError, TypeError) as exc:
            raise AlgebraFormatError(f"bad bracket entry {entry!r}") from exc
        if not (_is_index(i) and 0 <= i < dim and _is_index(j) and 0 <= j < dim):
            raise AlgebraFormatError(f"bracket indices ({i},{j}) are not integers in 0..{dim - 1}")
        if (i, j) in given:
            raise AlgebraFormatError(f"bracket ({i},{j}) is given more than once")
        given.add((i, j))
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise AlgebraFormatError(f"bracket ({i},{j}) needs exactly {dim} coefficients")
        table[i][j] = _vec(_coefficient(c, i, j) for c in coeffs)
    algebra = LeibnizAlgebra(basis, table)
    require_leibniz(algebra)
    return algebra


def _coefficient(value, i, j):
    """The rational a coefficient of bracket (i, j) spells, as a JSON number
    or string, within MAX_COEFF_DIGITS digits (AlgebraFormatError if not)."""
    text = str(value)
    try:
        spelled = len(text) + abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:  # no integer exponent, and Fraction accepts no other kind
        spelled = len(text)
    try:
        if spelled > MAX_COEFF_DIGITS:
            raise ValueError(f"it spells more than MAX_COEFF_DIGITS = {MAX_COEFF_DIGITS} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFormatError(f"bad coefficient in bracket ({i},{j}): {exc}") from exc


def load_algebra(path):
    """The algebra an algebra file describes. A file longer than
    MAX_FILE_BYTES_PER_COEFF * MAX_DIM^3 bytes is refused from its size
    alone (`os.fstat`), before it is read."""
    with open(path, "r", encoding="utf-8") as fh:
        size, limit = os.fstat(fh.fileno()).st_size, MAX_FILE_BYTES_PER_COEFF * MAX_DIM ** 3
        if size > limit:
            raise AlgebraFormatError(f"an algebra file of {size} bytes is above the limit of "
                                     f"{limit} bytes")
        try:
            data = json.load(fh)
        except ValueError as exc:  # also an integer literal too long for int()
            raise AlgebraFormatError(str(exc)) from exc
    return algebra_from_dict(data)
