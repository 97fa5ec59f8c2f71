"""Exact linear algebra over rationals: RREF, kernels, and repeated solves.

Matrices are plain lists of lists of exact rationals, each entry stored
as `sympoly.exact` makes it: an int when it is whole, a Fraction only
when it is not. Everything here is deterministic: pivots are always the
first usable column left to right, so echelon bases and solutions are
reproducible across runs.
"""

from fractions import Fraction

from .sympoly import exact

ZERO = 0
ONE = 1


def rref(matrix):
    """Reduced row echelon form of a copy of `matrix`.

    Returns (rows, pivot_cols). Rows of the result below len(pivot_cols)
    are identically zero.

    Elimination runs on sparse rows ({column: value}, zeros dropped): each
    row is reduced by the pivot rows found so far, which are kept fully
    reduced, and its first nonzero column becomes the next pivot. The
    reduced echelon form of a matrix is unique, so this is the form that
    pivoting on the first usable column, left to right, gives.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    pivot_rows = {}  # pivot column -> row with a 1 there and 0 at every other pivot
    for row in matrix:
        vec = {c: exact(v) for c, v in enumerate(row) if v != 0}
        for p in [c for c in vec if c in pivot_rows]:
            _subtract(vec, vec[p], pivot_rows[p])
        if not vec:
            continue
        lead = min(vec)
        if vec[lead] != 1:
            inv = Fraction(1, vec[lead])
            vec = {c: exact(v * inv) for c, v in vec.items()}
        for other in pivot_rows.values():
            if lead in other:
                _subtract(other, other[lead], vec)
        pivot_rows[lead] = vec
    pivots = sorted(pivot_rows)
    rows = []
    for p in pivots:
        dense = [ZERO] * ncols
        for c, v in pivot_rows[p].items():
            dense[c] = v
        rows.append(dense)
    rows.extend([ZERO] * ncols for _ in range(nrows - len(pivots)))
    return rows, pivots


def _subtract(vec, factor, row):
    """vec -= factor * row, on sparse rows."""
    for c, v in row.items():
        total = exact(vec.get(c, ZERO) - factor * v)
        if total:
            vec[c] = total
        else:
            del vec[c]


def kernel_basis(matrix, ncols):
    """Reduced echelon basis of {x : matrix @ x = 0} (rows of the result).

    `ncols` must be given explicitly so empty matrices work.
    """
    if not matrix:
        return [_unit(ncols, i) for i in range(ncols)]
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    if not basis:
        return []
    echelon, _ = rref(basis)
    return [row for row in echelon if any(v != 0 for v in row)]


def _unit(n, i):
    vec = [ZERO] * n
    vec[i] = ONE
    return vec


class LinearSolver:
    """Factorization of A for repeated exact solves of A @ x = b.

    Gauss-Jordan is run once on A, the row operations are recorded in a
    square transform E with E @ A = rref(A), each row of E kept as its
    nonzero (column, value) pairs. solve() then costs one sparse
    matrix-vector product plus a consistency check. Free variables are
    set to zero, which makes the solution map linear on the column space
    (a genuine section of A).
    """

    def __init__(self, matrix, ncols, column_order=None):
        self.nrows = len(matrix)
        self.ncols = ncols
        self.column_order = list(column_order) if column_order is not None else list(range(ncols))
        augmented = []
        for i, row in enumerate(matrix):
            perm = [row[c] for c in self.column_order]
            augmented.append(perm + _unit(self.nrows, i))
        if augmented:
            reduced, pivots = rref(augmented)
            self.transform = [[(j, t) for j, t in enumerate(row[ncols:]) if t != 0]
                              for row in reduced]
            self.pivots = [p for p in pivots if p < ncols]
        else:
            self.transform = []
            self.pivots = []
        self.rank = len(self.pivots)

    def solve(self, b):
        """One solution of A @ x = b, or None if b is outside the image."""
        if len(b) != self.nrows:
            raise ValueError(f"rhs has length {len(b)}, expected {self.nrows}")
        support = {j: bv for j, bv in enumerate(b) if bv != 0}
        x = [ZERO] * self.ncols
        for r, row in enumerate(self.transform):
            c = ZERO
            for j, t in row:
                if j in support:
                    c += t * support[j]
            if r < self.rank:
                x[self.column_order[self.pivots[r]]] = exact(c)
            elif c != 0:
                return None
        return x

    def contains(self, b):
        return self.solve(b) is not None


def matvec(matrix, vec):
    return [exact(sum((a * v for a, v in zip(row, vec) if a != 0 and v != 0), ZERO))
            for row in matrix]
