"""Exact linear algebra over rationals: RREF, kernels, and repeated solves.

A matrix is a list of sparse rows {column: value}. A column is any totally
ordered key: an int, a (mono, i) pair or a cochain key (k, es, fs). Zeros
are never stored, and a value is an exact rational as `sympoly.exact`
makes it: an int when it is whole, a Fraction only when it is not.
Everything here is deterministic: a row's pivot is always the least
column it holds, so echelon bases and solutions are reproducible across
runs. `LinearSolver` takes its pivot preference as an explicit column
order instead.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .sympoly import exact


def rref(rows):
    """The nonzero rows of the reduced row echelon form of `rows`, sorted by
    pivot, the least column each row holds.

    Two passes, each touching only the columns a row holds. Forward: each
    row is reduced by the pivot rows found so far, always at the least
    pivot column it still holds, until it holds none; its least column is
    then a new pivot. Back-substitution: the pivot rows, taken in
    decreasing pivot order, are reduced by the rows of the pivots they
    hold. So rows that share no column, directly or through other rows,
    never meet. The reduced echelon form of a matrix is unique, so this
    is the form that pivoting on the least usable column gives.
    """
    pivot_rows = {}  # pivot column -> row with a 1 there and no lesser column
    for row in rows:
        vec = {c: exact(v) for c, v in row.items() if v != 0}
        held = [c for c in vec if c in pivot_rows]
        heapify(held)
        while held:
            p = heappop(held)
            if p in vec:  # a column may be queued twice or cancelled since
                pivot = pivot_rows[p]
                _subtract(vec, vec[p], pivot)
                for c in pivot:
                    if c != p and c in pivot_rows:
                        heappush(held, c)
        if not vec:
            continue
        lead = min(vec)
        if vec[lead] != 1:
            inv = Fraction(1, vec[lead])
            vec = {c: exact(v * inv) for c, v in vec.items()}
        pivot_rows[lead] = vec
    order = sorted(pivot_rows)
    for p in reversed(order):
        vec = pivot_rows[p]
        for c in [c for c in vec if c != p and c in pivot_rows]:
            _subtract(vec, vec[c], pivot_rows[c])
    return [pivot_rows[p] for p in order]


def _subtract(vec, factor, row):
    """vec -= factor * row, on sparse rows."""
    for c, v in row.items():
        total = exact(vec.get(c, 0) - factor * v)
        if total:
            vec[c] = total
        else:
            del vec[c]


def kernel_basis(rows, columns):
    """Reduced echelon basis of {x : rows @ x = 0} over the unknowns
    `columns`, which hold every column the rows do."""
    pivots = {min(row): row for row in rref(rows)}
    basis = []
    for free in columns:
        if free not in pivots:
            vec = {free: 1}
            vec.update((p, -row[free]) for p, row in pivots.items() if free in row)
            basis.append(vec)
    return rref(basis)


class LinearSolver:
    """Factorization of A for repeated exact solves of A @ x = b.

    A is given as {row key: row}; a row key it leaves out is a zero row.
    `columns` lists A's columns in pivot-preference order. Gauss-Jordan
    is run once on [A | I], A's columns relabelled (0, position) and the
    identity's (1, row key), so the reduced rows carry the transform E
    with E @ A = rref(A), each row of E kept as its nonzero entries.
    solve() then costs one sparse matrix-vector product plus a
    consistency check. Free variables are set to zero, which makes the
    solution map linear on the column space (a genuine section of A).
    """

    def __init__(self, rows, columns):
        columns = list(columns)
        position = {c: (0, p) for p, c in enumerate(columns)}
        augmented = []
        for key, row in rows.items():
            vec = {position[c]: v for c, v in row.items()}
            vec[(1, key)] = 1
            augmented.append(vec)
        self._keys = set(rows)
        self._pivots = []  # (column, E row) for each pivot in A's columns
        self._checks = []  # E rows that must vanish on b
        for row in rref(augmented):
            side, lead = min(row)
            transform = [(key, t) for (s, key), t in row.items() if s == 1]
            if side == 0:
                self._pivots.append((columns[lead], transform))
            else:
                self._checks.append(transform)

    def solve(self, b):
        """One solution {column: value} of A @ x = b, for b given as
        {row key: value}, or None if b is outside the image."""
        if any(v != 0 and key not in self._keys for key, v in b.items()):
            return None
        for transform in self._checks:
            if sum(t * b[key] for key, t in transform if key in b) != 0:
                return None
        x = {}
        for column, transform in self._pivots:
            value = exact(sum(t * b[key] for key, t in transform if key in b))
            if value != 0:
                x[column] = value
        return x
