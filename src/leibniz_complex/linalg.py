"""Exact linear algebra over rationals: RREF, kernels, and repeated solves.

A matrix is a list of sparse rows {column: value}. A column is any totally
ordered key: an int, a (mono, i) pair or a cochain key (k, es, fs). Zeros
are never stored, and a value is an exact rational as `sympoly.exact`
makes it: an int when it is whole, a Fraction only when it is not.
Everything here is deterministic: a row's pivot is always the least
column it holds, so echelon bases and solutions are reproducible across
runs. `LinearSolver` takes its pivot preference as an explicit column
order instead; it indexes its transform by row key once, so a solve or a
membership test (`contains`) touches only the entries in the right-hand
side's columns, and a membership test evaluates only the cokernel
functionals.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .sympoly import accumulate, exact


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
                accumulate(vec, pivot, -vec[p])
                for c in pivot:
                    if c != p and c in pivot_rows:
                        heappush(held, c)
        if not vec:
            continue
        lead = min(vec)
        if vec[lead] != 1:
            inv = Fraction(1, vec[lead])  # on the left: Fraction * int is the fast dispatch
            vec = {c: exact(inv * v) for c, v in vec.items()}
        pivot_rows[lead] = vec
    order = sorted(pivot_rows)
    for p in reversed(order):
        vec = pivot_rows[p]
        for c in [c for c in vec if c != p and c in pivot_rows]:
            accumulate(vec, pivot_rows[c], -vec[c])
    return [pivot_rows[p] for p in order]


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
    with E @ A = rref(A). The rows of E whose pivot lies in A's columns
    give x; the others, the check rows, are the cokernel functionals,
    which vanish on b exactly when b is in the image. E is indexed once,
    by row key: each key lists the (pivot, t) and (check, t) entries of
    its column of E, so `contains(b)` evaluates only the check rows, and
    `solve(b)` only the entries in b's columns. Free variables are set to
    zero, which makes the solution map linear on the column space (a
    genuine section of A).
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
        self._pivots = []  # A's column at each pivot row of E, in pivot order
        self._pivot_index = {}  # row key -> [(pivot number, t)]
        self._check_index = {}  # row key -> [(check number, t)]
        checks = 0
        for row in rref(augmented):
            side, lead = min(row)
            if side == 0:
                index, slot = self._pivot_index, len(self._pivots)
                self._pivots.append(columns[lead])
            else:
                index, slot = self._check_index, checks
                checks += 1
            for (s, key), t in row.items():
                if s == 1:
                    index.setdefault(key, []).append((slot, t))

    def contains(self, b):
        """Is b, given as {row key: value}, in the image of A? b must vanish
        at keys that are not A's rows and on every check row of E."""
        sums = {}
        for key, v in b.items():
            if v != 0:
                if key not in self._keys:
                    return False
                for slot, t in self._check_index.get(key, ()):
                    sums[slot] = sums.get(slot, 0) + t * v
        return not any(sums.values())

    def solve(self, b):
        """One solution {column: value} of A @ x = b, for b given as
        {row key: value}, or None if b is outside the image."""
        if not self.contains(b):
            return None
        sums = {}
        for key, v in b.items():
            for slot, t in self._pivot_index.get(key, ()):
                sums[slot] = sums.get(slot, 0) + t * v
        return {self._pivots[slot]: exact(value) for slot, value in sorted(sums.items())
                if value != 0}
