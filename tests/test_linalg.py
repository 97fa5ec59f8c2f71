from fractions import Fraction
from random import Random

import dense_reference as dense
from leibniz_complex.linalg import LinearSolver, kernel_basis, rref

F = Fraction


def sparse(matrix, columns=None):
    """Dense rows as sparse rows; position c becomes the key columns[c]."""
    key = (lambda c: c) if columns is None else columns.__getitem__
    return [{key(c): v for c, v in enumerate(row) if v != 0} for row in matrix]


def densify(rows, ncols, columns=None):
    """Sparse rows back to dense ones over positions 0..ncols-1."""
    keys = range(ncols) if columns is None else columns
    return [[row.get(k, 0) for k in keys] for row in rows]


def as_dense_rref(rows, nrows, ncols, columns=None):
    """The package's rref in the oracle's (rows padded with zero rows, pivot
    positions) form."""
    keys = list(range(ncols) if columns is None else columns)
    pivots = [keys.index(min(row)) for row in rows]
    return densify(rows, ncols, columns) + [[0] * ncols] * (nrows - len(rows)), pivots


def matvec(matrix, vec):
    return [sum((a * v for a, v in zip(row, vec)), 0) for row in matrix]


def sparse_matvec(rows, x):
    """{row key: value} of A @ x over the nonzero products, A and x sparse."""
    out = {}
    for key, row in rows.items():
        total = sum((v * x[c] for c, v in row.items() if c in x), 0)
        if total != 0:
            out[key] = total
    return out


def solver_for(matrix, ncols, order=None):
    """LinearSolver of a dense matrix, rows keyed by index."""
    return LinearSolver(dict(enumerate(sparse(matrix))), range(ncols) if order is None else order)


def solve_dense(solver, b, ncols):
    """solver.solve on a dense right-hand side, its answer as a dense list."""
    x = solver.solve({j: v for j, v in enumerate(b) if v != 0})
    return None if x is None else [x.get(c, 0) for c in range(ncols)]


def test_rref_known_matrix():
    rows = rref([{0: 2, 1: 4}, {0: 1, 1: 2}])
    assert [min(row) for row in rows] == [0]
    assert rows == [{0: F(1), 1: F(2)}]  # the second row reduces to zero and is dropped


def test_kernel_of_sum_functional():
    assert kernel_basis([{0: 1, 1: 1}], range(2)) == [{0: F(1), 1: F(-1)}]


def test_kernel_empty_matrix_is_identity():
    basis = kernel_basis([], range(3))
    assert len(basis) == 3
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_full_rank_is_trivial():
    assert kernel_basis([{0: 1}, {1: 1}], range(2)) == []


def test_kernel_vectors_annihilate():
    rng = Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        for vec in densify(kernel_basis(sparse(matrix), range(ncols)), ncols):
            assert all(v == 0 for v in matvec(matrix, vec))


def right_hand_sides(rng, matrix, ncols, row_keys, outside):
    """Seeded right-hand sides {row key: value} for A = matrix, rows keyed by
    row_keys: members A @ x, vectors drawn anywhere (mostly non-members),
    members with a nonzero value at a zero row of A, and members with the
    key `outside`, which is not a row of A, at zero and at a nonzero value."""
    def keyed(values):
        return {key: v for key, v in zip(row_keys, values) if v != 0}

    zero_rows = [key for key, row in zip(row_keys, matrix) if not any(row)]
    cases = [{}]
    for _ in range(3):
        member = keyed(matvec(matrix, [F(rng.randint(-3, 3), rng.randint(1, 2))
                                       for _ in range(ncols)]))
        cases += [member, keyed(random_matrix(rng, 1, len(row_keys))[0]),
                  {**member, outside: 0}, {**member, outside: F(rng.choice((-2, 1, 3)), 2)}]
        cases += [{**member, key: rng.choice((-1, 2))} for key in zero_rows]
    return cases


def check_solve_and_membership(solver, reference, rows, b):
    """The indexed solve equals the row-by-row one, `contains` agrees with
    it, and a solution reproduces b."""
    x = solver.solve(b)
    assert x == reference.solve(b), b
    assert solver.contains(b) == (x is not None), b
    if x is not None:
        assert sparse_matvec(rows, x) == {key: v for key, v in b.items() if v != 0}


def test_solver_roundtrip_and_membership():
    rng = Random(5)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        solver = solver_for(matrix, ncols)
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        b = matvec(matrix, x)
        got = solve_dense(solver, b, ncols)
        assert got is not None
        assert matvec(matrix, got) == b
        if rng.random() < 0.5:  # a zero row, given empty
            matrix.append([F(0)] * ncols)
        rows = dict(enumerate(sparse(matrix)))
        for order in (range(ncols), range(ncols - 1, -1, -1)):
            solver, reference = LinearSolver(rows, order), dense.RowSolver(rows, order)
            for b in right_hand_sides(rng, matrix, ncols, range(len(matrix)), len(matrix)):
                check_solve_and_membership(solver, reference, rows, b)


def test_solver_rejects_outside_image():
    solver = solver_for([[1, 0], [1, 0]], 2)
    assert solver.solve({0: F(1), 1: F(2)}) is None
    assert solver.solve({0: F(1), 1: F(1)}) is not None


def test_solver_column_order_changes_section_not_image():
    rows = {0: {0: 1, 1: 1}}
    first = LinearSolver(rows, [0, 1])
    last = LinearSolver(rows, [1, 0])
    b = {0: F(3)}
    xf, xl = first.solve(b), last.solve(b)
    assert sparse_matvec(rows, xf) == b and sparse_matvec(rows, xl) == b
    assert xf != xl  # different sections of the same map


def test_solver_section_is_linear():
    rng = Random(11)
    matrix = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)]
    solver = solver_for(matrix, 4)
    x1 = [F(rng.randint(-2, 2)) for _ in range(4)]
    x2 = [F(rng.randint(-2, 2)) for _ in range(4)]
    b1, b2 = matvec(matrix, x1), matvec(matrix, x2)
    s1, s2 = solve_dense(solver, b1, 4), solve_dense(solver, b2, 4)
    combined = solve_dense(solver, [a + b for a, b in zip(b1, b2)], 4)
    assert combined == [a + b for a, b in zip(s1, s2)]


def random_matrix(rng, nrows, ncols):
    """Mostly zero rational entries; some rows repeat or combine earlier ones,
    so ranks fall short and pivots are skipped."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            f = F(rng.randint(-2, 2), rng.randint(1, 3))
            rows.append([x + f * y for x, y in zip(a, b)])
        else:
            rows.append([F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)
                         for _ in range(ncols)])
    return rows


def test_rref_matches_dense_elimination():
    rng = Random(29)
    for _ in range(300):
        matrix = random_matrix(rng, rng.randint(0, 7), rng.randint(1, 8))
        ncols = len(matrix[0]) if matrix else 0
        assert as_dense_rref(rref(sparse(matrix)), len(matrix), ncols) == dense.rref(matrix)
    assert as_dense_rref(rref(sparse([[0, 0], [0, 0]])), 2, 2) == dense.rref([[0, 0], [0, 0]])


class CountedKey(int):
    """An int column key that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedKey.hashes += 1
        return int.__hash__(self)


def test_rref_work_stays_inside_key_disjoint_blocks():
    """n disjoint 2x2 blocks: rref hashes column keys a bounded number of
    times per block, so its work grows with n and not with n squared.
    (Reducing every earlier pivot row by each new pivot, as an eager
    back-substitution does, hashes 329,600 times at n = 400.)"""
    n = 400
    keys = [CountedKey(c) for c in range(2 * n)]
    rows = []
    for x, y in zip(keys[::2], keys[1::2]):
        rows += [{x: 1, y: 2}, {x: 3, y: 4}]
    CountedKey.hashes = 0
    reduced = rref(rows)
    assert CountedKey.hashes <= 40 * n
    assert reduced == [{c: 1} for c in keys]


def test_solver_matches_dense_transform():
    rng = Random(31)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = random_matrix(rng, nrows, ncols)
        for order in (None, list(range(ncols - 1, -1, -1))):
            solver = solver_for(matrix, ncols, order)
            for _ in range(3):
                inside = matvec(matrix, random_matrix(rng, 1, ncols)[0])
                anywhere = random_matrix(rng, 1, nrows)[0]
                for b in (inside, anywhere, [F(0)] * nrows):
                    assert solve_dense(solver, b, ncols) == dense.solve(matrix, ncols, b, order)


def test_rref_of_integer_matrices_is_exact_and_canonical():
    """Integer input with pivots other than 1: entries come back as ints or
    as Fractions with a denominator above 1, never as floats, and equal
    to the dense elimination."""
    rng = Random(37)
    saw_fraction = False
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        matrix = [[rng.choice([0, 0, 0, 2, -3, 4, 6, -9]) for _ in range(ncols)]
                  for _ in range(nrows)]
        rows = rref(sparse(matrix))
        assert as_dense_rref(rows, nrows, ncols) == dense.rref(matrix)
        values = [v for row in rows for v in row.values()]
        values += [v for row in kernel_basis(sparse(matrix), range(ncols)) for v in row.values()]
        x = solver_for(matrix, ncols).solve(dict(enumerate(matvec(matrix, [1] * ncols))))
        values += x.values()
        assert all(type(v) is int or (type(v) is F and v.denominator > 1) for v in values)
        saw_fraction = saw_fraction or any(type(v) is F for v in values)
    assert saw_fraction


# -- any totally ordered column keys --------------------------------------------------


def random_keys(rng, n):
    """n distinct cochain-like keys (k, es, fs), in sorted order."""
    keys = set()
    while len(keys) < n:
        k = rng.randint(0, 2)
        keys.add((k, tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3))),
                  tuple(sorted(rng.randint(0, 2) for _ in range(k)))))
    return sorted(keys)


def test_tuple_keyed_rref_and_kernel_match_the_dense_oracle():
    """Columns keyed by tuples, mapped to positions in their sorted order:
    the echelon form and the kernel equal the oracle's at those positions."""
    rng = Random(41)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 8)
        matrix = random_matrix(rng, nrows, ncols)
        keys = random_keys(rng, ncols)
        rows = rref(sparse(matrix, keys))
        assert as_dense_rref(rows, nrows, ncols, keys) == dense.rref(matrix)
        shuffled = rng.sample(keys, len(keys))  # the order columns come in does not matter
        kernel = kernel_basis(sparse(matrix, keys), shuffled)
        assert densify(kernel, ncols, keys) == dense.kernel_basis(matrix, ncols)


def test_tuple_keyed_solver_matches_the_dense_oracle():
    """Rows and columns keyed by tuples; `columns` in sorted order and
    reversed give the oracle's solutions with column_order None and reversed."""
    rng = Random(43)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = random_matrix(rng, nrows, ncols)
        cols = random_keys(rng, ncols)
        row_keys = [(j, tuple(sorted(rng.sample(range(9), 2)))) for j in range(nrows)]
        rows = dict(zip(row_keys, sparse(matrix, cols)))
        for columns, order in ((cols, None), (cols[::-1], list(range(ncols - 1, -1, -1)))):
            solver = LinearSolver(rows, columns)
            for _ in range(3):
                inside = matvec(matrix, random_matrix(rng, 1, ncols)[0])
                anywhere = random_matrix(rng, 1, nrows)[0]
                for b in (inside, anywhere, [F(0)] * nrows):
                    x = solver.solve({key: v for key, v in zip(row_keys, b) if v != 0})
                    got = None if x is None else [x.get(c, 0) for c in cols]
                    assert got == dense.solve(matrix, ncols, b, order)
            reference = dense.RowSolver(rows, columns)
            for b in right_hand_sides(rng, matrix, ncols, row_keys, (nrows, (9, 9))):
                check_solve_and_membership(solver, reference, rows, b)


def test_reversed_columns_equal_the_reversed_column_order():
    """Reversing `columns` picks the section the last-pivot order did: the
    oracle's solution with column_order reversed, and in general not the
    first-pivot one."""
    rng = Random(47)
    differed = False
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 6)
        matrix = random_matrix(rng, nrows, ncols)
        last = solver_for(matrix, ncols, list(range(ncols - 1, -1, -1)))
        first = solver_for(matrix, ncols)
        b = matvec(matrix, random_matrix(rng, 1, ncols)[0])
        got = solve_dense(last, b, ncols)
        assert got == dense.solve(matrix, ncols, b, list(range(ncols - 1, -1, -1)))
        differed = differed or got != solve_dense(first, b, ncols)
    assert differed


def test_nonzero_rhs_at_a_zero_row_is_outside_the_image():
    """A row of A that is all zero, given empty or left out, forces b = 0 there."""
    for rows in ({"a": {0: 1, 1: 1}, "b": {}}, {"a": {0: 1, 1: 1}}):
        solver = LinearSolver(rows, [0, 1])
        assert solver.solve({"a": 2, "b": 1}) is None
        assert solver.solve({"b": F(1, 2)}) is None
        assert solver.solve({"a": 2, "b": 0}) == {0: 2}
        assert solver.solve({}) == {}
    zero = LinearSolver({"a": {}}, [0])
    assert zero.solve({"a": 1}) is None
    assert zero.solve({"a": 0}) == {}
