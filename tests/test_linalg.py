from fractions import Fraction
from random import Random

import dense_reference as dense
from leibniz_complex.linalg import LinearSolver, kernel_basis, matvec, rref

F = Fraction


def test_rref_known_matrix():
    rows, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert rows[0] == [F(1), F(2)]
    assert rows[1] == [F(0), F(0)]


def test_kernel_of_sum_functional():
    assert kernel_basis([[1, 1]], 2) == [[F(1), F(-1)]]


def test_kernel_empty_matrix_is_identity():
    basis = kernel_basis([], 3)
    assert len(basis) == 3
    assert basis[0][0] == 1 and basis[1][1] == 1 and basis[2][2] == 1


def test_kernel_full_rank_is_trivial():
    assert kernel_basis([[1, 0], [0, 1]], 2) == []


def test_kernel_vectors_annihilate():
    rng = Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        for vec in kernel_basis(matrix, ncols):
            assert all(v == 0 for v in matvec(matrix, vec))


def test_solver_roundtrip_and_membership():
    rng = Random(5)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        solver = LinearSolver(matrix, ncols)
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        b = matvec(matrix, x)
        got = solver.solve(b)
        assert got is not None
        assert matvec(matrix, got) == b


def test_solver_rejects_outside_image():
    solver = LinearSolver([[1, 0], [1, 0]], 2)
    assert solver.solve([F(1), F(2)]) is None
    assert solver.contains([F(1), F(1)])


def test_solver_column_order_changes_section_not_image():
    matrix = [[1, 1]]
    first = LinearSolver(matrix, 2)
    last = LinearSolver(matrix, 2, column_order=[1, 0])
    b = [F(3)]
    xf, xl = first.solve(b), last.solve(b)
    assert matvec(matrix, xf) == b and matvec(matrix, xl) == b
    assert xf != xl  # different sections of the same map


def test_solver_section_is_linear():
    rng = Random(11)
    matrix = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)]
    solver = LinearSolver(matrix, 4)
    x1 = [F(rng.randint(-2, 2)) for _ in range(4)]
    x2 = [F(rng.randint(-2, 2)) for _ in range(4)]
    b1, b2 = matvec(matrix, x1), matvec(matrix, x2)
    s1, s2 = solver.solve(b1), solver.solve(b2)
    combined = solver.solve([a + b for a, b in zip(b1, b2)])
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
        assert rref(matrix) == dense.rref(matrix)
    assert rref([[0, 0], [0, 0]]) == dense.rref([[0, 0], [0, 0]])


def test_solver_matches_dense_transform():
    rng = Random(31)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = random_matrix(rng, nrows, ncols)
        for order in (None, list(range(ncols - 1, -1, -1))):
            solver = LinearSolver(matrix, ncols, column_order=order)
            for _ in range(3):
                inside = matvec(matrix, random_matrix(rng, 1, ncols)[0])
                anywhere = random_matrix(rng, 1, nrows)[0]
                for b in (inside, anywhere, [F(0)] * nrows):
                    assert solver.solve(b) == dense.solve(matrix, ncols, b, order)


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
        rows, pivots = rref(matrix)
        assert (rows, pivots) == dense.rref(matrix)
        values = [v for row in rows for v in row]
        values += [v for row in kernel_basis(matrix, ncols) for v in row]
        x = LinearSolver(matrix, ncols).solve(matvec(matrix, [1] * ncols))
        values += x
        assert all(type(v) is int or (type(v) is F and v.denominator > 1) for v in values)
        saw_fraction = saw_fraction or any(type(v) is F for v in values)
    assert saw_fraction
