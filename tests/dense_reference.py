"""Dense reference implementations of the Leibniz-identity check, d, the
product, the two bracket halves and their signed sum, the vector-level
pairing, flats, the representability test, weak skew-symmetry, the basis
of the valid cochains, the free-datum walk over every ordering, and
exact elimination (with the row-by-row solve of a `LinearSolver`
factorization), and the paper's defining formulas behind the bracket:
phi, the pairing on S(Z) (x) L, and the two ingredient operations
pair_bracket and circ_compose. An element of S(Z) (x) L is {i: x_i}, the
shape of a section lift, and a covector is a degree-1 cochain.

The Leibniz check brackets basis vectors for every triple, where the
package sums the nonzero structure constants and skips the triples whose
products all vanish.

These enumerate every output key (es, fs) of the result's degree (for the
representability test, every bar prefix; for validity and the basis,
every weak skew-symmetry equation) and pull each input value through
`Cochain.value`, exactly as the package did before its operators walked
stored entries; elimination runs on dense rows. They cost dim^degree per
call, so the tests run them only on small inputs, as an oracle that the
sparse code must match by exact equality. The flat pairs v with a fresh
basis vector per slot, as the package did before it summed the nonzero
basis pairings over v's nonzero coordinates, and `bar` reads a cochain at
every e, where the package reads only the e it stores. The package's
bracket halves return only their values at the free keys; the tests cut
a dense half down to those with `cochains.free_part`. `stored_prefixes`
lists every stored prefix of a cochain, the prefixes a representability
walk over all of them visits, where the package reads only its strictly
increasing ones (`duality.increasing_bars`). `free_datum_cochain`
evaluates each lower group of a free-datum walk at every distinct
ordering, where the package visits only the keys that can be nonzero.
`one_descent_coboundary` is the sparse free part of d the package ran
before it read only free entries: the terms at free keys of every stored
entry with at most one descent, where the package sums the action terms
of each free value and its key's cached B(K).
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from leibniz_complex.algebra import LeibnizReport, basis_vec, vec_add
from leibniz_complex.cochains import (Cochain, InvalidCochainError, ValidationReport,
                                      accumulate, action, component_keys, entries,
                                      merge_centers, require_valid, scatter,
                                      signed_permutations)
from leibniz_complex.duality import (RepresentabilityReport, covector, phi_section,
                                     stored_bars, tilde_value)
from leibniz_complex.linalg import rref as sparse_rref
from leibniz_complex.sympoly import SymPoly, derivation_extend

ZERO = Fraction(0)
ONE = Fraction(1)


# -- the Leibniz identity ----------------------------------------------------------


def check_leibniz(algebra):
    """The left Leibniz identity on every basis triple, from three vector
    brackets of freshly built basis vectors per triple."""
    violations = []
    dim = algebra.dim
    for i, j, l in product(range(dim), repeat=3):
        ei, ej, el = (basis_vec(dim, t) for t in (i, j, l))
        lhs = algebra.bracket(ei, algebra.bracket(ej, el))
        rhs = vec_add(algebra.bracket(algebra.bracket(ei, ej), el),
                      algebra.bracket(ej, algebra.bracket(ei, el)))
        if lhs != rhs:
            violations.append((i, j, l, lhs, rhs))
    return LeibnizReport(ok=not violations, violations=violations)


# -- exact elimination -------------------------------------------------------------


def rref(matrix):
    """Reduced row echelon form on dense rows, pivoting on the first usable
    column left to right; returns (rows, pivot_cols)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(matrix, ncols):
    """Reduced echelon basis of {x : matrix @ x = 0}."""
    if not matrix:
        return [[ONE if j == i else ZERO for j in range(ncols)] for i in range(ncols)]
    rows, pivots = rref(matrix)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    if not basis:
        return []
    echelon, _ = rref(basis)
    return [row for row in echelon if any(v != 0 for v in row)]


def solve(matrix, ncols, b, column_order=None):
    """One solution of matrix @ x = b, or None: the dense transform E with
    E @ A = rref(A), from the reduced [A | I], times b, free variables zero."""
    nrows = len(matrix)
    order = list(column_order) if column_order is not None else list(range(ncols))
    augmented = [[row[c] for c in order] + [ONE if j == i else ZERO for j in range(nrows)]
                 for i, row in enumerate(matrix)]
    reduced, pivots = rref(augmented)
    pivots = [p for p in pivots if p < ncols]
    x = [ZERO] * ncols
    for r, row in enumerate(reduced):
        c = sum((t * bv for t, bv in zip(row[ncols:], b)), ZERO)
        if r < len(pivots):
            x[order[pivots[r]]] = c
        elif c != 0:
            return None
    return x


class RowSolver:
    """`linalg.LinearSolver`'s factorization of A, solved row by row: each
    row of the transform E is summed over the entries of b it holds, and
    the check rows are tested before the pivot rows are summed. The
    package indexes E by row key instead; both must give the same answer
    for every b. Rows and columns as LinearSolver takes them."""

    def __init__(self, rows, columns):
        columns = list(columns)
        position = {c: (0, p) for p, c in enumerate(columns)}
        augmented = []
        for key, row in rows.items():
            vec = {position[c]: v for c, v in row.items()}
            vec[(1, key)] = 1
            augmented.append(vec)
        self.keys = set(rows)
        self.pivots = []  # (column, E row) for each pivot in A's columns
        self.checks = []  # E rows that must vanish on b
        for row in sparse_rref(augmented):
            side, lead = min(row)
            transform = [(key, t) for (s, key), t in row.items() if s == 1]
            if side == 0:
                self.pivots.append((columns[lead], transform))
            else:
                self.checks.append(transform)

    def solve(self, b):
        if any(v != 0 and key not in self.keys for key, v in b.items()):
            return None
        for transform in self.checks:
            if sum(t * b[key] for key, t in transform if key in b) != 0:
                return None
        x = {}
        for column, transform in self.pivots:
            value = sum(t * b[key] for key, t in transform if key in b)
            if value != 0:
                x[column] = value
        return x


# -- weak skew-symmetry and the basis of the valid cochains ------------------------


def skew_equations(ctx, degree):
    """Each weak skew-symmetry equation on degree-n cochains, once:

        w_k(es; fs) + w_k(swapped; fs) = -sum_r c_r w_{k+1}(reduced; fs + (r,))

    with pair = sum_r c_r z_r = (es[pos], es[pos+1]). Only es[pos] <= es[pos+1]
    is yielded; the swapped key carries the same equation.
    """
    for k in range(degree // 2 + 1):
        nl = degree - 2 * k
        if nl < 2:
            break
        for es, fs in component_keys(ctx, degree, k):
            for pos in range(nl - 1):
                if es[pos] > es[pos + 1]:
                    continue
                swapped = es[:pos] + (es[pos + 1], es[pos]) + es[pos + 2:]
                pair = ctx.algebra.pairing_poly_basis(es[pos], es[pos + 1])
                reduced = es[:pos] + es[pos + 2:]
                yield k, pos, es, fs, swapped, reduced, pair


def validate_cochain(ctx, omega):
    """Check weak skew-symmetry on every component, position and basis key."""
    violations = []
    for k, pos, es, fs, swapped, reduced, pair in skew_equations(ctx, omega.degree):
        lhs = omega.value(k, es, fs) + omega.value(k, swapped, fs)
        rhs = SymPoly.zero(ctx.zdim)
        for (r,), c in pair.items():
            rhs = rhs + omega.value(k + 1, reduced, fs + (r,)).scale(-c)
        if lhs != rhs:
            violations.append((k, pos, es, fs, lhs, rhs))
    return ValidationReport(ok=not violations, violations=violations)


def cochain_space_basis(ctx, degree):
    """The reduced echelon basis of the kernel of the weak skew-symmetry
    constraint matrix over every key, as cochains."""
    keys = []
    index = {}
    for k in range(degree // 2 + 1):
        for es, fs in component_keys(ctx, degree, k):
            index[(k, es, fs)] = len(keys)
            keys.append((k, es, fs))
    rows = []
    for k, pos, es, fs, swapped, reduced, pair in skew_equations(ctx, degree):
        row = [Fraction(0)] * len(keys)
        row[index[(k, es, fs)]] += 1
        row[index[(k, swapped, fs)]] += 1
        for (r,), c in pair.items():
            row[index[(k + 1, reduced, tuple(sorted(fs + (r,))))]] += c
        if any(v != 0 for v in row):
            rows.append(row)
    basis = []
    for vec in kernel_basis(rows, len(keys)):
        comps = {}
        for (k, es, fs), c in zip(keys, vec):
            if c != 0:
                comps.setdefault(k, {})[(es, fs)] = SymPoly.constant(ctx.zdim, c)
        basis.append(Cochain(degree, ctx.zdim, comps))
    return basis


def free_datum_cochain(ctx, k0, es0, fs0):
    """(the number of keys walked, the valid scalar cochain whose one
    nonzero free datum is w_{k0}(es0; fs0) = 1 as {(k, es, fs): value}),
    by the walk over every ordering: below k0, every key holding a stored
    (es', fs') of w_{k+1} plus a pair whose pairing has a z_r-component,
    r in fs', is evaluated at each of its distinct orderings
    (`orderings`), in lexicographic order, from the weak skew-symmetry
    equation at its first descent. `cochains._free_datum_cochain` must
    give the same table."""
    alg = ctx.algebra
    upper = {(tuple([es0[i] for i in perm]), fs0): sign
             for perm, sign in signed_permutations(len(es0))}
    count = len(upper)
    out = {(k0, es, fs): value for (es, fs), value in upper.items()}
    for k in range(k0 - 1, -1, -1):
        groups = {(tuple(sorted(es + (x, y))), _remove_one(fs, r))
                  for es, fs in upper for r in set(fs) for x, y, _ in alg.pairing_index[r]}
        lower = {}
        for args, fs in groups:
            known = {}
            for es in orderings(args):
                pos = next((i for i in range(len(es) - 1) if es[i] >= es[i + 1]), None)
                if pos is None:
                    known[es] = 0
                    continue
                x, y = es[pos], es[pos + 1]
                reduced = es[:pos] + es[pos + 2:]
                correction = sum(c * upper.get((reduced, tuple(sorted(fs + (r,)))), 0)
                                 for (r,), c in alg.pairing_poly_basis(x, y).items())
                if x == y:
                    value = Fraction(-correction, 2)
                else:
                    value = -known[es[:pos] + (y, x) + es[pos + 2:]] - correction
                known[es] = value
                if value != 0:
                    lower[(es, fs)] = value
            count += len(known)
        out.update(((k, es, fs), value) for (es, fs), value in lower.items())
        upper = lower
    return count, out


def _remove_one(fs, r):
    i = fs.index(r)
    return fs[:i] + fs[i + 1:]


def orderings(args):
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


# -- the pairing and flats ---------------------------------------------------------


def pairing_poly(alg, v, w):
    """(v, w) as a degree-1 element of S(Z), summed from the stored basis
    pairings over the nonzero coordinates of both vectors (IntegrityError
    when one it needs is broken)."""
    acc = {}
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        for j, wj in enumerate(w):
            if wj == 0:
                continue
            for mono, c in alg.pairing_poly_basis(i, j).items():
                acc[mono] = acc.get(mono, 0) + vi * wj * c
    return SymPoly(alg.zdim, acc)


def flat_cochain(ctx, v):
    """(v, -) as a degree-1 cochain, each slot (v, e_j) through the
    vector-level pairing with a freshly built basis vector e_j."""
    alg = ctx.algebra
    table = {}
    for j in range(ctx.dim):
        poly = pairing_poly(alg, v, basis_vec(ctx.dim, j))
        if not poly.is_zero():
            table[((j,), ())] = poly
    return Cochain(1, ctx.zdim, {0: table} if table else None)


# -- the defining formulas of the bracket --------------------------------------------


def phi(ctx, x):
    """phi(x)(e_j) = sum_i x_i * (e_i, e_j), a degree-1 cochain, for x in
    S(Z) (x) L given as {i: x_i}, the shape of a section lift (`sparse`
    reads an ExtendedElement so)."""
    alg = ctx.algebra
    values = {}
    for j in range(ctx.dim):
        acc = SymPoly.zero(ctx.zdim)
        for i, coeff in x.items():
            if not coeff.is_zero():
                acc = acc + coeff * alg.pairing_poly_basis(i, j)
        values[(j,), ()] = acc
    return Cochain(1, ctx.zdim, {0: values})


def sparse(x):
    """The ExtendedElement x as {i: x_i} over its nonzero coefficients."""
    return {i: c for i, c in enumerate(x.coeffs) if not c.is_zero()}


def covector_values(ctx, psi):
    """The values psi(e_j) of a covector, a degree-1 cochain, for every j."""
    return tuple(psi.value(0, (j,), ()) for j in range(ctx.dim))


def pair_extended(ctx, x, y):
    """S(Z)-bilinear symmetric product on S(Z) (x) L, for x and y given as
    {i: x_i}."""
    alg = ctx.algebra
    acc = SymPoly.zero(ctx.zdim)
    for i, ci in x.items():
        if ci.is_zero():
            continue
        for j, cj in y.items():
            if cj.is_zero():
                continue
            acc = acc + ci * cj * alg.pairing_poly_basis(i, j)
    return acc


# -- shuffles ----------------------------------------------------------------------


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


class ArityError(ValueError):
    pass


@dataclass
class HomSym:
    """Map from size-`arity` Z-multisets to S(Z), or to S(Z) (x) L as {i: x_i}."""

    arity: int
    fn: object

    def __call__(self, fs):
        return self.fn(tuple(sorted(fs)))


def pair_bracket(ctx, alpha, beta):
    """Shuffle the center arguments over alpha and beta and pair the values."""

    k, l = alpha.arity, beta.arity

    def fn(fs):
        acc = SymPoly.zero(ctx.zdim)
        for left, right in position_splits(k + l, k):
            x = alpha(tuple(fs[p] for p in left))
            y = beta(tuple(fs[p] for p in right))
            acc = acc + pair_extended(ctx, x, y)
        return acc

    return HomSym(k + l, fn)


def circ_compose(ctx, gamma, delta):
    """Feed delta's value into gamma's derivation-extended first slot."""

    k, l = gamma.arity, delta.arity
    if k < 1:
        raise ArityError("the first operand needs at least one center argument")

    def fn(fs):
        acc = SymPoly.zero(ctx.zdim)
        for left, right in position_splits(k + l - 1, l):
            value = delta(tuple(fs[p] for p in left))
            if value.is_zero():
                continue
            rest = tuple(fs[p] for p in right)
            base = [gamma(tuple(sorted((r,) + rest))) for r in range(ctx.zdim)]
            acc = acc + derivation_extend(base, value)
        return acc

    return HomSym(k + l - 1, fn)


# -- the operators -------------------------------------------------------------------


def assemble(ctx, degree, fill):
    """The degree-n cochain whose value at each key is what
    `fill(acc, k, es, fs)` adds into an empty accumulator."""
    comps = {}
    for k in range(degree // 2 + 1):
        table = {}
        for es, fs in component_keys(ctx, degree, k):
            acc = {}
            fill(acc, k, es, fs)
            if acc:
                table[(es, fs)] = SymPoly(ctx.zdim, acc)
        if table:
            comps[k] = table
    return Cochain(degree, ctx.zdim, comps)


def coboundary(ctx, omega):
    report = validate_cochain(ctx, omega)
    if not report.ok:
        raise InvalidCochainError(report)
    n = omega.degree
    alg = ctx.algebra

    def fill(acc, k, es, fs):
        nl = len(es)
        if k <= n // 2:
            for a in range(nl):
                rest = es[:a] + es[a + 1:]
                sign = -1 if a % 2 else 1
                val = omega.value(k, rest, fs)
                if not val.is_zero():
                    accumulate(acc, alg.rho_basis(es[a], val), sign)
            for a in range(nl):
                for b in range(a + 1, nl):
                    w = alg.table[es[a]][es[b]]
                    sign = 1 if a % 2 else -1  # one less than the action-term sign
                    for t, c in enumerate(w):
                        if c == 0:
                            continue
                        inserted = es[:a] + es[a + 1:b] + (t,) + es[b + 1:]
                        accumulate(acc, omega.value(k, inserted, fs), sign * c)
        if k >= 1:
            for jpos in range(k):
                fj = fs[jpos]
                rest_fs = fs[:jpos] + fs[jpos + 1:]
                zvec = alg.z_basis[fj]
                for t, c in enumerate(zvec):
                    if c != 0:
                        accumulate(acc, omega.value(k - 1, (t,) + es, rest_fs), c)

    return assemble(ctx, n + 1, fill)


def one_descent_coboundary(ctx, omega):
    """The free part of d(omega) from every stored entry of omega whose es
    has at most one descent, as the package computed it before it read
    only free entries and the cached B(K); reading `components`, it writes
    an unwritten input."""
    require_valid(ctx, omega)
    return scatter(ctx.zdim, omega.degree + 1, one_descent_terms(ctx, omega))


def one_descent_terms(ctx, omega):
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
    So an entry with no descent gives terms of all three kinds at every
    position; one with a single descent at j gives bracket terms only at
    b = j and b = j + 1 and a delta term only when j = 0; one with two
    descents or more reaches no free key and is skipped.
    """
    alg = ctx.algebra
    for k, es, fs, val in entries(omega):
        n = len(es)
        descents = [j for j in range(n - 1) if es[j] >= es[j + 1]]
        if not descents:
            positions, delta = range(n), n > 0
            if val.degree() > 0:
                for i in alg.acting:
                    a = bisect_left(es, i)
                    if a == n or es[a] != i:
                        yield (k, es[:a] + (i,) + es[a:], fs, action(ctx, i, val),
                               -1 if a % 2 else 1)
        elif len(descents) == 1:
            j = descents[0]
            positions, delta = (j, j + 1), j == 0
        else:
            continue
        for b in positions:
            t = es[b]
            lo = es[b - 1] if b else -1
            hi = es[b + 1] if b + 1 < n else ctx.dim
            for x, y, c in alg.product_index[t]:
                if x < y and lo < y < hi:
                    a = bisect_left(es, x, 0, b)
                    if a == b or es[a] != x:
                        yield (k, es[:a] + (x,) + es[a:b] + (y,) + es[b + 1:], fs, val,
                               c if a % 2 else -c)
        if delta:
            for r, zvec in enumerate(alg.z_basis):
                if zvec[es[0]] != 0:
                    out_fs, mult = merge_centers((r,), fs)
                    yield k + 1, es[1:], out_fs, val, zvec[es[0]] * mult


def cup(ctx, omega, eta):
    n, m = omega.degree, eta.degree

    def fill(acc, k, es, fs):
        for i in range(k + 1):
            j = k - i
            p, q = n - 2 * i, m - 2 * j
            if p < 0 or q < 0:
                continue
            for left, right in position_splits(len(es), p):
                sign = split_sign(left, right)
                left_es = tuple(es[x] for x in left)
                right_es = tuple(es[x] for x in right)
                for fleft, fright in position_splits(k, i):
                    v1 = omega.value(i, left_es, tuple(fs[x] for x in fleft))
                    if v1.is_zero():
                        continue
                    v2 = eta.value(j, right_es, tuple(fs[x] for x in fright))
                    if v2.is_zero():
                        continue
                    accumulate(acc, v1 * v2, sign)

    return assemble(ctx, n + m, fill)


def _component_map(omega, k, es):
    return HomSym(k, lambda fs: omega.value(k, es, fs))


def _tilde_map(ctx, omega, k, es):
    return HomSym(k, lambda fs: tilde_value(ctx, omega, k, es, fs))


def bullet(ctx, omega, eta):
    n, m = omega.degree, eta.degree
    global_sign = -1 if m % 2 == 0 else 1  # (-1)^(m-1)

    def fill(acc, k, es, fs):
        for i in range(k + 1):
            j = k - i
            p, q = n - 2 * i - 1, m - 2 * j - 1
            if p < 0 or q < 0:
                continue
            for left, right in position_splits(len(es), p):
                sign = split_sign(left, right) * global_sign
                alpha = _tilde_map(ctx, omega, i, tuple(es[x] for x in left))
                beta = _tilde_map(ctx, eta, j, tuple(es[x] for x in right))
                accumulate(acc, pair_bracket(ctx, alpha, beta)(fs), sign)

    return assemble(ctx, max(n + m - 2, 0), fill)


def diamond(ctx, omega, eta):
    n, m = omega.degree, eta.degree

    def fill(acc, k, es, fs):
        for i in range(k + 1):
            j = k - i
            p, q = n - 2 * i - 2, m - 2 * j
            if p < 0 or q < 0:
                continue
            if i + 1 not in omega.components:
                continue
            for left, right in position_splits(len(es), p):
                sign = split_sign(left, right)
                gamma = _component_map(omega, i + 1, tuple(es[x] for x in left))
                delta = _component_map(eta, j, tuple(es[x] for x in right))
                accumulate(acc, circ_compose(ctx, gamma, delta)(fs), sign)

    return assemble(ctx, max(n + m - 2, 0), fill)


def poisson(ctx, omega, eta):
    """{omega, eta} at every key: the dense bullet plus the dense diamond
    minus (-1)^(nm) the dense diamond flipped."""
    sign = -1 if (omega.degree * eta.degree) % 2 else 1
    return bullet(ctx, omega, eta) + diamond(ctx, omega, eta) - \
        diamond(ctx, eta, omega).scale(sign)


def first_slot_action(ctx, omega):
    """The action term of d at the first argument alone: rho(e_0) omega(e_1, ..)."""
    n = omega.degree

    def fill(acc, k, es, fs):
        if k <= n // 2:
            val = omega.value(k, es[1:], fs)
            if not val.is_zero():
                accumulate(acc, ctx.algebra.rho_basis(es[0], val))

    return assemble(ctx, n + 1, fill)


def bar(ctx, omega, k, prefix, fs):
    """The bar covector e -> omega_k(prefix, e; fs), read at every e,
    where the package reads only the e at which omega stores an entry."""
    return scatter(omega.nvars, 1, ((0, (e,), (), omega.value(k, (*prefix, e), fs), 1)
                                    for e in range(ctx.dim)))


def stored_prefixes(omega):
    """The distinct (k, prefix, fs) of omega's stored entries with an
    algebra argument, sorted: the only bar covectors that can be nonzero."""
    return sorted(stored_bars(omega))


def is_representable(ctx, omega):
    """Every bar covector of omega, at every prefix, tested against Im(phi)."""
    section = phi_section(ctx)
    failures = []
    n = omega.degree
    for k in range(n // 2 + 1):
        if n - 2 * k < 1:
            break
        for es, fs in component_keys(ctx, n - 1, k):
            if section.solve(covector(bar(ctx, omega, k, es, fs))) is None:
                failures.append((k, es, fs))
    return RepresentabilityReport(ok=not failures, failures=failures)
