"""Dense reference implementations of d, the product, the two bracket
halves, the representability test, weak skew-symmetry, the basis of the
valid cochains and exact elimination, and the paper's defining formulas
behind the bracket: phi, the pairing on S(Z) (x) L, and the two
ingredient operations pair_bracket and circ_compose.

These enumerate every output key (es, fs) of the result's degree (for the
representability test, every bar prefix; for validity and the basis,
every weak skew-symmetry equation) and pull each input value through
`Cochain.value`, exactly as the package did before its operators walked
stored entries; elimination runs on dense rows. They cost dim^degree per
call, so the tests run them only on small inputs, as an oracle that the
sparse code must match by exact equality.
"""

from dataclasses import dataclass
from fractions import Fraction

from leibniz_complex.cochains import (Cochain, InvalidCochainError, ValidationReport,
                                      accumulate, component_keys, position_splits,
                                      split_sign)
from leibniz_complex.duality import (DualElement, RepresentabilityReport, bar, phi_section,
                                     tilde_value)
from leibniz_complex.sympoly import SymPoly, derivation_extend

ZERO = Fraction(0)
ONE = Fraction(1)


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


# -- the defining formulas of the bracket --------------------------------------------


def phi(ctx, x):
    """phi(x)(e_j) = sum_i x_i * (e_i, e_j)."""
    alg = ctx.algebra
    values = []
    for j in range(ctx.dim):
        acc = SymPoly.zero(ctx.zdim)
        for i, coeff in enumerate(x.coeffs):
            if not coeff.is_zero():
                acc = acc + coeff * alg.pairing_poly_basis(i, j)
        values.append(acc)
    return DualElement(tuple(values))


def pair_extended(ctx, x, y):
    """S(Z)-bilinear symmetric product on S(Z) (x) L."""
    alg = ctx.algebra
    acc = SymPoly.zero(ctx.zdim)
    for i, ci in enumerate(x.coeffs):
        if ci.is_zero():
            continue
        for j, cj in enumerate(y.coeffs):
            if cj.is_zero():
                continue
            acc = acc + ci * cj * alg.pairing_poly_basis(i, j)
    return acc


class ArityError(ValueError):
    pass


@dataclass
class HomSym:
    """Map from size-`arity` Z-multisets to S(Z), or to S(Z) (x) L."""

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


def first_slot_action(ctx, omega):
    """The action term of d at the first argument alone: rho(e_0) omega(e_1, ..)."""
    n = omega.degree

    def fill(acc, k, es, fs):
        if k <= n // 2:
            val = omega.value(k, es[1:], fs)
            if not val.is_zero():
                accumulate(acc, ctx.algebra.rho_basis(es[0], val))

    return assemble(ctx, n + 1, fill)


def is_representable(ctx, omega):
    """Every bar covector of omega, at every prefix, tested against Im(phi)."""
    section = phi_section(ctx)
    failures = []
    n = omega.degree
    for k in range(n // 2 + 1):
        if n - 2 * k < 1:
            break
        for es, fs in component_keys(ctx, n - 1, k):
            if section.solve(bar(ctx, omega, k, es, fs)) is None:
                failures.append((k, es, fs))
    return RepresentabilityReport(ok=not failures, failures=failures)
