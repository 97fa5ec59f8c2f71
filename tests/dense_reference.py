"""Dense reference implementations of d, the product, the two bracket
halves and the representability test.

These enumerate every output key (es, fs) of the result's degree (for the
representability test, every bar prefix) and pull each input value
through `Cochain.value`, exactly as the package did before its operators
walked stored entries. They cost dim^degree per call, so the tests run
them only on small inputs, as an oracle that the sparse operators must
match by exact equality.
"""

from leibniz_complex.brackets import HomSym, circ_compose, pair_bracket
from leibniz_complex.cochains import (Cochain, InvalidCochainError, accumulate,
                                      component_keys, position_splits, split_sign,
                                      validate_cochain)
from leibniz_complex.duality import RepresentabilityReport, bar, phi_section, tilde_value
from leibniz_complex.sympoly import SymPoly


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
            if not section.contains(bar(ctx, omega, k, es, fs)):
                failures.append((k, es, fs))
    return RepresentabilityReport(ok=not failures, failures=failures)
