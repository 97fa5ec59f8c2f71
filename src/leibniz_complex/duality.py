"""Duality between S(Z)-extended elements and S(Z)-valued covectors.

The symmetric product extends S(Z)-bilinearly from L to S(Z) (x) L and
induces

    phi : S(Z) (x) L  ->  Hom(L, S(Z)),   phi(p (x) e') = p * (e', -).

phi raises symmetric degree by one, so membership in its image and
preimage choices decompose degree by degree into finite exact linear
systems. PhiSection factors each of those systems once (reduced row
echelon, first-usable-pivot order by default) and answers two kinds of
query afterwards about a covector given as {j: SymPoly}. Membership
(`PhiSection.contains`) evaluates only the cokernel functionals of phi in
each degree, the check rows of the factorization, and builds no
preimage. The section (`PhiSection.solve`) returns a sparse preimage
{(mono, i): coeff}; it is linear on the image, so lifts extend
consistently to linear combinations, and the lift of -psi is the lift
of psi negated. `lift` is its raising form; `sharp` and `tilde_value`
wrap a preimage into an ExtendedElement.

A cochain is *representable* when all of its partial evaluations with
one algebra slot left open (the "bar" covectors) land in Im(phi).
`is_representable` and `require_representable` decide that by
membership alone. On a cochain known valid they read its bar covectors
at strictly increasing prefixes from `increasing_bars`, a view that
depends on no context, so it is built once per cochain and kept on it;
`brackets.bullet` pairs the same view with its right operand's lifts.
For representable cochains the section provides the lifted maps used
by the graded bracket; when the symmetric product is non-degenerate the
degree-0 part of the lift is unique and independent of the pivot
strategy. `tilde_value` is the one place such a lift is solved, for the
right operand of `brackets.bullet`, the only operand whose lifts it
reads. A lift depends on the context's section, so it is kept in the
context's cache under (cochain, k, prefix, fs), and the bracket keeps
the list of an operand's lifts per cochain in the same cache. The
derived bracket reads its result back in one pass: `covector` reads the
outer bracket's stored entries as {j: SymPoly} and `lift` solves it
once, with no DualElement or ExtendedElement built.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .cochains import (_increasing, check_context, check_table, entries, operand_view,
                       require_valid, scatter)
from .linalg import LinearSolver
from .sympoly import SymPoly, _canonical


class NotRepresentableError(ValueError):
    """A covector outside Im(phi) where a preimage was required."""


@dataclass(frozen=True)
class DualElement:
    """Element of Hom(L, S(Z)) on the chosen basis: values[j] = psi(e_j)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __neg__(self):
        return DualElement(tuple(-v for v in self.values))

    def render(self, ctx):
        return ", ".join(f"{label} -> {v.render()}"
                         for label, v in zip(ctx.algebra.labels, self.values))


@dataclass(frozen=True)
class ExtendedElement:
    """Element of S(Z) (x) L: coeffs[i] multiplies basis element e_i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def as_vector(self):
        """Coordinate tuple over L if every coefficient is scalar, else None."""
        out = []
        for c in self.coeffs:
            if c.is_zero():
                out.append(0)
            elif c.degree() == 0:
                out.append(c.coeff(()))
            else:
                return None
        return tuple(out)


def flat(ctx, v):
    """The covector (v, -), read off `flat_cochain`."""
    return dual_from_cochain(ctx, flat_cochain(ctx, v))


def flat_cochain(ctx, v):
    """(v, -) packaged as a degree-1 cochain: (v, e_j) summed from the
    stored basis pairings (e_i, e_j) over the nonzero coordinates v_i."""
    pairing = ctx.algebra.pairing_poly_basis
    return scatter(ctx.zdim, 1, ((0, (j,), (), pairing(i, j), vi)
                                 for i, vi in enumerate(v) if vi != 0 for j in range(ctx.dim)))


def covector(omega):
    """{j: omega(e_j)}: the nonzero values of a degree-1 cochain, read in
    one pass over its stored entries, the shape `PhiSection.solve` and
    `PhiSection.contains` take."""
    if omega.degree != 1:
        raise ValueError("only degree-1 cochains are covectors")
    return {es[0]: value for _, es, _, value in entries(omega)}


def dual_from_cochain(ctx, omega):
    """The `covector` of a degree-1 cochain as a DualElement."""
    values = covector(omega)
    zero = SymPoly.zero(ctx.zdim)
    return DualElement(tuple(values.get(j, zero) for j in range(ctx.dim)))


def nonzero_values(psi):
    """The covector psi as {j: psi(e_j)} over its nonzero values."""
    return {j: v for j, v in enumerate(psi.values) if not v.is_zero()}


class PhiSection:
    """Per-degree factorizations of phi with a fixed deterministic section.

    The degree-d system has a column (mono, i) for each input p (x) e_i,
    p the degree-d monomial mono, and a row (j, mono') for each output
    coefficient of mono' in psi(e_j).
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._solvers = {}

    def _solver(self, degree):
        """LinearSolver for phi restricted to degree-`degree` inputs. Its
        C(zdim + degree - 1, degree) * dim columns are counted against the
        table budget (`cochains.check_table`) on every call, before any row
        is built, so a cached system never skips a lowered budget."""
        ctx = self.ctx
        check_table(comb(ctx.zdim + degree - 1, degree) * ctx.dim, "a system of phi")
        solver = self._solvers.get(degree)
        if solver is not None:
            return solver
        columns = [(mono, i) for mono in combinations_with_replacement(range(ctx.zdim), degree)
                   for i in range(ctx.dim)]
        rows = {}
        for mono, i in columns:
            for j in range(ctx.dim):
                for (r,), c in ctx.algebra.pairing_poly_basis(i, j).items():
                    rows.setdefault((j, tuple(sorted(mono + (r,)))), {})[(mono, i)] = c
        if ctx.pivot_strategy == "last":
            columns.reverse()
        solver = LinearSolver(rows, columns)
        self._solvers[degree] = solver
        return solver

    def solve(self, values):
        """A preimage of the covector e_j -> values[j] under phi, or None
        when it is not in the image. `values` is a dict {j: SymPoly}, as
        `contains` takes it; the preimage is sparse, {(mono, i): coeff}
        for the input mono (x) e_i.

        Solves one system per homogeneous output degree; degree-0 values
        cannot arise from phi, so any nonzero scalar part means failure.
        Free variables are set to zero, so the map is linear on Im(phi):
        the preimage of -psi is the preimage of psi negated.
        """
        by_degree = _by_degree(values.items())
        if by_degree is None:
            return None
        preimage = {}
        for d, b in sorted(by_degree.items()):
            x = self._solver(d - 1).solve(b)
            if x is None:
                return None
            preimage.update(x)
        return preimage

    def contains(self, values):
        """Is the covector e_j -> values[j] in Im(phi)? `values` is a dict
        {j: SymPoly}; a j it leaves out is zero. Each homogeneous output
        degree is tested against that degree's cokernel functionals
        (`LinearSolver.contains`); no preimage is built."""
        by_degree = _by_degree(values.items())
        return by_degree is not None and all(
            self._solver(d - 1).contains(b) for d, b in sorted(by_degree.items()))


def _by_degree(values):
    """{output degree: {(j, mono): coeff}} of the covector with values
    (j, poly), or None when one has a scalar part, which phi never makes."""
    by_degree = {}
    for j, poly in values:
        for mono, coeff in poly.items():
            if not mono:
                return None
            by_degree.setdefault(len(mono), {})[(j, mono)] = coeff
    return by_degree


def phi_section(ctx):
    section = ctx.cache.get("phi_section")
    if section is None:
        section = PhiSection(ctx)
        ctx.cache["phi_section"] = section
    return section


def lift(ctx, values):
    """The section's sparse preimage {(mono, i): coeff} of the covector
    e_j -> values[j] (`PhiSection.solve`), NotRepresentableError outside
    Im(phi)."""
    x = phi_section(ctx).solve(values)
    if x is None:
        raise NotRepresentableError("covector is not in the image of phi")
    return x


def sharp(ctx, psi):
    """The chosen preimage of the DualElement psi under phi, as an
    ExtendedElement (NotRepresentableError outside Im).

    It wraps `lift`, one solve of psi's nonzero values. The derived
    bracket reads its result back through `lift` directly, from the
    outer bracket's stored entries (`covector`), and negates the scalar
    coordinates once: the section is linear on Im(phi)."""
    return _extended(ctx, lift(ctx, nonzero_values(psi)))


def _extended(ctx, preimage):
    """The ExtendedElement of a sparse preimage {(mono, i): coeff}."""
    terms = [{} for _ in range(ctx.dim)]
    for (mono, i), c in preimage.items():
        terms[i][mono] = c
    return ExtendedElement(tuple(_canonical(ctx.zdim, t) for t in terms))


def bar(ctx, omega, k, prefix, fs):
    """Partial evaluation with the last algebra slot open:
    e -> omega_k(prefix, e; fs)."""
    nl = omega.degree - 2 * k
    if nl < 1 or len(prefix) != nl - 1:
        raise ValueError(f"component {k} of a degree-{omega.degree} cochain "
                         f"takes {max(nl - 1, 0)} prefix arguments")
    prefix = tuple(prefix)
    fs = tuple(sorted(fs))
    return DualElement(tuple(omega.value(k, prefix + (e,), fs) for e in range(ctx.dim)))


@dataclass
class RepresentabilityReport:
    ok: bool
    failures: list  # (k, prefix, fs)


def stored_bars(omega):
    """{(k, prefix, fs): {e: omega_k(prefix, e; fs)}}: the bar covectors at
    omega's stored prefixes, each as its nonzero values, grouped in one
    pass over the entries. Every other bar covector is zero."""
    bars = {}
    for k, es, fs, value in entries(omega):
        if es:
            bars.setdefault((k, es[:-1], fs), {})[es[-1]] = value
    return bars


def increasing_bars(omega):
    """(k, prefix, fs, {e: omega_k(prefix, e; fs)}) at each strictly
    increasing stored prefix of omega, in key order. Built once per
    cochain and kept on it (`cochains.operand_view`): membership reads it
    on a cochain known valid, `bullet` pairs it with its right operand's
    lifts, and those lifts are solved at its prefixes."""
    return operand_view(omega, "bars", _increasing_bars)


def _increasing_bars(omega):
    bars = stored_bars(omega)
    return tuple((k, prefix, fs, bars[k, prefix, fs]) for k, prefix, fs in sorted(bars)
                 if _increasing(prefix))


def is_representable(ctx, omega):
    """Do all bar covectors land in Im(phi)?

    The zero covector is phi(0), so only the stored prefixes can fail;
    they are reported in key order. Components with no algebra arguments
    have no bar map and are vacuously fine. Each covector is tested by
    membership (`PhiSection.contains`); no preimage is built. On a
    cochain known valid over ctx's algebra only the strictly increasing
    prefixes are tested, read from `increasing_bars`: weak skew-symmetry
    writes every other bar covector as a rational combination of those,
    so they all pass exactly when these do, and every prefix is tested
    again only to report the failures. ContextMismatchError for a
    cochain from another context.
    """
    check_context(ctx, omega)
    if omega._valid_over is ctx.algebra and next(
            _outside_image(ctx, increasing_bars(omega)), None) is None:
        return RepresentabilityReport(ok=True, failures=[])
    bars = stored_bars(omega)
    failures = list(_outside_image(ctx, ((*key, bars[key]) for key in sorted(bars))))
    return RepresentabilityReport(ok=not failures, failures=failures)


def require_representable(ctx, omega):
    """InvalidCochainError unless omega is weakly skew-symmetric
    (`cochains.require_valid`), NotRepresentableError unless it is
    representable, raised at its first strictly increasing stored prefix
    whose bar covector is outside Im(phi), the one `tilde_value` would
    fail on first. Only those prefixes are tested, by membership, read
    from `increasing_bars`; a cochain that passes is remembered as
    representable over ctx's algebra, on the cochain itself, and is not
    tested again."""
    require_valid(ctx, omega)
    if omega._representable_over is not ctx.algebra:
        failure = next(_outside_image(ctx, increasing_bars(omega)), None)
        if failure is not None:
            raise _not_representable(*failure)
        omega._representable_over = ctx.algebra


def _outside_image(ctx, bars):
    """The (k, prefix, fs) of the items (k, prefix, fs, bar) of `bars`
    whose bar covector is outside Im(phi), in their order, each tested
    by membership when it is asked for."""
    section = phi_section(ctx)
    return ((k, prefix, fs) for k, prefix, fs, bar in bars if not section.contains(bar))


def _not_representable(k, prefix, fs):
    return NotRepresentableError(f"component {k} at prefix {tuple(prefix)} with centers "
                                 f"{tuple(fs)} is not representable")


def tilde_value(ctx, omega, k, prefix, fs):
    """Section lift of one bar covector; cached per context."""
    cache = ctx.cache.setdefault("tilde", {})
    key = (omega, k, tuple(prefix), tuple(sorted(fs)))
    hit = cache.get(key)
    if hit is None:
        x = phi_section(ctx).solve(nonzero_values(bar(ctx, omega, k, prefix, fs)))
        if x is None:
            raise _not_representable(k, prefix, fs)
        hit = cache[key] = _extended(ctx, x)
    return hit
