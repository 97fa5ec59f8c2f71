"""Duality between S(Z)-extended elements and S(Z)-valued covectors.

The symmetric product extends S(Z)-bilinearly from L to S(Z) (x) L and
induces

    phi : S(Z) (x) L  ->  Hom(L, S(Z)),   phi(p (x) e') = p * (e', -).

phi raises symmetric degree by one, so membership in its image and the
choice of preimages split degree by degree into finite exact linear
systems, each factored once per context (`PhiSection`). A cochain is
*representable* when all of its partial evaluations with one algebra
slot left open (the "bar" covectors) land in Im(phi). For representable
cochains the section supplies the lifts the graded bracket pairs; when
the symmetric product is non-degenerate, the degree-0 part of a lift is
unique and independent of the pivot strategy.

A covector in Hom(L, S(Z)) is a degree-1 cochain, read as {j: value} by
`covector`; a lift is kept as {i: x_i}, and only `sharp` builds an
ExtendedElement.
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
class ExtendedElement:
    """Element of S(Z) (x) L: coeffs[i] multiplies basis element e_i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def as_vector(self):
        """Coordinate tuple over L if every coefficient is scalar, else None."""
        if any(c.degree() > 0 for c in self.coeffs):
            return None
        return tuple(c.coeff(()) for c in self.coeffs)


def require_vector(ctx, *vectors):
    """ValueError unless each vector has one coordinate per basis element
    of ctx's algebra."""
    for v in vectors:
        if len(v) != ctx.dim:
            raise ValueError(f"a vector of {len(v)} coordinates in an algebra of "
                             f"dimension {ctx.dim}")


def flat_cochain(ctx, v):
    """(v, -) packaged as a degree-1 cochain: (v, e_j) summed from the
    nonzero basis pairings (e_i, e_j) (`LeibnizAlgebra.pairings`) over the
    nonzero coordinates v_i. ValueError unless v has ctx.dim coordinates."""
    require_vector(ctx, v)
    pairings = ctx.algebra.pairings
    return scatter(ctx.zdim, 1, ((0, (j,), (), p, vi)
                                 for i, vi in enumerate(v) if vi != 0 for j, p in pairings(i)))


def covector(omega):
    """{j: omega(e_j)}: the nonzero values of a degree-1 cochain, read in
    one pass over its stored entries, the shape `PhiSection.solve` and
    `PhiSection.contains` take."""
    if omega.degree != 1:
        raise ValueError("only degree-1 cochains are covectors")
    return {es[0]: value for _, es, _, value in entries(omega)}


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
            for j, p in ctx.algebra.pairings(i):
                for (r,), c in p.items():
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
    """The chosen preimage of the covector psi, a degree-1 cochain, under
    phi, as an ExtendedElement (NotRepresentableError outside Im).

    It wraps `lift`, one solve of psi's stored values (`covector`). The
    derived bracket reads its result back through `lift` directly and
    negates the scalar coordinates once: the section is linear on
    Im(phi). ContextMismatchError for a covector from another context."""
    check_context(ctx, psi)
    coeffs, zero = _grouped(ctx, lift(ctx, covector(psi))), SymPoly.zero(ctx.zdim)
    return ExtendedElement(tuple(coeffs.get(i, zero) for i in range(ctx.dim)))


def _grouped(ctx, preimage):
    """The sparse preimage {(mono, i): coeff} grouped by basis element:
    {i: x_i} for the nonzero coefficients x_i in S(Z) of e_i."""
    terms = {}
    for (mono, i), c in preimage.items():
        terms.setdefault(i, {})[mono] = c
    return {i: _canonical(ctx.zdim, t) for i, t in terms.items()}


def bar(ctx, omega, k, prefix, fs):
    """Partial evaluation with the last algebra slot open, the covector
    e -> omega_k(prefix, e; fs) as a degree-1 cochain. omega is read only
    at the e where it stores an entry (`stored_bars`), in increasing order;
    it is zero at every other e."""
    nl = omega.degree - 2 * k
    if nl < 1 or len(prefix) != nl - 1:
        raise ValueError(f"component {k} of a degree-{omega.degree} cochain "
                         f"takes {max(nl - 1, 0)} prefix arguments")
    stored = stored_bars(omega).get((k, tuple(prefix), tuple(sorted(fs))), ())
    return scatter(omega.nvars, 1, ((0, (e,), (), omega.value(k, (*prefix, e), fs), 1)
                                    for e in sorted(stored)))


@dataclass
class RepresentabilityReport:
    ok: bool
    failures: list  # (k, prefix, fs)


def stored_bars(omega):
    """{(k, prefix, fs): {e: omega_k(prefix, e; fs)}}: the bar covectors at
    omega's stored prefixes, each as its nonzero values, grouped in one
    pass over the entries. Every other bar covector is zero. Kept on the
    cochain (`cochains.operand_view`), where `bar`, `increasing_bars` and
    `is_representable` read it."""
    return operand_view(omega, "stored_bars", _stored_bars)


def _stored_bars(omega):
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
    """Section lift of one bar covector, grouped as {i: x_i} over its
    nonzero coefficients (`_grouped`). It is the one place a lift is
    solved, for the right operand of `brackets.bullet`, which reads the
    dict directly, and a lift depends on the context's section, so it is
    kept in ctx.cache["tilde"] under (cochain, k, prefix, fs)."""
    cache = ctx.cache.setdefault("tilde", {})
    key = (omega, k, tuple(prefix), tuple(sorted(fs)))
    hit = cache.get(key)
    if hit is None:
        x = phi_section(ctx).solve(covector(bar(ctx, omega, k, prefix, fs)))
        if x is None:
            raise _not_representable(k, prefix, fs)
        hit = cache[key] = _grouped(ctx, x)
    return hit
