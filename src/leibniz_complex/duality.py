"""Duality between S(Z)-extended elements and S(Z)-valued covectors.

The symmetric product extends S(Z)-bilinearly from L to S(Z) (x) L and
induces

    phi : S(Z) (x) L  ->  Hom(L, S(Z)),   phi(p (x) e') = p * (e', -).

phi raises symmetric degree by one, so membership in its image and
preimage choices decompose degree by degree into finite exact linear
systems. PhiSection factors each of those systems once (reduced row
echelon, first-usable-pivot order by default) and answers membership
and section queries afterwards; the section is linear on the image, so
lifts extend consistently to linear combinations.

A cochain is *representable* when all of its partial evaluations with
one algebra slot left open (the "bar" covectors) land in Im(phi). For
such cochains the section provides the lifted maps used by the graded
bracket; when the symmetric product is non-degenerate the degree-0 part
of the lift is unique and independent of the pivot strategy.
`tilde_value` is the one place such a lift is solved; it keeps each in
the context's cache under (cochain, k, prefix, fs), and the bracket
keeps the list of an operand's lifts per cochain on top of it.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cochains import check_context, entries, scatter
from .linalg import LinearSolver
from .sympoly import _canonical


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


def dual_from_cochain(ctx, omega):
    if omega.degree != 1:
        raise ValueError("only degree-1 cochains are covectors")
    return DualElement(tuple(omega.value(0, (j,), ()) for j in range(ctx.dim)))


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
        """LinearSolver for phi restricted to degree-`degree` inputs."""
        solver = self._solvers.get(degree)
        if solver is not None:
            return solver
        ctx = self.ctx
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

    def solve(self, psi):
        """A preimage of psi under phi, or None when psi is not in the image.

        Solves one system per homogeneous output degree; degree-0 values
        cannot arise from phi, so any nonzero scalar part means failure.
        """
        ctx = self.ctx
        by_degree = {}
        for j, poly in enumerate(psi.values):
            for mono, coeff in poly.items():
                if not mono:
                    return None
                by_degree.setdefault(len(mono), {})[(j, mono)] = coeff
        terms = [{} for _ in range(ctx.dim)]
        for d, b in sorted(by_degree.items()):
            x = self._solver(d - 1).solve(b)
            if x is None:
                return None
            for (mono, i), c in sorted(x.items()):
                terms[i][mono] = c
        return ExtendedElement(tuple(_canonical(ctx.zdim, t) for t in terms))


def phi_section(ctx):
    section = ctx.cache.get("phi_section")
    if section is None:
        section = PhiSection(ctx)
        ctx.cache["phi_section"] = section
    return section


def sharp(ctx, psi):
    """The chosen preimage of psi under phi (NotRepresentableError outside Im)."""
    x = phi_section(ctx).solve(psi)
    if x is None:
        raise NotRepresentableError("covector is not in the image of phi")
    return x


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


def stored_prefixes(omega):
    """The distinct (k, prefix, fs) of omega's stored entries with an
    algebra argument, sorted: the only bar covectors that can be nonzero."""
    return sorted({(k, es[:-1], fs) for k, es, fs, _ in entries(omega) if es})


def is_representable(ctx, omega):
    """Do all bar covectors land in Im(phi)?

    The zero covector is phi(0), so only the stored prefixes can fail;
    they are reported in key order. Components with no algebra arguments
    have no bar map and are vacuously fine. ContextMismatchError for a
    cochain from another context.
    """
    check_context(ctx, omega)
    section = phi_section(ctx)
    failures = [(k, prefix, fs) for k, prefix, fs in stored_prefixes(omega)
                if section.solve(bar(ctx, omega, k, prefix, fs)) is None]
    return RepresentabilityReport(ok=not failures, failures=failures)


def tilde_value(ctx, omega, k, prefix, fs):
    """Section lift of one bar covector; cached per context."""
    cache = ctx.cache.setdefault("tilde", {})
    key = (omega, k, tuple(prefix), tuple(sorted(fs)))
    hit = cache.get(key)
    if hit is None:
        psi = bar(ctx, omega, k, prefix, fs)
        hit = phi_section(ctx).solve(psi)
        if hit is None:
            raise NotRepresentableError(
                f"component {k} at prefix {tuple(prefix)} with centers {tuple(fs)} "
                "is not representable")
        cache[key] = hit
    return hit
