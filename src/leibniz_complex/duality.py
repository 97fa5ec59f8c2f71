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
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .algebra import basis_vec
from .cochains import Cochain, entries
from .linalg import LinearSolver
from .sympoly import SymPoly


class NotRepresentableError(ValueError):
    """A covector outside Im(phi) where a preimage was required."""


@dataclass(frozen=True)
class DualElement:
    """Element of Hom(L, S(Z)) on the chosen basis: values[j] = psi(e_j)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def scale(self, factor):
        return DualElement(tuple(v.scale(factor) for v in self.values))

    def __neg__(self):
        return self.scale(-1)

    def render(self, ctx):
        return ", ".join(f"{label} -> {v.render()}"
                         for label, v in zip(ctx.algebra.labels, self.values))


@dataclass(frozen=True)
class ExtendedElement:
    """Element of S(Z) (x) L: coeffs[i] multiplies basis element e_i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def zero(cls, ctx):
        return cls(tuple(SymPoly.zero(ctx.zdim) for _ in range(ctx.dim)))

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
    """The covector (v, -)."""
    alg = ctx.algebra
    return DualElement(tuple(alg.pairing_poly(v, basis_vec(ctx.dim, j)) for j in range(ctx.dim)))


def flat_cochain(ctx, v):
    """(v, -) packaged as a degree-1 cochain."""
    dual = flat(ctx, v)
    table = {((j,), ()): poly for j, poly in enumerate(dual.values) if not poly.is_zero()}
    return Cochain(1, ctx.zdim, {0: table} if table else None)


def dual_from_cochain(ctx, omega):
    if omega.degree != 1:
        raise ValueError("only degree-1 cochains are covectors")
    return DualElement(tuple(omega.value(0, (j,), ()) for j in range(ctx.dim)))


class PhiSection:
    """Per-degree factorizations of phi with a fixed deterministic section."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._solvers = {}
        self._monomials = {}

    def _monomial_list(self, degree):
        mono = self._monomials.get(degree)
        if mono is None:
            mono = list(combinations_with_replacement(range(self.ctx.zdim), degree))
            self._monomials[degree] = mono
        return mono

    def _solver(self, degree):
        """LinearSolver for phi restricted to degree-`degree` inputs."""
        solver = self._solvers.get(degree)
        if solver is not None:
            return solver
        ctx = self.ctx
        in_monos = self._monomial_list(degree)
        out_monos = self._monomial_list(degree + 1)
        out_index = {m: t for t, m in enumerate(out_monos)}
        ncols = len(in_monos) * ctx.dim
        nrows = ctx.dim * len(out_monos)
        matrix = [[0] * ncols for _ in range(nrows)]
        for col_m, mono in enumerate(in_monos):
            for i in range(ctx.dim):
                col = col_m * ctx.dim + i
                for j in range(ctx.dim):
                    pair = ctx.algebra.pairing_poly_basis(i, j)
                    for (r,), c in pair.items():
                        target = tuple(sorted(mono + (r,)))
                        row = j * len(out_monos) + out_index[target]
                        matrix[row][col] += c
        if ctx.pivot_strategy == "last":
            order = list(range(ncols - 1, -1, -1))
        else:
            order = None
        solver = LinearSolver(matrix, ncols, column_order=order)
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
            for d, part in poly.homogeneous_parts().items():
                if d == 0:
                    return None
                by_degree.setdefault(d, {})[j] = part
        total = ExtendedElement.zero(ctx)
        for d, parts in sorted(by_degree.items()):
            solver = self._solver(d - 1)
            out_monos = self._monomial_list(d)
            out_index = {m: t for t, m in enumerate(out_monos)}
            b = [0] * (ctx.dim * len(out_monos))
            for j, part in parts.items():
                for mono, coeff in part.items():
                    b[j * len(out_monos) + out_index[mono]] = coeff
            x = solver.solve(b)
            if x is None:
                return None
            in_monos = self._monomial_list(d - 1)
            coeffs = list(total.coeffs)
            for col_m, mono in enumerate(in_monos):
                for i in range(ctx.dim):
                    c = x[col_m * ctx.dim + i]
                    if c != 0:
                        coeffs[i] = coeffs[i] + SymPoly.monomial(ctx.zdim, mono, c)
            total = ExtendedElement(tuple(coeffs))
        return total


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
    have no bar map and are vacuously fine.
    """
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
