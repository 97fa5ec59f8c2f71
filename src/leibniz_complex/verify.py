"""Named identity suites over the bundled fixtures, with reporting.

Each check returns a CheckResult whose counterexample payload (when a
check fails) pins down one offending key with both sides rendered, so a
broken sign is locatable from the report alone. The suites are exactly
the ones the package promises:

  validity, d.d = 0, the graded-algebra axioms, theta = d(zeta),
  representability closure, the graded Poisson axioms,
  {theta, -} = -d, the derived bracket, the quotient proposition,
  and the structure-constant cross-check of {flat, flat}.

`run_verify` aggregates them over a fixture list. The `mutation`
argument deliberately injects a wrong sign so tests can confirm the
suites actually catch it; production runs leave it None. "zeta-sign"
flips zeta's tail inside `check_theta_is_dzeta`; "d0-sign" swaps the
differential for `d0_sign_mutant`, built here as d minus twice the
action term at the first argument slot, so the production `coboundary`
carries no hook.

Random cochains are generated constructively as sums of products of
flats and degree-0 cochains, which stay inside the representable
subalgebra by construction; no rejection sampling.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .algebra import basis_vec, build_fixture, check_leibniz, quotient_by_kernel
from .brackets import derived_bracket_dual, poisson, theta, zeta
from .cochains import (Cochain, ComplexContext, InvalidCochainError, coboundary,
                       cochain_space_basis, cup, entries, scatter, validate_cochain)
from .duality import NotRepresentableError, flat_cochain, is_representable, sharp
from .sympoly import SymPoly

EXPECTED_CENTERS = {
    "A3": 3,
    "O1": 1,
    "O2": 2,
    "AFF_O1": 1,
}


class VerifyConfigError(ValueError):
    """A verify setting outside its range."""


@dataclass
class VerifyConfig:
    max_degree: int = 3
    fixtures: tuple = ("A3", "O1", "O2", "AFF_O1")
    seed: int = 0
    samples: int = 25

    def __post_init__(self):
        if self.max_degree < 1:
            raise VerifyConfigError("max_degree must be at least 1")
        if self.samples < 1:
            raise VerifyConfigError("sample_count must be at least 1")


@dataclass
class CheckResult:
    name: str
    fixture: str
    passed: bool
    seconds: float
    details: str = ""
    counterexample: dict = None
    advisory: bool = False


@dataclass
class Report:
    results: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(r.passed for r in self.results if not r.advisory)

    def to_dict(self):
        return {
            "passed": self.passed,
            "config": self.config,
            "checks": [
                {
                    "name": r.name,
                    "fixture": r.fixture,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 6),
                    "details": r.details,
                    "counterexample": r.counterexample,
                    "advisory": r.advisory,
                }
                for r in self.results
            ],
        }

    def render_text(self):
        lines = []
        for r in self.results:
            tag = "INFO" if r.advisory else ("PASS" if r.passed else "FAIL")
            line = f"{tag} {r.name}[{r.fixture}] ({r.seconds:.2f}s)"
            if r.details:
                line += f" {r.details}"
            lines.append(line)
            if r.counterexample:
                lines.append(f"     counterexample: {json.dumps(r.counterexample)}")
        lines.append("all checks passed" if self.passed else "FAILURES present")
        return "\n".join(lines)


def _timed(name, fixture, fn):
    start = time.perf_counter()
    try:
        passed, details, counter = fn()
    except (InvalidCochainError, NotRepresentableError) as exc:
        passed, details, counter = False, f"raised {type(exc).__name__}", _exc_payload(exc)
    return CheckResult(name, fixture, passed, time.perf_counter() - start, details, counter)


def _exc_payload(exc):
    payload = {"error": str(exc)}
    report = getattr(exc, "report", None)
    if report is not None and getattr(report, "violations", None):
        k, pos, es, fs, lhs, rhs = report.violations[0]
        payload["violation"] = _key_payload(k, es, fs, lhs, rhs, position=pos)
    return payload


def _key_payload(k, es, fs, lhs, rhs, **extra):
    payload = {"component": k, "es": list(es), "fs": list(fs),
               "lhs": lhs.render(), "rhs": rhs.render()}
    payload.update(extra)
    return payload


def first_difference(a, b):
    """First (k, es, fs) key where two same-degree cochains disagree."""
    keys = set()
    for cochain in (a, b):
        for k, table in cochain.components.items():
            keys.update((k, es, fs) for es, fs in table)
    for k, es, fs in sorted(keys):
        va, vb = a.value(k, es, fs), b.value(k, es, fs)
        if va != vb:
            return k, es, fs, va, vb
    return None


def _difference_payload(diff, **extra):
    k, es, fs, lhs, rhs = diff
    return _key_payload(k, es, fs, lhs, rhs, **extra)


# -- random generation ---------------------------------------------------------


def random_poly(rng, zdim, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(0, max_degree)
        mono = tuple(sorted(rng.randrange(zdim) for _ in range(degree))) if zdim else ()
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        terms[mono] = terms.get(mono, 0) + coeff
    return SymPoly(zdim, terms)


def random_element(rng, dim):
    while True:
        coords = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(coords):
            return coords


def random_representable(ctx, rng, degree):
    """Sum of <=2 cup products of flats, each optionally scaled by a
    degree-0 cochain; lands in the representable subalgebra by construction."""
    if degree == 0:
        return Cochain.constant(random_poly(rng, ctx.zdim))
    total = Cochain.zero(degree, ctx.zdim)
    for _ in range(rng.randint(1, 2)):
        term = flat_cochain(ctx, random_element(rng, ctx.dim))
        for _ in range(degree - 1):
            term = cup(ctx, term, flat_cochain(ctx, random_element(rng, ctx.dim)))
        if rng.random() < 0.5:
            term = cup(ctx, Cochain.constant(random_poly(rng, ctx.zdim, max_degree=1)), term)
        total = total + term
    return total


# -- the d0-sign mutation --------------------------------------------------------


def d0_sign_mutant(ctx, omega):
    """d with its action term at the first slot, rho(e_0) omega(e_1, ..), negated."""
    first_slot = ((k, (i,) + es, fs, ctx.algebra.rho_basis(i, val), 1)
                  for k, es, fs, val in entries(omega) for i in range(ctx.dim))
    return coboundary(ctx, omega) - scatter(ctx, omega.degree + 1, first_slot).scale(2)


def _differential(mutation):
    return d0_sign_mutant if mutation == "d0-sign" else coboundary


# -- individual checks -----------------------------------------------------------


def check_fixture_validity(ctx, fixture):
    def run():
        report = check_leibniz(ctx.algebra)
        if not report.ok:
            i, j, l, lhs, rhs = report.violations[0]
            return False, "Leibniz identity fails", {
                "triple": [i, j, l], "lhs": [str(c) for c in lhs], "rhs": [str(c) for c in rhs]}
        expected = EXPECTED_CENTERS.get(fixture)
        zdim = ctx.zdim
        if expected is not None and zdim != expected:
            return False, f"left center has dimension {zdim}, expected {expected}", {
                "z_basis": [[str(c) for c in v] for v in ctx.algebra.z_basis]}
        return True, f"dim={ctx.dim}, left center dim={zdim}", None

    return _timed("fixture_validity", fixture, run)


def _generator_variants(ctx, omega):
    """The basis cochain itself plus copies with all values scaled by one
    generator of S(Z); validity is linear over S(Z), so these stay valid,
    and the scaled copies actually exercise the action terms."""
    yield omega
    for r in range(ctx.zdim):
        z = SymPoly.generator(ctx.zdim, r)
        yield Cochain(omega.degree, ctx.zdim,
                      {k: {key: value * z for key, value in table.items()}
                       for k, table in omega.components.items()})


def check_d_squared(ctx, fixture, max_degree, mutation=None):
    def run():
        d = _differential(mutation)
        checked = 0
        for degree in range(max_degree + 1):
            for seed in cochain_space_basis(ctx, degree):
                for omega in _generator_variants(ctx, seed):
                    once = d(ctx, omega)
                    twice = d(ctx, once)
                    checked += 1
                    if not twice.is_zero():
                        diff = first_difference(twice, Cochain.zero(twice.degree, ctx.zdim))
                        return False, f"d.d != 0 on a degree-{degree} basis cochain", \
                            _difference_payload(diff, source_degree=degree)
        return True, f"{checked} basis cochains up to degree {max_degree}", None

    return _timed("d_squared", fixture, run)


def check_dga_axioms(ctx, fixture, rng, samples, total_degree=4):
    def run():
        bases = {n: cochain_space_basis(ctx, n) for n in range(total_degree + 1)}
        differentials = {n: [coboundary(ctx, omega) for omega in basis]
                         for n, basis in bases.items()}
        pairs = 0
        for n in range(total_degree + 1):
            for m in range(total_degree + 1 - n):
                for omega, d_omega in zip(bases[n], differentials[n]):
                    for eta, d_eta in zip(bases[m], differentials[m]):
                        pairs += 1
                        prod = cup(ctx, omega, eta)
                        flipped = cup(ctx, eta, omega).scale(-1 if (n * m) % 2 else 1)
                        diff = first_difference(prod, flipped)
                        if diff:
                            return False, f"graded commutativity fails at degrees ({n},{m})", \
                                _difference_payload(diff)
                        lhs = coboundary(ctx, prod)
                        rhs = cup(ctx, d_omega, eta) + \
                            cup(ctx, omega, d_eta).scale(-1 if n % 2 else 1)
                        diff = first_difference(lhs, rhs)
                        if diff:
                            return False, f"graded Leibniz rule fails at degrees ({n},{m})", \
                                _difference_payload(diff)
        flat_pool = [(n, omega) for n in range(total_degree + 1) for omega in bases[n]]
        for _ in range(samples):
            while True:
                picks = [rng.choice(flat_pool) for _ in range(3)]
                if sum(p[0] for p in picks) <= total_degree:
                    break
            (na, a), (nb, b), (nc, c) = picks
            left = cup(ctx, cup(ctx, a, b), c)
            right = cup(ctx, a, cup(ctx, b, c))
            diff = first_difference(left, right)
            if diff:
                return False, f"associativity fails at degrees ({na},{nb},{nc})", \
                    _difference_payload(diff)
        return True, f"{pairs} pairs, {samples} associativity triples", None

    return _timed("dga_axioms", fixture, run)


def check_theta_is_dzeta(ctx, fixture, mutation=None):
    def run():
        zeta_cochain = zeta(ctx)
        if mutation == "zeta-sign":
            tail = {((), (r,)): SymPoly.monomial(ctx.zdim, (r,), 2) for r in range(ctx.zdim)}
            zeta_cochain = Cochain(2, ctx.zdim, {0: dict(zeta_cochain.components.get(0, {})),
                                                 1: tail})
        d_zeta = _differential(mutation)(ctx, zeta_cochain)
        diff = first_difference(theta(ctx), d_zeta)
        if diff:
            return False, "theta != d(zeta)", _difference_payload(diff)
        d_theta = coboundary(ctx, theta(ctx))
        if not d_theta.is_zero():
            diff = first_difference(d_theta, Cochain.zero(4, ctx.zdim))
            return False, "d(theta) != 0", _difference_payload(diff)
        return True, "theta = d(zeta) and d(theta) = 0", None

    return _timed("theta_is_dzeta", fixture, run)


def check_representability_closure(ctx, fixture, rng, samples, max_degree=3):
    def run():
        for index in range(samples):
            degree = rng.randint(0, min(2, max_degree))
            omega = random_representable(ctx, rng, degree)
            produced = [("d", coboundary(ctx, omega))]
            other_degree = rng.randint(0, min(2, max_degree - degree))
            eta = random_representable(ctx, rng, other_degree)
            produced.append(("cup", cup(ctx, omega, eta)))
            produced.append(("poisson", poisson(ctx, omega, eta)))
            for op, result in produced:
                validity = validate_cochain(ctx, result)
                if not validity.ok:
                    k, pos, es, fs, lhs, rhs = validity.violations[0]
                    return False, f"{op} output is not a cochain (sample {index})", \
                        _key_payload(k, es, fs, lhs, rhs, position=pos)
                rep = is_representable(ctx, result)
                if not rep.ok:
                    k, prefix, fs = rep.failures[0]
                    return False, f"{op} output is not representable (sample {index})", \
                        {"component": k, "prefix": list(prefix), "fs": list(fs)}
        return True, f"{samples} samples closed under d, cup, poisson", None

    return _timed("representability_closure", fixture, run)


def check_poisson_axioms(ctx, fixture, rng, samples):
    def run():
        for index in range(samples):
            n, m, l = (rng.randint(0, 2) for _ in range(3))
            omega = random_representable(ctx, rng, n)
            eta = random_representable(ctx, rng, m)
            lam = random_representable(ctx, rng, l)
            sign_nm = -1 if (n * m) % 2 else 1
            anti = first_difference(poisson(ctx, omega, eta),
                                    poisson(ctx, eta, omega).scale(-sign_nm))
            if anti:
                return False, f"graded antisymmetry fails at degrees ({n},{m})", \
                    _difference_payload(anti, sample=index)
            lhs = poisson(ctx, omega, cup(ctx, eta, lam))
            rhs = cup(ctx, poisson(ctx, omega, eta), lam) + \
                cup(ctx, eta, poisson(ctx, omega, lam)).scale(sign_nm)
            diff = first_difference(lhs, rhs)
            if diff:
                return False, f"graded derivation fails at degrees ({n},{m},{l})", \
                    _difference_payload(diff, sample=index)
            lhs = poisson(ctx, omega, poisson(ctx, eta, lam))
            rhs = poisson(ctx, poisson(ctx, omega, eta), lam) + \
                poisson(ctx, eta, poisson(ctx, omega, lam)).scale(sign_nm)
            diff = first_difference(lhs, rhs)
            if diff:
                return False, f"graded Jacobi fails at degrees ({n},{m},{l})", \
                    _difference_payload(diff, sample=index)
        return True, f"{samples} sampled triples", None

    return _timed("poisson_axioms", fixture, run)


def check_theta_bracket(ctx, fixture, rng, samples):
    def run():
        candidates = [flat_cochain(ctx, basis_vec(ctx.dim, i)) for i in range(ctx.dim)]
        candidates += [random_representable(ctx, rng, rng.randint(0, 2)) for _ in range(samples)]
        for index, eta in enumerate(candidates):
            lhs = poisson(ctx, theta(ctx), eta)
            rhs = coboundary(ctx, eta).scale(-1)
            diff = first_difference(lhs, rhs)
            if diff:
                return False, f"{{theta, eta}} != -d(eta) (candidate {index})", \
                    _difference_payload(diff)
        return True, f"{len(candidates)} cochains (all flats + samples)", None

    return _timed("theta_bracket", fixture, run)


def check_derived_bracket(ctx, fixture):
    def run():
        alg = ctx.algebra
        fat = alg.is_fat()
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                ei, ej = basis_vec(ctx.dim, i), basis_vec(ctx.dim, j)
                dual = derived_bracket_dual(ctx, ei, ej)
                expected_vec = alg.bracket(ei, ej)
                expected_values = tuple(alg.pairing_poly(expected_vec, basis_vec(ctx.dim, t))
                                        for t in range(ctx.dim))
                for t in range(ctx.dim):
                    if dual.values[t] != expected_values[t]:
                        return False, f"flat-level identity fails at pair ({i},{j})", {
                            "pair": [i, j], "slot": t,
                            "lhs": dual.values[t].render(),
                            "rhs": expected_values[t].render()}
                if fat:
                    lifted = sharp(ctx, dual)
                    vec = lifted.as_vector()
                    if vec is None or vec != expected_vec:
                        return False, f"sharp does not recover the product at ({i},{j})", {
                            "pair": [i, j],
                            "lhs": [c.render() for c in lifted.coeffs],
                            "rhs": [str(c) for c in expected_vec]}
        scope = "flat level and sharp" if fat else "flat level (not fat)"
        return True, f"all {ctx.dim * ctx.dim} basis pairs, {scope}", None

    return _timed("derived_bracket", fixture, run)


def check_quotient(fixture="AFF_O1"):
    def run():
        algebra = build_fixture(fixture)
        if algebra.two_sided_center():
            return False, "two-sided center is not trivial", {
                "center": [[str(c) for c in v] for v in algebra.two_sided_center()]}
        quotient = quotient_by_kernel(algebra)
        if not quotient.is_fat():
            return False, "quotient is not fat", None
        reference = build_fixture("O1")
        if quotient.dim != reference.dim or quotient.table != reference.table:
            return False, "quotient table differs from the expected block", {
                "labels": list(quotient.labels)}
        return True, f"kernel dim {len(algebra.kernel_basis)}, quotient matches O1", None

    return _timed("quotient_proposition", fixture, run)


def check_oracle_pairing(ctx, fixture):
    """{flat_i, flat_j} against the direct structure-constant pairing.

    The right side uses only the structure table (e.f + f.e in
    Z-coordinates), never the bracket machinery.
    """

    def run():
        alg = ctx.algebra
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                ei, ej = basis_vec(ctx.dim, i), basis_vec(ctx.dim, j)
                result = poisson(ctx, flat_cochain(ctx, ei), flat_cochain(ctx, ej))
                direct = alg.z_coords(
                    tuple(a + b for a, b in zip(alg.bracket(ei, ej), alg.bracket(ej, ei))))
                oracle = SymPoly(ctx.zdim, {(r,): c for r, c in enumerate(direct) if c != 0})
                got = result.value(0, (), ())
                if got != oracle or result != Cochain.constant(oracle):
                    return False, f"{{flat,flat}} mismatch at ({i},{j})", {
                        "pair": [i, j], "lhs": got.render(), "rhs": oracle.render()}
        return True, f"all {ctx.dim * ctx.dim} basis pairs match the structure oracle", None

    return _timed("oracle_pairing", fixture, run)


def check_choice_independence(algebra, fixture, rng, samples):
    """Advisory: compare bracket values under the two pivot strategies.

    Reported, never asserted: on algebras with a degenerate symmetric
    product the section is not unique and nothing guarantees agreement.
    """

    def run():
        first = ComplexContext(algebra, pivot_strategy="first")
        last = ComplexContext(algebra, pivot_strategy="last")
        disagreements = 0
        for _ in range(samples):
            omega = random_representable(first, rng, rng.randint(0, 2))
            eta = random_representable(first, rng, rng.randint(0, 2))
            if first_difference(poisson(first, theta(first), omega),
                                poisson(last, theta(last), omega)):
                disagreements += 1
            if first_difference(poisson(first, omega, eta), poisson(last, omega, eta)):
                disagreements += 1
        note = "identical under both pivot strategies" if not disagreements \
            else f"{disagreements} value differences between pivot strategies"
        return True, note, None

    result = _timed("bracket_choice_independence", fixture, run)
    result.advisory = True
    return result


# -- the aggregated run -----------------------------------------------------------


def run_verify(config, mutation=None):
    rng = Random(config.seed)
    report = Report(config={
        "max_degree": config.max_degree, "fixtures": list(config.fixtures),
        "seed": config.seed, "samples": config.samples, "mutation": mutation})
    for fixture in config.fixtures:
        algebra = build_fixture(fixture)
        ctx = ComplexContext(algebra)
        report.results.append(check_fixture_validity(ctx, fixture))
        degree_cap = min(config.max_degree, 2 if ctx.dim >= 5 else config.max_degree)
        report.results.append(check_d_squared(ctx, fixture, degree_cap, mutation=mutation))
        if ctx.dim <= 3:
            report.results.append(check_dga_axioms(
                ctx, fixture, Random(config.seed), config.samples,
                total_degree=min(4, config.max_degree + 1)))
        report.results.append(check_theta_is_dzeta(ctx, fixture, mutation=mutation))
        if algebra.is_fat():
            report.results.append(check_representability_closure(
                ctx, fixture, Random(config.seed + 1), config.samples,
                max_degree=config.max_degree))
            if ctx.dim <= 3:
                report.results.append(check_poisson_axioms(
                    ctx, fixture, Random(config.seed + 2), config.samples))
            report.results.append(check_theta_bracket(
                ctx, fixture, Random(config.seed + 3), config.samples))
        else:
            report.results.append(check_choice_independence(
                algebra, fixture, Random(config.seed + 4), max(1, config.samples // 5)))
        report.results.append(check_derived_bracket(ctx, fixture))
        report.results.append(check_oracle_pairing(ctx, fixture))
        if fixture == "AFF_O1":
            report.results.append(check_quotient(fixture))
    return report
