"""Named identity suites over the bundled fixtures, with reporting.

The suites are the ones the package promises: validity, d.d = 0, the
graded-algebra axioms, theta = d(zeta), representability closure, the
graded Poisson axioms, {theta, -} = -d, the derived bracket, the quotient
proposition and the structure-constant cross-check of {flat, flat}.
`run_verify` aggregates them over a fixture list. A check passes by
returning its details line and fails only by raising, `CheckFailed` with
a payload that pins down one offending key with both sides rendered, or
an operator's own error; `_timed` turns either into a `CheckResult`.

Identities between outputs of d, the product or the bracket on valid
operands are compared at the free keys (`cochains.free_part`): both
sides are valid, and two valid cochains are equal exactly when their free
parts are. d.d = 0 and theta = d(zeta) stay on whole cochains, since the
d0-sign mutant is not an expansion. The `mutation` argument injects a
wrong sign so tests can confirm the suites catch it.
"""

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from random import Random

from .algebra import basis_vec, build_fixture, check_leibniz, quotient_by_kernel
from .brackets import (basis_flat, derived_bracket_dual, free_poisson, poisson, theta,
                       theta_flat, zeta)
from .cochains import (Cochain, ComplexContext, InvalidCochainError, action, coboundary,
                       cochain_space_basis, combine, cup, entries, expand, free_coboundary,
                       free_cup, free_part, scatter, validate_cochain)
from .duality import NotRepresentableError, flat, flat_cochain, is_representable, sharp
from .sympoly import SymPoly, rational_text

EXPECTED_CENTERS = {
    "A3": 3,
    "O1": 1,
    "O2": 2,
    "AFF_O1": 1,
}


# The largest --max-degree. `leibcx verify --max-degree 12` takes about
# 0.6 s on the default fixtures, 0.4 s of it in the d.d = 0 checks, which
# grow the fastest: called directly they take about 0.5 s to degree 13
# and 0.6 s to degree 14, about 1.5 times more per two degrees (2-vCPU
# Intel Xeon VM, Python 3.11.7). The other checks are not timed past 12.
MAX_VERIFY_DEGREE = 12

# The largest --samples: the run's time grows linearly with the count, by
# about 4.2 ms a sample on the default fixtures (2-vCPU Intel Xeon VM,
# Python 3.11.7): 1,000 samples take about 4.5 s, and a million would run
# for over an hour.
MAX_VERIFY_SAMPLES = 1000


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
        if self.max_degree > MAX_VERIFY_DEGREE:
            raise VerifyConfigError(f"max_degree must be at most {MAX_VERIFY_DEGREE}")
        if self.samples < 1:
            raise VerifyConfigError("sample_count must be at least 1")
        if self.samples > MAX_VERIFY_SAMPLES:
            raise VerifyConfigError(f"sample_count must be at most {MAX_VERIFY_SAMPLES}")


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
        return {"passed": self.passed, "config": self.config,
                "checks": [asdict(r) for r in self.results]}

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


class CheckFailed(Exception):
    """A check's identity fails: its details line and counterexample payload."""

    def __init__(self, details, counterexample=None):
        super().__init__(details)
        self.details, self.counterexample = details, counterexample


def _timed(name, fixture, run, advisory=False):
    """The CheckResult of run(), which returns its details line when the
    check passes and raises CheckFailed, InvalidCochainError or
    NotRepresentableError when it fails."""
    start = time.perf_counter()
    try:
        passed, details, counter = True, run(), None
    except CheckFailed as exc:
        passed, details, counter = False, exc.details, exc.counterexample
    except (InvalidCochainError, NotRepresentableError) as exc:
        passed, details, counter = False, f"raised {type(exc).__name__}", {"error": str(exc)}
        if isinstance(exc, InvalidCochainError):
            counter["violation"] = _violation(exc.report)
    seconds = round(time.perf_counter() - start, 6)
    return CheckResult(name, fixture, passed, seconds, details, counter, advisory)


def _violation(report):
    """The payload of a validation report's first violation."""
    k, pos, es, fs, lhs, rhs = report.violations[0]
    return _key_payload(k, es, fs, lhs, rhs, position=pos)


def _key_payload(k, es, fs, lhs, rhs, **extra):
    payload = {"component": k, "es": list(es), "fs": list(fs),
               "lhs": lhs.render(), "rhs": rhs.render()}
    payload.update(extra)
    return payload


def first_difference(a, b):
    """First (k, es, fs) key where two same-degree cochains disagree. Equal
    cochains, what almost every check compares, return None at once."""
    if a == b:
        return None
    keys = {(k, es, fs) for cochain in (a, b) for k, es, fs, _ in entries(cochain)}
    for k, es, fs in sorted(keys):
        va, vb = a.value(k, es, fs), b.value(k, es, fs)
        if va != vb:
            return k, es, fs, va, vb
    return None


def require_equal(a, b, details, **extra):
    """CheckFailed(details) located at the first key where the cochains a
    and b differ; `extra` is added to its payload."""
    diff = first_difference(a, b)
    if diff:
        raise CheckFailed(details, _key_payload(*diff, **extra))


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
    degree-0 cochain; lands in the representable subalgebra by construction.
    The products and their sum are taken at the free keys (`free_cup` reads
    only free entries) and expanded once, into a cochain marked valid."""
    if degree == 0:
        return Cochain.constant(random_poly(rng, ctx.zdim))
    terms = []
    for _ in range(rng.randint(1, 2)):
        term = flat_cochain(ctx, random_element(rng, ctx.dim))
        for _ in range(degree - 1):
            term = free_cup(ctx, term, flat_cochain(ctx, random_element(rng, ctx.dim)))
        if rng.random() < 0.5:
            term = free_cup(ctx, Cochain.constant(random_poly(rng, ctx.zdim, max_degree=1)), term)
        terms.append((term, 1))
    return expand(ctx, degree, combine(ctx.zdim, degree, *terms))


# -- the d0-sign mutation --------------------------------------------------------


def d0_sign_mutant(ctx, omega):
    """d with its action term at the first slot, rho(e_0) omega(e_1, ..), negated."""
    first_slot = ((k, (i,) + es, fs, action(ctx, i, val), 1)
                  for k, es, fs, val in entries(omega) for i in range(ctx.dim))
    return combine(ctx.zdim, omega.degree + 1, (coboundary(ctx, omega), 1),
                   (scatter(ctx.zdim, omega.degree + 1, first_slot), -2))


def _differential(mutation):
    return d0_sign_mutant if mutation == "d0-sign" else coboundary


# -- individual checks -----------------------------------------------------------


def check_fixture_validity(ctx, fixture):
    def run():
        report = check_leibniz(ctx.algebra)
        if not report.ok:
            i, j, l, lhs, rhs = report.violations[0]
            raise CheckFailed("Leibniz identity fails", {
                "triple": [i, j, l], "lhs": [rational_text(c) for c in lhs],
                "rhs": [rational_text(c) for c in rhs]})
        expected = EXPECTED_CENTERS.get(fixture)
        zdim = ctx.zdim
        if expected is not None and zdim != expected:
            raise CheckFailed(f"left center has dimension {zdim}, expected {expected}", {
                "z_basis": [[rational_text(c) for c in v] for v in ctx.algebra.z_basis]})
        return f"dim={ctx.dim}, left center dim={zdim}"

    return _timed("fixture_validity", fixture, run)


def _generator_variants(ctx, omega, generators):
    """The basis cochain itself plus its products with each degree-0
    cochain z_r in generators; products of valid cochains are `expand`
    outputs, valid by construction, and the scaled copies actually
    exercise the action terms."""
    yield omega
    for z in generators:
        yield cup(ctx, z, omega)


def check_d_squared(ctx, fixture, max_degree, mutation=None):
    def run():
        d = _differential(mutation)
        generators = [Cochain.constant(SymPoly.generator(ctx.zdim, r)) for r in range(ctx.zdim)]
        checked = 0
        for degree in range(max_degree + 1):
            for seed in cochain_space_basis(ctx, degree):
                for omega in _generator_variants(ctx, seed, generators):
                    once = d(ctx, omega)
                    twice = d(ctx, once)
                    checked += 1
                    require_equal(twice, Cochain.zero(twice.degree, ctx.zdim),
                                  f"d.d != 0 on a degree-{degree} basis cochain",
                                  source_degree=degree)
        return f"{checked} basis cochains up to degree {max_degree}"

    return _timed("d_squared", fixture, run)


def check_dga_axioms(ctx, fixture, rng, samples, total_degree=4):
    """Graded commutativity and the graded Leibniz rule on every pair of
    basis cochains, associativity on sampled triples, compared at the free
    keys: every side is a product or a d output on valid cochains. Only
    the product that d reads is expanded."""

    def run():
        bases = {n: cochain_space_basis(ctx, n) for n in range(total_degree + 1)}
        differentials = {n: [free_coboundary(ctx, omega) for omega in basis]
                         for n, basis in bases.items()}
        pairs = 0
        for n in range(total_degree + 1):
            for m in range(total_degree + 1 - n):
                for omega, d_omega in zip(bases[n], differentials[n]):
                    for eta, d_eta in zip(bases[m], differentials[m]):
                        pairs += 1
                        prod = free_cup(ctx, omega, eta)
                        flipped = free_cup(ctx, eta, omega).scale(-1 if (n * m) % 2 else 1)
                        require_equal(prod, flipped,
                                      f"graded commutativity fails at degrees ({n},{m})")
                        lhs = free_coboundary(ctx, expand(ctx, n + m, prod))
                        rhs = combine(ctx.zdim, n + m + 1, (free_cup(ctx, d_omega, eta), 1),
                                      (free_cup(ctx, omega, d_eta), -1 if n % 2 else 1))
                        require_equal(lhs, rhs, f"graded Leibniz rule fails at degrees ({n},{m})")
        flat_pool = [(n, omega) for n in range(total_degree + 1) for omega in bases[n]]
        for _ in range(samples):
            while True:
                picks = [rng.choice(flat_pool) for _ in range(3)]
                if sum(p[0] for p in picks) <= total_degree:
                    break
            (na, a), (nb, b), (nc, c) = picks
            left = free_cup(ctx, free_cup(ctx, a, b), c)
            right = free_cup(ctx, a, free_cup(ctx, b, c))
            require_equal(left, right, f"associativity fails at degrees ({na},{nb},{nc})")
        return f"{pairs} pairs, {samples} associativity triples"

    return _timed("dga_axioms", fixture, run)


def check_theta_is_dzeta(ctx, fixture, mutation=None):
    def run():
        zeta_cochain = zeta(ctx)
        if mutation == "zeta-sign":  # the tail -2f flipped to 2f
            zeta_cochain = scatter(ctx.zdim, 2, ((k, es, fs, value, -1 if k else 1)
                                                 for k, es, fs, value in entries(zeta_cochain)))
        require_equal(theta(ctx), _differential(mutation)(ctx, zeta_cochain), "theta != d(zeta)")
        require_equal(coboundary(ctx, theta(ctx)), Cochain.zero(4, ctx.zdim), "d(theta) != 0")
        return "theta = d(zeta) and d(theta) = 0"

    return _timed("theta_is_dzeta", fixture, run)


def check_representability_closure(ctx, fixture, rng, samples, max_degree=3):
    """d, cup and poisson of sampled representable cochains are valid and
    representable, checked on the whole outputs.

    All three return `expand` outputs, so the validity half compares
    `expand`'s free-datum walk with `validate_cochain`'s residual walk, two
    readings of weak skew-symmetry. It is kept on purpose: the other
    suites compare free parts, which is sound only because those outputs
    are valid, and this is where the report checks that they are."""

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
                    raise CheckFailed(f"{op} output is not a cochain (sample {index})",
                                      _violation(validity))
                rep = is_representable(ctx, result)
                if not rep.ok:
                    k, prefix, fs = rep.failures[0]
                    raise CheckFailed(f"{op} output is not representable (sample {index})",
                                      {"component": k, "prefix": list(prefix), "fs": list(fs)})
        return f"{samples} samples closed under d, cup, poisson"

    return _timed("representability_closure", fixture, run)


def check_poisson_axioms(ctx, fixture, rng, samples):
    """Graded antisymmetry, the derivation rule and the graded Jacobi
    identity on sampled representable triples, compared at the free keys:
    every side is a bracket or a product of valid cochains. Only the
    operands of a bracket are expanded."""

    def run():
        for index in range(samples):
            n, m, l = (rng.randint(0, 2) for _ in range(3))
            omega = random_representable(ctx, rng, n)
            eta = random_representable(ctx, rng, m)
            lam = random_representable(ctx, rng, l)
            sign_nm = -1 if (n * m) % 2 else 1
            omega_eta = poisson(ctx, omega, eta)
            omega_lam = poisson(ctx, omega, lam)
            require_equal(free_part(omega_eta), free_poisson(ctx, eta, omega).scale(-sign_nm),
                          f"graded antisymmetry fails at degrees ({n},{m})", sample=index)
            lhs = free_poisson(ctx, omega, cup(ctx, eta, lam))
            rhs = combine(ctx.zdim, lhs.degree, (free_cup(ctx, omega_eta, lam), 1),
                          (free_cup(ctx, eta, omega_lam), sign_nm))
            require_equal(lhs, rhs, f"graded derivation fails at degrees ({n},{m},{l})",
                          sample=index)
            lhs = free_poisson(ctx, omega, poisson(ctx, eta, lam))
            rhs = combine(ctx.zdim, lhs.degree, (free_poisson(ctx, omega_eta, lam), 1),
                          (free_poisson(ctx, eta, omega_lam), sign_nm))
            require_equal(lhs, rhs, f"graded Jacobi fails at degrees ({n},{m},{l})",
                          sample=index)
        return f"{samples} sampled triples"

    return _timed("poisson_axioms", fixture, run)


def check_theta_bracket(ctx, fixture, rng, samples):
    """{theta, eta} = -d(eta) on every basis flat and on sampled
    representable cochains, compared at the free keys: both sides are
    outputs of the bracket and of d on valid cochains."""

    def run():
        candidates = [basis_flat(ctx, i) for i in range(ctx.dim)]
        candidates += [random_representable(ctx, rng, rng.randint(0, 2)) for _ in range(samples)]
        for index, eta in enumerate(candidates):
            # a basis flat's left side is the cached value the derived bracket reuses
            lhs = free_part(theta_flat(ctx, index)) if index < ctx.dim \
                else free_poisson(ctx, theta(ctx), eta)
            require_equal(lhs, free_coboundary(ctx, eta).scale(-1),
                          f"{{theta, eta}} != -d(eta) (candidate {index})")
        return f"{len(candidates)} cochains (all flats + samples)"

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
                expected_values = flat(ctx, expected_vec).values
                for t in range(ctx.dim):
                    if dual.values[t] != expected_values[t]:
                        raise CheckFailed(f"flat-level identity fails at pair ({i},{j})", {
                            "pair": [i, j], "slot": t,
                            "lhs": dual.values[t].render(),
                            "rhs": expected_values[t].render()})
                if fat:
                    lifted = sharp(ctx, dual)
                    vec = lifted.as_vector()
                    if vec is None or vec != expected_vec:
                        raise CheckFailed(f"sharp does not recover the product at ({i},{j})", {
                            "pair": [i, j],
                            "lhs": [c.render() for c in lifted.coeffs],
                            "rhs": [rational_text(c) for c in expected_vec]})
        scope = "flat level and sharp" if fat else "flat level (not fat)"
        return f"all {ctx.dim * ctx.dim} basis pairs, {scope}"

    return _timed("derived_bracket", fixture, run)


def check_quotient(fixture="AFF_O1"):
    def run():
        algebra = build_fixture(fixture)
        if algebra.two_sided_center():
            raise CheckFailed("two-sided center is not trivial", {
                "center": [[rational_text(c) for c in v] for v in algebra.two_sided_center()]})
        quotient = quotient_by_kernel(algebra)
        if not quotient.is_fat():
            raise CheckFailed("quotient is not fat")
        reference = build_fixture("O1")
        if quotient.dim != reference.dim or quotient.table != reference.table:
            raise CheckFailed("quotient table differs from the expected block", {
                "labels": list(quotient.labels)})
        return f"kernel dim {len(algebra.kernel_basis)}, quotient matches O1"

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
                result = poisson(ctx, basis_flat(ctx, i), basis_flat(ctx, j))
                direct = alg.z_coords(
                    tuple(a + b for a, b in zip(alg.bracket(ei, ej), alg.bracket(ej, ei))))
                oracle = SymPoly(ctx.zdim, {(r,): c for r, c in enumerate(direct) if c != 0})
                got = result.value(0, (), ())
                if got != oracle or result != Cochain.constant(oracle):
                    raise CheckFailed(f"{{flat,flat}} mismatch at ({i},{j})", {
                        "pair": [i, j], "lhs": got.render(), "rhs": oracle.render()})
        return f"all {ctx.dim * ctx.dim} basis pairs match the structure oracle"

    return _timed("oracle_pairing", fixture, run)


def check_choice_independence(ctx, fixture, rng, samples):
    """Advisory: compare bracket values under the two pivot strategies,
    `ctx` (the run's "first" context) against a new "last" one.

    Reported, never asserted: on algebras with a degenerate symmetric
    product the section is not unique and nothing guarantees agreement.
    Brackets are compared at the free keys: both are brackets of valid
    cochains, so they differ exactly when their free parts do.
    """

    def run():
        last = ComplexContext(ctx.algebra, pivot_strategy="last")
        disagreements = 0
        for _ in range(samples):
            omega = random_representable(ctx, rng, rng.randint(0, 2))
            eta = random_representable(ctx, rng, rng.randint(0, 2))
            if first_difference(free_poisson(ctx, theta(ctx), omega),
                                free_poisson(last, theta(last), omega)):
                disagreements += 1
            if first_difference(free_poisson(ctx, omega, eta), free_poisson(last, omega, eta)):
                disagreements += 1
        return "identical under both pivot strategies" if not disagreements \
            else f"{disagreements} value differences between pivot strategies"

    return _timed("bracket_choice_independence", fixture, run, advisory=True)


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
                ctx, fixture, Random(config.seed + 4), max(1, config.samples // 5)))
        report.results.append(check_derived_bracket(ctx, fixture))
        report.results.append(check_oracle_pairing(ctx, fixture))
        if fixture == "AFF_O1":
            report.results.append(check_quotient(fixture))
    return report
