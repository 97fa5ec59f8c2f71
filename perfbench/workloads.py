"""The benchmark's workloads: batch jobs that each end in a verdict.

A workload has three parts:

  setup(lc, seed)  builds its inputs (fixtures, contexts, canonical
                   cochains); the runner times it as set-up.
  run(lc, state)   computes every result, checks each one by exact
                   equality and returns an Outcome; the runner times it
                   as the time to the verdict.
  sizes(lc)        the input sizes recorded next to every result.

`lc` is a namespace holding the package's modules. Every package
function is reached through it at call time (`lc.cochains.cup(...)`),
never bound to a local name, so wrappers the tracer installs on those
modules see every call the workload makes.

Outputs are rendered for the digest only after the timed region ends.
"""

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from time import perf_counter


@dataclass
class Outcome:
    """What one run of a workload computed and decided."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)    # one line per failed check
    outputs: list = field(default_factory=list)     # (label, value) pairs for the digest
    query_spans: list = field(default_factory=list)  # (start, end) perf_counter of each query
    check_seconds: dict = field(default_factory=dict)  # verify check name -> seconds
    contexts: list = field(default_factory=list)    # ComplexContexts whose caches the run used

    def check(self, label, fn):
        """Run one identity check; `fn` returns (holds, output)."""
        self.attempted += 1
        try:
            holds, output = fn()
        except Exception:  # a raising check is a failed check; keep going
            holds, output = False, None
            traceback.print_exc(file=sys.stderr)
        self.outputs.append((label, output))
        if not holds:
            self.failed += 1
            self.failures.append(label)


def render(lc, value):
    """Canonical text of an output, for the digest."""
    if isinstance(value, lc.cochains.Cochain):
        return json.dumps(lc.cochains.cochain_to_dict(value), sort_keys=True)
    if isinstance(value, list):
        return "[" + ",".join(render(lc, v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return json.dumps(value, sort_keys=True)


class VerifyDefault:
    name = "verify-default"
    why = ("leibcx verify with its defaults, in-process: small dense cochains, "
           "time goes to cup and d on dim <= 6")

    def sizes(self, lc):
        config = lc.verify.VerifyConfig()
        return {"fixtures": _fixture_sizes(lc, config.fixtures),
                "max_degree": config.max_degree, "samples": config.samples}

    def setup(self, lc, seed):
        # `leibcx verify` builds its own contexts inside the timed run; these
        # are built so that set-up covers fixture and context construction
        contexts = [lc.cochains.ComplexContext(lc.algebra.build_fixture(name))
                    for name in lc.verify.VerifyConfig().fixtures]
        return {"seed": seed, "contexts": contexts}

    def run(self, lc, state):
        out = Outcome()
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = lc.cli.main(["verify", "--seed", str(state["seed"]), "--format", "json"])
        out.query_spans.append((start, perf_counter()))
        report = json.loads(stdout.getvalue())
        for check in report["checks"]:
            seconds = check.pop("seconds")
            out.check_seconds[check["name"]] = out.check_seconds.get(check["name"], 0.0) + seconds
            if check["advisory"]:
                continue
            out.attempted += 1
            if not check["passed"]:
                out.failed += 1
                out.failures.append(f"{check['name']}[{check['fixture']}]")
        out.attempted += 1
        if code != 0:
            out.failed += 1
            out.failures.append(f"leibcx verify exited with {code}")
        out.outputs.append(("report", report))
        return out


class Omni3Theta:
    name = "omni3-theta"
    why = ("Theta, {Theta,-} = -d and the derived bracket on omni(3), dim 12: "
           "large sparse inputs, dim^degree dense loops")
    fixture = "omni(3)"
    representable_samples = 3

    def sizes(self, lc):
        fixtures = _fixture_sizes(lc, (self.fixture,))
        return {"fixtures": fixtures, "bracket_pairs": fixtures[self.fixture]["dim"] ** 2,
                "eta_degree": 2, "eta_samples": self.representable_samples}

    def setup(self, lc, seed):
        alg = lc.algebra.build_fixture(self.fixture)
        ctx = lc.cochains.ComplexContext(alg)
        return {
            "rng": Random(seed), "ctx": ctx,
            "theta": lc.brackets.theta(ctx), "zeta": lc.brackets.zeta(ctx),
            "flats": [lc.duality.flat_cochain(ctx, lc.algebra.basis_vec(alg.dim, i))
                      for i in range(alg.dim)],
        }

    def run(self, lc, state):
        out = Outcome()
        ctx, theta, zeta, flats = state["ctx"], state["theta"], state["zeta"], state["flats"]
        rng, alg, dim = state["rng"], ctx.algebra, ctx.dim
        out.contexts.append(ctx)

        def theta_is_dzeta():
            d_zeta = lc.cochains.coboundary(ctx, zeta)
            return d_zeta == theta, d_zeta

        def d_theta_zero():
            d_theta = lc.cochains.coboundary(ctx, theta)
            return d_theta.is_zero(), d_theta

        out.check("theta=d(zeta)", theta_is_dzeta)
        out.check("d(theta)=0", d_theta_zero)
        for i, flat in enumerate(flats):
            out.check(f"{{theta,flat_{i}}}=-d(flat_{i})",
                      lambda flat=flat: _equal(lc.brackets.poisson(ctx, theta, flat),
                                               -lc.cochains.coboundary(ctx, flat)))
        for i in range(dim):
            for j in range(dim):
                ei, ej = lc.algebra.basis_vec(dim, i), lc.algebra.basis_vec(dim, j)

                def bracket():
                    start = perf_counter()
                    vec = lc.brackets.derived_bracket(ctx, ei, ej)
                    out.query_spans.append((start, perf_counter()))
                    return vec == alg.bracket(ei, ej), vec

                out.check(f"derived_bracket({i},{j})", bracket)
        i = rng.randrange(dim)

        def graded_leibniz():
            flat = flats[i]
            lhs = lc.cochains.coboundary(ctx, lc.cochains.cup(ctx, zeta, flat))
            rhs = lc.cochains.cup(ctx, theta, flat) + \
                lc.cochains.cup(ctx, zeta, lc.cochains.coboundary(ctx, flat))
            return lhs == rhs, lhs

        out.check(f"d(zeta.flat_{i})=theta.flat_{i}+zeta.d(flat_{i})", graded_leibniz)
        for sample in range(self.representable_samples):
            eta = self.representable(lc, ctx, rng)
            out.check(f"eta_{sample} representable",
                      lambda eta=eta: (lc.duality.is_representable(ctx, eta).ok, eta))
            out.check(f"{{theta,eta_{sample}}}=-d(eta_{sample})",
                      lambda eta=eta: _equal(lc.brackets.poisson(ctx, theta, eta),
                                             -lc.cochains.coboundary(ctx, eta)))
        return out

    @staticmethod
    def representable(lc, ctx, rng):
        """A degree-2 representable cochain of one fixed shape, with seeded entries.

        p.(flat(a) cup flat(b)) + flat(c) cup flat(d), with a..d drawn by
        verify.random_element and p = r + s.z_k in S(Z): one of the shapes
        verify.random_representable draws from (it also draws the number of
        terms and whether each is scaled, which changes the work per seed
        by half). Fixing the shape gives every seed the same amount of work.
        """
        def flat():
            return lc.duality.flat_cochain(ctx, lc.verify.random_element(rng, ctx.dim))

        coeffs = (-2, -1, 1, 2)
        p = lc.sympoly.SymPoly(ctx.zdim, {(): Fraction(rng.choice(coeffs)),
                                          (rng.randrange(ctx.zdim),): Fraction(rng.choice(coeffs), 2)})
        scaled = lc.cochains.cup(ctx, lc.cochains.Cochain.constant(p),
                                 lc.cochains.cup(ctx, flat(), flat()))
        return scaled + lc.cochains.cup(ctx, flat(), flat())


class SpaceBasis:
    name = "space-basis"
    why = ("cochain_space_basis over every fixture and degree: exact dense RREF "
           "dominates; no d, cup or bracket runs")
    # fixture -> {degree: dimension of the space of valid scalar cochains},
    # recorded from the package; a different count is a failed check
    expected = {
        "A3": {0: 1, 1: 3, 2: 6, 3: 10, 4: 15, 5: 21},
        "O1": {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2},
        "AFF_O1": {0: 1, 1: 4, 2: 7, 3: 8, 4: 8},
        "O2": {0: 1, 1: 6, 2: 17, 3: 32},
        "omni(3)": {0: 1, 1: 12, 2: 69},
    }

    def sizes(self, lc):
        return {"fixtures": _fixture_sizes(lc, tuple(self.expected)),
                "degrees": {name: max(degrees) for name, degrees in self.expected.items()}}

    def setup(self, lc, seed):
        return {name: lc.cochains.ComplexContext(lc.algebra.build_fixture(name))
                for name in self.expected}

    def run(self, lc, state):
        # A query is one fixture: its bases for every degree, each checked.
        # Single calls run from 0.05 ms to seconds, and the median call
        # (about 1.4 ms) varied by a fifth from one pass to the next.
        out = Outcome()
        for name, degrees in self.expected.items():
            ctx = state[name]
            start = perf_counter()
            for degree, size in degrees.items():

                def basis():
                    vectors = lc.cochains.cochain_space_basis(ctx, degree)
                    holds = len(vectors) == size and all(
                        lc.cochains.validate_cochain(ctx, v).ok for v in vectors)
                    return holds, vectors

                out.check(f"basis[{name}:{degree}]", basis)
            out.query_spans.append((start, perf_counter()))
        return out


def _equal(lhs, rhs):
    return lhs == rhs, lhs


def _fixture_sizes(lc, names):
    sizes = {}
    for name in names:
        alg = lc.algebra.build_fixture(name)
        sizes[name] = {"dim": alg.dim, "zdim": alg.zdim}
    return sizes


WORKLOADS = {w.name: w for w in (VerifyDefault(), Omni3Theta(), SpaceBasis())}
