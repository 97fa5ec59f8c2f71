"""Per-layer tracing from outside the package.

`install(tracer, lc)` replaces the package's public functions with
wrappers that time or count each call. A function imported elsewhere
with `from .x import y` is bound in several module namespaces, so the
wrapper goes into every package module that bound the original object,
not only the defining one. Methods are wrapped on their class.

Three kinds of wrapper:

  span   timed, recorded as a span (name, start, end, parent) in memory;
  leaf   timed and counted, not recorded one by one: these run hundreds
         of thousands of times, so they are aggregated;
  count  counted only (the call is too cheap to time without distorting it).

Self time is a call's duration minus the time covered by the timed calls
nested in it. The tracer never changes arguments or results.
"""

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

# The per-layer metrics a traced run reports, with their units, in the
# order BENCHMARK.json lists them. `<module>.<function>.<what>`.
_OPERATOR_METRICS = (("calls", "count"), ("self_s", "s"), ("keys", "count"),
                     ("out_nnz", "count"), ("nnz_per_key", "ratio"))
VERIFY_CHECKS = ("fixture_validity", "d_squared", "dga_axioms", "theta_is_dzeta",
                 "representability_closure", "poisson_axioms", "theta_bracket",
                 "bracket_choice_independence", "derived_bracket", "oracle_pairing",
                 "quotient_proposition")
PER_LAYER = (
    [(f"cochains.cup.{m}", u) for m, u in _OPERATOR_METRICS]
    + [(f"cochains.coboundary.{m}", u) for m, u in _OPERATOR_METRICS]
    + [("cochains.validate_cochain.calls", "count"), ("cochains.validate_cochain.self_s", "s"),
       ("cochains.value.calls", "count"), ("cochains.value.miss_frac", "ratio"),
       ("cochains.cochain_space_basis.calls", "count"),
       ("cochains.cochain_space_basis.self_s", "s"),
       ("cochains.cochain_space_basis.cols", "count"),
       ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
       ("linalg.rref.cells", "count"), ("linalg.rref.nnz_frac", "ratio"),
       ("linalg.LinearSolver.build_calls", "count"), ("linalg.LinearSolver.build_s", "s"),
       ("linalg.LinearSolver.solve_calls", "count"), ("linalg.LinearSolver.solve_s", "s"),
       ("duality.PhiSection.solve.calls", "count"), ("duality.PhiSection.solve.self_s", "s"),
       ("duality.tilde_value.calls", "count"), ("duality.tilde_value.hit_frac", "ratio"),
       ("duality.is_representable.calls", "count"),
       ("duality.is_representable.self_s", "s"),
       ("duality.tilde.cache_size", "count")]
    + [(f"brackets.{op}.{m}", u) for op in ("bullet", "diamond")
       for m, u in (("calls", "count"), ("self_s", "s"), ("keys", "count"))]
    + [("brackets.poisson.calls", "count"), ("brackets.poisson.self_s", "s"),
       ("brackets.derived_bracket.calls", "count"), ("brackets.derived_bracket.self_s", "s"),
       ("sympoly.SymPoly.__mul__.calls", "count"), ("sympoly.SymPoly.__mul__.s", "s"),
       ("sympoly.derivation_extend.calls", "count"), ("sympoly.derivation_extend.s", "s"),
       ("algebra.LeibnizAlgebra.build_s", "s")]
    + [(f"verify.{check}.s", "s") for check in VERIFY_CHECKS]
    + [("cli.main.self_s", "s"), ("trace.overhead_frac", "ratio")]
)

# For each traced function, a metric that is nonzero once it was called,
# and the workloads that must call it; the benchmark's tests hold every
# traced run to this.
EXPECTED_CALLS = {
    "cochains.cup.calls": ("verify-default", "omni3-theta"),
    "cochains.coboundary.calls": ("verify-default", "omni3-theta"),
    "cochains.validate_cochain.calls": ("verify-default", "omni3-theta", "space-basis"),
    "cochains.value.calls": ("verify-default", "omni3-theta"),
    "cochains.cochain_space_basis.calls": ("verify-default", "space-basis"),
    "linalg.rref.calls": ("verify-default", "space-basis"),
    "linalg.LinearSolver.build_calls": ("verify-default", "omni3-theta"),
    "linalg.LinearSolver.solve_calls": ("verify-default", "omni3-theta"),
    "duality.PhiSection.solve.calls": ("verify-default", "omni3-theta"),
    "duality.tilde_value.calls": ("verify-default", "omni3-theta"),
    "duality.is_representable.calls": ("verify-default", "omni3-theta"),
    "duality.tilde.cache_size": ("omni3-theta",),
    "brackets.bullet.calls": ("verify-default", "omni3-theta"),
    "brackets.diamond.calls": ("verify-default", "omni3-theta"),
    "brackets.poisson.calls": ("verify-default", "omni3-theta"),
    "brackets.derived_bracket.calls": ("omni3-theta",),
    "sympoly.SymPoly.__mul__.calls": ("verify-default", "omni3-theta"),
    "sympoly.derivation_extend.calls": ("verify-default", "omni3-theta"),
    "algebra.LeibnizAlgebra.build_s": ("verify-default", "omni3-theta", "space-basis"),
    "cli.main.self_s": ("verify-default",),
}


def multisets(zdim, k):
    """Number of size-k multisets over zdim center generators."""
    return 1 if k == 0 else comb(zdim + k - 1, k)


def key_count(dim, zdim, degree):
    """Basis keys (es, fs) of a degree-`degree` cochain over all components:
    the output keys a dense loop over that degree visits."""
    if degree < 0:
        return 0
    return sum(dim ** (degree - 2 * k) * multisets(zdim, k) for k in range(degree // 2 + 1))


def entries(cochain):
    return sum(len(table) for table in cochain.components.values())


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Spans and per-function totals for one traced run."""

    def __init__(self):
        self.origin = perf_counter()
        self.names = []
        self._name_ids = {}
        self.spans = []    # [name_id, start, end, parent span index or -1]
        self._stack = []   # open timed calls: [start, child_s, span index or inherited]
        self.stats = {}

    def stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, args, kwargs, record=True):
        """Run fn(*args, **kwargs) as a timed call named `name`."""
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        if record:
            span = len(self.spans)
            self.spans.append([self._name_id(name), 0.0, 0.0, parent])
        else:
            span = parent
        frame = [perf_counter(), 0.0, span]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[0]
            stat = self.stat(name)
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if record:
                self.spans[span][1] = frame[0] - self.origin
                self.spans[span][2] = end - self.origin

    def span(self, name, fn, *args):
        """Time a block of the benchmark itself (set-up, the run) as a span."""
        return self.call(name, fn, args, {})

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# -- wrappers ------------------------------------------------------------------


def _span(tracer, name, fn, count=None, record=True):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, record)
        if count is not None:
            count(tracer.stat(name).counts, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_value(tracer, fn):
    stat = tracer.stat("cochains.value")

    def value(self, k, es, fs):
        result = fn(self, k, es, fs)
        stat.calls += 1
        if result.is_zero():
            stat.counts["misses"] += 1
        return result

    value.__wrapped__ = fn
    return value


def _count_tilde_value(tracer, fn):
    stat = tracer.stat("duality.tilde_value")

    def tilde_value(ctx, omega, k, prefix, fs):
        before = len(ctx.cache.get("tilde", ()))
        result = fn(ctx, omega, k, prefix, fs)
        stat.calls += 1
        if len(ctx.cache.get("tilde", ())) == before:
            stat.counts["hits"] += 1
        return result

    tilde_value.__wrapped__ = fn
    return tilde_value


def _operator_counts(degree_of):
    def count(counts, args, result):
        ctx = args[0]
        counts["keys"] += key_count(ctx.dim, ctx.zdim, degree_of(args))
        counts["out_nnz"] += entries(result)
    return count


def _bracket_keys(counts, args, result):
    ctx, omega, eta = args[:3]
    total = omega.degree + eta.degree - 2
    counts["keys"] += key_count(ctx.dim, ctx.zdim, total)


def _basis_cols(counts, args, result):
    ctx, degree = args[:2]
    counts["cols"] += key_count(ctx.dim, ctx.zdim, degree)


def _rref_cells(counts, args, result):
    matrix = args[0]
    counts["cells"] += sum(len(row) for row in matrix)
    counts["nnz"] += sum(1 for row in matrix for v in row if v != 0)


def _targets(tracer, lc):
    """(owner, attribute, wrapper factory) for every traced function."""
    span = lambda name, **kw: (lambda fn: _span(tracer, name, fn, **kw))
    leaf = lambda name: (lambda fn: _span(tracer, name, fn, record=False))
    return [
        (lc.cochains, "cup",
         span("cochains.cup", count=_operator_counts(lambda a: a[1].degree + a[2].degree))),
        (lc.cochains, "coboundary",
         span("cochains.coboundary", count=_operator_counts(lambda a: a[1].degree + 1))),
        (lc.cochains, "validate_cochain", span("cochains.validate_cochain")),
        (lc.cochains.Cochain, "value", lambda fn: _count_value(tracer, fn)),
        (lc.cochains, "cochain_space_basis",
         span("cochains.cochain_space_basis", count=_basis_cols)),
        (lc.linalg, "rref", span("linalg.rref", count=_rref_cells)),
        (lc.linalg.LinearSolver, "__init__", span("linalg.LinearSolver.build")),
        (lc.linalg.LinearSolver, "solve", span("linalg.LinearSolver.solve")),
        (lc.duality.PhiSection, "solve", span("duality.PhiSection.solve")),
        (lc.duality, "tilde_value", lambda fn: _count_tilde_value(tracer, fn)),
        (lc.duality, "is_representable", span("duality.is_representable")),
        (lc.brackets, "bullet", span("brackets.bullet", count=_bracket_keys)),
        (lc.brackets, "diamond", span("brackets.diamond", count=_bracket_keys)),
        (lc.brackets, "poisson", span("brackets.poisson")),
        (lc.brackets, "derived_bracket", span("brackets.derived_bracket")),
        (lc.sympoly.SymPoly, "__mul__", leaf("sympoly.SymPoly.__mul__")),
        (lc.sympoly, "derivation_extend", leaf("sympoly.derivation_extend")),
        (lc.algebra.LeibnizAlgebra, "__init__", span("algebra.LeibnizAlgebra.build")),
        (lc.cli, "main", span("cli.main")),
    ]


def install(tracer, lc):
    """Wrap every traced function in every package namespace that binds it.

    Returns {original function: wrapper}.
    """
    package = lc.package.__name__
    modules = [m for name, m in sorted(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    installed = {}
    for owner, attr, factory in _targets(tracer, lc):
        original = vars(owner)[attr]
        wrapper = factory(original)
        installed[original] = wrapper
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    return installed


# -- metrics -------------------------------------------------------------------


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, outcome, overhead_frac):
    """The PER_LAYER metrics of one traced run, by name."""
    s = tracer.stat
    m = {}
    for op in ("cup", "coboundary"):
        st = s(f"cochains.{op}")
        m.update({f"cochains.{op}.calls": st.calls, f"cochains.{op}.self_s": st.self_s,
                  f"cochains.{op}.keys": st.counts["keys"],
                  f"cochains.{op}.out_nnz": st.counts["out_nnz"],
                  f"cochains.{op}.nnz_per_key": _ratio(st.counts["out_nnz"], st.counts["keys"])})
    for name in ("cochains.validate_cochain", "cochains.cochain_space_basis", "linalg.rref",
                 "duality.PhiSection.solve", "duality.is_representable", "brackets.bullet",
                 "brackets.diamond", "brackets.poisson", "brackets.derived_bracket"):
        m[f"{name}.calls"] = s(name).calls
        m[f"{name}.self_s"] = s(name).self_s
    value = s("cochains.value")
    m["cochains.value.calls"] = value.calls
    m["cochains.value.miss_frac"] = _ratio(value.counts["misses"], value.calls)
    m["cochains.cochain_space_basis.cols"] = s("cochains.cochain_space_basis").counts["cols"]
    rref = s("linalg.rref")
    m["linalg.rref.cells"] = rref.counts["cells"]
    m["linalg.rref.nnz_frac"] = _ratio(rref.counts["nnz"], rref.counts["cells"])
    for what in ("build", "solve"):
        st = s(f"linalg.LinearSolver.{what}")
        m[f"linalg.LinearSolver.{what}_calls"] = st.calls
        m[f"linalg.LinearSolver.{what}_s"] = st.total_s
    tilde = s("duality.tilde_value")
    m["duality.tilde_value.calls"] = tilde.calls
    m["duality.tilde_value.hit_frac"] = _ratio(tilde.counts["hits"], tilde.calls)
    m["duality.tilde.cache_size"] = sum(len(ctx.cache.get("tilde", ()))
                                        for ctx in outcome.contexts)
    for op in ("bullet", "diamond"):
        m[f"brackets.{op}.keys"] = s(f"brackets.{op}").counts["keys"]
    for name in ("sympoly.SymPoly.__mul__", "sympoly.derivation_extend"):
        m[f"{name}.calls"] = s(name).calls
        m[f"{name}.s"] = s(name).total_s
    m["algebra.LeibnizAlgebra.build_s"] = s("algebra.LeibnizAlgebra.build").total_s
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = outcome.check_seconds.get(check, 0.0)
    m["cli.main.self_s"] = s("cli.main").self_s
    m["trace.overhead_frac"] = overhead_frac
    units = dict(PER_LAYER)
    return {name: {"value": m[name], "unit": units[name]} for name, _ in PER_LAYER}
