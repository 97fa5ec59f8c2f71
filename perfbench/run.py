"""Benchmark for leibniz-complex: exact-arithmetic workloads, timed end to
end and, in a separate traced run, per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload omni3-theta --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

One process, no threads, a closed loop with one caller. The package is
imported from this checkout's `src/`. A run repeats (fresh import, set-up,
workload) while the next pass is expected to end within `--seconds`, at
least twice, and reports medians. Times are host-normalised (see
hostclock.py): each stretch of work is scaled by the speed a reference
kernel measured next to it, so that the figures follow the code and not
the shared host's load. Every result is checked by exact equality; a
check that fails or raises counts in `failed`.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload
once untraced and once with the package's functions wrapped (see
tracing.py), prints the per-layer metrics, writes the spans to
perfbench/out/, and fails the run if the two passes computed different
outputs or verdicts. `--workload all` runs every workload in its own
process, one after the other, and prints one table.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the full
record: seed, environment, workload sizes, output digest and
failed_frac.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import tracing
from hostclock import HostClock
from workloads import WORKLOADS, Outcome, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "leibniz_complex"
MODULES = ("algebra", "brackets", "cli", "cochains", "duality", "linalg", "sympoly", "verify")
SETUP_REPS = 9  # set-up is short, so its median is taken over at least this many
MIN_PASSES = 2  # so that a pass the host disturbed is never a run's only figure

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p90_ms", "ms"))


class SourceMissing(RuntimeError):
    """The checkout holds no importable package source."""


def load_package():
    """Import the package afresh from this checkout's src/.

    Returns a namespace of its modules. Earlier imports are dropped first,
    so the import is timed in full and wrappers from a traced pass are gone.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SourceMissing(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, **modules)


def set_up(workload, seed, tracer=None):
    """Import, then build the workload's inputs; returns (lc, state, span)."""
    gc.collect()
    start = perf_counter()
    lc = load_package()
    if tracer is None:
        state = workload.setup(lc, seed)
    else:
        tracing.install(tracer, lc)
        state = tracer.span("setup", workload.setup, lc, seed)
    return lc, state, (start, perf_counter())


def run_once(workload, lc, state, tracer=None):
    """One pass of the workload; returns (outcome, span up to the verdict)."""
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(lc, state)
        else:
            outcome = tracer.span("run", workload.run, lc, state)
    except Exception:  # the run itself broke: report it as a failure, not a crash
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(attempted=1, failed=1, failures=["workload raised"])
    return outcome, (start, perf_counter())


def digest(lc, outcome):
    h = hashlib.sha256()
    for label, value in outcome.outputs:
        h.update(f"{label}\0{render(lc, value)}\n".encode())
    return h.hexdigest()


def measure(workload, seed, seconds):
    """End-to-end metrics, with tracing off, in host-normalised time."""
    setups, raw_setups, speeds = [], [], []
    for _ in range(SETUP_REPS - 1):
        with HostClock() as clock:
            span = set_up(workload, seed)[2]
        setups.append(clock.seconds(*span))
        raw_setups.append(clock.raw_seconds(*span))
    walls, raw_walls, queries, failures, digests = [], [], [], [], set()
    attempted = failed = 0
    start = perf_counter()
    while True:
        with HostClock() as clock:
            lc, state, setup_span = set_up(workload, seed)
            outcome, run_span = run_once(workload, lc, state)
        setups.append(clock.seconds(*setup_span))
        raw_setups.append(clock.raw_seconds(*setup_span))
        if not walls:  # later passes may add heap growth; their number varies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(clock.seconds(*run_span))
        raw_walls.append(clock.raw_seconds(*run_span))
        speeds.append(clock.speed())
        queries += [clock.seconds(*q) * 1000 for q in outcome.query_spans]
        attempted += outcome.attempted
        failed += outcome.failed
        failures += outcome.failures
        digests.add(digest(lc, outcome))
        del lc, state, outcome
        if (len(walls) >= MIN_PASSES
                and perf_counter() - start + (run_span[1] - setup_span[0]) > seconds):
            break
    # a pass that raised has no query times; fall back to its wall time
    queries = sorted(queries) or sorted(w * 1000 for w in walls)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": statistics.median(queries),
        "query_p90_ms": percentile(queries, 0.9),
    }
    detail = {"passes": len(walls), "wall_s_all": walls, "raw_wall_s_all": raw_walls,
              "setup_reps": len(setups), "raw_setup_s": statistics.median(raw_setups),
              "host_speed_all": speeds, "queries": len(queries),
              "digests": sorted(digests), "failures": failures}
    correct = failed == 0 and len(digests) == 1
    return correct, attempted, failed, metric_dict(values, END_TO_END), detail


def measure_traced(workload, seed):
    """Per-layer metrics: one untraced pass, then one traced pass (wall-clock time)."""
    lc, state, _ = set_up(workload, seed)
    reference, (start, end) = run_once(workload, lc, state)
    reference_wall = end - start
    reference_digest = digest(lc, reference)
    del lc, state
    tracer = tracing.Tracer()
    lc, state, _ = set_up(workload, seed, tracer)
    outcome, (start, end) = run_once(workload, lc, state, tracer)
    wall = end - start
    traced_digest = digest(lc, outcome)
    same = (traced_digest == reference_digest
            and (outcome.attempted, outcome.failed, outcome.failures)
            == (reference.attempted, reference.failed, reference.failures))
    metrics = tracing.layer_metrics(tracer, outcome, wall / reference_wall - 1)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)
    detail = {"untraced_wall_s": reference_wall, "traced_wall_s": wall,
              "digests": sorted({reference_digest, traced_digest}),
              "traced_equals_untraced": same, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "failures": outcome.failures}
    correct = same and outcome.failed == 0
    return correct, outcome.attempted, outcome.failed, metrics, detail


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def metric_dict(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def environment():
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": _git_commit()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(args):
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(load_package())
    if args.trace:
        correct, attempted, failed, metrics, detail = measure_traced(workload, args.seed)
    else:
        correct, attempted, failed, metrics, detail = measure(workload, args.seed, args.seconds)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
              "environment": environment(), "failed_frac": failed / attempted,
              **detail}
    print(f"# {workload.name} seed={args.seed} trace={args.trace} correct={correct} "
          f"failed_frac={failed / attempted} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process of its own, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"# {name} correct={result['correct']} failed_frac={record['failed_frac']} "
              f"({result['failed']}/{result['attempted']}) digest={record['digests'][0]}")
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} {value['value']} {value['unit']}")
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
