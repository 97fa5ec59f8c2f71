"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The traced-run tests run each workload twice (untraced and traced), so
this file takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import pytest

import hostclock
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_runs_report():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert len({name for name, _ in tracing.PER_LAYER}) == len(tracing.PER_LAYER)


def test_host_clock_scales_each_stretch_and_leaves_out_the_samples():
    clock = hostclock.HostClock()
    nominal = hostclock.NOMINAL_S
    # samples at [0,1], [3,4], [6,7]; the host runs at half speed from the second on
    clock.samples = [(0.0, 1.0, nominal), (3.0, 4.0, 2 * nominal), (6.0, 7.0, 2 * nominal)]
    assert clock.raw_seconds(1.0, 6.0) == 4.0
    # stretch 1..3 at a mean kernel time of 1.5 nominal, stretch 4..6 at 2 nominal
    assert clock.seconds(1.0, 6.0) == pytest.approx(2 / 1.5 + 2 / 2)
    assert clock.seconds(3.5, 5.0) == pytest.approx(0.5)  # starts inside a sample
    with pytest.raises(ValueError):
        clock.seconds(0.5, 2.0)


def test_host_clock_samples_while_the_caller_computes():
    with hostclock.HostClock() as clock:
        start = perf_counter()
        while perf_counter() - start < 3 * hostclock.INTERVAL_S:
            sum(i * i for i in range(1000))
        end = perf_counter()
    assert len(clock.samples) >= 3  # start, at least one alarm, stop
    assert 0 < clock.raw_seconds(start, end) < end - start
    assert clock.seconds(start, end) > 0 and clock.speed() > 0


def test_key_count_matches_the_dense_enumeration():
    for name in ("A3", "O2", "AFF_O1"):
        lc = run.load_package()
        ctx = lc.cochains.ComplexContext(lc.algebra.build_fixture(name))
        for degree in range(5):
            enumerated = sum(1 for k in range(degree // 2 + 1)
                             for _ in lc.cochains.component_keys(ctx, degree, k))
            assert tracing.key_count(ctx.dim, ctx.zdim, degree) == enumerated
    assert tracing.key_count(12, 3, 4) == 12 ** 4 + 12 ** 2 * 3 + 6
    assert tracing.multisets(3, 2) == len(list(combinations_with_replacement(range(3), 2)))


def test_wrappers_replace_every_binding_of_a_traced_function():
    lc = run.load_package()
    modules = [m for n, m in sys.modules.items()
               if n == "leibniz_complex" or n.startswith("leibniz_complex.")]
    installed = tracing.install(tracing.Tracer(), lc)
    for original, wrapper in installed.items():
        for module in modules:
            assert all(value is not original for value in vars(module).values()), \
                (module.__name__, original.__qualname__)
    # names imported with `from .x import y` now resolve to the wrapper
    assert lc.verify.cup is lc.cochains.cup is lc.package.cup
    assert lc.verify.coboundary is lc.cochains.coboundary is lc.cli.coboundary
    assert lc.brackets.tilde_value is lc.duality.tilde_value
    assert lc.verify.cochain_space_basis is lc.cochains.cochain_space_basis
    assert lc.cochains.cup.__wrapped__ in installed


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, seed 0."""
    return {name: run.measure_traced(workload, 0) for name, workload in WORKLOADS.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_is_correct_and_reports_every_per_layer_metric(traced, workload):
    correct, attempted, failed, metrics, detail = traced[workload]
    assert correct and failed == 0 and attempted > 0
    assert detail["traced_equals_untraced"]
    assert len(set(detail["digests"])) == 1
    assert [(n, m["unit"]) for n, m in metrics.items()] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_mapped_functions_record_calls(traced, workload):
    metrics = traced[workload][3]
    for metric, workloads in tracing.EXPECTED_CALLS.items():
        if workload in workloads:
            assert metrics[metric]["value"] > 0, metric
    if workload == "omni3-theta":
        assert metrics["cochains.coboundary.keys"]["value"] > 0
        assert metrics["brackets.bullet.keys"]["value"] > 0
    if workload == "space-basis":
        assert metrics["cochains.cochain_space_basis.cols"]["value"] > 0
        assert metrics["linalg.rref.cells"]["value"] > 0
    if workload == "verify-default":
        assert metrics["cochains.cup.keys"]["value"] > 0
        for check in tracing.VERIFY_CHECKS:
            assert metrics[f"verify.{check}.s"]["value"] > 0, check


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "space-basis", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
