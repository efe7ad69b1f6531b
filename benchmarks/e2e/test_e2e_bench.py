"""Tests of the end-to-end benchmark itself (smoke presets, seconds each).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_preset_prints_every_metric_with_no_failures(workload, trace):
    child = _run("--workload", workload, "--preset", "smoke", "--seconds",
                 "0.5", "--seed", "3", "--trace", str(trace))
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert any(line.startswith(f"{workload} {metric['name']} = ") and
                   line.endswith(f" {metric['unit']}") for line in lines)
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_declared_metrics_match_the_workloads():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        list(workloads.E2E_METRICS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        list(workloads.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "history.jsonl"))
    child = _run("--workload", "serve-mlp", "--preset", "smoke",
                 cwd=tmp_path)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout


def test_layer_trace_restores_every_owner_kind():
    module = types.ModuleType("fake")
    module.function = lambda x: x + 1

    class Base:
        def method(self, x):
            return x * 2

    class Child(Base):
        pass

    instance = Child()
    originals = (module.function, Base.__dict__["method"])
    trace = LayerTrace()
    trace.wrap(module, "function", "f")
    trace.wrap(Child, "method", "m")
    trace.wrap(instance, "method", "i")
    assert module.function(1) == 2 and instance.method(3) == 6
    stats = trace.stats()
    assert stats["f"]["calls"] == 1 and stats["i"]["calls"] == 1
    # The instance wrapper calls the class wrapper: a nested span.
    assert stats["m"]["calls"] == 1
    assert stats["i"]["self_s"] <= stats["i"]["total_s"]
    assert not trace.is_restored()
    trace.restore()
    assert trace.is_restored()
    assert (module.function, Base.__dict__["method"]) == originals
    assert "method" not in Child.__dict__ and "method" not in vars(instance)


def test_training_wrappers_are_restored():
    from repro.data.loader import DataLoader
    from repro.nn import Conv2d
    from repro.tensor import Tensor

    before = (DataLoader.__iter__, Tensor.backward, vars(Conv2d).copy())
    trace = LayerTrace()
    workloads._trace_training(trace)
    assert DataLoader.__iter__ is not before[0]
    trace.restore()
    assert trace.is_restored()
    assert (DataLoader.__iter__, Tensor.backward) == before[:2]
    assert vars(Conv2d) == before[2]


@pytest.mark.parametrize("first,second,better,expected", [
    ([10, 10.1, 9.9, 10.05], [10.02, 9.98, 10.1, 9.95], "lower",
     "unchanged"),
    ([10, 10.1, 9.9, 10.05], [12, 12.1, 11.9, 12.05], "lower", "worse"),
    ([10, 10.1, 9.9, 10.05], [9, 9.1, 8.9, 9.05], "lower", "better"),
    ([10, 10.1, 9.9, 10.05], [8, 8.1, 7.9, 8.05], "higher", "worse"),
    ([5, 15, 10, 8], [9, 11, 16, 4], "lower", "unresolved"),
])
def test_compare_verdicts(first, second, better, expected):
    assert compare.verdict(first, second, better, 0.1)[0] == expected


def test_calibration_scales_the_work_and_not_the_fixed_waits():
    from calibration import REFERENCE_S, Calibration

    calibration = Calibration(hand_offs=True)
    calibration.samples[:] = [2 * REFERENCE_S[True]] * 2
    # 10 s of which 2 s is configured waiting: 2 + 8 * 0.5.
    assert calibration.scale(10.0, fixed=2.0) == 6.0
    assert calibration.scale(10.0) == 5.0


def test_calibration_follows_the_host_around_each_segment():
    from calibration import REFERENCE_S, WINDOW, Calibration

    calibration = Calibration(hand_offs=False)
    slow, fast = 2 * REFERENCE_S[False], REFERENCE_S[False]
    calibration.samples[:] = [slow] * (2 * WINDOW) + [fast] * (2 * WINDOW)
    assert calibration.scale(10.0, segment=WINDOW) == 5.0
    assert calibration.scale(10.0, segment=3 * WINDOW) == 10.0
    # Segments past either end use the nearest full window.
    assert calibration.scale(10.0, segment=0) == 5.0
    assert calibration.scale(10.0, segment=4 * WINDOW) == 10.0
    # Over the whole run: the mean of all samples.
    assert calibration.scale(3.0) == 2.0


def test_benchmark_files_pass_repro_lint():
    from repro.analysis.lint import default_rules, run_lint

    report = run_lint([str(HERE)], default_rules())
    assert report.ok, report
