"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

harness.bootstrap()

import paper_sweep  # noqa: E402
import run  # noqa: E402
import serve_jobs  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _run(workload: str, trace: int, cwd: str = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
# cli-grids is not in BENCHMARK.json (too unsteady to gate, README.md)
# but stays runnable, so it is tested too
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_mode_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        # only a percentile may be withheld (short runs have few samples)
        assert emitted["value"] is not None or ".p" in m["name"]


def test_percentile_withheld_below_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert harness.percentile(values, 90) == (90.0, 10)
    assert harness.percentile(values[:99], 90) == (None, 9)
    assert harness.percentile(values[:19], 50) == (None, 9)
    assert harness.percentile(values[:20], 50) == (10.0, 10)
    assert harness.percentile([], 50) == (None, 0)


def test_serve_perturbed_reference_is_a_counted_failure(monkeypatch):
    ref = harness.load_reference("serve-jobs")
    plan = serve_jobs.job_plan(harness.DEFAULT_SEED, short=False)
    records = [
        {"protocol": p, "sim_seed": s, "state": "job.finished",
         "metrics": copy.deepcopy(ref[f"{p}:{s}"])}
        for p, s in plan
    ]
    assert serve_jobs.check(harness.DEFAULT_SEED, [records]) == 0
    records[5]["metrics"]["delivered"] += 1
    records[7]["state"] = "job.failed"
    assert serve_jobs.check(harness.DEFAULT_SEED, [records]) == 2


def test_paper_sweep_perturbed_reference_is_a_counted_failure(monkeypatch):
    _, sweeps, entries, traces = paper_sweep.setup(harness.DEFAULT_SEED, short=True)
    results, _ = paper_sweep.sweep_pass(
        sweeps, traces, harness.Tracer(False), harness.SpeedClock(harness.bench_cpus(1))
    )
    assert paper_sweep.check(harness.DEFAULT_SEED, sweeps, entries, traces, [results]) == 0

    ref = copy.deepcopy(harness.load_reference("paper-sweep"))
    key = paper_sweep.point_key(sweeps[1], entries[1][0][1])
    ref[key]["success_rate"] += 1e-12
    monkeypatch.setattr(paper_sweep, "load_reference", lambda name: ref)
    assert paper_sweep.check(harness.DEFAULT_SEED, sweeps, entries, traces, [results]) == 1


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("paper-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
