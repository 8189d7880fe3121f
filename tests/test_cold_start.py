"""Import guard: no engine, scenario or CLI path loads scipy.

scipy costs about 1 s and 60 MB per process; only multi-seed confidence
intervals and landmark planning use it, and both import it inside the
function.  The check runs in a fresh interpreter, because the pytest
process itself has long since imported scipy.  It is a module-set check,
not a timing bound, so it gives the same answer on every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

REPO = Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["scenario", "validate", "ci/regression-scenario.json"])

from repro.eval.experiment import execute_config
from repro.eval.scenario import load_scenario

spec = load_scenario("ci/regression-scenario.json")
profile, tspec, _ = spec.resolve_trace()
_, point, config = spec.entries(profile, tspec)[0]
execute_config(
    profile.build(tspec.seed), point.protocol, config,
    memory_kb=point.memory_kb, rate=point.rate, seed=point.seed,
    scenario=point.scenario,
)
before = scipy_loaded()

from repro.core.landmarks import Place, SubareaMap
from repro.eval.confidence import confidence_interval

ci = confidence_interval([1.0, 2.0, 4.0])
places = [Place(0, 0.0, 0.0, 5), Place(1, 10.0, 0.0, 3), Place(2, 4.0, 7.0, 1)]
smap = SubareaMap(places)
queries = [[1.0, 1.0], [5.0, 0.0], [6.0, 6.0], [9.0, 3.0], [2.0, 3.5]]
print(json.dumps({
    "validate_rc": rc,
    "scipy_before": before,
    "stats_after": "scipy.stats" in sys.modules,
    "ci": [ci.mean, ci.half_width, ci.n],
    "subareas": [int(i) for i in smap.subareas_of(queries)],
    "subarea_of": [smap.subarea_of(x, y) for x, y in queries],
    "distances": [smap.nearest_landmark_distance(x, y) for x, y in queries],
}))
"""


def _run_child() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_scenario_and_engine_paths_do_not_load_scipy():
    out = _run_child()
    assert out["validate_rc"] == 0
    assert out["scipy_before"] == []

    # the lazy imports still load scipy and still return scipy's values
    assert out["stats_after"] is True
    data = np.array([1.0, 2.0, 4.0])
    t = float(stats.t.ppf(0.975, df=2))
    sem = float(data.std(ddof=1)) / np.sqrt(3)
    assert out["ci"] == [float(data.mean()), t * sem, 3]

    points = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 7.0]])
    queries = np.array([[1.0, 1.0], [5.0, 0.0], [6.0, 6.0], [9.0, 3.0], [2.0, 3.5]])
    dist, idx = cKDTree(points).query(queries)
    assert out["subareas"] == [int(i) for i in idx]
    assert out["subarea_of"] == [int(i) for i in idx]
    assert out["distances"] == [float(d) for d in dist]
