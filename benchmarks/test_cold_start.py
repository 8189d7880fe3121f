"""Cold-start benchmark: what a fresh ``repro`` process pays before it runs.

Every CLI invocation, ``repro serve`` restart and pool worker starts a new
interpreter, so import time and import-time resident memory are paid per
process.  This benchmark times fresh interpreters doing ``import
repro.cli``, ``python -m repro --help`` and, as the floor nothing in this
repo can go under, ``import numpy``.  The commands are interleaved round by
round so machine drift hits all three alike.  Per command it records the
median wall seconds and the median peak RSS of the child (``ru_maxrss`` from
``wait4``) into ``BENCH_sweeps.json`` under ``cold_start``, with the core
count and Python version.  Nothing here is a timing bound; the
no-scipy-on-the-import-path rule is guarded exactly by
``tests/test_cold_start.py``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from .conftest import emit, record_bench

REPO = Path(__file__).resolve().parent.parent
RUNS = 5

COMMANDS = {
    "import_cli": ["-c", "import repro.cli"],
    "repro_help": ["-m", "repro", "--help"],
    "import_numpy": ["-c", "import numpy"],
}


#: Forks and execs ``argv[1:]`` from a small interpreter and prints the
#: child's wall seconds, peak RSS (kB) and exit code.  Spawned straight from
#: pytest, the child's ``ru_maxrss`` would start at pytest's own high-water
#: mark, which Linux carries over ``exec``; forked from this ~10 MB launcher
#: it is the child's own peak.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _fresh_process(args: List[str], env: Dict[str, str]) -> Tuple[float, int]:
    """Wall seconds and peak RSS (kB) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *args], cwd=REPO, env=env,
        capture_output=True, text=True, check=True,
    )
    wall, rss, code = proc.stdout.split()
    assert code == "0", f"{args} exited {code}: {proc.stderr[-400:]}"
    return float(wall), int(rss)


def test_cold_start():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    samples: Dict[str, List[Tuple[float, int]]] = {name: [] for name in COMMANDS}
    for _ in range(RUNS):
        for name, args in COMMANDS.items():
            samples[name].append(_fresh_process(args, env))

    entry = {
        "runs": RUNS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    for name, runs in samples.items():
        entry[f"{name}_s"] = round(median(w for w, _ in runs), 4)
        entry[f"{name}_max_rss_kb"] = int(median(r for _, r in runs))
    record_bench("cold_start", entry)

    emit(
        f"Cold start: medians of {RUNS} fresh interpreters",
        "\n".join(
            f"{name:<14} {entry[f'{name}_s']:.3f} s  "
            f"{entry[f'{name}_max_rss_kb'] / 1024:.0f} MB"
            for name in COMMANDS
        ),
    )
