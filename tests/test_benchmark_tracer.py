"""The benchmark's span tracer (``perfbench/spans.py``) runs on the package.

Its hooks read the package's results: ``SimulatedPaths.segments`` unpacked
as pairs, ``solve_truncated_system(...).f`` and
``mmd_to_wiener(...)[1].surfaces``.  A change that breaks one of them
fails the traced benchmark run only, so each workload's small config runs
under the tracer here.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO, benchmark_workloads

WORKLOADS = benchmark_workloads()

# one counter per workload that only a working hook can fill
COUNTERS = {
    "kernel-jumps-d2": ("kernel_solver.solve_truncated_system", "state_width"),
    "mmd-area-m8": ("mmd.mmd_to_wiener", "surfaces"),
    "validate-jumps-d2": ("mc_oracle.simulate_paths", "segments"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS.CONFIGS))
def test_traced_run(tmp_path, workload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(WORKLOADS.CONFIGS[workload](2, small=True)))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "spans.py"), str(spans_path),
         "--config", str(cfg), "--output", str(tmp_path / "o")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert spans["cli.main"]["calls"] == 1
    name, counter = COUNTERS[workload]
    assert spans[name][counter] > 0
