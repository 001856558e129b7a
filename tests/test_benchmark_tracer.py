"""The benchmark's span tracer (``perfbench/spans.py``) runs on the package.

Its hooks read the package's results (``SimulatedPaths.segments`` unpacked
as pairs, ``solve_truncated_system(...).f``,
``mmd_to_wiener(...)[1].surfaces`` and the levels of
``characteristic_velocity(...).tensors``) and ``tensor_mul``'s arguments.  A
change that breaks one of them fails the traced benchmark run only, so each
workload's small config runs under the tracer here.  No workload calls
``simulate_paths`` (the estimators stream their paths), so its hook is
applied to a result directly.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO, benchmark_workloads
from levy_sigkernel import mc_oracle
from levy_sigkernel.characteristics import GaussianJumps, LevyTriplet

WORKLOADS = benchmark_workloads()


def benchmark_spans():
    """``perfbench/spans.py``, loaded as ``benchmark_workloads`` loads
    ``workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(REPO, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

# one counter per workload that only a working hook can fill
COUNTERS = {
    "kernel-jumps-d2": ("kernel_solver.solve_truncated_system", "state_width"),
    "mmd-area-m8": ("mmd.mmd_to_wiener", "surfaces"),
    "validate-jumps-d2": ("development.develop", "max_depth"),
}
# the workloads whose configs hold triplets, so build characteristic velocities
VELOCITY_WORKLOADS = ("kernel-jumps-d2", "validate-jumps-d2")
# one span per workload that its command reaches through an import made when
# the command runs, which must read the tracer's wrapper
COMMAND_SPANS = {
    "mmd-area-m8": "mmd.mmd_to_wiener",
    "validate-jumps-d2": "mc_oracle.estimate_kernel",
}


def traced_run(tmp_path, cfg_data):
    """Span table and tracer overhead of one traced CLI run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "spans.py"), str(spans_path),
         "--config", str(cfg), "--output", str(tmp_path / "o")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(spans_path.read_text())
    return table["spans"], table["hook_s"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS.CONFIGS))
def test_traced_run(tmp_path, workload):
    spans, hook_s = traced_run(tmp_path, WORKLOADS.CONFIGS[workload](2, small=True))
    assert spans["cli.main"]["calls"] == 1
    name, counter = COUNTERS[workload]
    assert spans[name][counter] > 0
    assert spans["tensor_algebra.tensor_mul"]["madds"] > 0
    if workload in VELOCITY_WORKLOADS:
        assert spans["characteristics.characteristic_velocity"]["coeffs"] > 0
    if workload in COMMAND_SPANS:
        assert spans[COMMAND_SPANS[workload]]["calls"] == 1
    # the self times and the tracer's overhead add up to the run's time
    total = spans["cli.main"]["s"]
    self_sum = sum(stats["self_s"] for stats in spans.values())
    assert abs(self_sum + hook_s - total) <= 1e-9 * total


def test_path_counters_read_simulated_paths():
    # the simulate_paths hook on a result: 3 sub-steps on each of two
    # intervals, jumps on the first only
    trip = LevyTriplet(dim=2, time_grid=np.array([0.0, 0.5, 1.0]),
                       drifts=[np.zeros(2)] * 2, covs=[0.1 * np.eye(2)] * 2,
                       jumps=[GaussianJumps(8.0, 0.2 * np.eye(2)), None])
    args = (trip, 40, 3, 7)
    paths = mc_oracle.simulate_paths(*args)
    counters = benchmark_spans().HOOKS["mc_oracle.simulate_paths"](paths, *args)
    n_jump_segments = len(paths.segments) - 6
    filled = sum(int((l1 != 0).any(axis=1).sum()) for l1, _ in paths.segments)
    assert n_jump_segments > 0
    assert counters == {"path_steps": 40 * 3 * 2, "segments": len(paths.segments),
                        "segment_rows": 40 * len(paths.segments),
                        "segment_filled_rows": filled}
    assert 6 * 40 < filled < 40 * len(paths.segments)
