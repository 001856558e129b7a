"""Layered CLI benchmark for levy_sigkernel.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-jumps-d2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload is a closed loop with one client: fresh
``python -m levy_sigkernel.cli`` processes on a config generated from the
seed, each started after the previous one exited.  ``--trace 0`` reports
the end-to-end metrics of untraced runs; ``--trace 1`` makes one run under
the span tracer of ``spans.py`` and reports per-layer metrics.  Times are
scaled to a reference processor speed by the probe of ``probe.py``; the
raw times are printed with every run.  Every run
is checked against an oracle computed once per invocation (``oracles.py``)
and against the bytes of the invocation's first run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  ``--workload all`` runs every
workload in both modes and prints their metrics prefixed by the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_UPFRONT = 3
SETUP_SAMPLES = 7
MIN_TIMED_RUNS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LEVY_SIGKERNEL_THREADS")

sys.path.insert(0, HERE)
import gate  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import CONFIGS, WORKLOADS  # noqa: E402


def _spawn(argv: list[str], log_path: str, probe: SpeedProbe | None = None) -> dict:
    """Run one child to completion; wall time and rusage come from wait4.

    With a ``probe``, ``scale`` is the child's reference speed over its
    measured speed and ``ref_wall_s`` its wall time at the reference speed.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=log, stderr=subprocess.STDOUT)
        if probe is not None:
            probe.follow(proc.pid)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if probe is not None:
                probe.follow(None)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = {"code": proc.returncode, "wall_s": t1 - t0,
           "rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if probe is not None:
        run["scale"] = probe.scale(t0, t1)
        run["ref_wall_s"] = run["wall_s"] * run["scale"]
    return run


def _digests(out_dir: str, names) -> dict:
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Session:
    """One workload invocation: config, oracle, and the gated CLI runs."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cfg = CONFIGS[workload](seed, small=small)
        self.cfg_path = os.path.join(self.work, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh, indent=1)
        with open(self.cfg_path, "rb") as fh:
            self.cfg_sha256 = hashlib.sha256(fh.read()).hexdigest()
        self.oracle = None
        self.first_digests = None
        self.runs: list[dict] = []
        self.probe = SpeedProbe()
        self.probe.start()

    def setup_time(self) -> float:
        """Wall time, at the reference speed, of a fresh interpreter that
        only imports the CLI module."""
        log = os.path.join(self.work, "setup.log")
        run = _spawn([sys.executable, "-c", "import levy_sigkernel.cli"], log, self.probe)
        if run["code"] != 0:
            with open(log) as fh:
                raise RuntimeError(f"cannot import levy_sigkernel.cli:\n{fh.read()}")
        return run["ref_wall_s"]

    def compute_oracle(self, first_out: str) -> None:
        """Run ``oracles.py`` once, after the first CLI run."""
        path = os.path.join(self.work, "oracle.json")
        log = os.path.join(self.work, "oracle.log")
        argv = [sys.executable, os.path.join(HERE, "oracles.py"), self.workload,
                self.cfg_path, first_out, path]
        if _spawn(argv, log)["code"] != 0:
            with open(log) as fh:
                raise RuntimeError(f"oracle failed:\n{fh.read()}")
        with open(path) as fh:
            self.oracle = json.load(fh)

    def run(self, traced: bool = False) -> dict:
        k = len(self.runs)
        out_dir = os.path.join(self.work, f"out{k}")
        cli = [sys.executable, "-m", "levy_sigkernel.cli"]
        if traced:
            spans_path = os.path.join(self.work, f"spans{k}.json")
            cli = [sys.executable, os.path.join(HERE, "spans.py"), spans_path]
        run = _spawn(cli + ["--config", self.cfg_path, "--output", out_dir],
                     os.path.join(self.work, f"log{k}.txt"), self.probe)
        if self.oracle is None:
            self.compute_oracle(out_dir)
        self.check(run, out_dir)
        if traced and run["code"] == 0:
            with open(spans_path) as fh:
                run["trace"] = json.load(fh)
        run["traced"] = traced
        self.runs.append(run)
        if k > 0:                              # keep the first run's outputs
            shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def check(self, run: dict, out_dir: str) -> None:
        """Fill ``rel_err`` and ``problems`` of a finished run."""
        rel, problems = gate.check_run(
            self.workload, self.cfg, out_dir, run["code"], self.oracle)
        digests = _digests(out_dir, gate.OUTPUTS[self.workload])
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("outputs differ from the invocation's first run")
        run["rel_err"], run["problems"] = rel, problems

    def close(self) -> None:
        self.probe.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:                        # another session still uses it
            pass


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> str:
    try:
        cfg = module.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def manifest(sessions: list[Session]) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "workloads": {s.workload: {"seed": s.seed, "config_sha256": s.cfg_sha256}
                      for s in sessions},
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(session: Session, seconds: float) -> dict:
    """Untraced closed loop for ``seconds`` (at least MIN_TIMED_RUNS runs).

    ``wall_s`` is the median run and ``setup_s`` the median of set-up
    samples taken before the loop and after each of the first runs, both
    at the probe's reference speed.
    """
    session.setup_time()                      # compiles the bytecode
    setup = [session.setup_time() for _ in range(SETUP_UPFRONT)]
    while (len(session.runs) < MIN_TIMED_RUNS
           or sum(r["wall_s"] for r in session.runs) < seconds):
        session.run()
        if len(setup) < SETUP_SAMPLES:
            setup.append(session.setup_time())
    runs = session.runs
    return {"wall_s": _metric(statistics.median(r["ref_wall_s"] for r in runs), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(statistics.median([r["rss_mb"] for r in runs]), "MiB")}


SPAN_METRICS = {
    "tensor_algebra.tensor_mul": (("calls", "count"), ("self_s", "s"), ("madds", "count")),
    "tensor_algebra.exp_tensor": (("calls", "count"), ("self_s", "s")),
    "development.develop": (("calls", "count"), ("self_s", "s"), ("max_depth", "count")),
    "characteristics.characteristic_velocity": (
        ("calls", "count"), ("s", "s"), ("self_s", "s"), ("coeffs", "count")),
    "kernel_solver.solve_truncated_system": (
        ("calls", "count"), ("s", "s"), ("cells", "count"), ("state_width", "count")),
    "kernel_solver.solve_level2_system": (("calls", "count"), ("s", "s"), ("cells", "count")),
    "kernel_solver.solve_goursat_scalar": (("s", "s"),),
    "kernel_solver.truncation_certificate": (("self_s", "s"),),
    "kernel_solver.to_csv": (("s", "s"), ("bytes", "B")),
    "mmd.mmd_to_wiener": (("s", "s"), ("self_s", "s"), ("surfaces", "count")),
    "mc_oracle.simulate_paths": (
        ("calls", "count"), ("self_s", "s"), ("path_steps", "count"), ("segments", "count")),
    "mc_oracle.estimate_kernel": (("self_s", "s"),),
    "cli.main": (("self_s", "s"),),
}
PER_CELL = ("kernel_solver.solve_truncated_system", "kernel_solver.solve_level2_system",
            "kernel_solver.solve_goursat_scalar")


def layer_metrics(spans: dict, scale: float) -> dict:
    """Per-layer metrics from one traced run's span table; times are
    multiplied by the run's ``scale`` to the reference speed."""
    out = {}
    for name, fields in SPAN_METRICS.items():
        stats = spans.get(name, {})
        for field, unit in fields:
            value = stats.get(field, 0)
            out[f"{name}.{field}"] = _metric(value * scale if unit == "s" else value, unit)
    for name in PER_CELL:
        stats = spans.get(name, {})
        cells = stats.get("cells", 0)
        out[f"{name}.us_per_cell"] = _metric(
            1e6 * scale * stats["s"] / cells if cells else 0.0, "us")
    paths = spans.get("mc_oracle.simulate_paths", {})
    rows = paths.get("segment_rows", 0)
    out["mc_oracle.simulate_paths.segment_fill"] = _metric(
        paths["segment_filled_rows"] / rows if rows else 0.0, "1")
    return out


def traced(session: Session, seconds: float) -> dict:
    """One traced run, then untraced runs until ``seconds`` of runs have passed."""
    session.setup_time()                      # compiles the bytecode
    run = session.run(traced=True)
    session.run()
    while sum(r["wall_s"] for r in session.runs) < seconds:
        session.run()
    untraced = [r for r in session.runs if not r["traced"]]
    base = statistics.median(r["ref_wall_s"] for r in untraced)
    out = layer_metrics(run.get("trace", {}).get("spans", {}), run["scale"])
    out["cli.cpu_s"] = _metric(
        statistics.median(r["cpu_s"] * r["scale"] for r in untraced), "s")
    out["host.speed"] = _metric(statistics.median(r["scale"] for r in untraced), "1")
    out["trace.overhead_ratio"] = _metric(run["ref_wall_s"] / base - 1.0, "1")
    out["oracle.rel_err"] = _metric(max(r["rel_err"] for r in session.runs), "1")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[Session, dict]:
    session = Session(workload, seed, small=small)
    try:
        metrics = traced(session, seconds) if trace else end_to_end(session, seconds)
    finally:
        session.close()
    return session, metrics


def _report(session: Session, metrics: dict, prefix: str = "") -> None:
    for k, r in enumerate(session.runs):
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"{prefix}run {k}{' traced' if r['traced'] else ''}: "
              f"wall {r['wall_s']:.3f} s ({r['ref_wall_s']:.3f} s at reference "
              f"speed, host speed {r['scale']:.3f}), rss {r['rss_mb']:.1f} MiB, "
              f"cpu {r['cpu_s']:.3f} s, rel_err {r['rel_err']:.3e}: {status}")
    failed = sum(1 for r in session.runs if r["problems"])
    bound = session.oracle["bound"]
    print(f"{prefix}oracle {session.oracle['value']!r} (truncation bound "
          f"{'n/a' if bound is None else format(bound, '.3e')}); rel_err max "
          f"{max(r['rel_err'] for r in session.runs):.3e}; error_rate "
          f"{failed / len(session.runs):.3f} ({failed}/{len(session.runs)} runs)")
    for key, what in (("wall_s", "raw"), ("ref_wall_s", "at reference speed")):
        walls = [r[key] for r in session.runs if not r["traced"]]
        print(f"{prefix}untraced wall, {what}: fastest {min(walls):.3f} s, median "
              f"{statistics.median(walls):.3f} s, slowest {max(walls):.3f} s "
              f"({len(walls)} samples)")
    for name, m in metrics.items():
        print(f"{prefix}{name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levy_sigkernel", "cli.py")):
        print(f"error: no levy_sigkernel sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    plan = [(w, t) for w in WORKLOADS for t in (False, True)] \
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    sessions, metrics, attempted, failed = [], {}, 0, 0
    for workload, trace in plan:
        prefix = f"{workload}." if args.workload == "all" else ""
        session, got = run_workload(workload, args.seed, args.seconds, trace)
        _report(session, got, prefix)
        sessions.append(session)
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += len(session.runs)
        failed += sum(1 for r in session.runs if r["problems"])
    print("manifest: " + json.dumps(manifest(sessions)))
    for m in metrics.values():                 # a failed run has no error value
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
