"""Self-test of the benchmark on reduced sizes of all three workloads.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json is emitted with its
unit, that the gate counts a corrupted copy of an output as a failure,
that traced spans nest consistently, and that the benchmark refuses to run
without the program's sources.  Takes one to two minutes on two cores
(the validate CLI always builds its depth-19 development oracles).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import run as bench
from workloads import WORKLOADS

SEED = 7
MAIN_FILE = {"kernel-jumps-d2": "certificate.txt", "mmd-area-m8": "mmd.csv",
             "validate-jumps-d2": "validate.txt"}
MAIN_LINE = {"kernel-jumps-d2": r"^w\(.*\) = ", "mmd-area-m8": r"^mmd_squared,,,",
             "validate-jumps-d2": r"^PASS solver-vs-development: .*\(w="}


def check_spans(trace: dict) -> None:
    spans = trace["spans"]
    for name, st in spans.items():
        assert st["self_s"] <= st["s"] + 1e-9, f"{name}: self_s exceeds its total"
    main = spans["cli.main"]["s"]
    self_sum = sum(st["self_s"] for st in spans.values())
    gap = main - self_sum
    assert -1e-9 <= gap <= trace["hook_s"] + 1e-6, \
        f"self times sum to {self_sum}, cli.main total {main}, tracer overhead {trace['hook_s']}"


def corrupt(path: str, pattern: str) -> None:
    """Scale the first number after ``pattern`` by 1.1."""
    with open(path) as fh:
        text = fh.read()
    m = re.search(pattern + r"(-?[0-9.e+-]+)", text, flags=re.M)
    assert m, f"no value to corrupt in {path}"
    bad = repr(float(m.group(1)) * 1.1)
    with open(path, "w") as fh:
        fh.write(text[:m.start(1)] + bad + text[m.end(1):])


def check_gate(workload: str) -> None:
    session = bench.Session(workload, SEED, small=True)
    try:
        run = session.run()
        assert not run["problems"], run["problems"]
        good = os.path.join(session.work, "out0")
        bad = os.path.join(session.work, "corrupted")
        shutil.copytree(good, bad)
        corrupt(os.path.join(bad, MAIN_FILE[workload]), MAIN_LINE[workload])
        rel, problems = bench.gate.check_run(workload, session.cfg, bad, 0,
                                             session.oracle)
        assert problems, "oracle check accepted a corrupted output"
        copy = {"code": 0}
        session.check(copy, bad)
        assert "outputs differ from the invocation's first run" in copy["problems"]
    finally:
        session.close()


def check_metrics(workload: str, spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        session, metrics = bench.run_workload(workload, SEED, 0, trace, small=True)
        failures = [r["problems"] for r in session.runs if r["problems"]]
        assert not failures, failures
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in metrics.items()}
        assert got == want, f"{workload} {key}: emitted {got}, expected {want}"
        json.dumps(metrics, allow_nan=False)
        if trace:
            check_spans(next(r for r in session.runs if r["traced"])["trace"])


def check_bare_directory() -> None:
    """Without the program's sources the benchmark exits nonzero, printing no result."""
    bare = os.path.join(bench.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kernel-jumps-d2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_bare_directory()
    print("ok: refuses to run without sources", flush=True)
    for workload in WORKLOADS:
        check_gate(workload)
        print(f"ok: {workload} gate rejects a corrupted output", flush=True)
        check_metrics(workload, spec)
        print(f"ok: {workload} emits every metric with its unit; spans nest",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
