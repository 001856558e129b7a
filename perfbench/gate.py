"""Correctness gate: checks one CLI run's outputs against the oracle.

A run fails on a nonzero exit, a missing output file, unreadable output,
or a check below; byte identity with the invocation's first run is checked
by the caller.

* kernel: w(T,T) in ``certificate.txt`` within 1e-3 (relative) of the
  development oracle; the printed certificate equal to the recomputed one;
  the corner row of ``kernel.csv`` equal to the printed w.
* mmd: ``mmd_squared`` in ``mmd.csv`` within 1e-2 of the direct oracle;
  4 + m + m^2 rows; the ``mmd`` row the square root of ``mmd_squared``.
* validate: four PASS lines in ``validate.txt`` and the w printed in the
  first one within 1e-3 of the development oracle.
"""

from __future__ import annotations

import math
import os
import re

REL_TOL = {"kernel-jumps-d2": 1e-3, "mmd-area-m8": 1e-2, "validate-jumps-d2": 1e-3}
OUTPUTS = {"kernel-jumps-d2": ("kernel.csv", "certificate.txt"),
           "mmd-area-m8": ("mmd.csv",),
           "validate-jumps-d2": ("validate.txt",)}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def check_kernel(cfg: dict, out_dir: str, oracle: dict):
    lines = _read(os.path.join(out_dir, "certificate.txt")).splitlines()
    w_text = re.fullmatch(r"w\(.+\) = (\S+)", lines[0]).group(1)
    cert = lines[1].removeprefix("truncation_certificate = ")
    problems = []
    if cert != oracle.get("certificate"):
        problems.append(f"certificate {cert} != recomputed {oracle.get('certificate')}")
    csv_path = os.path.join(out_dir, "kernel.csv")
    with open(csv_path, "rb") as fh:
        header = fh.readline().decode().strip()
        fh.seek(max(0, os.path.getsize(csv_path) - 4096))
        corner = fh.read().decode().splitlines()[-1].split(",")[2]
    if header != "s,t,w,f_norm,ftilde_norm":
        problems.append(f"kernel.csv header {header!r}")
    if corner != w_text:
        problems.append(f"kernel.csv corner w {corner} != certificate w {w_text}")
    return float(w_text), problems


def check_mmd(cfg: dict, out_dir: str, oracle: dict):
    rows = [r.split(",") for r in _read(os.path.join(out_dir, "mmd.csv")).splitlines()]
    values = {r[0]: float(r[3]) for r in rows if r[0] in ("mmd_squared", "mmd")}
    m = len(cfg["ensemble"]["paths"])
    problems = []
    if len(rows) != 4 + m + m * m:
        problems.append(f"mmd.csv has {len(rows)} rows, expected {4 + m + m * m}")
    if values["mmd"] != math.sqrt(values["mmd_squared"]):
        problems.append("mmd is not the square root of mmd_squared")
    return values["mmd_squared"], problems


def check_validate(cfg: dict, out_dir: str, oracle: dict):
    lines = _read(os.path.join(out_dir, "validate.txt")).splitlines()
    problems = [f"not a PASS line: {ln}" for ln in lines if not ln.startswith("PASS ")]
    if len(lines) != 4:
        problems.append(f"{len(lines)} result lines, expected 4")
    w = float(re.search(r"\(w=([^,]+), oracle=", lines[0]).group(1))
    return w, problems


CHECKS = {"kernel-jumps-d2": check_kernel, "mmd-area-m8": check_mmd,
          "validate-jumps-d2": check_validate}


def check_run(workload: str, cfg: dict, out_dir: str, code: int,
              oracle: dict) -> tuple[float, list[str]]:
    """Relative error of one run against the oracle, and its problems."""
    if code != 0:
        return math.inf, [f"exit code {code}"]
    missing = [f for f in OUTPUTS[workload]
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return math.inf, [f"missing output {f}" for f in missing]
    try:
        value, problems = CHECKS[workload](cfg, out_dir, oracle)
    except (ValueError, AttributeError, IndexError, KeyError, OSError) as exc:
        return math.inf, [f"unreadable output: {exc!r}"]
    rel = abs(value - oracle["value"]) / abs(oracle["value"])
    if not rel <= REL_TOL[workload]:
        problems.append(f"rel_err {rel:.3e} > {REL_TOL[workload]}")
    return rel, problems
