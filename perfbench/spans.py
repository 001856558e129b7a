"""Span tracer installed around levy_sigkernel's public functions from outside.

Run as a script it executes the CLI under tracing and writes the span table
as JSON::

    python perfbench/spans.py SPANS.json --config cfg.json --output out/

The program is not changed: each public function of a layer module is
replaced, in every module namespace that binds it (``cli``, ``mmd`` and
``kernel_solver`` import with ``from ... import``), by a wrapper that
records its wall time, the part of it not covered by child spans (self
time) and a few work counters.  ``cli.main`` is the root span, so the
self times of all spans add up to its total, apart from the time spent
computing counters, which is accounted separately as tracer overhead.
The CLI's ``cmd_*`` handlers are not wrapped: their glue is ``cli.main``'s
self time.  Spans assume a single thread (the workloads leave ``threads``
at its default of 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("tensor_algebra", "characteristics", "development", "kernel_solver",
          "mmd", "mc_oracle")
MAX_COUNTERS = ("max_depth", "state_width")


def _madds(x, y, out_depth=None):
    """Multiply-adds of ``tensor_mul``: one per output coefficient per level pair."""
    if out_depth is None:
        out_depth = max(x.depth, y.depth)
    return sum(x.dim**n * max(0, min(n, x.depth) - max(0, n - y.depth) + 1)
               for n in range(out_depth + 1))


def _cells(surface):
    return (len(surface.s_grid) - 1) * (len(surface.t_grid) - 1)


def _path_counters(paths, triplet, n_paths, steps_per_interval, seed,
                   horizon=None, stream_offset=0):
    end = triplet.horizon if horizon is None else horizon
    intervals = sum(1 for lo in triplet.time_grid[:-1] if lo < end)
    rows = filled = 0
    for lvl1, lvl2 in paths.segments:
        nonzero = np.any(lvl1 != 0.0, axis=1)
        if lvl2 is not None:
            nonzero |= np.any(lvl2 != 0.0, axis=1)
        rows += len(nonzero)
        filled += int(nonzero.sum())
    return {"path_steps": n_paths * steps_per_interval * intervals,
            "segments": len(paths.segments), "segment_rows": rows,
            "segment_filled_rows": filled}


# span name -> hook(result, *args, **kwargs) -> counters to add (or max)
HOOKS = {
    "tensor_algebra.tensor_mul": lambda r, *a, **k: {"madds": _madds(*a, **k)},
    "development.develop": lambda r, v, s, t, depth: {"max_depth": depth},
    "characteristics.characteristic_velocity": lambda r, *a, **k: {
        "coeffs": sum(lev.size for x in r.tensors for lev in x.levels)},
    "kernel_solver.solve_truncated_system": lambda r, *a, **k: {
        "cells": _cells(r), "state_width": r.f.shape[2]},
    "kernel_solver.solve_level2_system": lambda r, *a, **k: {"cells": _cells(r)},
    "kernel_solver.solve_goursat_scalar": lambda r, *a, **k: {"cells": _cells(r)},
    "kernel_solver.to_csv": lambda r, surface, path, *a, **k: {
        "bytes": os.path.getsize(path)},
    "mmd.mmd_to_wiener": lambda r, *a, **k: {"surfaces": len(r[1].surfaces)},
    "mc_oracle.simulate_paths": _path_counters,
}


class Tracer:
    """Aggregated spans: per name, calls, total and self seconds, counters."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack: list[list[float]] = []
        self.hook_s = 0.0

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                stack.pop()
                stats["calls"] += 1
                stats["s"] += total
                stats["self_s"] += total - children[0]
                if stack:
                    stack[-1][0] += total
            if hook is not None:
                h0 = time.perf_counter()
                for key, val in hook(result, *args, **kwargs).items():
                    if key in MAX_COUNTERS:
                        stats[key] = max(stats.get(key, 0), val)
                    else:
                        stats[key] = stats.get(key, 0) + val
                spent = time.perf_counter() - h0
                self.hook_s += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return span


def _targets(package: str):
    """(span name, owner, attribute) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", mod, attr))
    solver = importlib.import_module(f"{package}.kernel_solver")
    mmd = importlib.import_module(f"{package}.mmd")
    out.append(("kernel_solver.to_csv", solver.KernelSurface, "to_csv"))
    out.append(("mmd.to_csv", mmd.MMDReport, "to_csv"))
    out.append(("cli.main", importlib.import_module(f"{package}.cli"), "main"))
    return out


def install(package: str = "levy_sigkernel") -> Tracer:
    """Wrap every target under every module-level name bound to it."""
    tracer = Tracer()
    targets = _targets(package)
    modules = [m for name, m in sys.modules.items()
               if name == package or name.startswith(package + ".")]
    for name, owner, attr in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
    return tracer


def run_traced(spans_path: str, cli_args: list[str]) -> int:
    tracer = install()
    cli = sys.modules["levy_sigkernel.cli"]
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.stats, "hook_s": tracer.hook_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
