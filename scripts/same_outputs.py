"""Check that this checkout's CLI writes the same bytes as another tree's.

Usage (from the repository root)::

    python3 scripts/same_outputs.py OTHER_TREE [--seeds 1 2 3 4] [--small]

For each seed and each workload of ``perfbench/workloads.py`` (this tree's
configs, imported without writing to ``perfbench/``), runs
``python -m levy_sigkernel.cli`` once with this tree's ``src`` and once with
OTHER_TREE's, each in a fresh temporary directory with the same relative
config and output paths.  Prints one line per output file with the sha256
prefix of each tree's bytes, and one line saying whether the two runs'
exit codes and standard output match.  ``--small`` takes the reduced
configs of the benchmark's self-test.  Exits 1 on any difference and 0
when every file, exit code and standard output agree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, was = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
    return module.CONFIGS


def _run(tree: str, config: dict, work: str):
    """One CLI run of ``tree`` on ``config`` in the directory ``work``:
    exit code, standard output and the sha256 of each output file."""
    os.makedirs(work)
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(config, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "levy_sigkernel.cli", "--config",
                           "config.json", "--output", "out"],
                          cwd=work, env=env, capture_output=True)
    out = os.path.join(work, "out")
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()[:12]
    return proc.returncode, proc.stdout, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="root of the tree to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--small", action="store_true",
                        help="the reduced configs of the benchmark's self-test")
    args = parser.parse_args(argv)
    other = os.path.abspath(args.other)
    if not os.path.isfile(os.path.join(other, "src", "levy_sigkernel", "cli.py")):
        parser.error(f"{other} holds no src/levy_sigkernel/cli.py")
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name, make in _workloads().items():
                config = make(seed, small=args.small)
                (code_a, stdout_a, files_a), (code_b, stdout_b, files_b) = (
                    _run(tree, config, os.path.join(tmp, f"{name}-{seed}-{side}"))
                    for side, tree in (("this", ROOT), ("other", other)))
                for file in sorted(files_a.keys() | files_b.keys()):
                    a, b = files_a.get(file, "-"), files_b.get(file, "-")
                    same &= a == b
                    print(f"{name} seed {seed} {file}: {a} {b} "
                          f"{'same' if a == b else 'DIFFERENT'}")
                match = (code_a, stdout_a) == (code_b, stdout_b)
                same &= match
                print(f"{name} seed {seed} exit {code_a} {code_b}, stdout "
                      f"{'same' if match else 'DIFFERENT'}")
    print("same outputs" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
