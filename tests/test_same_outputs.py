"""``scripts/same_outputs.py``: the byte-identity check of the CLI against
another tree."""

import os
import re
import shutil
import subprocess
import sys

from conftest import REPO

SCRIPT = os.path.join(REPO, "scripts", "same_outputs.py")


def same_outputs(other):
    return subprocess.run([sys.executable, SCRIPT, str(other), "--small", "--seeds", "1"],
                          capture_output=True, text=True, cwd=REPO)


def test_checkout_matches_itself():
    run = same_outputs(REPO)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "same outputs"
    for name, files in [("kernel-jumps-d2", ["certificate.txt", "kernel.csv"]),
                        ("mmd-area-m8", ["mmd.csv"]),
                        ("validate-jumps-d2", ["validate.txt"])]:
        for file in files:
            assert any(re.fullmatch(rf"{name} seed 1 {file}: ([0-9a-f]{{12}}) \1 same", line)
                       for line in lines), (file, lines)
        assert f"{name} seed 1 exit 0 0, stdout same" in lines


def test_a_changed_tree_differs(tmp_path):
    # one corrector pass instead of two: every sweep output moves
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "levy_sigkernel" / "kernel_solver.py"
    text = solver.read_text()
    assert "\n_CORRECTOR_PASSES = 2\n" in text
    solver.write_text(text.replace("\n_CORRECTOR_PASSES = 2\n", "\n_CORRECTOR_PASSES = 1\n"))
    run = same_outputs(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "outputs differ"
    assert any(re.fullmatch(r"kernel-jumps-d2 seed 1 kernel.csv: \w{12} \w{12} DIFFERENT", line)
               for line in lines), lines
    assert "kernel-jumps-d2 seed 1 exit 0 0, stdout DIFFERENT" in lines
