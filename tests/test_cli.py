import glob
import json
import math
import os
import re
import subprocess
import sys
import tokenize

import numpy as np
import pytest

import levy_sigkernel
from levy_sigkernel import _forks
from levy_sigkernel import cli as cli_module
from conftest import REPO, benchmark_workloads
from levy_sigkernel.characteristics import characteristic_velocity
from levy_sigkernel.cli import cmd_validate, main, parse_triplet
from levy_sigkernel.errors import ConfigError
from levy_sigkernel.kernel_solver import bessel_i0, truncation_certificate


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def bm_triplet_json(dim=1):
    eye = np.eye(dim).tolist()
    return {"dim": dim, "state_depth": 1, "time_grid": [0.0, 1.0],
            "intervals": [{"drift": [0.0] * dim, "cov": eye, "jumps": None}]}


def base_config(experiment="kernel", points=129):
    return {
        "experiment": experiment,
        "triplets": [bm_triplet_json(), bm_triplet_json()],
        "grid": {"s_points": points, "t_points": points, "T": 1.0},
        "levels": {"M": 2, "N": 2},
        "mc": {"n_paths": 4000, "steps": 8, "seed": 17},
    }


class TestKernelCommand:
    def test_bm_kernel_matches_bessel(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(points=513))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        rows = (out / "kernel.csv").read_text().strip().split("\n")
        header, last = rows[0], rows[-1].split(",")
        assert header.startswith("s,t,w")
        assert abs(float(last[2]) - bessel_i0(1.0)) < 1e-4
        cert = (out / "certificate.txt").read_text()
        assert "truncation_certificate = 0.0" in cert

    def test_zero_triplets_surface_of_ones(self, tmp_path):
        cfg_data = base_config(points=17)
        for trip in cfg_data["triplets"]:
            trip["intervals"][0]["cov"] = [[0.0]]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        rows = (out / "kernel.csv").read_text().strip().split("\n")[1:]
        assert all(float(r.split(",")[2]) == 1.0 for r in rows)

    def test_split_csv_writes_the_bytes_of_one_block(self, tmp_path, monkeypatch):
        # 65 x 65 nodes: two blocks pay for their cost, three do not
        from levy_sigkernel import kernel_solver
        cfg = base_config(points=65)
        assert 2 < 65 * 65 / kernel_solver._BLOCK_COST_NODES < 6
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            return real_fork()
        monkeypatch.setattr(os, "fork", fork)
        outputs = []
        for cpus in (None, 1):
            if cpus is not None:
                monkeypatch.setattr(_forks, "cpu_count", lambda: cpus)
            out = tmp_path / f"out-{cpus}"
            out.mkdir()
            forks.clear()
            assert cli_module.cmd_kernel(cfg, str(out)) == 0
            assert sorted(p.name for p in out.iterdir()) == ["certificate.txt", "kernel.csv"]
            assert len(forks) == (min(_forks.cpu_count(), 2) - 1 if cpus is None else 0)
            outputs.append([(out / name).read_bytes()
                            for name in ("kernel.csv", "certificate.txt")])
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert outputs[0] == outputs[1]

    def test_missing_levels_is_config_error(self, tmp_path, capsys):
        cfg_data = base_config()
        del cfg_data["levels"]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "levels" in capsys.readouterr().err

    def test_huge_drift_finishes_with_finite_certificate(self, tmp_path):
        # e^{mass} overflows; with no tail above M the certificate is 0.0
        cfg_data = base_config(points=9)
        for trip in cfg_data["triplets"]:
            trip["intervals"][0]["drift"] = [800.0]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        assert "truncation_certificate = 0.0" in (out / "certificate.txt").read_text()

    def test_bad_field_path_reported(self, tmp_path, capsys):
        cfg_data = base_config()
        cfg_data["triplets"][1]["intervals"][0]["cov"] = [[1.0, 0.0]]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "triplets[1].intervals[0].cov" in capsys.readouterr().err


class TestMalformedConfigs:
    @pytest.mark.parametrize("edit, flags, field", [
        (lambda c: c.update(mc=5), [], "mc"),
        (lambda c: c.update(mc=5), ["--seed", "3"], "mc"),
        (lambda c: c.update(grid=[129]), [], "grid"),
        (lambda c: c["triplets"][0].update(time_grid="abc"), [], "triplets[0].time_grid"),
        (lambda c: c["triplets"][1].update(time_grid=1.0), [], "triplets[1].time_grid"),
        (lambda c: c["triplets"][0]["intervals"][0].update(factors=5), [],
         "triplets[0].intervals[0].factors"),
        # validate reads at most two triplets; a third would be dropped
        (lambda c: c["triplets"].append(bm_triplet_json()), [], "triplets"),
        # json parses NaN and Infinity; no experiment may run on them
        (lambda c: c["triplets"][0]["intervals"][0].update(drift=[math.nan]), [],
         "triplets[0].intervals[0].drift"),
        (lambda c: c["triplets"][1]["intervals"][0].update(cov=[[math.inf]]), [],
         "triplets[1].intervals[0].cov"),
        (lambda c: c["triplets"][0].update(time_grid=[0.0, -math.inf]), [],
         "triplets[0].time_grid"),
        (lambda c: c["triplets"][0]["intervals"][0].update(
            jumps={"type": "gaussian_cp", "intensity": math.inf, "cov": [[1.0]]}), [],
         "triplets[0].intervals[0].jumps.intensity"),
        (lambda c: c["grid"].update(T=math.nan), [], "grid.T"),
        (lambda c: c.update(experiment="kernel") or c["grid"].update(T=math.nan), [],
         "grid.T"),
        (lambda c: c.update(experiment="bounds") or c["grid"].update(T=math.nan), [],
         "grid.T"),
        (lambda c: c.update(experiment="mmd", ensemble={
            "dim": 1, "time_grid": [0.0, 1.0], "paths": [{"derivative": [[math.nan]]}]}),
         [], "ensemble.paths[0].derivative"),
        # integers beyond the float range
        (lambda c: c["grid"].update(T=10**400), [], "grid.T"),
        (lambda c: c["triplets"][0]["intervals"][0].update(drift=[10**400]), [],
         "triplets[0].intervals[0].drift"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, edit, flags, field):
        cfg_data = base_config("validate", points=9)
        edit(cfg_data)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err

    @pytest.mark.parametrize("experiment, edit, field", [
        ("kernel", lambda c: c["grid"].update(T=2.0), "grid.T"),
        ("validate", lambda c: c["grid"].update(T=2.0), "grid.T"),
        ("bounds", lambda c: c["grid"].update(T=3.0), "grid.T"),
        ("validate", lambda c: c["triplets"][1].update(time_grid=[0.0, 0.5]), "grid.T"),
        ("kernel", lambda c: c["triplets"].__setitem__(1, bm_triplet_json(dim=2)),
         "triplets[1].dim"),
        ("validate", lambda c: c["triplets"].__setitem__(1, bm_triplet_json(dim=2)),
         "triplets[1].dim"),
        ("mmd", lambda c: c.update(
            ensemble={"dim": 1, "time_grid": [0.0, 1.0], "paths": [{"derivative": [[0.5]]}]},
            wiener={"time_grid": [0.0, 0.5], "covs": [[[1.0]]]}), "wiener.time_grid"),
    ], ids=["kernel-T", "validate-T", "bounds-T", "validate-short-triplet", "kernel-dim",
            "validate-dim", "mmd-short-wiener"])
    def test_inconsistent_fields_name_a_field(self, tmp_path, capsys, experiment, edit,
                                              field):
        # each field is valid alone but not with the others: the error
        # names the field before any output is written
        cfg_data = base_config(experiment, points=9)
        edit(cfg_data)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("mc, flags, field", [
        ({"seed": 2**63}, [], "mc.seed"),
        ({"seed": -2**63 - 1}, [], "mc.seed"),
        ({}, ["--seed", str(2**64)], "mc.seed"),
        ({"n_paths": 1}, [], "mc.n_paths"),
        ({"steps": 0}, [], "mc.steps"),
    ])
    def test_monte_carlo_field_names_field(self, tmp_path, capsys, mc, flags, field):
        cfg_data = base_config("validate", points=9)
        cfg_data["mc"].update(mc)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err
        assert not (tmp_path / "o" / "validate.txt").exists()

    @pytest.mark.parametrize("factors, field", [
        (5, "wiener.factors[0]"), ([[1.0, 2.0]], "wiener.factors[1]"),
        ([["a"]], "wiener.factors[0]"), ([[float("nan")]], "wiener.factors[1]"),
        ([[10**400]], "wiener.factors[0]"),
    ])
    def test_wiener_factor_error_names_field(self, tmp_path, capsys, factors, field):
        wiener_factors = [[[1.0]], [[0.5]]]
        wiener_factors[int(field[-2])] = factors
        cfg_data = {
            "experiment": "mmd",
            "ensemble": {"dim": 1, "time_grid": [0.0, 1.0],
                         "paths": [{"derivative": [[0.0]]}]},
            "wiener": {"time_grid": [0.0, 0.5, 1.0], "factors": wiener_factors},
            "grid": {"s_points": 9, "T": 1.0},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err

    def test_mmd_rejects_a_rectangular_grid(self, tmp_path, capsys):
        # the mmd solves every surface on one square grid
        cfg_data = {
            "experiment": "mmd",
            "ensemble": {"dim": 1, "time_grid": [0.0, 1.0],
                         "paths": [{"derivative": [[0.5]]}]},
            "wiener": {"time_grid": [0.0, 1.0], "covs": [[[1.0]]]},
            "grid": {"s_points": 9, "t_points": 17, "T": 1.0},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.t_points:"), err

    def test_factor_covariances_are_one_computation(self):
        factors = [[0.3, -1.1], [0.7, 0.2], [-0.4, 0.9]]
        cfg = bm_triplet_json(dim=2)
        cfg["intervals"][0] = {"factors": factors}
        expected = np.zeros((2, 2))
        for sig in factors:
            expected += np.outer(sig, sig)
        trip = parse_triplet(cfg, "triplets[0]")
        wiener = cli_module._parse_wiener({"wiener": {"time_grid": [0.0, 1.0],
                                                      "factors": [factors]}}, 2)
        assert np.array_equal(trip.covs[0], expected)
        assert np.array_equal(wiener.covs[0], expected)

    def test_non_numeric_ensemble_time_grid(self, tmp_path, capsys):
        cfg_data = {
            "experiment": "mmd",
            "ensemble": {"dim": 1, "time_grid": ["a", "b"],
                         "paths": [{"derivative": [[0.0]]}]},
            "wiener": {"time_grid": [0.0, 1.0], "covs": [[[1.0]]]},
            "grid": {"s_points": 9, "T": 1.0},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "ensemble.time_grid" in capsys.readouterr().err


class TestValidateCommand:
    def test_gaussian_cp_validation_passes(self, tmp_path, capsys):
        cfg_data = base_config("validate")
        cfg_data["triplets"][1]["intervals"][0]["jumps"] = {
            "type": "gaussian_cp", "intensity": 1.0, "cov": [[1.0]]}
        cfg_data["levels"] = {"M": 4, "N": 4}
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        report = (out / "validate.txt").read_text()
        assert "FAIL" not in report
        assert report.count("PASS") == 4


    def test_levels_past_the_oracle_depth_cap(self, tmp_path):
        # d = 1 admits levels above the development oracles' depth cap of
        # 24: the oracles then run at the levels themselves
        cfg_data = base_config("validate", points=65)
        cfg_data["levels"] = {"M": 26, "N": 26}
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        report = (out / "validate.txt").read_text()
        assert report.count("PASS") == 4 and "FAIL" not in report


class TestMMDCommand:
    def test_mmd_csv_round_trip_and_determinism(self, tmp_path):
        cfg_data = {
            "experiment": "mmd",
            "ensemble": {"dim": 1, "time_grid": [0.0, 1.0],
                         "paths": [{"derivative": [[0.0]]}]},
            "wiener": {"time_grid": [0.0, 1.0], "covs": [[[1.0]]]},
            "grid": {"s_points": 257, "t_points": 257, "T": 1.0},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", cfg, "--output", str(out1)]) == 0
        assert main(["--config", cfg, "--output", str(out2)]) == 0
        text1 = (out1 / "mmd.csv").read_bytes()
        assert text1 == (out2 / "mmd.csv").read_bytes()
        rows = {tuple(r.split(",")[:3]): r.split(",")[3]
                for r in text1.decode().strip().split("\n")[1:]}
        mmd_sq = float(rows[("mmd_squared", "", "")])
        assert mmd_sq == pytest.approx(bessel_i0(1.0) - 1.0, abs=1e-6)
        assert float(rows[("mmd", "", "")]) == pytest.approx(math.sqrt(mmd_sq))


class TestBoundsCommand:
    def test_bounds_tables(self, tmp_path):
        cfg_data = base_config("bounds")
        cfg_data["levels"] = {"M": 3, "N": 3}
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")
        assert rows[0].startswith("triplet,level,")
        for row in rows[1:]:
            cells = row.split(",")
            exact_norm, level_bound = float(cells[2]), float(cells[3])
            assert exact_norm <= level_bound * (1 + 1e-12)
        rem = (out / "remainder.csv").read_text().strip().split("\n")
        assert rem[0] == "mode,rho,m,exact,asymptotic"
        assert len(rem) == 1 + 2 * 12

    def test_bounds_need_only_m_and_horizon(self, tmp_path):
        # bounds read levels.M and grid.T alone; N and the point counts are
        # optional and do not change a byte
        outputs = []
        for k, (grid, levels) in enumerate([
                ({"s_points": 9, "t_points": 1000, "T": 1.0}, {"M": 3, "N": 9}),
                ({"T": 1.0}, {"M": 3})]):
            cfg_data = base_config("bounds")
            cfg_data["grid"], cfg_data["levels"] = grid, levels
            cfg = write_config(tmp_path / f"cfg{k}.json", cfg_data)
            out = tmp_path / f"out{k}"
            assert main(["--config", cfg, "--output", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("bounds.csv", "remainder.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("edit, field", [
        (lambda c: c["levels"].update(N="x"), "levels.N"),
        (lambda c: c["grid"].update(s_points=2.5), "grid.s_points"),
        (lambda c: c["grid"].update(t_points="x"), "grid.t_points"),
        (lambda c: c["grid"].update(s_points=1), "grid"),
        (lambda c: c["grid"].pop("T"), "grid.T"),
    ], ids=["N", "s_points", "t_points", "s_points-range", "T-missing"])
    def test_bounds_check_the_fields_they_ignore(self, tmp_path, capsys, edit, field):
        cfg_data = base_config("bounds")
        edit(cfg_data)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err

    def test_every_triplet_is_checked_before_the_first_development(
            self, tmp_path, capsys, monkeypatch):
        # triplet 0 is valid; triplet 1 ends before grid.T
        from levy_sigkernel import development
        developed = []
        develop = development.develop
        monkeypatch.setattr(development, "develop",
                            lambda *args: developed.append(args) or develop(*args))
        cfg_data = base_config("bounds")
        cfg_data["triplets"][1]["time_grid"] = [0.0, 0.5]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.T:") and "triplets[1]" in err, err
        assert developed == []
        assert list((tmp_path / "o").iterdir()) == []


def bench_shaped_triplet(rng, time_grid, jumps, drift, vol, jump_scale):
    """A d = 2 triplet config shaped like the benchmark's: random drift and
    covariance per interval, Gaussian jumps of intensity 1.5 on the first."""
    def cov(scale):
        f = rng.uniform(-scale, scale, size=(2, 2))
        return (f @ f.T).tolist()

    intervals = []
    for i in range(len(time_grid) - 1):
        iv = {"drift": rng.uniform(-drift, drift, size=2).tolist(),
              "cov": cov(vol), "jumps": None}
        if i == 0 and jumps:
            iv["jumps"] = {"type": "gaussian_cp", "intensity": 1.5,
                           "cov": cov(jump_scale)}
        intervals.append(iv)
    return {"dim": 2, "state_depth": 1, "time_grid": time_grid, "intervals": intervals}


class TestBudgetBelowStateDepth:
    """A coefficient budget that caps the depth below ``state_depth`` still
    runs the config, at ``state_depth``."""

    @pytest.mark.parametrize("experiment", ["kernel", "bounds"])
    def test_runs_at_state_depth(self, tmp_path, monkeypatch, experiment):
        from levy_sigkernel import cli
        monkeypatch.setattr(cli, "_MAX_VELOCITY_COEFFS", 6)   # flat_size(2, 2) = 7
        trip = {"dim": 2, "state_depth": 2, "time_grid": [0.0, 1.0],
                "intervals": [{"drift": [0.1, -0.2], "cov": np.eye(2).tolist(),
                               "area": [[0.0, 0.3], [-0.3, 0.0]]}]}
        cfg = write_config(tmp_path / "cfg.json", {
            "experiment": experiment, "triplets": [trip, trip],
            "grid": {"s_points": 9, "t_points": 9, "T": 1.0},
            "levels": {"M": 1, "N": 1}})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--output", str(out)]) == 0
        if experiment == "kernel":
            assert "velocity depths 2/2" in (out / "certificate.txt").read_text()


class TestCertifiedDepths:
    """kernel and validate on small configs of the benchmark's shapes form
    no velocity and no development deeper than 14 (the coefficient budget
    allows 19 at d = 2), and the printed certificate is the one recomputed
    from ``characteristic_velocity`` at the printed depths."""

    MAX_DEPTH = 14

    @pytest.fixture
    def depths(self, monkeypatch):
        from levy_sigkernel import characteristics, cli, development
        seen = []

        def record(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                seen.append((name, args[-1]))
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        def record_levels(module, name):
            # each level the generator yields, so a lazy consumer (the depth
            # search) is seen at the depth it reaches, not the one it asks for
            real = getattr(module, name)

            def wrapper(*args):
                for n, level in enumerate(real(*args)):
                    seen.append((name, n))
                    yield level
            monkeypatch.setattr(module, name, wrapper)

        record(cli, "characteristic_velocity")
        record_levels(characteristics, "_velocity_levels")   # every velocity level built
        # the commands import develop when they run, so they read this
        # binding, as the oracle helper does
        record(development, "develop")
        return seen

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kernel(self, tmp_path, depths, seed):
        rng = np.random.default_rng(seed)
        cfg_data = {
            "experiment": "kernel",
            "triplets": [bench_shaped_triplet(rng, [0.0, 0.4, 1.0], True, 0.6, 0.5, 0.4)
                         for _ in range(2)],
            "grid": {"s_points": 33, "t_points": 33, "T": 1.0},
            "levels": {"M": 3, "N": 3},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert {name for name, _ in depths} == {"characteristic_velocity", "_velocity_levels"}
        assert max(depth for _, depth in depths) <= self.MAX_DEPTH
        lines = (tmp_path / "o" / "certificate.txt").read_text().splitlines()
        printed = lines[1].removeprefix("truncation_certificate = ")
        da, db = map(int, lines[2].split("velocity depths ")[1].split("/"))
        va, vb = (characteristic_velocity(parse_triplet(t, "t"), d)
                  for t, d in zip(cfg_data["triplets"], (da, db)))
        assert printed == repr(truncation_certificate(va, vb, 3, 3, 1.0, 1.0))

    def test_validate(self, tmp_path, depths):
        rng = np.random.default_rng(3)
        cfg_data = {
            "experiment": "validate",
            "triplets": [bench_shaped_triplet(rng, [0.0, 0.5, 1.0], True, 0.3, 0.35, 0.3),
                         bench_shaped_triplet(rng, [0.0, 0.5, 1.0], False, 0.3, 0.35, 0.0)],
            "grid": {"s_points": 33, "T": 1.0},
            "levels": {"M": 4, "N": 4},
            "mc": {"n_paths": 2000, "steps": 4, "seed": 11},
        }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "validate.txt").read_text().splitlines()
        assert len(report) == 4 and all(ln.startswith("PASS ") for ln in report)
        assert {name for name, _ in depths} == {"characteristic_velocity", "_velocity_levels",
                                                "develop"}
        assert max(depth for _, depth in depths) <= self.MAX_DEPTH


WORKLOADS = benchmark_workloads()


def cli_subprocess(cfg, out):
    """Run the CLI in a fresh interpreter; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "levy_sigkernel.cli", "--config", cfg,
                           "--output", str(out)], env=env, capture_output=True, text=True)


class TestValidateRepeats:
    """Two ``cmd_validate`` runs in one process write the same bytes: the
    Monte Carlo signatures reuse their buffers across the two estimator
    sides and must carry nothing from one call into the next."""

    def test_byte_identical_report(self, tmp_path, capsys):
        cfg_data = WORKLOADS.validate_config(2, small=True)
        reports = []
        for k in range(2):
            out = tmp_path / f"o{k}"
            out.mkdir()
            assert cmd_validate(json.loads(json.dumps(cfg_data)), str(out)) == 0
            reports.append((out / "validate.txt").read_bytes())
        assert reports[0] == reports[1]
        assert reports[0].count(b"PASS") == 4 and b"mc-vs-solver" in reports[0]


class TestNaNSurface:
    """A surface whose w holds NaN ends the run with a typed error (exit 1)
    and writes no table; the benchmark's small configs with one overflowing
    input."""

    def test_kernel(self, tmp_path, capsys):
        cfg_data = WORKLOADS.kernel_config(1, small=True)
        cfg_data["triplets"][0]["intervals"][0]["drift"] = [1e150, 0.0]
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        with np.errstate(all="ignore"):
            assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN" in err, err
        assert not (tmp_path / "o" / "kernel.csv").exists()

    def test_mmd(self, tmp_path, capsys):
        cfg_data = WORKLOADS.mmd_config(1, small=True)
        cfg_data["ensemble"]["paths"][0]["derivative"][0][0] = 1e300
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        with np.errstate(all="ignore"):
            assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN" in err, err
        assert not (tmp_path / "o" / "mmd.csv").exists()


class TestNaNSurfaceStderr:
    """In a fresh interpreter, with numpy's warnings at their defaults, a NaN
    surface writes one line to stderr: the ``error:`` line.  Overflow and
    invalid-value warnings with source paths used to come before it."""

    @pytest.mark.parametrize("experiment", ["kernel", "mmd"])
    def test_stderr_holds_only_the_error(self, tmp_path, experiment):
        if experiment == "kernel":
            cfg_data = WORKLOADS.kernel_config(1, small=True)
            cfg_data["triplets"][0]["intervals"][0]["drift"] = [1e150, 0.0]
        else:
            cfg_data = WORKLOADS.mmd_config(1, small=True)
            cfg_data["ensemble"]["paths"][0]["derivative"][0][0] = 1e300
        proc = cli_subprocess(write_config(tmp_path / "cfg.json", cfg_data), tmp_path / "o")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "NaN" in lines[0], \
            proc.stderr


class TestOversizedConfigs:
    """Sizes the run cannot hold end with a message, not a traceback.  Each
    size here is rejected by the coefficient budget or exceeds the address
    space, so nothing is allocated for real."""

    @pytest.mark.parametrize("experiment, level", [
        ("kernel", "M"), ("kernel", "N"), ("validate", "M"), ("validate", "N"),
        ("bounds", "M")])
    def test_level_above_the_budget(self, tmp_path, capsys, experiment, level):
        # flat_size(2, 20) = 2**21 - 1 coefficients, above the 2e6 budget
        name = "validate-jumps-d2" if experiment == "validate" else "kernel-jumps-d2"
        cfg_data = WORKLOADS.CONFIGS[name](1, small=True)
        cfg_data["experiment"] = experiment
        cfg_data["levels"][level] = 20
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: levels.{level}:"), err

    @pytest.mark.parametrize("experiment, level", [
        ("kernel", "M"), ("kernel", "N"), ("validate", "M"), ("validate", "N")])
    def test_solve_tables_above_the_budget(self, tmp_path, capsys, experiment, level):
        # flat_size(2, 19) is within the budget, but the solve's side tables
        # would hold a flat_size(2, 18) = 524287-square identity (2 TiB)
        name = "validate-jumps-d2" if experiment == "validate" else "kernel-jumps-d2"
        cfg_data = WORKLOADS.CONFIGS[name](1, small=True)
        cfg_data["levels"][level] = 19
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: levels.{level}:") and "state width" in err, err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_solve_budget_edge(self):
        # D = flat(M-1) + flat(N-1) - 1 at d = 2: 1021 at M = N = 9 (D^2
        # within 2e6), 1533 and 2045 above it; the larger level is named
        from levy_sigkernel import cli
        cli._check_solve_budget(2, 9, 9)
        for m, n, name in [(10, 9, "levels.M"), (9, 10, "levels.N"), (10, 10, "levels.M")]:
            with pytest.raises(ConfigError) as info:
                cli._check_solve_budget(2, m, n)
            assert info.value.field == name

    def test_out_of_memory(self, tmp_path):
        # 10**15 paths ask for petabytes of Monte Carlo noise
        cfg_data = WORKLOADS.validate_config(1, small=True)
        cfg_data["mc"]["n_paths"] = 10**15
        proc = cli_subprocess(write_config(tmp_path / "cfg.json", cfg_data), tmp_path / "o")
        assert proc.returncode == 1
        assert "error: out of memory:" in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


class TestUnwritableOutput:
    """An output that cannot be written ends in one ``error:`` line naming
    the path, exit code 1, and leaves no temporary file."""

    OUTPUTS = {"kernel": ("kernel-jumps-d2", "kernel.csv"),
               "mmd": ("mmd-area-m8", "mmd.csv"),
               "validate": ("validate-jumps-d2", "validate.txt")}

    def run(self, tmp_path, capsys, experiment, out):
        name, _ = self.OUTPUTS[experiment]
        cfg = write_config(tmp_path / "cfg.json", WORKLOADS.CONFIGS[name](1, small=True))
        assert main(["--config", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("experiment", sorted(OUTPUTS))
    def test_output_under_a_regular_file(self, tmp_path, capsys, experiment):
        (tmp_path / "notadir").write_text("")
        err = self.run(tmp_path, capsys, experiment, tmp_path / "notadir" / "x")
        assert "Not a directory" in err and str(tmp_path / "notadir" / "x") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "notadir"]

    @pytest.mark.parametrize("experiment", sorted(OUTPUTS))
    def test_directory_at_the_output_name(self, tmp_path, capsys, experiment):
        target = tmp_path / "o" / self.OUTPUTS[experiment][1]
        target.mkdir(parents=True)
        err = self.run(tmp_path, capsys, experiment, tmp_path / "o")
        assert "Is a directory" in err and str(target) in err
        assert [p.name for p in (tmp_path / "o").iterdir()] == [target.name]
        assert not any(target.iterdir())

    @pytest.mark.parametrize("where", ["missing_directory", "directory_at_the_name"])
    def test_write_example(self, tmp_path, capsys, where):
        target = tmp_path / "nonexistent" / "x.json"
        if where == "directory_at_the_name":
            target.mkdir(parents=True)
        assert main(["--write-example", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: cannot write example config") and str(target) in err
        assert [p.name for p in tmp_path.rglob("*")] == (
            [] if where == "missing_directory" else ["nonexistent", "x.json"])

    def test_taken_temporary_name(self, tmp_path, capsys):
        # kernel.csv is written under <path>.<pid>.tmp: a file already
        # there is not the run's to overwrite or remove
        taken = tmp_path / "o" / f"kernel.csv.{os.getpid()}.tmp"
        taken.parent.mkdir()
        taken.write_text("someone else's")
        err = self.run(tmp_path, capsys, "kernel", tmp_path / "o")
        assert "File exists" in err and str(taken) in err
        assert [p.name for p in (tmp_path / "o").iterdir()] == [taken.name]
        assert taken.read_text() == "someone else's"


class TestWholeOutputs:
    """Every CLI output but ``kernel.csv`` (the block writer's) is written
    whole or not at all by ``_forks.write_text``."""

    @pytest.fixture
    def written(self, monkeypatch):
        names, real = [], _forks.write_text
        monkeypatch.setattr(_forks, "write_text", lambda path, text:
                            names.append(os.path.basename(path)) or real(path, text))
        return names

    @pytest.mark.parametrize("experiment, workload, names", [
        ("kernel", "kernel-jumps-d2", ["certificate.txt"]),
        ("mmd", "mmd-area-m8", ["mmd.csv"]),
        ("validate", "validate-jumps-d2", ["validate.txt"]),
        ("bounds", "kernel-jumps-d2", ["bounds.csv", "remainder.csv"])])
    def test_outputs(self, tmp_path, written, experiment, workload, names):
        cfg_data = WORKLOADS.CONFIGS[workload](1, small=True)
        cfg_data["experiment"] = experiment
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o")]) == 0
        assert written == names
        assert not [p for p in (tmp_path / "o").iterdir() if p.name.endswith(".tmp")]

    def test_write_example(self, tmp_path, written):
        target = tmp_path / "example.json"
        assert main(["--write-example", str(target)]) == 0
        assert written == ["example.json"]
        assert target.read_text() == json.dumps(cli_module.examples_config(), indent=2)
        assert [p.name for p in tmp_path.iterdir()] == ["example.json"]


class TestShortestRoundTrip:
    """Every float the CLI writes is the shortest repr that round-trips."""

    # columns that hold labels or integers, not floats
    LABELS = {"triplet", "level", "mode", "m", "kind", "j", "k"}

    def test_every_number_round_trips(self, tmp_path):
        bounds = WORKLOADS.kernel_config(1, small=True)
        bounds["experiment"] = "bounds"
        runs = [(WORKLOADS.kernel_config(1, small=True), ["kernel.csv"]),
                (WORKLOADS.mmd_config(1, small=True), ["mmd.csv"]),
                (bounds, ["bounds.csv", "remainder.csv"])]
        checked = 0
        for k, (cfg_data, tables) in enumerate(runs):
            out = tmp_path / f"o{k}"
            cfg = write_config(tmp_path / f"cfg{k}.json", cfg_data)
            assert main(["--config", cfg, "--output", str(out)]) == 0
            for table in tables:
                header, *rows = (out / table).read_text().splitlines()
                columns = header.split(",")
                for row in rows:
                    for column, x in zip(columns, row.split(","), strict=True):
                        if column not in self.LABELS:
                            assert repr(float(x)) == x, (table, row)
                            checked += 1
        assert checked > 0


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter, with the
    package's source directory on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(levy_sigkernel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the package's exports, by the module that defines each
EXPORTS = {
    "characteristics": ("AtomicJumps", "GaussianJumps", "LevyTriplet", "PiecewiseVelocity",
                        "characteristic_velocity", "exponential_moment_value",
                        "factor_covariance", "gaussian_tensor_moment"),
    "development": ("bell_polynomials", "bound_gronwall", "bound_inner_truncation",
                    "bound_level", "bound_lipschitz", "bound_outer_truncation", "develop",
                    "expected_signature", "gaussian_jump_tail_bound", "gaussian_mgf_moment",
                    "remainder_diagnostics"),
    "errors": ("ConfigError", "DepthTooSmall", "DimMismatch", "GridMismatch",
               "InvalidParameter", "InvalidTriplet", "InvalidWord", "LevySigKernelError",
               "NumericalInconsistency", "OutOfRange", "ScalarPartError", "Unsupported"),
    "kernel_solver": ("KernelSurface", "apriori_psi", "bessel_i0", "log_apriori_psi",
                      "make_grid", "solve_goursat_scalar", "solve_truncated_system",
                      "truncation_certificate"),
    "mc_oracle": ("SignatureEstimate", "SimulatedPaths", "estimate_expected_signature",
                  "estimate_kernel", "path_signature", "simulate_paths"),
    "mmd": ("AugmentedPathEnsemble", "MMDReport", "WienerSpec", "mmd_to_wiener"),
    "tensor_algebra": ("LevelNorms", "TruncatedTensor", "adjoint_left", "adjoint_right",
                       "dilate", "exp_tensor", "inner_product", "level_norms", "log_tensor",
                       "max_level_norm", "norm_p", "tensor_mul", "truncate", "word_index"),
}
# the modules that only some commands use
COMMAND_MODULES = ("development", "mc_oracle", "mmd")
# prints the names of the loaded submodules on one line
LOADED = ("print('loaded:', *sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('levy_sigkernel.')))")


def identifiers(path, strings=False):
    """The identifiers of a Python file, comments left out, and strings
    (docstrings included) left out too unless ``strings``."""
    found = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                found.add(tok.string)
            elif strings and tok.type == tokenize.STRING:
                found.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return found


def exports_without_users(exports):
    """The names of ``exports`` (name -> defining module) that no other
    module of the package, no benchmark file (which names its spans in
    strings), not the acceptance suite and no code in the README uses."""
    package = os.path.dirname(levy_sigkernel.__file__)
    modules = {os.path.basename(p)[:-3]: identifiers(p)
               for p in glob.glob(os.path.join(package, "*.py"))}
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    readme_code = re.findall(r"```.*?```", readme, re.S) + re.findall(r"`[^`\n]+`", readme)
    users = set().union(
        *(identifiers(p, strings=True)
          for p in glob.glob(os.path.join(REPO, "perfbench", "*.py"))),
        identifiers(os.path.join(REPO, "tests", "test_acceptance.py")),
        re.findall(r"[A-Za-z_]\w*", "\n".join(readme_code)))
    return [name for name, home in sorted(exports.items()) if name not in users
            and not any(name in found for module, found in modules.items()
                        if module not in ("__init__", home))]


class TestExportsHaveUsers:
    def test_every_export_has_a_user(self):
        assert exports_without_users(levy_sigkernel._EXPORTS) == []

    def test_an_export_without_a_user_is_found(self):
        # used only inside its own module, or only by a test, is not a user
        exports = dict(levy_sigkernel._EXPORTS, _level_norm="tensor_algebra",
                       reference_drift="characteristics")
        assert exports_without_users(exports) == ["_level_norm", "reference_drift"]


class TestEntryPoints:
    def test_import_does_not_load_scipy(self):
        # scipy is imported lazily by exponential_moment_value alone; loaded
        # at import time it took most of the CLI's start-up time and memory
        out = run_fresh("import sys, levy_sigkernel.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        out = run_fresh(f"import sys, levy_sigkernel; {LOADED}")
        assert out.split() == ["loaded:"]

    def test_cli_import_loads_no_command_module(self):
        loaded = run_fresh(f"import sys, levy_sigkernel.cli; {LOADED}").split()
        assert "cli" in loaded and not set(COMMAND_MODULES) & set(loaded)

    @pytest.mark.parametrize("experiment, unused", [
        ("kernel", COMMAND_MODULES), ("mmd", ("development", "mc_oracle"))])
    def test_run_loads_only_its_modules(self, tmp_path, experiment, unused):
        # the kernel triplet's covariance comes from factors, as a Wiener
        # measure's can
        if experiment == "kernel":
            cfg_data = base_config(points=9)
            cfg_data["triplets"][0]["intervals"][0] = {"factors": [[0.8], [0.6]]}
        else:
            cfg_data = WORKLOADS.CONFIGS["mmd-area-m8"](2, small=True)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = run_fresh("import sys; from levy_sigkernel.cli import main; "
                        f"print(main(['--config', {cfg!r}, '--output', "
                        f"{str(tmp_path / 'o')!r}])); {LOADED}")
        code, loaded = out.strip().splitlines()[-2:]
        loaded = loaded.split()
        assert code == "0" and ("mmd" in loaded) == (experiment == "mmd")
        assert not set(unused) & set(loaded)

    def test_exports_are_the_defining_modules_objects(self):
        # each name through the package attribute, ``from ... import`` and
        # ``import *``; factor_covariance is also mmd's
        out = run_fresh(
            "import importlib, levy_sigkernel\n"
            "from levy_sigkernel import *\n"
            f"exports = {EXPORTS!r}\n"
            "bad = []\n"
            "for module, names in exports.items():\n"
            "    home = importlib.import_module('levy_sigkernel.' + module)\n"
            "    for name in names:\n"
            "        obj = getattr(home, name)\n"
            "        scope = {}\n"
            "        exec(f'from levy_sigkernel import {name}', scope)\n"
            "        same = (getattr(levy_sigkernel, name), scope[name], globals()[name])\n"
            "        if any(x is not obj for x in same) or obj.__module__ != home.__name__:\n"
            "            bad.append(name)\n"
            "mmd = importlib.import_module('levy_sigkernel.mmd')\n"
            "print(bad, mmd.factor_covariance is factor_covariance)\n"
            "print(sorted(levy_sigkernel.__all__) == sorted(sum(exports.values(), ())),\n"
            "      set(levy_sigkernel.__all__) <= set(dir(levy_sigkernel)),\n"
            "      levy_sigkernel.__version__, hasattr(levy_sigkernel, 'no_such_name'))\n")
        assert out.splitlines() == ["[] True", "True True 0.1.0 False"]

    @pytest.mark.parametrize("experiment", ["kernel", "mmd"])
    def test_run_does_not_load_numpy_ma(self, tmp_path, experiment):
        # np.unique (behind np.union1d) imports numpy.ma on first use, which
        # costs 11-13 ms in a fresh interpreter
        if experiment == "kernel":
            cfg_data = base_config(points=9)
        else:
            cfg_data = {
                "experiment": "mmd",
                "ensemble": {"dim": 1, "time_grid": [0.0, 0.5, 1.0],
                             "paths": [{"derivative": [[0.3], [-0.2]]}]},
                "wiener": {"time_grid": [0.0, 0.25, 1.0], "covs": [[[1.0]], [[0.5]]]},
                "grid": {"s_points": 9, "T": 1.0},
            }
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        out = run_fresh("import sys; from levy_sigkernel.cli import main; "
                        f"code = main(['--config', {cfg!r}, '--output', "
                        f"{str(tmp_path / 'o')!r}]); "
                        "print(code, 'numpy.ma' in sys.modules)")
        assert out.strip().splitlines()[-1] == "0 False"

    def test_bound_lipschitz_does_not_load_numpy_ma(self):
        # the two velocity grids share the cut 0.5, which must be merged
        code = ("import sys; from levy_sigkernel.characteristics import PiecewiseVelocity; "
                "from levy_sigkernel.development import bound_lipschitz; "
                "from levy_sigkernel.tensor_algebra import TruncatedTensor as TT; "
                "x = [TT.from_levels(1, [[0.0], [c]]) for c in (1.0, -2.0, 0.5)]; "
                "v = PiecewiseVelocity(1, [0.0, 0.5, 1.0], x[:2]); "
                "u = PiecewiseVelocity(1, [0.0, 0.25, 0.5, 1.0], x); "
                "print(bound_lipschitz(v, u, 0.0, 1.0) > 0, 'numpy.ma' in sys.modules)")
        assert run_fresh(code).strip().splitlines()[-1] == "True False"

    def test_write_example(self, tmp_path):
        target = tmp_path / "example.json"
        assert main(["--write-example", str(target)]) == 0
        cfg = json.loads(target.read_text())
        assert cfg["experiment"] == "kernel"

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"experiment": "nope"})
        assert main(["--config", cfg]) == 2
        assert "experiment" in capsys.readouterr().err
