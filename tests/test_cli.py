import json
import math

import numpy as np
import pytest

from levy_sigkernel.cli import main
from levy_sigkernel.kernel_solver import bessel_i0


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
    ])
    def test_config_error_names_field(self, tmp_path, capsys, edit, flags, field):
        cfg_data = base_config("validate", points=9)
        edit(cfg_data)
        cfg = write_config(tmp_path / "cfg.json", cfg_data)
        assert main(["--config", cfg, "--output", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:"), err

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


class TestEntryPoints:
    def test_write_example(self, tmp_path):
        target = tmp_path / "example.json"
        assert main(["--write-example", str(target)]) == 0
        cfg = json.loads(target.read_text())
        assert cfg["experiment"] == "kernel"

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"experiment": "nope"})
        assert main(["--config", cfg]) == 2
        assert "experiment" in capsys.readouterr().err
