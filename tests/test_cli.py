import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kryging
from kryging.cli import main


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def simulate(workdir, grid="12x12", theta="10,2,0.4,0.2", seed=3, thin=None):
    out = workdir / "sim.csv"
    args = ["simulate", "--grid", grid, "--theta", theta, "--seed", seed, "--out", out]
    if thin is not None:
        args += ["--thin", thin]
    assert run_cli(args) == 0
    return out


class TestSimulate:
    def test_deterministic_file_hash(self, workdir):
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        for out in (a, b):
            assert run_cli(["simulate", "--grid", "10x10", "--theta", "1,1,0.2,0.1",
                            "--seed", 5, "--out", out]) == 0
        ha = hashlib.sha256(a.read_bytes()).hexdigest()
        hb = hashlib.sha256(b.read_bytes()).hexdigest()
        assert ha == hb

    def test_truth_file_written(self, workdir):
        out = simulate(workdir)
        truth = out.parent / (out.name + ".truth.csv")
        rows = list(csv.reader(open(truth)))
        assert rows[0] == ["lon", "lat", "x", "y"]
        assert len(rows) == 1 + 144

    def test_thinning_row_count(self, workdir):
        out = simulate(workdir, grid="50x50", thin="0.96")
        rows = list(csv.reader(open(out)))
        assert len(rows) - 1 == round(2500 * 0.04)

    def test_mean_level_large_grid(self, workdir):
        # sample mean of y across a big lattice sits near the true mean
        out = workdir / "big.csv"
        assert run_cli(["simulate", "--grid", "400x400", "--theta", "44.49,3,0.5,0.1",
                        "--seed", 1, "--out", out]) == 0
        ys = np.array([float(r[2]) for r in list(csv.reader(open(out)))[1:]])
        # the field mean has sd ~ sqrt(sigma2) * rho = 0.17; allow 3 x
        assert abs(ys.mean() - 44.49) < 0.55

    def test_bad_theta_exits_2(self, workdir):
        assert run_cli(["simulate", "--grid", "8x8", "--theta", "1,2,3",
                        "--seed", 0, "--out", workdir / "x.csv"]) == 2


@pytest.mark.parametrize("extent", ["0,1,0", "a,1,0,1"])
@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_bad_extent_exits_2(workdir, capsys, command, extent):
    args = ["--grid", "8x8", "--extent", extent, "--out", workdir / "x.out"]
    if command == "fit":
        args.append(simulate(workdir))
        capsys.readouterr()
    assert run_cli([command] + args) == 2
    assert "extent must be xmin,xmax,ymin,ymax" in capsys.readouterr().err


class TestFit:
    def test_fit_writes_artifact_and_report(self, workdir, capsys):
        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        rc = run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 15,
                      "--max-iter", 40, "--out", fitfile, data])
        assert rc == 0
        assert fitfile.exists()
        report = (workdir / "fit.npz.report.txt").read_text()
        assert "clamp_count" in report
        assert "embedding failures: 0" in report
        assert "sigma2" in report
        out = capsys.readouterr().out
        assert "effective k" in out

    def test_empty_csv_exits_2(self, workdir, capsys):
        bad = workdir / "empty.csv"
        bad.write_text("lon,lat,y\n")
        rc = run_cli(["fit", "--grid", "8x8", "--out", workdir / "f.npz", bad])
        assert rc == 2
        assert "no observations" in capsys.readouterr().err

    def test_missing_covariate_exits_2(self, workdir, capsys):
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--covariates", "elevation",
                      "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "elevation" in capsys.readouterr().err

    def test_locations_outside_grid_exit_2(self, workdir, capsys):
        data = simulate(workdir)  # unit square
        rc = run_cli(["fit", "--grid", "12x12", "--extent", "0,0.5,0,0.5",
                      "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_parse_error_reports_line(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("lon,lat,y\n0.1,0.2,1.0\n0.3,oops,2.0\n")
        rc = run_cli(["fit", "--grid", "8x8", "--out", workdir / "f.npz", bad])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


class TestPredict:
    @pytest.fixture
    def fitted(self, workdir):
        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 15,
                        "--max-iter", 30, "--out", fitfile, data]) == 0
        return fitfile

    def test_header_contract_with_uncertainty(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n0.25,0.75\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--B", 5, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lon,lat,y_hat,se,ci_lo,ci_hi"
        assert len(lines) == 3

    def test_point_predictions_without_bootstrap(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--B", 0, "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "lon,lat,y_hat"

    def test_zero_rows_gives_header_only(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--B", 5, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["lon,lat,y_hat,se,ci_lo,ci_hi"]

    def test_zero_rows_without_bootstrap_gives_header_only(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--B", 0, "--out", out]) == 0
        assert out.read_text().splitlines() == ["lon,lat,y_hat"]

    def test_locations_outside_fitted_grid_exit_2(self, workdir, fitted, capsys):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n5.0,5.0\n")
        rc = run_cli(["predict", "--fit", fitted, "--locations", locs,
                      "--B", 0, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_short_locations_row_exits_2(self, workdir, fitted, capsys):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n0.25\n")
        rc = run_cli(["predict", "--fit", fitted, "--locations", locs,
                      "--B", 0, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert "error: line 3: expected 2 fields, got 1" in capsys.readouterr().err

    def test_bootstrap_subcommand(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.4,0.6\n")
        out = workdir / "pred.csv"
        assert run_cli(["bootstrap", "--fit", fitted, "--locations", locs,
                        "--B", 4, "--out", out]) == 0
        rows = list(csv.reader(open(out)))
        assert float(rows[1][3]) >= 0.0

    def test_roundtrip_recovers_training_values(self, workdir, fitted):
        # predicting at a training node lands near the observed value
        sim_rows = list(csv.reader(open(workdir / "sim.csv")))[1:4]
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n" + "\n".join(f"{r[0]},{r[1]}" for r in sim_rows))
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--B", 0, "--out", out]) == 0
        preds = [float(r[2]) for r in list(csv.reader(open(out)))[1:]]
        ys = [float(r[2]) for r in sim_rows]
        for yhat, y in zip(preds, ys):
            assert abs(yhat - y) < 3.0  # same scale, shrunk toward the mean


class TestConfig:
    def test_config_supplies_defaults_and_flags_override(self, workdir):
        data = simulate(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text("k=15\nmax_iter=10\nseed=4\n")
        fitfile = workdir / "fit.npz"
        rc = run_cli(["fit", "--config", cfg, "--grid", "12x12", "--extent", "0,1,0,1",
                      "--max-iter", 25, "--out", fitfile, data])
        assert rc == 0
        import numpy as np

        with np.load(fitfile, allow_pickle=True) as z:
            assert int(z["k"]) == 15  # from config
            assert int(z["iterations"]) <= 25  # flag overrides config

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        data = simulate(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        rc = run_cli(["fit", "--config", cfg, "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "frobnicate" in capsys.readouterr().err


class TestEntrypoint:
    def test_module_invocation(self, workdir):
        out = workdir / "sim.csv"
        # the child finds the package where this process imported it from
        src = str(Path(kryging.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "kryging.cli", "simulate", "--grid", "8x8",
             "--theta", "1,1,0.3,0.1", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestNumericalFailure:
    def test_embedding_failure_exits_3(self, workdir, capsys):
        # smooth kernel with a range far beyond the domain cannot embed
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--nu", "2.5",
                      "--init", "10,1,0.5,40", "--max-iter", 5,
                      "--out", workdir / "f.npz", data])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_k_exits_2(self, workdir):
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--k", 0,
                      "--out", workdir / "f.npz", data])
        assert rc == 2


class TestStudyCommand:
    def test_settings_study_smoke(self, workdir, capsys):
        out = workdir / "study.txt"
        rc = run_cli(["study", "--study", "settings", "--scale", 0.08,
                      "--replicates", 1, "--k", 8, "--B", 3, "--max-iter", 10,
                      "--seed", 1, "--out", out])
        assert rc == 0
        text = out.read_text()
        assert "setting-1" in text and "setting-4" in text
        assert "rmse=" in text and "coverage=" in text and "se " in text
        assert "sigma2=" in text  # parameter recovery table

    def test_modis_runner_on_synthetic_split(self, workdir, capsys):
        # exercise the archived-data code path with a synthetic stand-in
        full = simulate(workdir, grid="14x14", theta="20,2,0.3,0.2", seed=9)
        rows = list(csv.reader(open(full)))
        header, body = rows[0], rows[1:]
        train = workdir / "train.csv"
        test = workdir / "test.csv"
        with open(train, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(body[: 3 * len(body) // 4])
        with open(test, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(body[3 * len(body) // 4 :])
        out = workdir / "modis.txt"
        rc = run_cli(["study", "--study", "modis", "--train", train, "--test", test,
                      "--grid", "14x14", "--k", 10, "--B", 4, "--max-iter", 15,
                      "--init-grid", "20,1,1,0.1;20,2,0.3,0.2", "--cv-folds", 2,
                      "--out", out])
        assert rc == 0
        text = out.read_text()
        for metric in ("MAE=", "RMSE=", "CRPS=", "INT=", "CVG="):
            assert metric in text


class TestArtifact:
    def test_version_mismatch_rejected(self, workdir, capsys):
        import numpy as np
        from kryging.data import load_fit_artifact, InputError

        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        with np.load(fitfile, allow_pickle=True) as z:
            payload = dict(z)
        payload["format_version"] = np.array(99)
        forged = workdir / "forged.npz"
        np.savez_compressed(forged, **payload)
        with pytest.raises(InputError, match="version"):
            load_fit_artifact(forged)

    def test_object_array_artifact_refused(self, workdir, capsys):
        from kryging.data import load_fit_artifact, InputError

        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        # a fresh artifact holds no object arrays and loads without pickle
        _, dataset = load_fit_artifact(fitfile)
        assert dataset.covariate_names == ("intercept",)
        with np.load(fitfile, allow_pickle=False) as z:
            payload = dict(z)
        payload["covariate_names"] = np.array(["intercept"], dtype=object)
        forged = workdir / "forged.npz"
        np.savez_compressed(forged, **payload)
        with pytest.raises(InputError, match="refusing"):
            load_fit_artifact(forged)
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["bootstrap", "--fit", forged, "--locations", locs,
                      "--B", 2, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert "refusing" in capsys.readouterr().err


    def test_stop_reason_and_embedding_failures_round_trip(self, workdir, capsys):
        from kryging.data import load_fit_artifact, save_fit_artifact

        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        report = (workdir / "fit.npz.report.txt").read_text()
        res, dataset = load_fit_artifact(fitfile)
        assert res.diagnostics["stop_reason"] != "unknown"
        assert f"({res.diagnostics['stop_reason']})" in report
        assert res.diagnostics["embedding_failures"] == 0

        res.converged = False
        res.diagnostics.update(stop_reason="max_iter reached", embedding_failures=3)
        unconverged = workdir / "unconverged.npz"
        save_fit_artifact(unconverged, res, dataset)
        back, _ = load_fit_artifact(unconverged)
        assert back.diagnostics["stop_reason"] == "max_iter reached"
        assert back.diagnostics["embedding_failures"] == 3
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        capsys.readouterr()
        assert run_cli(["predict", "--fit", unconverged, "--locations", locs,
                        "--B", 0, "--out", workdir / "pred.csv"]) == 0
        assert "did not converge (max_iter reached)" in capsys.readouterr().err

    def test_artifact_without_stop_reason_loads(self, workdir):
        from kryging.data import load_fit_artifact

        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        with np.load(fitfile, allow_pickle=False) as z:
            payload = dict(z)
        del payload["stop_reason"], payload["embedding_failures"]
        older = workdir / "older.npz"
        np.savez_compressed(older, **payload)
        res, _ = load_fit_artifact(older)
        assert res.diagnostics["stop_reason"] == "unknown"
        assert res.diagnostics["embedding_failures"] == 0


class TestWriteDataset:
    def _dataset(self, names):
        from kryging.data import Dataset

        locs = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        X = np.column_stack([np.ones(3), [10.0, 20.5, 31.0]])
        return Dataset(locs, np.array([1.0, 2.0, 3.5]), X, names)

    @pytest.mark.parametrize("names", [(), ("elev",), ("elev", "intercept"), ("intercept",)])
    def test_unnamed_covariates_refused(self, workdir, names):
        from kryging.data import InputError, write_dataset

        out = workdir / "data.csv"
        with pytest.raises(InputError, match="covariate_names"):
            write_dataset(out, self._dataset(names))
        assert not out.exists()

    def test_named_covariates_round_trip(self, workdir):
        from kryging.data import read_dataset, write_dataset

        ds = self._dataset(("intercept", "elev"))
        out = workdir / "data.csv"
        write_dataset(out, ds)
        assert out.read_text().splitlines()[0] == "lon,lat,y,elev"
        back = read_dataset(out)
        assert back.covariate_names == ("intercept", "elev")
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.locations, ds.locations)
