import codecs
import csv
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kryging
from kryging.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def exit_code(args):
    """run_cli's return value, or the code argparse exits with."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


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

    def test_thinning_that_keeps_no_node_exits_2(self, workdir, capsys):
        # round(16 * 0.03) = 0 nodes are left
        out = workdir / "x.csv"
        assert run_cli(["simulate", "--grid", "4x4", "--thin", 0.97, "--out", out]) == 2
        assert "error: thin fraction 0.97 keeps no node of the 4x4 grid" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("extent", ["0,1,0", "a,1,0,1"])
@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_bad_extent_exits_2(workdir, capsys, command, extent):
    args = ["--grid", "8x8", "--extent", extent, "--out", workdir / "x.out"]
    if command == "fit":
        args.append(simulate(workdir))
        capsys.readouterr()
    assert run_cli([command] + args) == 2
    assert "extent must be xmin,xmax,ymin,ymax" in capsys.readouterr().err


@pytest.mark.parametrize("extent", ["0,inf,0,1", "-inf,1,0,1", "0,1,nan,1"])
@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_non_finite_extent_exits_2_without_a_warning(workdir, capsys, command, extent):
    args = ["--grid", "8x8", f"--extent={extent}", "--out", workdir / "x.out"]
    if command == "fit":
        args.append(simulate(workdir))
        capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([command] + args) == 2
    assert [str(w.message) for w in caught] == []
    assert "error: grid extents must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["data", "config", "out"])
def test_directory_as_path_exits_2(workdir, capsys, role):
    data = simulate(workdir)
    folder = workdir / "folder"
    folder.mkdir()
    if role == "out":
        args = ["simulate", "--grid", "8x8", "--out", folder]
    else:
        args = ["fit", "--grid", "12x12", "--out", workdir / "f.npz",
                folder if role == "data" else data]
        if role == "config":
            args.append(f"@{folder}")
    assert exit_code(args) == 2
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value,message", [
    *((command, *row) for command in ("fit", "study") for row in [
        ("--grid", "12by12", "grid must look like N1xN2, got '12by12'"),
        ("--grid", "1x40", "grid must be at least 2x2, got 1x40"),
        ("--extent", "0,1,0", "extent must be xmin,xmax,ymin,ymax; got '0,1,0'"),
        ("--init", "2,0.5,0.1", "theta must have at least 4 components, got 3"),
        ("--max-iter", "0", "max_iter must be >= 1, got 0"),
        ("--nu", "0", "nu must be finite and positive, got 0.0"),
        ("--k", "0", "k must be >= 1, got 0"),
    ]),
    ("study", "--B", "0", "B must be >= 1, got 0"),  # fit has no --B
    ("study", "--seed", "-1", "seed must be >= 0, got -1"),  # nor --seed
])
def test_flag_values_are_checked_before_any_file_is_read(workdir, capsys, command, flag,
                                                         value, message):
    missing = workdir / "missing.csv"
    args = {"fit": ["fit", "--out", workdir / "x.npz", missing],
            "study": ["study", "modis", "--train", missing, "--test", missing]}
    assert run_cli([*args[command], flag, value]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "missing.csv" not in err


@pytest.mark.parametrize("command", ["simulate", "bootstrap"])
def test_negative_seed_exits_2_before_any_file_is_touched(workdir, capsys, command):
    missing = workdir / "missing.npz"
    args = {"simulate": ["simulate", "--grid", "8x8"],
            "bootstrap": ["bootstrap", "--fit", missing, "--locations", missing]}
    out = workdir / "out.csv"
    assert run_cli([*args[command], "--seed", "-3", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: seed must be >= 0, got -3" in err
    assert "missing" not in err
    assert not out.exists()


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
        assert "largest log-scale move from init: " in report
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

    def test_fewer_rows_than_mean_coefficients_exits_2_naming_file(self, workdir, capsys):
        short = workdir / "short.csv"
        short.write_text("lon,lat,y,a,b\n0.1,0.2,1,5,6\n0.4,0.7,2,3,1\n")
        rc = run_cli(["fit", "--grid", "8x8", "--out", workdir / "f.npz", short])
        assert rc == 2
        assert (f"error: {short}: fewer observations than mean coefficients"
                in capsys.readouterr().err)

    def test_missing_covariate_exits_2(self, workdir, capsys):
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--covariates", "elevation",
                      "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "elevation" in capsys.readouterr().err

    def test_duplicate_readings_fit(self, workdir):
        # two readings at each of two sites that cancel: A' b vanishes to
        # rounding at the least-squares mean, so Golub-Kahan stops at k = 0
        dup = workdir / "dup.csv"
        dup.write_text("lon,lat,y\n0.2,0.3,1\n0.2,0.3,-1\n0.7,0.6,2\n0.7,0.6,-2\n")
        rc = run_cli(["fit", "--grid", "4x4", "--k", 3, "--out", workdir / "dup.npz", dup])
        assert rc == 0
        assert (workdir / "dup.npz").exists()

    def test_locations_outside_grid_exit_2(self, workdir, capsys):
        data = simulate(workdir)  # unit square
        rc = run_cli(["fit", "--grid", "12x12", "--extent", "0,0.5,0,0.5",
                      "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    @staticmethod
    def recorded_maps(monkeypatch):
        """The (grid, map) pairs the CLI builds from here on."""
        from kryging import cli

        maps, real = [], cli.build_map

        def recording(locations, grid):
            maps.append((grid, real(locations, grid)))
            return maps[-1][1]

        monkeypatch.setattr(cli, "build_map", recording)
        return maps

    def test_auto_extent_puts_gridded_data_on_the_nodes(self, workdir, monkeypatch):
        data = simulate(workdir)  # 12x12 on the unit square
        maps = self.recorded_maps(monkeypatch)
        assert run_cli(["fit", "--grid", "12x12", "--k", 5, "--max-iter", 3,
                        "--out", workdir / "f.npz", data]) == 0
        [(_, amap)] = maps
        # one unit weight per observation, each on its own node
        np.testing.assert_array_equal(amap.indptr, np.arange(145))
        assert np.all(amap.data == 1.0)
        np.testing.assert_array_equal(np.sort(amap.indices), np.arange(144))

    def test_auto_extent_widens_an_axis_of_zero_width_by_1(self, workdir, monkeypatch):
        line = workdir / "line.csv"
        line.write_text("lon,lat,y\n0.1,0.5,1\n0.4,0.5,2\n0.9,0.5,0.5\n")
        maps = self.recorded_maps(monkeypatch)
        assert run_cli(["fit", "--grid", "4x4", "--k", 3, "--max-iter", 3,
                        "--out", workdir / "f.npz", line]) == 0
        [(grid, _)] = maps
        assert (grid.x_min, grid.x_max, grid.y_min, grid.y_max) == (0.1, 0.9, -0.5, 1.5)

    def test_auto_extent_refuses_targets_outside_the_training_box(self, workdir, capsys):
        rng = np.random.default_rng(5)
        rows = [f"{x:.4f},{y:.4f},{v:.4f}" for x, y, v in rng.uniform(0.2, 0.8, (30, 3))]
        data = workdir / "box.csv"
        data.write_text("lon,lat,y\n" + "\n".join(rows) + "\n")
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "6x6", "--k", 5, "--max-iter", 3,
                        "--out", fitfile, data]) == 0
        locs = workdir / "locs.csv"
        for target, rc in (("0.5,0.5", 0), ("0.9,0.5", 2)):
            locs.write_text(f"lon,lat\n{target}\n")
            assert run_cli(["predict", "--fit", fitfile, "--locations", locs,
                            "--out", workdir / "p.csv"]) == rc
        assert "1 locations outside grid extents, first offenders: [0]" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("header,flags", [
        ("lon,lat,y,a,a", []), ("lon,lat,y,a,b", ["--covariates", "a,a"]),
    ])
    def test_duplicate_covariate_exits_2(self, workdir, capsys, header, flags):
        bad = workdir / "dup.csv"
        bad.write_text(f"{header}\n0.1,0.2,1.0,5,7\n0.3,0.4,2.0,6,8\n")
        rc = run_cli(["fit", "--grid", "8x8", *flags, "--out", workdir / "f.npz", bad])
        assert rc == 2
        assert "duplicate column name(s): a" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_init_exits_2(self, workdir, capsys, beta):
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--init", f"{beta},1,0.5,0.1",
                      "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "beta must be finite" in capsys.readouterr().err

    def test_order_beyond_the_lattice_fits_as_full_order(self, workdir):
        # 144 observations on 144 nodes: GK stops after 144 steps, so an
        # order of millions must fit exactly like k = 144
        data = simulate(workdir)
        arrays = []
        for k in (144, 2_000_000):
            out = workdir / f"fit{k}.npz"
            assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", k,
                            "--max-iter", 3, "--out", out, data]) == 0
            with np.load(out) as z:
                arrays.append({key: z[key] for key in ("x_hat", "objective_trace", "rho")})
        for key, value in arrays[0].items():
            np.testing.assert_array_equal(arrays[1][key], value)

    def test_init_with_another_number_of_mean_coefficients_exits_2(self, workdir, capsys):
        data = workdir / "cov.csv"
        data.write_text("lon,lat,y,elev\n0.1,0.2,1,5\n0.4,0.7,2,3\n0.8,0.3,0.5,1\n")
        rc = run_cli(["fit", "--grid", "6x6", "--extent", "0,1,0,1", "--covariates", "elev",
                      "--init", "1,2,0.5,0.1", "--out", workdir / "c.npz", data])
        assert rc == 2
        assert "error: init gives 1 mean coefficient(s) for 2 column(s) of X" in (
            capsys.readouterr().err)
        assert not (workdir / "c.npz").exists()

    def test_init_gives_one_mean_coefficient_per_column_of_x(self, workdir):
        from kryging.data import load_fit_artifact

        data = workdir / "cov.csv"
        data.write_text("lon,lat,y,elev\n0.1,0.2,1,5\n0.4,0.7,2,3\n0.8,0.3,0.5,1\n")
        fitfile = workdir / "c.npz"
        assert run_cli(["fit", "--grid", "6x6", "--extent", "0,1,0,1", "--covariates", "elev",
                        "--init", "1,0.5,2,0.5,0.1", "--out", fitfile, data]) == 0
        res, _ = load_fit_artifact(fitfile)
        assert res.theta_hat.beta.size == 2

    def test_parse_error_reports_line(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("lon,lat,y\n0.1,0.2,1.0\n0.3,oops,2.0\n")
        rc = run_cli(["fit", "--grid", "8x8", "--out", workdir / "f.npz", bad])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, workdir):
        # Excel's "CSV UTF-8" starts the file with EF BB BF
        plain = simulate(workdir)
        marked = workdir / "bom.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for path in (plain, marked):
            rc = run_cli(["fit", "--grid", "12x12", "--k", 5, "--max-iter", 2,
                          "--out", path.with_suffix(".npz"), path])
            assert rc == 0
        with np.load(workdir / "sim.npz") as want, np.load(workdir / "bom.npz") as got:
            for key in ("x_hat", "beta", "sigma2", "locations", "y", "X"):
                assert got[key].tobytes() == want[key].tobytes()

    def test_oversized_field_exits_2(self, workdir, capsys):
        bad = workdir / "big.csv"
        bad.write_text(f"lon,lat,y\n0.1,0.2,1.0\n0.3,0.4,{'9' * (csv.field_size_limit() + 1)}\n")
        rc = run_cli(["fit", "--grid", "8x8", "--out", workdir / "f.npz", bad])
        assert rc == 2
        assert "error: line 3: field larger than field limit" in capsys.readouterr().err


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
        assert run_cli(["bootstrap", "--fit", fitted, "--locations", locs,
                        "--B", 5, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lon,lat,y_hat,se,ci_lo,ci_hi"
        assert len(lines) == 3

    def test_point_predictions_without_bootstrap(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "lon,lat,y_hat"

    def test_zero_rows_gives_header_only(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n")
        out = workdir / "pred.csv"
        assert run_cli(["bootstrap", "--fit", fitted, "--locations", locs,
                        "--B", 5, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["lon,lat,y_hat,se,ci_lo,ci_hi"]

    def test_zero_rows_without_bootstrap_gives_header_only(self, workdir, fitted):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n")
        out = workdir / "pred.csv"
        assert run_cli(["predict", "--fit", fitted, "--locations", locs,
                        "--out", out]) == 0
        assert out.read_text().splitlines() == ["lon,lat,y_hat"]

    def test_locations_outside_fitted_grid_exit_2(self, workdir, fitted, capsys):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n5.0,5.0\n")
        rc = run_cli(["predict", "--fit", fitted, "--locations", locs,
                      "--out", workdir / "pred.csv"])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_short_locations_row_exits_2(self, workdir, fitted, capsys):
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n0.25\n")
        rc = run_cli(["predict", "--fit", fitted, "--locations", locs,
                      "--out", workdir / "pred.csv"])
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
                        "--out", out]) == 0
        preds = [float(r[2]) for r in list(csv.reader(open(out)))[1:]]
        ys = [float(r[2]) for r in sim_rows]
        for yhat, y in zip(preds, ys):
            assert abs(yhat - y) < 3.0  # same scale, shrunk toward the mean

    def test_every_csv_has_crlf_lines_and_reads_back_bitwise(self, workdir, fitted):
        from kryging import (GridSpec, ModelData, ThetaParams, bootstrap_uq, build_map,
                             load_fit_artifact, predict, simulate_dataset)
        from kryging.data import read_locations

        def rows(path):
            text = path.read_bytes()
            assert text.endswith(b"\r\n") and text.count(b"\n") == text.count(b"\r\n")
            lines = text.decode().split("\r\n")[:-1]
            return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

        def same(got, want):
            want = np.asarray(want, dtype=float)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

        # simulate(workdir) wrote sim.csv and its truth on the unit square
        sim = simulate_dataset(GridSpec(12, 12), ThetaParams(np.array([10.0]), 2, 0.4, 0.2),
                               seed=3)
        header, values = rows(workdir / "sim.csv")
        assert header == "lon,lat,y"
        same(values, np.column_stack([sim.dataset.locations, sim.dataset.y]))
        header, values = rows(workdir / "sim.csv.truth.csv")
        assert header == "lon,lat,x,y"
        same(values, np.column_stack([GridSpec(12, 12).node_coords(), sim.x, sim.y]))

        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n0.25,0.75\n0.1,0.9\n")
        res, dataset = load_fit_artifact(fitted)
        targets = read_locations(locs)
        for command, extra in (("predict", []), ("bootstrap", ["--B", 3, "--seed", 4])):
            out = workdir / f"{command}.csv"
            assert run_cli([command, "--fit", fitted, "--locations", locs,
                            *extra, "--out", out]) == 0
            header, values = rows(out)
            if command == "predict":
                want = [predict(res, build_map(targets, res.grid))]
            else:
                data = ModelData(y=dataset.y, X=dataset.X, grid=res.grid, nu=res.theta_hat.nu,
                                 amap=build_map(dataset.locations, res.grid))
                pset = bootstrap_uq(res, data, targets, B=3, seed=4)
                want = [pset.y_hat, pset.se, pset.ci_lo, pset.ci_hi]
            assert header.split(",") == ["lon", "lat", "y_hat", "se", "ci_lo", "ci_hi"][
                : 2 + len(want)]
            same(values, np.column_stack([targets, *want]))


# the flags study modis once read for cross-validated starts, which its
# --init now lists
CV_FLAGS = ("--init-grid", "--cv-folds")
# (subcommand, flag) pairs each command once accepted and ignored, or no
# longer has (--tol, which fit read, and CV_FLAGS)
REMOVED_FLAGS = [
    ("fit", "--B"), ("fit", "--seed"), ("fit", "--tol"),
    *[("predict", f) for f in ("--k", "--init", "--tol", "--max-iter", "--nu", "--B", "--seed")],
    *[("bootstrap", f) for f in ("--k", "--init", "--tol", "--max-iter", "--nu")],
    *[("simulate", f) for f in ("--k", "--B", "--init", "--tol", "--max-iter")],
    ("study", "--tol"),
    *[("modis", f) for f in CV_FLAGS],
]
FLAG_VALUES = {"--B": "2", "--seed": "1", "--k": "5", "--init": "auto", "--tol": "1e-6",
               "--max-iter": "3", "--nu": "0.5", "--init-grid": "1,1,1,0.1", "--cv-folds": "3"}
# arguments each subcommand needs, so only the flag under test can fail
BASE_ARGS = {
    "fit": ["--out", "f.npz", "data.csv"],
    "predict": ["--fit", "f.npz", "--locations", "l.csv", "--out", "p.csv"],
    "bootstrap": ["--fit", "f.npz", "--locations", "l.csv", "--out", "p.csv"],
    "simulate": ["--out", "s.csv"],
    "study": [],
    "modis": ["--train", "t.csv", "--test", "v.csv"],
}
# the words that start a command line, where they are not the key of
# BASE_ARGS: "study" stands for a synthetic design, whose name follows it
COMMAND_WORDS = {"study": ["study", "settings"], "modis": ["study", "modis"]}


def words(command):
    return COMMAND_WORDS.get(command, [command])


def test_each_subcommand_has_only_its_own_flags():
    from kryging.cli import build_parser

    _, commands = build_parser()
    counts = {name: sum(a.dest != "help" for a in p._actions) for name, p in commands.items()}
    assert counts == {"fit": 9, "predict": 3, "bootstrap": 5, "simulate": 7, "study": 1,
                      "grid-scaling": 8, "settings": 8, "irregular": 8, "modis": 11}


@pytest.mark.parametrize("command,gone", [("fit", ["--tol"]), ("modis", list(CV_FLAGS))])
def test_help_lists_no_removed_flag(capsys, command, gone):
    assert exit_code([*words(command), "--help"]) == 0
    out = capsys.readouterr().out
    assert "--init" in out
    assert not [flag for flag in gone if flag in out]


def test_study_design_help_lists_only_its_own_flags(capsys):
    for design, foreign in (("settings", "--train"), ("modis", "--scale")):
        assert exit_code(["study", design, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: kryging study {design} ")
        assert foreign not in out


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_exits_2(workdir, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([*words(command), *BASE_ARGS[command], flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # the same setting in an @file is refused by the same message
    cfg = workdir / "run.cfg"
    cfg.write_text(f"{flag}={FLAG_VALUES[flag]}\n")
    assert exit_code([*words(command), f"@{cfg}", *BASE_ARGS[command]]) == 2
    assert f"unrecognized arguments: {flag}={FLAG_VALUES[flag]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(BASE_ARGS))
def test_unknown_flag_prints_the_subcommand_usage(workdir, capsys, command):
    # from argv, and from an @file before the other arguments, whose lines
    # the report takes as argparse expanded them
    cfg = workdir / "bogus.cfg"
    cfg.write_text("--bogus\n1\n")
    prog = " ".join(["kryging", *words(command)])
    for argv in ([*BASE_ARGS[command], "--bogus", "1"], [f"@{cfg}", *BASE_ARGS[command]]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*words(command), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} ")
        assert f"{prog}: error: unrecognized arguments: --bogus 1" in err


def test_unknown_flag_before_the_data_path_is_the_one_reported(workdir, capsys):
    # argparse hands the flag's value to the data positional, which leaves
    # the real data path over; the error names the flag and its value
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--bogus", "1", "--out", "x.npz", "d.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kryging fit ")
    assert err.rstrip().endswith("kryging fit: error: unrecognized arguments: --bogus 1")
    assert "d.csv" not in err


# study flags that only modis, or only the synthetic designs, read
MODIS_FLAGS = {"--grid": "5x5", "--extent": "0,1,0,1", "--train": "t.csv",
               "--test": "t.csv", "--nu": "2.5"}
SYNTHETIC_FLAGS = {"--scale": "0.5", "--replicates": "2"}


@pytest.mark.parametrize("design,flag", [
    *[(d, f) for d in ("grid-scaling", "settings", "irregular") for f in [*MODIS_FLAGS, *CV_FLAGS]],
    *[("modis", f) for f in SYNTHETIC_FLAGS],
])
def test_study_flag_of_another_design_exits_2(workdir, capsys, design, flag):
    value = {**FLAG_VALUES, **MODIS_FLAGS, **SYNTHETIC_FLAGS}[flag]
    base = BASE_ARGS["modis"] if design == "modis" else []
    cfg = workdir / "run.cfg"
    cfg.write_text(f"{flag}={value}\n")
    for setting, reported in (([flag, value], f"{flag} {value}"),
                              ([f"@{cfg}"], f"{flag}={value}")):
        assert exit_code(["study", design, *base, *setting]) == 2
        assert (f"kryging study {design}: error: unrecognized arguments: {reported}\n"
                in capsys.readouterr().err)


def test_study_designs_resolve_their_own_defaults(monkeypatch):
    from kryging import cli

    seen = {}
    monkeypatch.setattr(cli, "run_study", lambda design, **kwargs: seen.update(kwargs) or [])
    monkeypatch.setattr(cli, "format_study_tables", lambda results: "")
    assert run_cli(["study", "settings"]) == 0
    assert (seen["scale"], seen["replicates"]) == (1.0, 5)
    # acceptance criterion 9's command line
    seen.clear()
    monkeypatch.setattr(cli, "_study_modis", lambda args: seen.update(vars(args)) or 0)
    assert run_cli(["study", "modis", "--k", "200", "--train", "t.csv",
                    "--test", "v.csv", "--grid", "500x300", "--out", "o.txt"]) == 0
    assert (seen["grid"], seen["extent"], seen["init"]) == ("500x300", "auto", "auto")
    assert not {"scale", "replicates", "init_grid", "cv_folds"} & set(seen)


def test_study_design_can_come_from_a_file(workdir, monkeypatch):
    # the design is the line right after "study", its flags the lines after it
    from kryging import cli

    seen = []
    monkeypatch.setattr(cli, "run_study", lambda design, **kwargs: seen.append(
        (design, kwargs["replicates"])) or [])
    monkeypatch.setattr(cli, "format_study_tables", lambda results: "")
    cfg = workdir / "run.cfg"
    cfg.write_text("irregular\n--replicates=2\n")
    assert run_cli(["study", f"@{cfg}", "--replicates", "3"]) == 0
    assert seen == [("irregular", 3)]


def test_modis_reads_nu(workdir, monkeypatch):
    from kryging import cli

    seen = []
    monkeypatch.setattr(cli, "_study_modis", lambda args: seen.append(args.nu) or 0)
    cfg = workdir / "run.cfg"
    cfg.write_text("--nu=1.5\n")
    modis = ["study", "modis", "--train", "t.csv", "--test", "v.csv"]
    for setting in ([], ["--nu", "2.5"], [f"@{cfg}"]):
        assert run_cli([*modis, *setting]) == 0
    assert seen == [0.5, 2.5, 1.5]


@pytest.mark.parametrize("args,message", [
    (["bootstrap", "--fit", "f.npz", "--locations", "l.csv", "--B", "0", "--out", "p.csv"],
     "error: B must be >= 1, got 0"),
    (["study", "modis"], "the following arguments are required: --train, --test"),
    (["simulate", "--grid", "12by12", "--out", "s.csv"],
     "error: grid must look like N1xN2, got '12by12'"),
    (["simulate", "--theta", "1,two,0.5,0.1", "--out", "s.csv"],
     "error: theta must be beta,sigma2,tau2,rho; got '1,two,0.5,0.1'"),
    (["simulate", "--theta", "1,2,2,0.5,0.1", "--out", "s.csv"],
     "error: theta must have 4 components, got 5"),
    (["simulate", "--theta", "2,0.5,0.1", "--out", "s.csv"],
     "error: theta must have at least 4 components, got 3"),
])
def test_input_error_exits_2(workdir, capsys, monkeypatch, args, message):
    monkeypatch.chdir(workdir)
    assert exit_code(args) == 2
    assert message in capsys.readouterr().err
    assert not any(workdir.iterdir())


@pytest.mark.parametrize("args,message", [
    (["fit", "data.csv"], "the following arguments are required: --out"),
    (["fit", "--out", "f.npz", "a.csv", "b.csv"], "unrecognized arguments: b.csv"),
])
def test_usage_error_exits_2(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"kryging fit: error: {message}")


def test_config_line_without_equals_exits_2(workdir, capsys):
    # a line is one argument: "--max-iter 3" is neither --max-iter nor 3;
    # before the data path argparse takes it for that path, and the report
    # still names the line rather than the path
    cfg = workdir / "run.cfg"
    cfg.write_text("--k=5\n--max-iter 3\n")
    for argv in (["--out", "f.npz", "data.csv", f"@{cfg}"],
                 [f"@{cfg}", "--out", "f.npz", "data.csv"]):
        assert exit_code(["fit", *argv]) == 2
        assert "error: unrecognized arguments: --max-iter 3\n" in capsys.readouterr().err


class TestConfig:
    @pytest.mark.parametrize("command", sorted(BASE_ARGS))
    def test_every_own_long_flag_is_a_config_key(self, workdir, command):
        from kryging.cli import build_parser

        parser, commands = build_parser()
        lines, positionals, expected = [], [], {}
        for action in commands[words(command)[-1]]._actions:
            if not action.option_strings:
                positionals.append("x")
                continue
            if action.dest == "help":
                continue
            text, value = {int: ("3", 3), float: ("0.5", 0.5)}.get(action.type, ("x", "x"))
            lines.append(f"{action.option_strings[-1]}={text}")
            expected[action.dest] = value
        cfg = workdir / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        args = parser.parse_args([*words(command), f"@{cfg}", *positionals])
        assert {dest: getattr(args, dest) for dest in expected} == expected

    def test_config_supplies_required_flags(self, workdir):
        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 5, "--out", fitfile, data]) == 0
        cfg = workdir / "predict.cfg"
        cfg.write_text(f"--fit={fitfile}\n--locations={data}\n--out={workdir / 'a.csv'}\n")
        assert run_cli(["predict", f"@{cfg}"]) == 0
        assert run_cli(["predict", "--fit", fitfile, "--locations", data,
                        "--out", workdir / "b.csv"]) == 0
        a, b = (workdir / "a.csv").read_bytes(), (workdir / "b.csv").read_bytes()
        assert a == b and a.splitlines()[0] == b"lon,lat,y_hat"

    @pytest.mark.parametrize("command,line,message", [
        ("fit", "--k=five", "argument --k: invalid int value: 'five'"),
        ("study", "kriging", "argument design: invalid choice: 'kriging'"),
    ], ids=["k=five", "study=kriging"])
    def test_bad_config_value_names_the_flag(self, workdir, capsys, command, line, message):
        # a study design in a file is the line right after "study"
        cfg = workdir / "run.cfg"
        cfg.write_text(f"{line}\n")
        assert exit_code([command, f"@{cfg}", *BASE_ARGS[command]]) == 2
        assert f"kryging {command}: error: {message}" in capsys.readouterr().err

    def test_config_supplies_defaults_and_flags_override(self, workdir):
        data = simulate(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text("--k=15\n--max-iter=10\n")
        fitfile = workdir / "fit.npz"
        rc = run_cli(["fit", f"@{cfg}", "--grid", "12x12", "--extent", "0,1,0,1",
                      "--max-iter", 25, "--out", fitfile, data])
        assert rc == 0
        import numpy as np

        with np.load(fitfile, allow_pickle=True) as z:
            assert int(z["k"]) == 15  # from config
            assert int(z["iterations"]) <= 25  # flag overrides config

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        data = simulate(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text("--frobnicate=1\n")
        rc = exit_code(["fit", f"@{cfg}", "--out", workdir / "f.npz", data])
        assert rc == 2
        assert "unrecognized arguments: --frobnicate=1\n" in capsys.readouterr().err


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

    def test_clamp_threshold_is_not_an_option(self, workdir, capsys):
        # the 5% trust threshold is fixed; a nan here once disabled it
        data = simulate(workdir)
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--nu", "2.5",
                     "--init", "10,1,0.5,40", "--max-iter", 5,
                     "--clamp-threshold", "nan", "--out", workdir / "f.npz", data])
        assert exc.value.code == 2
        assert "--clamp-threshold" in capsys.readouterr().err
        assert not (workdir / "f.npz").exists()

    def test_bad_k_exits_2(self, workdir):
        data = simulate(workdir)
        rc = run_cli(["fit", "--grid", "12x12", "--k", 0,
                      "--out", workdir / "f.npz", data])
        assert rc == 2

    @pytest.mark.parametrize("flags,message", [
        (["--max-iter", "-5"], "max_iter must be >= 1, got -5"),
        (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        (["--nu", "0"], "nu must be finite and positive, got 0.0"),
        (["--nu=-inf", "--init", "1,1,0.5,0.1"], "nu must be finite and positive"),
    ])
    def test_out_of_range_settings_exit_2_before_the_data_is_read(self, workdir, capsys,
                                                                  flags, message):
        missing = workdir / "missing.csv"
        assert run_cli(["fit", *flags, "--out", workdir / "x.npz", missing]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "missing.csv" not in err


class TestStudyCommand:
    def test_settings_study_smoke(self, workdir, capsys):
        out = workdir / "study.txt"
        rc = run_cli(["study", "settings", "--scale", 0.08,
                      "--replicates", 1, "--k", 8, "--B", 3, "--max-iter", 10,
                      "--seed", 1, "--out", out])
        assert rc == 0
        text = out.read_text()
        assert "setting-1" in text and "setting-4" in text
        assert "rmse=" in text and "coverage=" in text and "se " in text
        assert "converged=" in text and "sigma2=" in text  # and parameter recovery

    def test_grid_scaling_study_smoke(self, workdir, capsys):
        rc = run_cli(["study", "grid-scaling", "--scale", 0.05,
                      "--replicates", 1, "--k", 5, "--B", 2, "--max-iter", 3])
        assert rc == 0
        out = capsys.readouterr().out
        # sizes 100..400 scaled by 0.05, at least 16 nodes a side
        labels = [line.split()[0] for line in out.splitlines() if "rmse=" in line]
        assert labels == ["16x16", "16x16", "16x16", "20x20"]
        assert out.count("sigma2=") == 4

    def test_init_defaults_to_the_runners_truth(self, monkeypatch):
        import inspect

        from kryging import cli, study

        seen = {}

        def runner(design, **kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(cli, "run_study", runner)
        monkeypatch.setattr(cli, "format_study_tables", lambda results: "")
        assert run_cli(["study", "settings"]) == 0
        assert seen["init"] == "truth"
        assert inspect.signature(study.run_replicate).parameters["init"].default == "truth"

    @pytest.mark.parametrize("dest, value", [("k", 50), ("B", 20), ("max_iter", 200),
                                             ("nu", 0.5), ("seed", 0)])
    def test_shared_flag_defaults_are_the_librarys(self, dest, value):
        import dataclasses
        import inspect

        from kryging import cli, estimation, likelihood, study

        library = {f.default for f in dataclasses.fields(likelihood.ModelData) if f.name == dest}
        for function in (estimation.fit, estimation.bootstrap_uq, study.run_replicate,
                         study.run_study):
            parameter = inspect.signature(function).parameters.get(dest)
            if parameter is not None and parameter.default is not parameter.empty:
                library.add(parameter.default)
        assert library == {value}
        _, commands = cli.build_parser()
        defaults = {name: p.get_default(dest) for name, p in commands.items()
                    if p.get_default(dest) is not None}
        assert defaults and set(defaults.values()) == {value}, defaults

    def test_modis_default_init_starts_from_auto(self, workdir, monkeypatch):
        # a real dataset has no generating parameters; "truth" means "auto"
        from kryging import cli

        train, test = self.modis_split(workdir, grid="8x8")
        inits = []
        real_fit = cli.fit

        def recording_fit(data, **kwargs):
            inits.append(kwargs["init"])
            return real_fit(data, **kwargs)

        monkeypatch.setattr(cli, "fit", recording_fit)
        assert run_cli(["study", "modis", "--train", train, "--test", test,
                        "--grid", "8x8", "--k", 5, "--B", 2, "--max-iter", 3]) == 0
        assert inits == ["auto"]

    @pytest.mark.parametrize("flag,name", [("--B", "B"), ("--k", "k"), ("--max-iter", "max_iter")])
    def test_synthetic_design_checks_flags_before_any_replicate(self, monkeypatch, capsys,
                                                                flag, name):
        from kryging import study

        monkeypatch.setattr(study, "run_replicate", lambda *a, **k: pytest.fail("ran"))
        assert run_cli(["study", "settings", flag, "0"]) == 2
        assert f"error: {name} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_scale_outside_the_positive_reals_exits_2(self, monkeypatch, capsys, scale):
        from kryging import study

        monkeypatch.setattr(study, "run_replicate", lambda *a, **k: pytest.fail("ran"))
        assert run_cli(["study", "settings", "--scale", scale]) == 2
        want = f"error: scale must be finite and positive, got {float(scale)}"
        assert want in capsys.readouterr().err

    def test_zero_replicates_exits_2(self, workdir, capsys):
        rc = run_cli(["study", "settings", "--scale", 0.08,
                      "--replicates", 0, "--k", 8, "--B", 3, "--max-iter", 10])
        assert rc == 2
        assert "replicates must be >= 1" in capsys.readouterr().err

    @staticmethod
    def modis_split(workdir, grid="14x14"):
        """Synthetic train/test CSVs (3/4 and 1/4 of the lattice rows)."""
        full = simulate(workdir, grid=grid, theta="20,2,0.3,0.2", seed=9)
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
        return train, test

    def test_modis_runner_on_synthetic_split(self, workdir, capsys):
        # exercise the archived-data code path with a synthetic stand-in
        train, test = self.modis_split(workdir)
        out = workdir / "modis.txt"
        rc = run_cli(["study", "modis", "--train", train, "--test", test,
                      "--grid", "14x14", "--k", 10, "--B", 4, "--max-iter", 15,
                      "--init", "20,1,1,0.1;20,2,0.3,0.2", "--out", out])
        assert rc == 0
        assert "cv init selection: candidate " in capsys.readouterr().out
        text = out.read_text()
        for metric in ("MAE=", "RMSE=", "CRPS=", "INT=", "CVG="):
            assert metric in text

    @pytest.mark.parametrize("folds", [-1, 0, 1, 148])
    def test_cv_folds_outside_range_exit_2(self, workdir, capsys, folds):
        # the fold count is fixed at 5, so every --cv-folds is refused,
        # by the parser, before a CSV is read
        train, test = self.modis_split(workdir)
        capsys.readouterr()
        assert exit_code(["study", "modis", "--train", train, "--test", test,
                          "--grid", "14x14", "--init", "20,1,1,0.1;auto",
                          "--cv-folds", folds]) == 2
        err = capsys.readouterr().err
        assert f"kryging study modis: error: unrecognized arguments: --cv-folds {folds}" in err

    @staticmethod
    def head_rows(path, count):
        """``path`` cut to its header and first ``count`` data rows."""
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: 1 + count]))
        return path

    def test_every_cv_fold_holds_a_row(self, workdir, capsys, monkeypatch):
        # 5 training rows in 5 folds: independent random labels would leave
        # some fold empty at most seeds, and its fit would fail; each
        # candidate is fitted once per fold, then the chosen one on all rows
        from kryging import cli

        train, test = self.modis_split(workdir, grid="8x8")
        self.head_rows(train, 5)
        inits = []
        real_fit = cli.fit
        monkeypatch.setattr(cli, "fit", lambda data, **kw: inits.append(
            (kw["init"], data.p)) or real_fit(data, **kw))
        rc = run_cli(["study", "modis", "--train", train, "--test", test,
                      "--grid", "8x8", "--k", 5, "--B", 2, "--max-iter", 3,
                      "--init", "20,2,0.3,0.2;auto"])
        assert rc == 0
        out = capsys.readouterr().out
        picked = int(out.split("cv init selection: candidate ")[1].split()[0])
        assert [p for _, p in inits] == [4] * 10 + [5]
        assert [init == "auto" for init, _ in inits] == [False] * 5 + [True] * 5 + [picked == 1]

    def test_modis_reads_the_test_covariates_by_name(self, workdir, capsys):
        # y = 5 + 3a + noise; a test CSV with its covariate columns in
        # another order scores as the same rows in the training order
        rng = np.random.default_rng(5)
        lon, lat = (v.ravel() for v in np.meshgrid(np.linspace(0, 1, 10), np.linspace(0, 1, 10)))
        a, b = rng.standard_normal((2, 100))
        y = 5 + 3 * a + 0.1 * rng.standard_normal(100)

        def write(name, rows, columns):
            values = {"lon": lon, "lat": lat, "y": y, "a": a, "b": b}
            path = workdir / name
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(columns)
                w.writerows(np.column_stack([values[c][rows] for c in columns]).tolist())
            return path

        train = write("train.csv", slice(0, 80), ["lon", "lat", "y", "a", "b"])
        scores = []
        for columns in (["lon", "lat", "y", "a", "b"], ["lon", "lat", "y", "b", "a"]):
            out = workdir / "modis.txt"
            assert run_cli(["study", "modis", "--train", train,
                            "--test", write("test.csv", slice(80, 100), columns),
                            "--grid", "10x10", "--k", 5, "--B", 2, "--max-iter", 3,
                            "--out", out]) == 0
            scores.append(out.read_text().split("time=")[0])
        assert scores[0] == scores[1]
        capsys.readouterr()
        test = write("test.csv", slice(80, 100), ["lon", "lat", "y", "b"])
        assert run_cli(["study", "modis", "--train", train, "--test", test,
                        "--grid", "10x10", "--k", 5, "--B", 2, "--max-iter", 3]) == 2
        assert f"error: {test}: covariate column(s) not found: a" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [1, 4])
    def test_cv_with_fewer_training_rows_than_folds_exits_2_before_any_fit(
            self, workdir, capsys, monkeypatch, rows):
        from kryging import cli

        train, test = self.modis_split(workdir, grid="8x8")
        self.head_rows(train, rows)
        monkeypatch.setattr(cli, "fit", lambda *a, **k: pytest.fail("fitted"))
        capsys.readouterr()
        assert run_cli(["study", "modis", "--train", train, "--test", test,
                        "--grid", "8x8", "--init", "auto;20,2,0.3,0.2"]) == 2
        err = capsys.readouterr().err
        assert (f"error: cross-validating 2 --init starts needs at least 5 training rows, "
                f"got {rows}") in err

    @pytest.mark.parametrize("command,init", [
        (["fit", "--out", "x.npz", "missing.csv"], "auto;auto"),
        (["fit", "--out", "x.npz", "missing.csv"], "auto;1,1,0.5,0.1"),
        (["study", "settings"], "truth;auto"),
    ])
    def test_a_list_of_starts_outside_study_modis_exits_2(self, workdir, capsys, command,
                                                          init):
        assert run_cli([*command, "--init", init]) == 2
        err = capsys.readouterr().err
        assert "error: --init takes one start here, got 2" in err
        assert "missing.csv" not in err

    @pytest.mark.parametrize("init,message", [
        ("auto;truth", "theta must be beta,sigma2,tau2,rho; got 'truth'"),
        ("auto;", "theta must be beta,sigma2,tau2,rho; got ''"),
        ("auto;1,0.5,0.1", "theta must have at least 4 components, got 3"),
    ])
    def test_each_modis_start_is_checked_before_the_csvs_are_read(self, workdir, capsys,
                                                                  init, message):
        missing = workdir / "missing.csv"
        assert run_cli(["study", "modis", "--train", missing, "--test", missing,
                        "--init", init]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "missing.csv" not in err


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


    @pytest.mark.parametrize("kept", [0.5, 0.0])
    def test_truncated_artifact_exits_2(self, workdir, capsys, kept):
        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        truncated = workdir / "trunc.npz"
        blob = fitfile.read_bytes()
        truncated.write_bytes(blob[: int(kept * len(blob))])
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["bootstrap", "--fit", truncated, "--locations", locs,
                      "--B", 2, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert f"{truncated}: not a readable fit artifact" in capsys.readouterr().err

    def test_artifact_with_an_infinite_extent_is_refused(self, workdir, capsys):
        from kryging.data import load_fit_artifact

        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        with np.load(fitfile, allow_pickle=False) as z:
            payload = dict(z)
        payload["grid"] = np.array([12, 12, 0.0, np.inf, 0.0, 1.0])  # n1, n2, extents
        forged = workdir / "forged.npz"
        np.savez(forged, **payload)
        with pytest.raises(ValueError, match="grid extents must be finite"):
            load_fit_artifact(forged)
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["bootstrap", "--fit", forged, "--locations", locs,
                      "--B", 2, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert "error: grid extents must be finite" in capsys.readouterr().err

    def test_artifact_missing_array_exits_2(self, workdir, capsys):
        data = simulate(workdir)
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "12x12", "--extent", "0,1,0,1", "--k", 10,
                        "--max-iter", 10, "--out", fitfile, data]) == 0
        with np.load(fitfile, allow_pickle=False) as z:
            payload = dict(z)
        del payload["grid"]
        gridless = workdir / "gridless.npz"
        np.savez(gridless, **payload)
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["bootstrap", "--fit", gridless, "--locations", locs,
                      "--B", 2, "--out", workdir / "pred.csv"])
        assert rc == 2
        assert f"{gridless}: fit artifact has no 'grid' array" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def fit_payload(self, tmp_path_factory):
        """The arrays of an 8x8 fit artifact."""
        workdir = tmp_path_factory.mktemp("fit")
        data = simulate(workdir, grid="8x8")
        fitfile = workdir / "fit.npz"
        assert run_cli(["fit", "--grid", "8x8", "--extent", "0,1,0,1", "--k", 5,
                        "--max-iter", 3, "--out", fitfile, data]) == 0
        with np.load(fitfile, allow_pickle=False) as z:
            return dict(z)

    @pytest.mark.parametrize("key, value", [
        ("grid", [np.inf, 8, 0.0, 1.0, 0.0, 1.0]),
        ("grid", [np.nan, 8, 0.0, 1.0, 0.0, 1.0]),
        ("grid", [8.5, 8, 0.0, 1.0, 0.0, 1.0]),
        ("grid", [8, 8, 0.0, 1.0]),
        ("k", np.inf),
        ("k", 5.7),
        ("iterations", [1, 2]),
        ("sigma2", [1.0, 2.0]),
        ("grid", [1e300, 8, 0.0, 1.0, 0.0, 1.0]),
        ("k", 1e300),
        ("x_hat", np.zeros(5)),
        ("y", np.zeros(3)),
        ("X", np.ones((64, 2))),  # one row per observation, one column too many
        ("beta", np.eye(2)),
        ("objective_trace", ["a", "b"]),
        ("covariate_names", [1]),
    ], ids=["grid-inf-size", "grid-nan-size", "grid-fractional-size", "grid-four-entries",
            "k-inf", "k-fractional", "iterations-two-values", "sigma2-two-values",
            "grid-huge-size", "k-huge", "x_hat-five-values",
            "y-three-values", "X-two-columns", "beta-two-by-two", "objective_trace-strings",
            "covariate_names-integers"])
    def test_malformed_stored_value_exits_2_naming_file_and_key(self, workdir, capsys,
                                                                 fit_payload, key, value):
        forged = workdir / "forged.npz"
        np.savez(forged, **{**fit_payload, key: np.array(value)})
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["predict", "--fit", forged, "--locations", locs,
                      "--out", workdir / "pred.csv"])
        assert rc == 2
        assert f"error: {forged}: fit artifact's {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("grid", [8, 8, 0.0, np.inf, 0.0, 1.0], "grid extents must be finite"),
        ("sigma2", -1.0, "sigma2 must be finite and positive, got -1.0"),
        ("nu", -0.5, "nu must be finite and positive, got -0.5"),
        ("beta", [np.nan], "beta must be finite"),
        ("y", np.full(64, np.nan), "non-finite values in y"),
    ], ids=["grid-extent", "sigma2-negative", "nu-negative", "beta-nan", "y-nan"])
    def test_refused_stored_value_exits_2_naming_file(self, workdir, capsys, fit_payload,
                                                     key, value, message):
        # the grid, the parameters and the training data refuse these values
        # themselves; the artifact reader adds which file held them
        forged = workdir / "forged.npz"
        np.savez(forged, **{**fit_payload, key: np.array(value)})
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["predict", "--fit", forged, "--locations", locs,
                      "--out", workdir / "pred.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert f"(in fit artifact {forged})" in err

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_non_archive_fit_file_exits_2(self, workdir, capsys, kind):
        # an np.save array and the training CSV are not fit archives
        data = simulate(workdir)
        fitfile = data
        if kind == "npy":
            fitfile = workdir / "arr.npy"
            np.save(fitfile, np.arange(5.0))
        locs = workdir / "locs.csv"
        locs.write_text("lon,lat\n0.5,0.5\n")
        rc = run_cli(["bootstrap", "--fit", fitfile, "--locations", locs,
                      "--B", 2, "--out", workdir / "pred.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{fitfile}: not a fit archive" in err
        assert "pickled" not in err

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
                        "--out", workdir / "pred.csv"]) == 0
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


@pytest.mark.parametrize("command", ["predict", "bootstrap"])
def test_prediction_from_a_covariate_fit_exits_2(workdir, capsys, command):
    rng = np.random.default_rng(4)
    rows = [f"{x:.4f},{y:.4f},{v:.4f},{e:.4f}" for x, y, v, e in rng.uniform(0, 1, (30, 4))]
    data = workdir / "cov.csv"
    data.write_text("lon,lat,y,elev\n" + "\n".join(rows) + "\n")
    fitfile = workdir / "fit.npz"
    assert run_cli(["fit", "--grid", "6x6", "--extent", "0,1,0,1", "--covariates", "elev",
                    "--k", 5, "--max-iter", 3, "--out", fitfile, data]) == 0
    capsys.readouterr()
    args = [command, "--fit", fitfile, "--locations", data, "--out", workdir / "p.csv"]
    if command == "bootstrap":
        args += ["--B", 2]
    assert run_cli(args) == 2
    assert "prediction with covariates requires programmatic use" in capsys.readouterr().err
    assert not (workdir / "p.csv").exists()


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
