import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import kryging
from kryging.grid import GridSpec, ThetaParams
from kryging.simulate import simulate_dataset
from kryging.study import (
    SETTING_THETAS,
    ReplicateResult,
    StudyResult,
    _configs,
    _ndtr,
    format_study_tables,
    run_replicate,
    run_study,
    score_predictions,
)

THETA = ThetaParams(np.array([10.0]), 2.0, 0.4, 0.15)


class TestSimulate:
    def test_deterministic(self):
        g = GridSpec(12, 12)
        a = simulate_dataset(g, THETA, seed=4)
        b = simulate_dataset(g, THETA, seed=4)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.dataset.locations, b.dataset.locations)

    def test_thinning_counts_and_locations(self):
        g = GridSpec(20, 20)
        sim = simulate_dataset(g, THETA, seed=1, thin_fraction=0.9)
        assert sim.dataset.p == round(400 * 0.1)
        coords = g.node_coords()
        locations = set(map(tuple, sim.dataset.locations))
        kept = [i for i, node in enumerate(map(tuple, coords)) if node in locations]
        np.testing.assert_array_equal(sim.dataset.locations, coords[kept])
        np.testing.assert_array_equal(sim.dataset.y, sim.y[kept])

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            simulate_dataset(GridSpec(8, 8), THETA, thin_fraction=1.0)


class TestScores:
    def test_crps_at_perfect_gaussian_center(self):
        # CRPS of N(mu, se^2) evaluated at y = mu is se * (2 phi(0) - 1/sqrt(pi))
        se = np.full(50, 1.3)
        y = np.zeros(50)
        s = score_predictions(y, y, se)
        expected = 1.3 * (2.0 / np.sqrt(2 * np.pi) - 1.0 / np.sqrt(np.pi))
        assert s["crps"] == pytest.approx(expected, rel=1e-12)

    def test_crps_matches_the_scipy_stats_formula(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(100_000)
        y_hat = y + 2.0 * rng.standard_normal(y.size)
        se = rng.uniform(0.2, 3.0, y.size)
        z = (y_hat - y) / se
        expected = float(np.mean(se * (
            z * (2 * stats.norm.cdf(z) - 1) + 2 * stats.norm.pdf(z) - 1 / np.sqrt(np.pi)
        )))
        assert score_predictions(y, y_hat, se)["crps"] == expected

    def test_zero_se_scores_as_a_point_forecast(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(200)
        y_hat = y + rng.standard_normal(200)
        err = np.abs(y_hat - y)
        assert score_predictions(y, y_hat, np.zeros(200))["crps"] == float(np.mean(err))
        assert score_predictions(y, y, np.zeros(200))["crps"] == 0.0
        # a zero se changes its own site's term only
        se = rng.uniform(0.2, 3.0, 200)
        terms = np.array([score_predictions(y[i:i + 1], y_hat[i:i + 1], se[i:i + 1])["crps"]
                          for i in range(200)])
        se[::7] = 0.0
        want = float(np.mean(np.where(se == 0, err, terms)))
        assert score_predictions(y, y_hat, se)["crps"] == want

    def test_ndtr_port_equals_scipy_bitwise(self):
        # a dense sweep, a N(0, 9) sample and the port's edges: the
        # erf/erfc split at |a| = sqrt(2), the P,Q/R,S split at 8 sqrt(2),
        # erfc's underflow near |a| = 38, infinities, nan, signed zeros
        # and the extremes of the float range
        splits = [s * c for c in (np.sqrt(2.0), 8.0 * np.sqrt(2.0)) for s in (1.0, -1.0)]
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324]
        for a in splits:
            edges += [np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)]
        underflow = np.linspace(37.5, 38.5, 10_001)
        a = np.concatenate([
            np.linspace(-40.0, 40.0, 400_001),
            3.0 * np.random.default_rng(8).standard_normal(200_000),
            edges, underflow, -underflow,
        ])
        port = np.array([_ndtr(v) for v in a.tolist()])
        np.testing.assert_array_equal(port.view(np.uint64), special.ndtr(a).view(np.uint64))

    def test_interval_score_inside_band(self):
        se = np.ones(10)
        y = np.zeros(10)
        s = score_predictions(y, y, se)
        assert s["int"] == pytest.approx(2 * 1.96)
        assert s["cvg"] == 1.0

    def test_rmse_mae(self):
        s = score_predictions(np.array([0.0, 0.0]), np.array([3.0, -4.0]))
        assert s["mae"] == pytest.approx(3.5)
        assert s["rmse"] == pytest.approx(np.sqrt(12.5))


class TestRunners:
    def test_replicate_deterministic(self):
        g = GridSpec(16, 16)
        r1 = run_replicate(g, g, THETA, k=8, seed=3, B=4, max_iter=15)
        r2 = run_replicate(g, g, THETA, k=8, seed=3, B=4, max_iter=15)
        assert r1.rmse == r2.rmse
        assert r1.coverage == r2.coverage
        assert r1.theta_hat.sigma2 == r2.theta_hat.sigma2

    def test_irregular_runner_smoke(self):
        results = run_study("irregular", k=6, replicates=1, scale=0.03, seed=2, B=3,
                            max_iter=10)
        assert len(results) == 3
        table = format_study_tables(results)
        assert "rmse=" in table and "coverage=" in table and "rho=" in table

    @pytest.mark.parametrize("design,kw,message", [
        ("settings", {"replicates": 0}, "replicates must be >= 1, got 0"),
        ("modis", {}, "unknown study design 'modis'"),
    ])
    def test_bad_design_or_replicates_raise_before_any_replicate(
            self, monkeypatch, design, kw, message):
        from kryging import study

        monkeypatch.setattr(study, "run_replicate", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValueError, match=message):
            run_study(design, **kw)


def test_table_row_counts_converged_replicates():
    reps = [ReplicateResult(rmse=1.0, coverage=0.95, seconds=2.0, theta_hat=THETA,
                            converged=flag) for flag in (True, False, True)]
    row = StudyResult(label="setting-1", replicates=reps, theta_true=THETA).table_row()
    assert row.endswith("medtime=2.0s  converged=2/3")


class TestDesigns:
    BASELINE = (44.49, 3.0, 0.5, 0.1)

    def test_grid_scaling_is_co_located_at_four_sizes(self):
        assert _configs("grid-scaling", 1.0) == [
            (f"{m}x{m}", m, m, self.BASELINE, 0.0) for m in (100, 200, 300, 400)
        ]

    def test_settings_run_four_thetas_at_one_size(self):
        assert _configs("settings", 1.0) == [
            (f"setting-{s}", 200, 200, SETTING_THETAS[s], 0.0) for s in (1, 2, 3, 4)
        ]

    def test_irregular_thins_one_source_onto_three_latent_grids(self):
        assert _configs("irregular", 1.0) == [
            (f"latent {m}x{m}", 1000, m, self.BASELINE, 0.96) for m in (200, 300, 400)
        ]

    @pytest.mark.parametrize("design", ["grid-scaling", "settings", "irregular"])
    def test_sides_shrink_with_scale_but_keep_16_nodes(self, design):
        sides = [(source, latent) for _, source, latent, _, _ in _configs(design, 0.1)]
        full = [(source, latent) for _, source, latent, _, _ in _configs(design, 1.0)]
        assert sides == [(max(16, round(s / 10)), max(16, round(t / 10))) for s, t in full]


def fresh_interpreter_output(code: str, cwd=None):
    """Run ``code`` in a fresh interpreter with the package on the path
    and parse the last line it prints as a Python literal."""
    src = str(Path(kryging.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd, check=True)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_package_import_leaves_out_scipy_fft_linalg_special_and_stats():
    # numpy runs the FFTs, the projected solve and selection maps;
    # scipy.sparse loads with the first off-node map, and scipy.special
    # only for a general nu. Any scipy subpackage
    # costs about 20 MB resident (scipy.stats about 35 MB more) and a
    # tenth of a second or more to import
    code = (
        "import sys, kryging, kryging.cli, kryging.study\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert fresh_interpreter_output(code) == []


def test_only_off_node_maps_load_scipy_sparse(tmp_path):
    # a co-located fit and bootstrap through the CLI load no scipy at all;
    # the same data on a coarser lattice is off-node (a Wendland map),
    # which loads scipy.sparse and no other scipy subpackage
    code = (
        "import sys\n"
        "from kryging.cli import main\n"
        "def scipy_packages():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  and hasattr(sys.modules[m], '__path__') and '._' not in m)\n"
        "def fit_and_bootstrap(grid):\n"
        "    assert main(['fit', '--grid', grid, '--extent', '0,1,0,1', '--k', '8', '--max-iter',\n"
        "                 '2', '--init', '44.49,3,0.5,0.1', '--out', 'fit.npz', 'sim.csv']) == 0\n"
        "    assert main(['bootstrap', '--fit', 'fit.npz', '--locations', 'sim.csv',\n"
        "                 '--B', '2', '--out', 'pred.csv']) == 0\n"
        "assert main(['simulate', '--grid', '12x12', '--out', 'sim.csv']) == 0\n"
        "fit_and_bootstrap('12x12')\n"
        "colocated = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "fit_and_bootstrap('7x7')\n"
        "print([colocated, scipy_packages()])\n"
    )
    colocated, off_node = fresh_interpreter_output(code, cwd=tmp_path)
    assert colocated == []
    assert off_node == ["scipy", "scipy.sparse"]


def test_co_located_study_loads_no_scipy(tmp_path):
    # a study simulates, fits, bootstraps and scores its held-out
    # targets; co-located at nu = 0.5, none of it needs scipy
    code = (
        "import sys\n"
        "from kryging.cli import main\n"
        "assert main(['study', 'settings', '--scale', '0.05', '--replicates', '1', '--k', '3',\n"
        "             '--B', '1', '--max-iter', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert fresh_interpreter_output(code, cwd=tmp_path) == []
