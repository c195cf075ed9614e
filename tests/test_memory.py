"""Memory regressions, traced with the stdlib ``tracemalloc`` (numpy
reports its array buffers to it; FFT work buffers are not counted).

A Golub-Kahan run stores one basis, U ((k+1) x p floats), a fit holds
one factorization at a time, and a bootstrap holds one per thread. An
operator keeps one quarter of the minimal embedding spectrum and the
padded half spectrum its matvecs use, not its first column, and a draw
holds about one normal array and the half spectrum at a time. Either
tier of the CSV reader holds little beyond the values read so far.
"""

import tracemalloc

import numpy as np
import pytest

from kryging import data, estimation
from kryging.data import Dataset, read_dataset, write_dataset
from kryging.estimation import FitResult, bootstrap_uq, fit
from kryging.gengk import gengk_factorize
from kryging.grid import GridSpec, ThetaParams
from kryging.likelihood import ModelData, evaluate_objective
from kryging.toeplitz import BttbOperator

from oracles import identity_map

K = 30
THETA = ThetaParams(beta=np.array([2.0]), sigma2=1.0, tau2=0.5, rho=0.1, nu=0.5)


@pytest.fixture
def traced():
    """Peak bytes newly allocated while ``fn`` runs, and its result."""
    tracemalloc.start()

    def peak(fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base

    try:
        yield peak
    finally:
        tracemalloc.stop()


@pytest.fixture
def colocated():
    g = GridSpec(80, 80)
    rng = np.random.default_rng(0)
    y = 2.0 + rng.standard_normal(g.n)
    return ModelData(y, np.ones((g.n, 1)), identity_map(g.n), g)


def test_factorization_stores_only_the_observation_basis(traced, colocated):
    op = BttbOperator.from_matern(colocated.grid, THETA.rho, 0.5)
    b = colocated.y - 2.0
    f, peak = traced(lambda: gengk_factorize(colocated.amap, op, b, THETA.tau2, K))
    assert f.k == K
    # U alone is 8 (k+1) p bytes; storing V as well would add 8 k n
    assert peak <= 1.6 * 8 * (K + 1) * colocated.p


def test_fit_holds_one_factorization_at_a_time(traced, colocated):
    _, one = traced(lambda: evaluate_objective(colocated, THETA, K))
    res, peak = traced(lambda: fit(colocated, k=K, init=THETA, max_iter=2))
    assert res.iterations == 2
    assert peak <= 1.25 * one


def test_bootstrap_holds_one_replicate_per_thread(traced, colocated, monkeypatch):
    g = colocated.grid
    res = FitResult(THETA, np.zeros(g.n), [0.0], True, 1, g, K)
    locs = g.node_coords()[::7]
    _, one = traced(lambda: bootstrap_uq(res, colocated, locs, B=1, seed=0))
    workers = 3
    monkeypatch.setattr(estimation, "_workers", lambda count: min(count, workers))
    _, peak = traced(lambda: bootstrap_uq(res, colocated, locs, B=12, seed=0))
    # twelve replicates held at once would need about four times this
    assert peak <= workers * one


@pytest.mark.parametrize("n1, n2", [(150, 100), (300, 300)])
def test_operator_holds_a_quarter_of_the_embedding_spectrum(traced, n1, n2):
    g = GridSpec(n1, n2)
    base = tracemalloc.get_traced_memory()[0]
    op = BttbOperator.from_matern(g, 0.1, 0.5)
    held = tracemalloc.get_traced_memory()[0] - base
    f1, f2 = op._fast_dims
    # quarter (n floats) and padded rfft2 spectrum; a stored first column
    # would add n floats, the full (m2, m1) spectrum about 4n
    assert held <= 1.05 * 8 * (g.n + f2 * (f1 // 2 + 1))


@pytest.mark.parametrize("n", [200, 300])
def test_sample_peak_stays_under_three_embedding_arrays(traced, n):
    g = GridSpec(n, n)
    op = BttbOperator.from_matern(g, 0.1, 0.5)
    m1, m2 = op.embed_dims
    draw, peak = traced(lambda: op.sample(0))
    assert draw.shape == (g.n,)
    # both full normal arrays held at once would already take two
    assert peak <= 3 * 8 * m1 * m2


def csv_read_peak(traced, tmp_path):
    """Peak bytes of reading a 50,000-row dataset CSV, over the bytes of
    the arrays returned."""
    rng = np.random.default_rng(0)
    p = 50_000
    path = tmp_path / "obs.csv"
    X = np.column_stack([np.ones(p), rng.standard_normal(p)])
    write_dataset(path, Dataset(rng.uniform(0, 1, (p, 2)), rng.standard_normal(p), X,
                                ("intercept", "elev")))
    ds, peak = traced(lambda: read_dataset(path))
    return peak / (ds.locations.nbytes + ds.y.nbytes + ds.X.nbytes)


def test_csv_reader_peak_stays_near_its_output(traced, tmp_path):
    # every token alive at once, a str of about 70 bytes each, would
    # peak near nine times the arrays returned
    assert csv_read_peak(traced, tmp_path) <= 3


def test_checked_csv_reader_peak_stays_near_its_output(traced, tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_loadtxt_columns", lambda *args: None)
    assert csv_read_peak(traced, tmp_path) <= 3
