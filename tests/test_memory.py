"""Memory regressions, traced with the stdlib ``tracemalloc`` (numpy
reports its array buffers to it; FFT work buffers are not counted).

A Golub-Kahan run stores one basis, U ((k+1) x p floats), a fit holds
one factorization at a time, and a bootstrap holds one per thread. An
operator keeps its first column, one quarter of the minimal embedding
spectrum and the padded half spectrum its matvecs use, and a draw holds
about one normal array and the half spectrum at a time.
"""

import tracemalloc

import numpy as np
import pytest

from kryging import estimation
from kryging.estimation import FitResult, bootstrap_uq, fit
from kryging.gengk import gengk_factorize
from kryging.grid import GridSpec, MaternSpec, ThetaParams
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
    op = BttbOperator.from_matern(colocated.grid, MaternSpec(1.0, THETA.rho, 0.5))
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
    res = FitResult(THETA, np.zeros(g.n), [0.0], True, 1, g, K, THETA.nu)
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
    op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))
    held = tracemalloc.get_traced_memory()[0] - base
    f1, f2 = op._fast_dims
    # first column and quarter (n floats each), padded rfft2 spectrum;
    # the full (m2, m1) spectrum would add about 4n floats
    assert held <= 1.05 * 8 * (2 * g.n + f2 * (f1 // 2 + 1))


@pytest.mark.parametrize("n", [200, 300])
def test_sample_peak_stays_under_three_embedding_arrays(traced, n):
    g = GridSpec(n, n)
    op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))
    m1, m2 = op.embed_dims
    draw, peak = traced(lambda: op.sample(0))
    assert draw.shape == (g.n,)
    # both full normal arrays held at once would already take two
    assert peak <= 3 * 8 * m1 * m2
