import numpy as np
import pytest

from kryging.grid import GridSpec, ThetaParams
from kryging.likelihood import ModelData, evaluate_objective
from kryging.mapping import SparseMap, build_map
from kryging.simulate import simulate_dataset
from kryging.toeplitz import BttbOperator, EmbeddingError

from oracles import dense_corr, dense_negative_profile, identity_map


def colocated_problem(rng, m, theta, nu=0.5):
    g = GridSpec(m, m)
    S = dense_corr(g, theta.rho, nu)
    x = np.linalg.cholesky(theta.sigma2 * S + 1e-12 * np.eye(g.n)) @ rng.standard_normal(g.n)
    y = theta.beta[0] + x + np.sqrt(theta.tau2) * rng.standard_normal(g.n)
    data = ModelData(y=y, X=np.ones((g.n, 1)), amap=identity_map(g.n), grid=g, nu=nu)
    return g, S, data


def irregular_problem(rng, m, p, theta, nu=0.5):
    g = GridSpec(m, m)
    S = dense_corr(g, theta.rho, nu)
    locs = np.column_stack([rng.uniform(0, 1, p), rng.uniform(0, 1, p)])
    amap = build_map(locs, g)
    x = np.linalg.cholesky(theta.sigma2 * S + 1e-12 * np.eye(g.n)) @ rng.standard_normal(g.n)
    y = theta.beta[0] + amap.apply(x) + np.sqrt(theta.tau2) * rng.standard_normal(p)
    data = ModelData(y=y, X=np.ones((p, 1)), amap=amap, grid=g, nu=nu)
    return g, S, data


THETA = ThetaParams(beta=np.array([2.0]), sigma2=1.4, tau2=0.3, rho=0.25)


class TestModelData:
    @pytest.mark.parametrize("field", ["y", "X"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, field, bad):
        g = GridSpec(3, 3)
        arrays = {"y": np.ones(g.n), "X": np.ones((g.n, 1))}
        arrays[field][4] = bad
        with pytest.raises(ValueError, match=f"non-finite values in {field}"):
            ModelData(amap=identity_map(g.n), grid=g, **arrays)

    @pytest.mark.parametrize("p_X, p_map, grid, message", [
        (8, 9, GridSpec(3, 3), "X and y row counts differ"),
        (9, 8, GridSpec(3, 3), "mapping shape inconsistent"),
        (9, 9, GridSpec(4, 3), "mapping shape inconsistent"),
    ])
    def test_rejects_inconsistent_shapes(self, p_X, p_map, grid, message):
        amap = SparseMap(np.ones(p_map), np.arange(p_map), np.arange(p_map + 1), (p_map, 9))
        with pytest.raises(ValueError, match=message):
            ModelData(y=np.ones(9), X=np.ones((p_X, 1)), amap=amap, grid=grid)


class TestProfileLoglik:
    def test_matches_dense_profile_with_exact_logdet(self, rng):
        g, S, data = colocated_problem(rng, 6, THETA)
        st = evaluate_objective(data, THETA, k=g.n)
        _, ld_exact = np.linalg.slogdet(S)
        ours = st.value - 0.5 * st.diagnostics["logdet"] + 0.5 * ld_exact
        ref = dense_negative_profile(
            S, np.eye(g.n), data.y, data.X, THETA.beta, THETA.sigma2, THETA.tau2
        )
        assert ours == pytest.approx(ref, rel=1e-6)

    def test_degenerate_residual_reduces_to_three_terms(self):
        g = GridSpec(4, 4)
        beta = 5.0
        data = ModelData(
            y=np.full(g.n, beta), X=np.ones((g.n, 1)),
            amap=identity_map(g.n), grid=g,
        )
        theta = ThetaParams(beta=np.array([beta]), sigma2=1.2, tau2=0.7, rho=0.2)
        st = evaluate_objective(data, theta, k=5)
        expected = 0.5 * (
            data.p * np.log(theta.tau2)
            + data.n * np.log(theta.sigma2)
            + st.diagnostics["logdet"]
        )
        assert st.value == pytest.approx(expected, rel=1e-12)
        assert st.solution.quad == 0.0
        b = data.y - data.X @ theta.beta
        np.testing.assert_array_equal(b - data.amap.apply(st.solution.x_star), 0.0)

    def test_residual_with_zero_adjoint_matches_dense_profile(self):
        # two readings at one node that cancel: b != 0 but A' b = 0, so
        # Golub-Kahan stops at k = 0, x* = 0 and psi = b
        g = GridSpec(4, 4)
        amap = SparseMap(np.ones(2), np.array([5, 5]), np.array([0, 1, 2]), (2, g.n))
        data = ModelData(y=np.array([3.0, 1.0]), X=np.ones((2, 1)), amap=amap, grid=g)
        theta = ThetaParams(beta=np.array([2.0]), sigma2=1.2, tau2=0.7, rho=0.2)
        st = evaluate_objective(data, theta, k=5)
        assert st.diagnostics["k_effective"] == 0
        b = data.y - data.X @ theta.beta
        np.testing.assert_array_equal(b - amap.apply(st.solution.x_star), [1.0, -1.0])
        S = dense_corr(g, theta.rho, 0.5)
        _, ld_exact = np.linalg.slogdet(S)
        ours = st.value - 0.5 * st.diagnostics["logdet"] + 0.5 * ld_exact
        ref = dense_negative_profile(
            S, amap.matrix.toarray(), data.y, data.X, theta.beta, theta.sigma2, theta.tau2
        )
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_diagnostics_present(self, rng):
        g, S, data = colocated_problem(rng, 5, THETA)
        st = evaluate_objective(data, THETA, k=8)
        for key in ("logdet", "clamp_count", "clamp_fraction", "k_effective"):
            assert key in st.diagnostics
        assert st.diagnostics["k_effective"] == 8


class TestGradient:
    def test_zero_residual_zeroes_mean_gradient(self):
        g = GridSpec(4, 4)
        data = ModelData(
            y=np.full(g.n, 3.0), X=np.ones((g.n, 1)),
            amap=identity_map(g.n), grid=g,
        )
        theta = ThetaParams(beta=np.array([3.0]), sigma2=1.0, tau2=1.0, rho=0.2)
        st = evaluate_objective(data, theta, k=4)
        assert st.grad[0] == 0.0

    def test_sill_component_vanishes_at_its_stationary_value(self, rng):
        # the log-sill component is n/2 - quad/(2 sigma2), so it vanishes
        # where the projected quadratic equals n * sigma2
        g, S, data = colocated_problem(rng, 5, THETA)
        st = evaluate_objective(data, THETA, k=8)
        expected = g.n / 2 - st.solution.quad / (2 * THETA.sigma2)
        assert st.grad[-3] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_matches_finite_differences_internally(self, rng):
        # dlogdet is the exact derivative of the subset log-determinant,
        # so the analytic gradient must match finite differences of the
        # objective with no substitutions
        theta = ThetaParams(beta=np.array([1.5]), sigma2=1.3, tau2=0.4, rho=0.3)
        g, S, data = irregular_problem(rng, 5, 20, theta)
        st = evaluate_objective(data, theta, k=g.n)
        v0 = theta.to_optimizer_vector()
        for i in range(v0.size):
            h = 1e-6 * max(1.0, abs(v0[i]))
            vp, vm = v0.copy(), v0.copy()
            vp[i] += h
            vm[i] -= h
            fp = evaluate_objective(data, ThetaParams.from_optimizer_vector(vp), k=g.n).value
            fm = evaluate_objective(data, ThetaParams.from_optimizer_vector(vm), k=g.n).value
            fd = (fp - fm) / (2 * h)
            assert st.grad[i] == pytest.approx(fd, rel=2e-4, abs=1e-8)

    def test_shift_invariance_of_mean_score(self, rng):
        g, S, data = colocated_problem(rng, 5, THETA)
        shifted = ModelData(
            y=data.y + 10.0, X=data.X, amap=data.amap, grid=data.grid, nu=data.nu
        )
        th_shift = ThetaParams(THETA.beta + 10.0, THETA.sigma2, THETA.tau2, THETA.rho)
        st1 = evaluate_objective(data, THETA, k=10)
        st2 = evaluate_objective(shifted, th_shift, k=10)
        psi1 = data.y - data.X @ THETA.beta - data.amap.apply(st1.solution.x_star)
        psi2 = shifted.y - shifted.X @ th_shift.beta - shifted.amap.apply(st2.solution.x_star)
        np.testing.assert_allclose(psi1, psi2, atol=1e-10)
        assert st1.grad[0] == pytest.approx(st2.grad[0], abs=1e-10)

    def test_finite_on_log_box_with_valid_embeddings(self, rng):
        g, S, data = colocated_problem(rng, 5, THETA)
        draws = np.random.default_rng(1).uniform(-3, 1.5, size=(6, 3))
        for ls2, lt2, lrho in draws:
            theta = ThetaParams(
                np.array([2.0]), np.exp(ls2), np.exp(lt2), np.exp(lrho)
            )
            op = BttbOperator.from_matern(g, theta.rho, 0.5)
            if op.clamp_fraction > 0.05:
                continue
            st = evaluate_objective(data, theta, k=8)
            assert np.isfinite(st.value)
            assert np.all(np.isfinite(st.grad))

    def test_untrustworthy_theta_fails_before_any_matvec(self, monkeypatch):
        g = GridSpec(12, 12)
        rng = np.random.default_rng(4)
        data = ModelData(y=rng.standard_normal(g.n), X=np.ones((g.n, 1)),
                         amap=identity_map(g.n), grid=g, nu=2.5)
        calls = []
        matvec = BttbOperator.matvec

        def counted(op, v):
            calls.append(op)
            return matvec(op, v)

        monkeypatch.setattr(BttbOperator, "matvec", counted)
        theta = ThetaParams(np.array([0.0]), 1.0, 0.5, 30.0, nu=2.5)
        with pytest.raises(EmbeddingError):
            evaluate_objective(data, theta, k=8)
        assert calls == []

    def test_smooth_in_last_bit_changes_of_y(self):
        # Golub-Kahan bases that lose orthogonality within k = 50 steps
        # make the objective jump on rounding changes (~1e-5 relative
        # here); with U re-orthogonalized it moves about as much as y
        theta = ThetaParams(np.array([44.49]), sigma2=3.0, tau2=0.5, rho=0.1)
        g = GridSpec(50, 50)
        ds = simulate_dataset(g, theta, seed=7).dataset
        data = ModelData(y=ds.y, X=ds.X, amap=build_map(ds.locations, g), grid=g)
        y2 = ds.y * (1.0 + 1e-12 * np.random.default_rng(0).standard_normal(ds.p))
        bumped = ModelData(y=y2, X=ds.X, amap=data.amap, grid=g)
        st1 = evaluate_objective(data, theta, k=50)
        st2 = evaluate_objective(bumped, theta, k=50)
        assert abs(st2.value - st1.value) < 1e-8 * abs(st1.value)
        gscale = np.abs(st1.grad).max()
        assert np.abs(st2.grad - st1.grad).max() < 1e-6 * gscale


def test_objective_is_independent_of_the_blas_thread_count(under_blas_threads):
    # p = 15,750 observations and n = 22,500 nodes are long enough for a
    # threaded BLAS to split the objective's sums; einsum sums do not split
    code = (
        "import sys, numpy as np\n"
        "from kryging.grid import GridSpec, ThetaParams\n"
        "from kryging.likelihood import ModelData, evaluate_objective\n"
        "from kryging.mapping import build_map\n"
        "g = GridSpec(150, 150)\n"
        "rng = np.random.default_rng(5)\n"
        "keep = rng.permutation(g.n)[: int(0.7 * g.n)]\n"
        "amap = build_map(g.node_coords()[keep], g)\n"
        "X = np.column_stack([np.ones(keep.size), rng.standard_normal(keep.size)])\n"
        "y = 2.0 + rng.standard_normal(keep.size)\n"
        "data = ModelData(y=y, X=X, amap=amap, grid=g)\n"
        "theta = ThetaParams(beta=np.array([2.0, 0.1]), sigma2=1.0, tau2=0.5, rho=0.1)\n"
        "st = evaluate_objective(data, theta, 30)\n"
        "np.savez(sys.argv[1], value=st.value, grad=st.grad)\n"
    )
    one, two = under_blas_threads(code)
    assert one["grad"].shape == (5,)
    for key in ("value", "grad"):
        np.testing.assert_array_equal(two[key], one[key], err_msg=key)
