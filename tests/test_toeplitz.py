import numpy as np
import pytest
import scipy.fft

from kryging.grid import GridSpec, MaternSpec, first_column, matern_corr
from kryging.toeplitz import (
    CLAMP_FAIL_FRACTION,
    BttbOperator,
    EmbeddingError,
    _next_fast_len,
    dlogdet_drho,
)

from oracles import (
    circulant_embedding,
    complex_embedding_sample,
    dense_corr,
    full_spectrum,
    half_spectrum_sample,
    pairwise_distances,
)


def identity_operator(grid, **kw):
    col = np.zeros(grid.n)
    col[0] = 1.0
    return BttbOperator(grid, col, **kw)


def test_next_fast_len_matches_scipy():
    lengths = [_next_fast_len(n) for n in range(1, 20001)]
    assert lengths == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)]


class TestMatvec:
    def test_identity_column_is_identity_operator(self, rng):
        g = GridSpec(5, 4)
        op = identity_operator(g)
        v = rng.standard_normal(g.n)
        np.testing.assert_allclose(op.matvec(v), v, atol=1e-13)

    def test_matches_dense_product(self, rng):
        g = GridSpec(4, 4)
        spec = MaternSpec(1.0, 0.2, 0.5)
        S = dense_corr(g, spec.rho, spec.nu)
        op = BttbOperator.from_matern(g, spec)
        v = rng.standard_normal(g.n)
        out = op.matvec(v)
        ref = S @ v
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-10

    def test_zero_vector(self):
        g = GridSpec(4, 3)
        op = BttbOperator.from_matern(g, MaternSpec(2.0, 0.3, 0.5))
        np.testing.assert_array_equal(op.matvec(np.zeros(g.n)), np.zeros(g.n))

    def test_reproduces_first_column(self):
        g = GridSpec(6, 5)
        col = first_column(g, MaternSpec(1.4, 0.25, 1.5))
        op = BttbOperator(g, col)
        e1 = np.zeros(g.n)
        e1[0] = 1.0
        np.testing.assert_allclose(op.matvec(e1), col, atol=1e-12)

    def test_fast_padding_matches_minimal_embedding(self, rng):
        # 7x6 pads both embedding axes (13 -> 15, 11 -> 12); the padded
        # product must equal one through the minimal (2n-1) embedding
        g = GridSpec(7, 6)
        col = first_column(g, MaternSpec(1.0, 0.3, 0.5))
        op = BttbOperator(g, col)
        assert op.clamp_count == 0
        m1, m2 = op.embed_dims
        v = rng.standard_normal(g.n)
        vpad = np.zeros((m2, m1))
        vpad[: g.n2, : g.n1] = v.reshape(g.n2, g.n1)
        exact = np.fft.ifft2(np.fft.fft2(vpad) * full_spectrum(op)).real[: g.n2, : g.n1]
        np.testing.assert_allclose(op.matvec(v), exact.ravel(), atol=1e-12)
        # and to the dense matrix itself
        S = dense_corr(g, 0.3, 0.5)
        ref = S @ v
        assert np.linalg.norm(op.matvec(v) - ref) / np.linalg.norm(ref) < 1e-10

    def test_linearity(self, rng):
        g = GridSpec(6, 6)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.15, 0.5))
        u, v = rng.standard_normal((2, g.n))
        a, b = 1.7, -0.4
        lhs = op.matvec(a * u + b * v)
        rhs = a * op.matvec(u) + b * op.matvec(v)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12

    def test_symmetry(self, rng):
        g = GridSpec(8, 5)
        op = BttbOperator.from_matern(g, MaternSpec(1.3, 0.2, 0.5))
        for _ in range(5):
            u, v = rng.standard_normal((2, g.n))
            assert np.dot(u, op.matvec(v)) == pytest.approx(
                np.dot(op.matvec(u), v), rel=1e-10
            )

    def test_dimension_mismatch(self):
        g = GridSpec(4, 4)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        with pytest.raises(ValueError):
            op.matvec(np.ones(g.n + 1))


class TestStructure:
    def test_embedding_dimensions(self):
        g = GridSpec(9, 4)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        assert op.embed_dims == (17, 7)
        assert full_spectrum(op).shape == (7, 17)

    def test_eigenvalues_real_and_clamped_floor(self):
        g = GridSpec(8, 8)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))
        eigs = full_spectrum(op)
        assert eigs.dtype.kind == "f"
        assert op.clamp_count == 0
        assert np.all(eigs > 0)

    # minimal embedding lengths: prime (13, 11, 17, 7, 23) and odd
    # composite (21, 9, 15); fast lengths, even (12, 8, 18, 24) or odd
    # (15, 9), differ from the minimal ones on the first four grids
    @pytest.mark.parametrize("n1, n2", [(7, 6), (9, 4), (12, 7), (11, 5), (8, 5)])
    def test_spectrum_matches_full_transform_oracle(self, n1, n2):
        g = GridSpec(n1, n2)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        assert op.clamp_count == 0
        base = op.first_col.reshape(n2, n1)
        m1, m2 = op.embed_dims
        eigs = full_spectrum(op)
        # exactly even: frequency (k2, k1) equals (-k2, -k1) bit for bit
        mirrored = eigs[(-np.arange(m2)) % m2][:, (-np.arange(m1)) % m1]
        assert np.array_equal(eigs, mirrored)
        oracle = np.fft.fft2(circulant_embedding(base, m1, m2)).real
        peak = np.abs(oracle).max()
        assert np.abs(eigs - oracle).max() <= 1e-14 * peak
        ref = np.log(oracle[:n2, :n1]).sum()
        assert abs(op.logdet() - ref) <= 1e-13 * abs(ref)
        f1, f2 = op._fast_dims
        fast = np.fft.rfft2(circulant_embedding(base, f1, f2)).real
        assert np.abs(op._fast_eigs - fast).max() <= 1e-14 * peak

    # 64x31 clamps 278 eigenvalues, 12x12 at rho 0.69 twelve, 12x12 at
    # nu 2.5 and rho 30 half the spectrum
    @pytest.mark.parametrize("n1, n2, nu, rho", [(64, 31, 1.5, 0.3), (12, 12, 0.5, 0.69),
                                                 (12, 12, 2.5, 30.0)])
    def test_clamp_count_matches_full_oracle_spectrum(self, n1, n2, nu, rho):
        g = GridSpec(n1, n2)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, rho, nu))
        m1, m2 = op.embed_dims
        oracle = np.fft.fft2(circulant_embedding(op.first_col.reshape(n2, n1), m1, m2)).real
        expected = int((oracle < 1e-12 * oracle.max()).sum())
        assert expected > 0
        assert op.clamp_count == expected
        assert op.clamp_fraction == expected / oracle.size

    def test_no_full_size_spectrum_is_stored(self):
        g = GridSpec(9, 4)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        m1, m2 = op.embed_dims
        arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape != (m2, m1) for a in arrays)
        # the stored quarter still determines the full spectrum
        assert full_spectrum(op).shape == (m2, m1)


class TestLogdet:
    def test_identity_is_zero(self):
        g = GridSpec(5, 5)
        assert identity_operator(g).logdet() == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_cholesky_and_grid_growth(self):
        # the frequency-subset approximation sharpens as the grid grows
        errs = {}
        for m in (8, 32):
            g = GridSpec(m, m)
            spec = MaternSpec(1.0, 0.05, 0.5)
            op = BttbOperator.from_matern(g, spec)
            L = np.linalg.cholesky(dense_corr(g, spec.rho, spec.nu))
            exact = 2.0 * np.log(np.diag(L)).sum()
            errs[m] = abs(op.logdet() - exact) / abs(exact)
        assert errs[32] < errs[8]
        assert errs[32] < 0.05

    def test_sigma2_scales_by_n_log(self):
        g = GridSpec(6, 6)
        base = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5)).logdet()
        scaled = BttbOperator.from_matern(g, MaternSpec(2.5, 0.2, 0.5)).logdet()
        assert scaled - base == pytest.approx(g.n * np.log(2.5), rel=1e-10)


class TestDlogdet:
    def test_zero_derivative_gives_zero(self):
        g = GridSpec(5, 5)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        dop = BttbOperator(g, np.zeros(g.n), clamp=False)
        assert dlogdet_drho(op, dop) == 0.0

    def test_matches_finite_difference_of_logdet(self):
        g = GridSpec(8, 8)
        rho = 0.1
        h = 1e-6 * rho

        def ld(r):
            return BttbOperator.from_matern(g, MaternSpec(1.0, r, 0.5)).logdet()

        spec = MaternSpec(1.0, rho, 0.5)
        op = BttbOperator.from_matern(g, spec)
        dop = BttbOperator.from_matern_drho(g, spec)
        fd = (ld(rho + h) - ld(rho - h)) / (2 * h)
        assert dlogdet_drho(op, dop) == pytest.approx(fd, rel=1e-3)

    def test_tracks_dense_trace_like_logdet(self):
        # approximation error comparable to the log-determinant's own
        g = GridSpec(8, 8)
        rho = 0.1
        spec = MaternSpec(1.0, rho, 0.5)
        op = BttbOperator.from_matern(g, spec)
        dop = BttbOperator.from_matern_drho(g, spec)
        S = dense_corr(g, rho, 0.5)
        D = pairwise_distances(g)
        from kryging.grid import matern_corr_drho

        dS = matern_corr_drho(D, rho, 0.5)
        exact_trace = np.trace(np.linalg.solve(S, dS))
        _, exact_ld = np.linalg.slogdet(S)
        err_ld = abs(op.logdet() - exact_ld) / abs(exact_ld)
        err_tr = abs(dlogdet_drho(op, dop) - exact_trace) / abs(exact_trace)
        assert err_tr < 2.0 * err_ld + 0.05

    def test_untrustworthy_embedding_refuses_logdet_and_derivative(self):
        # half the spectrum clamped; the padded matvec is still exact,
        # but neither spectral reader may use it
        g = GridSpec(12, 12)
        spec = MaternSpec(1.0, 30.0, 2.5)
        op = BttbOperator.from_matern(g, spec)
        dop = BttbOperator.from_matern_drho(g, spec)
        assert op.clamp_fraction > 0.49
        with pytest.raises(EmbeddingError, match="threshold"):
            op.logdet()
        with pytest.raises(EmbeddingError, match="threshold"):
            dlogdet_drho(op, dop)

    def test_pair_requires_same_grid(self):
        op = BttbOperator.from_matern(GridSpec(5, 5), MaternSpec(1.0, 0.2, 0.5))
        dop = BttbOperator.from_matern_drho(GridSpec(6, 5), MaternSpec(1.0, 0.2, 0.5))
        with pytest.raises(ValueError):
            dlogdet_drho(op, dop)


class TestSampling:
    def test_identity_marginal_variance(self):
        g = GridSpec(16, 16)
        op = identity_operator(g)
        draws = np.stack([op.sample(np.random.default_rng(i)) for i in range(400)])
        # 400 x 256 = 102400 scalar N(0,1) draws
        assert 0.98 < draws.var() < 1.02

    def test_determinism(self):
        g = GridSpec(10, 10)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))
        np.testing.assert_array_equal(op.sample(7), op.sample(7))

    def test_empirical_covariance_at_lags(self):
        g = GridSpec(16, 16)
        spec = MaternSpec(1.0, 0.05, 0.5)
        op = BttbOperator.from_matern(g, spec)
        assert op.clamp_count == 0
        n_draws = 2000
        draws = np.stack([op.sample(np.random.default_rng(1000 + i)) for i in range(n_draws)])
        # five lag pairs: (0,0) vs (1,0), (0,1), (1,1), (2,0), (3,2)
        pairs = [(0, 1), (0, g.n1), (0, g.n1 + 1), (0, 2), (0, 2 * g.n1 + 3)]
        pts = g.node_coords()
        for i, j in pairs:
            d = np.linalg.norm(pts[i] - pts[j])
            target = matern_corr(d, spec.rho, spec.nu)
            prods = draws[:, i] * draws[:, j]
            mc_se = prods.std() / np.sqrt(n_draws)
            assert abs(prods.mean() - target) < 3 * mc_se

    @pytest.mark.parametrize("n1, n2", [(37, 23), (5, 9), (2, 2), (64, 31), (40, 40)])
    def test_matches_full_complex_transform(self, n1, n2):
        g = GridSpec(n1, n2)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.15, 0.5))
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = op.sample(rng)
            want = complex_embedding_sample(full_spectrum(op), n1, n2, ref_rng)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert rng.standard_normal() == ref_rng.standard_normal()

    # 64x31 and the 12x12 exponential at rho 0.69 sample clamped spectra
    @pytest.mark.parametrize("n1, n2, nu, rho", [(37, 23, 0.5, 0.15), (64, 31, 1.5, 0.3),
                                                 (2, 2, 0.5, 0.15), (12, 12, 0.5, 0.69)])
    def test_bitwise_equal_to_half_spectrum_formula(self, n1, n2, nu, rho):
        g = GridSpec(n1, n2)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, rho, nu))
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = op.sample(rng)
            want = half_spectrum_sample(full_spectrum(op), n1, n2, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_untrustworthy_embedding_refuses_to_sample(self):
        # smooth kernel + range far beyond the domain: heavy clamping
        g = GridSpec(12, 12)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 30.0, 2.5))
        assert op.clamp_fraction > CLAMP_FAIL_FRACTION
        with pytest.raises(EmbeddingError):
            op.sample(0)

    def test_clamped_sampling_allowed_below_threshold(self):
        # an exponential kernel with a range near the domain clamps a few
        # percent of the spectrum, under the fixed threshold
        g = GridSpec(12, 12)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.69, 0.5))
        assert 0.0 < op.clamp_fraction <= CLAMP_FAIL_FRACTION
        out = op.sample(3)
        assert out.shape == (g.n,)
        assert np.all(np.isfinite(out))


class TestRectangularGrids:
    def test_logdet_on_rectangular_grids(self):
        # the frequency subset depends on axis orientation; rectangular
        # grids catch a transposed layout
        for n1, n2 in ((6, 12), (12, 6), (5, 17)):
            g = GridSpec(n1, n2)
            spec = MaternSpec(1.0, 0.08, 0.5)
            op = BttbOperator.from_matern(g, spec)
            L = np.linalg.cholesky(dense_corr(g, spec.rho, spec.nu))
            exact = 2.0 * np.log(np.diag(L)).sum()
            assert abs(op.logdet() - exact) / abs(exact) < 0.35

    def test_matvec_on_rectangular_grid(self, rng):
        g = GridSpec(3, 9)
        spec = MaternSpec(1.2, 0.3, 1.5)
        S = dense_corr(g, spec.rho, spec.nu) * spec.sigma2
        op = BttbOperator.from_matern(g, spec)
        v = rng.standard_normal(g.n)
        np.testing.assert_allclose(op.matvec(v), S @ v, rtol=1e-10)
