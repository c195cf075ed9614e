import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryging.grid import (
    GridSpec,
    ThetaParams,
    first_column,
    matern_corr,
    matern_corr_drho,
)
from kryging.toeplitz import BttbOperator

from oracles import dense_corr

# high-precision reference values (50-digit Bessel evaluation)
MPMATH_ORACLES = [
    (0.2, 0.1, 1.5, 0.13973135019231467),
    (0.15, 0.2, 2.5, 0.6756478000186597),
    (0.3, 0.25, 0.8, 0.339720928323524),
]


class TestMaternCorr:
    @pytest.mark.parametrize("rho,nu", [(0.1, 0.5), (1.0, 1.5), (0.3, 2.5), (0.7, 0.8)])
    def test_unit_at_zero_distance(self, rho, nu):
        assert matern_corr(0.0, rho, nu) == 1.0

    def test_exponential_special_case(self):
        # nu = 1/2 collapses to exp(-d/rho)
        assert matern_corr(0.1, 0.1, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)
        d = np.linspace(0, 2, 50)
        np.testing.assert_allclose(matern_corr(d, 0.4, 0.5), np.exp(-d / 0.4), rtol=1e-14)

    @pytest.mark.parametrize("d,rho,nu,expected", MPMATH_ORACLES)
    def test_high_precision_oracle(self, d, rho, nu, expected):
        assert matern_corr(d, rho, nu) == pytest.approx(expected, rel=1e-13)

    def test_half_integer_matches_bessel_route(self):
        # closed forms and the generic Bessel expression must agree
        d = np.linspace(0.01, 1.5, 40)
        for nu in (0.5, 1.5, 2.5):
            closed = matern_corr(d, 0.3, nu)
            bessel = matern_corr(d, 0.3, nu + 1e-13)
            np.testing.assert_allclose(closed, bessel, rtol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(ValueError):
            matern_corr(bad, 0.3, 0.5)

    @pytest.mark.parametrize("rho,nu", [(0.0, 0.5), (-1.0, 0.5), (0.3, 0.0), (np.nan, 0.5)])
    def test_rejects_bad_params(self, rho, nu):
        with pytest.raises(ValueError):
            matern_corr(0.1, rho, nu)

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.floats(0.0, 3.0),
        gap=st.floats(1e-3, 2.0),
        rho=st.sampled_from([0.05, 0.3, 1.0]),
        nu=st.sampled_from([0.5, 1.5, 2.5, 0.8]),
    )
    def test_strict_monotone_decay(self, d1, gap, rho, nu):
        assert matern_corr(d1 + gap, rho, nu) < matern_corr(d1, rho, nu)


class TestMaternDrho:
    def test_zero_at_zero_distance(self):
        for nu in (0.5, 1.5, 0.8):
            assert matern_corr_drho(0.0, 0.2, nu) == 0.0

    def test_exponential_closed_form(self):
        # (d / rho^2) exp(-d/rho) at d = rho = 0.1
        assert matern_corr_drho(0.1, 0.1, 0.5) == pytest.approx(10.0 * math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8])
    def test_matches_finite_differences(self, nu):
        rho = 0.31
        h = 1e-6 * rho
        for d in (0.05, 0.2, 0.7, 1.3):
            fd = (matern_corr(d, rho + h, nu) - matern_corr(d, rho - h, nu)) / (2 * h)
            assert matern_corr_drho(d, rho, nu) == pytest.approx(fd, rel=1e-5)


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(5, 3, 0.0, 2.0, 1.0, 2.0)
        assert g.dx1 == pytest.approx(0.5)
        assert g.dx2 == pytest.approx(0.5)
        assert g.n == 15

    def test_node_ordering_axis1_fastest(self):
        g = GridSpec(3, 2, 0.0, 1.0, 0.0, 1.0)
        pts = g.node_coords()
        # flat index j2 * n1 + j1
        np.testing.assert_allclose(pts[1], [0.5, 0.0])
        np.testing.assert_allclose(pts[3], [0.0, 1.0])

    @pytest.mark.parametrize("n1,n2", [(1, 5), (5, 1), (0, 3)])
    def test_rejects_degenerate_axes(self, n1, n2):
        with pytest.raises(ValueError):
            GridSpec(n1, n2)

    def test_numpy_integer_axes_are_stored_as_int(self):
        g = GridSpec(np.int64(12), np.int32(12))
        assert type(g.n1) is int and type(g.n2) is int
        op = BttbOperator.from_matern(g, 0.1, 0.5)
        assert op.matvec(np.ones(g.n)).shape == (144,)

    @pytest.mark.parametrize("n1", [12.0, 12.5, np.float64(12.0), "12"],
                             ids=["float", "fraction", "numpy-float", "str"])
    def test_rejects_non_integer_axes(self, n1):
        with pytest.raises(TypeError):
            GridSpec(n1, 12)

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            GridSpec(4, 4, 0.0, 0.0, 0.0, 1.0)


class TestThetaParams:
    def test_precision_roundtrip(self):
        for s2 in (3.0, 0.25, 1.7e-3, 8.1e4):
            t = ThetaParams(beta=np.array([1.0]), sigma2=s2, tau2=0.5, rho=0.1)
            back = 1.0 / t.lam2
            assert abs(back - s2) <= 2 * np.spacing(s2)

    def test_optimizer_vector_roundtrip(self):
        t = ThetaParams(beta=np.array([44.49, -2.0]), sigma2=3.0, tau2=0.5, rho=0.1)
        t2 = ThetaParams.from_optimizer_vector(t.to_optimizer_vector())
        np.testing.assert_allclose(t2.beta, t.beta)
        assert t2.sigma2 == pytest.approx(t.sigma2, rel=1e-15)
        assert t2.rho == pytest.approx(t.rho, rel=1e-15)

    @pytest.mark.parametrize("field,val", [("sigma2", 0.0), ("tau2", -1.0), ("rho", np.inf)])
    def test_rejects_bad_values(self, field, val):
        kwargs = dict(beta=np.array([0.0]), sigma2=1.0, tau2=1.0, rho=0.1)
        kwargs[field] = val
        with pytest.raises(ValueError):
            ThetaParams(**kwargs)

    @pytest.mark.parametrize("beta", [[np.nan], [1.0, np.inf], [-np.inf]])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            ThetaParams(beta=np.array(beta), sigma2=1.0, tau2=1.0, rho=0.1)


class TestFirstColumn:
    def test_two_point_closed_form(self):
        # smallest admissible grid; entries pair off by axis distances
        g = GridSpec(2, 2, 0.0, 1.0, 0.0, 2.0)
        s2 = 1.7
        col = s2 * first_column(g, 0.4, 0.5)
        expected = s2 * np.exp(-np.array([0.0, g.dx1, g.dx2, math.hypot(g.dx1, g.dx2)]) / 0.4)
        np.testing.assert_allclose(col, expected, rtol=1e-14)
        assert col[0] == pytest.approx(s2)

    def test_matches_dense_pairwise_matrix(self):
        g = GridSpec(3, 3)
        dense = 2.3 * dense_corr(g, 0.25, 0.5)
        np.testing.assert_allclose(2.3 * first_column(g, 0.25, 0.5), dense[:, 0], rtol=1e-14)

    def test_unit_sill_bounds(self):
        g = GridSpec(6, 4)
        col = first_column(g, 0.3, 0.5)
        assert np.all(col > 0) and np.all(col <= 1.0)

    @pytest.mark.parametrize("n1,n2,nu", [(4, 4, 0.5), (5, 7, 1.5), (8, 8, 0.5)])
    def test_dense_bttb_positive_definite(self, n1, n2, nu):
        g = GridSpec(n1, n2)
        S = dense_corr(g, 0.2, nu)
        np.linalg.cholesky(S)  # raises if not PD
        # symmetry and the BTTB block pattern follow from stationarity
        np.testing.assert_allclose(S, S.T)
        blk = S[: g.n1, : g.n1]
        np.testing.assert_allclose(S[g.n1 : 2 * g.n1, g.n1 : 2 * g.n1], blk, rtol=1e-12)
