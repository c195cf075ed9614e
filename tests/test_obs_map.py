import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryging.grid import GridSpec
from kryging.mapping import LocationError, build_map, wendland

from oracles import identity_map, selection_map


class TestWendland:
    def test_anchor_values(self):
        assert wendland(0.0) == 1.0
        assert wendland(1.0) == 0.0
        assert wendland(0.5) == pytest.approx(0.5**4 * 3.0)

    def test_beyond_support(self):
        assert wendland(1.5) == 0.0
        np.testing.assert_array_equal(wendland(np.array([1.0, 2.0, 10.0])), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 0.999))
    def test_positive_inside_support(self, d):
        assert wendland(d) > 0.0


def direct_interpolation(location, grid, field):
    """Per-point oracle: weights over every lattice node from scratch."""
    pts = grid.node_coords()
    d = np.maximum(
        np.abs(location[0] - pts[:, 0]) / grid.dx1,
        np.abs(location[1] - pts[:, 1]) / grid.dx2,
    )
    w = np.where(d < 1.0, (1.0 - d) ** 4 * (1.0 + 4.0 * d), 0.0)
    return float(w @ field / w.sum())


class TestBuildMap:
    def test_on_node_is_exact(self):
        g = GridSpec(5, 4, 0.0, 1.0, 0.0, 1.0)
        loc = np.array([[2 * g.dx1, 3 * g.dx2]])
        amap = build_map(loc, g)
        row = amap.matrix.getrow(0)
        assert row.nnz == 1
        assert row.data[0] == pytest.approx(1.0)
        assert row.indices[0] == 3 * g.n1 + 2

    def test_colocated_nodes_give_row_selection(self):
        # rounding in the node coordinates must not leave tiny weights on
        # neighbouring nodes
        g = GridSpec(200, 200)
        amap = build_map(g.node_coords(), g)
        assert amap.matrix.nnz == amap.p
        np.testing.assert_array_equal(amap.matrix.data, 1.0)
        np.testing.assert_array_equal(amap.matrix.indices, np.arange(g.n))

    def test_cell_center_four_equal_weights(self):
        g = GridSpec(4, 4)
        loc = np.array([[0.5 * g.dx1, 0.5 * g.dx2]])
        row = build_map(loc, g).matrix.getrow(0)
        assert row.nnz == 4
        np.testing.assert_allclose(np.sort(row.data), 0.25)

    def test_edge_midpoint_two_weights(self):
        g = GridSpec(4, 4)
        loc = np.array([[0.5 * g.dx1, g.dx2]])  # on a horizontal grid line
        row = build_map(loc, g).matrix.getrow(0)
        assert row.nnz == 2
        np.testing.assert_allclose(np.sort(row.data), 0.5)

    def test_row_sums_and_sparsity(self, rng):
        g = GridSpec(9, 7, -1.0, 2.0, 0.0, 5.0)
        locs = np.column_stack(
            [rng.uniform(-1.0, 2.0, 300), rng.uniform(0.0, 5.0, 300)]
        )
        amap = build_map(locs, g)
        sums = np.asarray(amap.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        nnz = np.diff(amap.matrix.indptr)
        assert set(np.unique(nnz)) <= {1, 2, 4}
        assert amap.matrix.data.min() >= 0.0

    def test_matches_direct_interpolation_oracle(self, rng):
        g = GridSpec(50, 50)
        locs = np.column_stack([rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000)])
        field = rng.standard_normal(g.n)
        amap = build_map(locs, g)
        fast = amap.apply(field)
        for i in range(0, 1000, 37):
            assert fast[i] == pytest.approx(direct_interpolation(locs[i], g, field), abs=1e-12)

    def test_rejects_outside_locations_with_index(self):
        g = GridSpec(4, 4)
        locs = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.3]])
        with pytest.raises(LocationError, match="1"):
            build_map(locs, g)

    def test_rejects_nonfinite(self):
        with pytest.raises(LocationError):
            build_map(np.array([[np.nan, 0.5]]), GridSpec(4, 4))

    def test_corner_and_boundary_points(self):
        g = GridSpec(4, 4)
        locs = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.37, 1.0]])
        amap = build_map(locs, g)
        sums = np.asarray(amap.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestApply:
    def test_identity_case(self, rng):
        n = 12
        amap = identity_map(n)
        v = rng.standard_normal(n)
        np.testing.assert_array_equal(amap.apply(v), v)

    def test_selection_case(self, rng):
        amap = selection_map(np.array([3, 1, 7]), 10)
        v = rng.standard_normal(10)
        np.testing.assert_array_equal(amap.apply(v), v[[3, 1, 7]])

    def test_transpose_identity(self, rng):
        g = GridSpec(8, 6)
        locs = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
        amap = build_map(locs, g)
        v = rng.standard_normal(g.n)
        u = rng.standard_normal(40)
        assert np.dot(amap.apply(v), u) == pytest.approx(
            np.dot(v, amap.apply_t(u)), rel=1e-12
        )

    @pytest.mark.parametrize("kind", ["wendland", "selection"])
    def test_apply_t_matches_sparse_transpose(self, rng, kind):
        g = GridSpec(9, 8)
        if kind == "wendland":
            locs = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
            amap = build_map(locs, g)
        else:
            amap = selection_map(rng.choice(g.n, size=30, replace=False), g.n)
        u = rng.standard_normal(amap.p)
        ref = amap.matrix.T @ u
        got = amap.apply_t(u)
        assert got.shape == (g.n,)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_constant_field_preserved(self, rng):
        g = GridSpec(7, 7)
        locs = np.column_stack([rng.uniform(0, 1, 25), rng.uniform(0, 1, 25)])
        amap = build_map(locs, g)
        np.testing.assert_allclose(amap.apply(np.full(g.n, 3.25)), 3.25, atol=1e-12)

    def test_dimension_mismatch(self):
        amap = identity_map(5)
        with pytest.raises(ValueError):
            amap.apply(np.ones(6))
        with pytest.raises(ValueError):
            amap.apply_t(np.ones(6))
