import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryging.gengk import gengk_factorize, solve
from kryging.grid import GridSpec, MaternSpec
from kryging.mapping import SparseMap, build_map
from kryging.toeplitz import BttbOperator

from oracles import dense_corr, dense_solution, identity_map, latent_basis


def identity_operator(grid):
    col = np.zeros(grid.n)
    col[0] = 1.0
    return BttbOperator(grid, col)


def criterion_2_problems():
    """The randomized problems of acceptance criterion 2 (seed 2):
    operator, map, right-hand side, nugget and order."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        n1 = int(rng.integers(3, 21))
        n2 = int(rng.integers(3, min(21, 400 // n1 + 1)))
        g = GridSpec(n1, n2)
        p = int(rng.integers(5, 61))
        k = int(rng.integers(1, min(p, 25) + 1))
        rho = float(rng.uniform(0.05, 0.6))
        nu = float(rng.choice([0.5, 1.5]))
        tau2 = float(rng.uniform(0.05, 2.0))
        op = BttbOperator.from_matern(g, MaternSpec(1.0, rho, nu))
        locs = np.column_stack([rng.uniform(0, 1, p), rng.uniform(0, 1, p)])
        yield op, build_map(locs, g), rng.standard_normal(p), tau2, k


def stored_basis_gengk(amap, op, b, tau2, k):
    """Reference recurrence that stores every latent vector as it goes:
    returns (U, V, B) as row-major (k+1, p), (k, n), (k+1, k) arrays.
    It sums and projects as the library does: einsum reductions and the
    BLAS update U' c."""
    tau = np.sqrt(tau2)
    U = np.zeros((k + 1, amap.p))
    V = np.zeros((k, amap.n))
    B = np.zeros((k + 1, k))
    beta1 = np.sqrt(np.einsum("i,i->", b, b)) / tau
    np.divide(b, beta1, out=U[0])
    for i in range(k):
        w = amap.apply_t(U[i])
        w /= tau2
        if i:
            w -= beta * V[i - 1]
        t = op.matvec(w)
        alpha = np.sqrt(max(np.einsum("i,i->", w, t), 0.0))
        B[i, i] = alpha
        np.divide(w, alpha, out=V[i])
        t /= alpha
        r = amap.apply(t)
        r -= alpha * U[i]
        coef = np.einsum("ij,j->i", U[: i + 1], r) / tau2
        r -= U[: i + 1].T @ coef
        beta = np.sqrt(np.einsum("i,i->", r, r)) / tau
        B[i + 1, i] = beta
        np.divide(r, beta, out=U[i + 1])
    return U, V, B


def random_problem(rng, n1, n2, p, rho=0.3, nu=0.5):
    g = GridSpec(n1, n2)
    S = dense_corr(g, rho, nu)
    op = BttbOperator.from_matern(g, MaternSpec(1.0, rho, nu))
    locs = np.column_stack([rng.uniform(0, 1, p), rng.uniform(0, 1, p)])
    amap = build_map(locs, g)
    b = rng.standard_normal(p)
    return g, S, op, amap, b


class TestFactorize:
    def test_identity_operators_break_down_after_one_step(self, rng):
        g = GridSpec(3, 3)
        op = identity_operator(g)
        amap = identity_map(g.n)
        b = rng.standard_normal(g.n)
        f = gengk_factorize(amap, op, b, tau2=1.0, k=1)
        assert f.beta1 == pytest.approx(np.linalg.norm(b))
        np.testing.assert_allclose(f.U[:, 0], b / np.linalg.norm(b))
        assert f.B[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(latent_basis(f)[:, 0], f.U[:, 0], atol=1e-14)
        assert f.B[1, 0] == 0.0
        assert f.breakdown_at == 1

    def test_exact_arithmetic_relations(self, rng):
        g, S, op, amap, b = random_problem(rng, 5, 5, 20)
        tau2, tol = 0.25, 1e-8
        f = gengk_factorize(amap, op, b, tau2, k=10)
        Ad, V = amap.matrix.toarray(), latent_basis(f)
        assert np.abs(Ad @ S @ V - f.U @ f.B).max() < tol
        assert np.abs(f.U.T @ f.U - tau2 * np.eye(f.k + 1)).max() < tol
        assert np.abs(V.T @ S @ V - np.eye(f.k)).max() < tol

    def test_basis_shapes_and_row_storage(self, rng):
        g, S, op, amap, b = random_problem(rng, 5, 4, 18)
        f = gengk_factorize(amap, op, b, 0.4, k=6)
        assert f.U.shape == (amap.p, f.k + 1)
        V = latent_basis(f)
        assert V.shape == (g.n, f.k)
        # each basis vector is one contiguous row of the storage
        assert f.U.T.flags.c_contiguous
        assert V.T.flags.c_contiguous

    @settings(max_examples=20, deadline=None)
    @given(
        n1=st.integers(4, 6),
        n2=st.integers(4, 6),
        p=st.integers(14, 30),
        k=st.integers(1, 6),
        tau2=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_observation_order_invariance(self, n1, n2, p, k, tau2, seed):
        # permuting the rows of A together with b permutes U and leaves V
        # and B unchanged, so the identities hold with the permuted map
        rng = np.random.default_rng(seed)
        g, S, op, amap, b = random_problem(rng, n1, n2, p)
        perm = rng.permutation(p)
        pmap = SparseMap(amap.matrix[perm])
        f = gengk_factorize(amap, op, b, tau2, k=k)
        fp = gengk_factorize(pmap, op, b[perm], tau2, k=k)
        tol = 1e-8
        Ad, V = pmap.matrix.toarray(), latent_basis(fp)
        assert np.abs(Ad @ S @ V - fp.U @ fp.B).max() < tol
        assert np.abs(fp.U.T @ fp.U - tau2 * np.eye(fp.k + 1)).max() < tol
        assert np.abs(V.T @ S @ V - np.eye(fp.k)).max() < tol
        assert (fp.k, fp.breakdown_at) == (f.k, f.breakdown_at)
        assert np.abs(fp.B - f.B).max() <= 1e-10 * np.abs(f.B).max()

    def test_one_covariance_matvec_per_step(self, rng):
        # A Sigma V_k = U_{k+1} B_k needs only v_1..v_k: k Sigma matvecs
        # and k A^T applications, none for an unused v_{k+1}
        g, S, op, amap, b = random_problem(rng, 5, 5, 20)
        calls = {"matvec": 0, "apply_t": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        op.matvec = counted("matvec", op.matvec)
        amap.apply_t = counted("apply_t", amap.apply_t)
        f = gengk_factorize(amap, op, b, 0.3, k=6)
        assert (f.k, f.breakdown_at) == (6, None)
        assert calls == {"matvec": 6, "apply_t": 6}

    @pytest.mark.parametrize("k,expected", [(6, (4, 4)), (4, (4, None))])
    def test_breakdown_only_on_vectors_that_are_used(self, k, expected):
        # n = 4 latent nodes: v_5 vanishes, which truncates k = 6 to 4 but
        # is never computed for k = 4
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g, S, op, amap, b = random_problem(rng, 2, 2, 10)
            f = gengk_factorize(amap, op, b, 0.25, k=k)
            assert (f.k, f.breakdown_at) == expected, f"seed {seed}"
            assert f.B.shape == (f.k + 1, f.k)
            V = latent_basis(f)
            assert np.abs(V.T @ S @ V - np.eye(f.k)).max() < 1e-8

    @pytest.mark.parametrize("n1,n2,p", [(3, 4, 20), (5, 5, 9)])
    def test_order_beyond_n_or_p_allocates_by_the_steps_run(self, n1, n2, p):
        # the loop stops by step min(n, p); a k of millions must neither
        # size U and B by k nor change a bit of the factorization
        rng = np.random.default_rng(4)
        g, S, op, amap, b = random_problem(rng, n1, n2, p)
        ref = gengk_factorize(amap, op, b, 0.3, k=min(g.n, p) + 1)
        f = gengk_factorize(amap, op, b, 0.3, k=2_000_000)
        assert (f.k, f.breakdown_at) == (ref.k, ref.breakdown_at)
        assert f.k <= min(g.n, p)
        np.testing.assert_array_equal(f.B, ref.B)
        np.testing.assert_array_equal(f.U, ref.U)
        assert f.beta1 == ref.beta1

    def test_rhs_scaling_homogeneity(self, rng):
        g, S, op, amap, b = random_problem(rng, 4, 4, 12)
        f1 = gengk_factorize(amap, op, b, 0.5, k=5)
        f2 = gengk_factorize(amap, op, 3.0 * b, 0.5, k=5)
        assert f2.beta1 == pytest.approx(3.0 * f1.beta1, rel=1e-13)
        np.testing.assert_allclose(f2.U, f1.U, atol=1e-12)
        np.testing.assert_allclose(latent_basis(f2), latent_basis(f1), atol=1e-12)
        np.testing.assert_allclose(f2.B, f1.B, atol=1e-12)

    def test_replayed_latent_basis_is_the_recurrences_own(self):
        # V is not stored; latent_basis replays the latent steps from U and
        # B and must reproduce, bit for bit, the vectors a stored-basis loop
        # computes
        rng = np.random.default_rng(5)
        g = GridSpec(30, 25)
        op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.2, 0.5))
        locs = np.column_stack([rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)])
        amap = build_map(locs, g)
        b = rng.standard_normal(amap.p)
        f = gengk_factorize(amap, op, b, 0.3, k=20)
        U, V, B = stored_basis_gengk(amap, op, b, 0.3, k=20)
        assert (f.k, f.breakdown_at) == (20, None)
        np.testing.assert_array_equal(f.U, U.T)
        np.testing.assert_array_equal(f.B, B)
        np.testing.assert_array_equal(latent_basis(f), V.T)

    def test_deterministic(self, rng):
        g, S, op, amap, b = random_problem(rng, 4, 5, 15)
        f1 = gengk_factorize(amap, op, b, 0.3, k=6)
        f2 = gengk_factorize(amap, op, b, 0.3, k=6)
        np.testing.assert_array_equal(f1.U, f2.U)
        np.testing.assert_array_equal(latent_basis(f1), latent_basis(f2))
        np.testing.assert_array_equal(f1.B, f2.B)

    def test_rejects_bad_inputs(self, rng):
        g = GridSpec(3, 3)
        op = identity_operator(g)
        amap = identity_map(g.n)
        with pytest.raises(ValueError):
            gengk_factorize(amap, op, np.zeros(g.n), 1.0, 3)
        with pytest.raises(ValueError):
            gengk_factorize(amap, op, np.ones(g.n), 0.0, 3)
        with pytest.raises(ValueError):
            gengk_factorize(amap, op, np.ones(g.n), 1.0, 0)


class TestSolve:
    def test_identity_ridge_closed_form(self, rng):
        # A = I, Sigma = I, tau2 = 1: x = b * sigma2 / (sigma2 + 1)
        g = GridSpec(3, 3)
        op = identity_operator(g)
        amap = identity_map(g.n)
        b = rng.standard_normal(g.n)
        f = gengk_factorize(amap, op, b, 1.0, k=4)
        sol = solve(f, 2.0, op)
        np.testing.assert_allclose(sol.x_star, b * 2.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(b - amap.apply(sol.x_star), b / 3.0, rtol=1e-12)

    def test_latent_coefficients_map_back_to_estimate(self, rng):
        g, S, op, amap, b = random_problem(rng, 5, 5, 20)
        f = gengk_factorize(amap, op, b, 0.3, k=6)
        sol = solve(f, 1.2, op)
        # m comes from A' U_k L_k^{-T} z / tau2, not from a stored V_k, so
        # it agrees with V_k z to rounding rather than bitwise
        np.testing.assert_allclose(sol.m, latent_basis(f) @ sol.z, rtol=1e-12)
        np.testing.assert_array_equal(sol.x_star, op.matvec(sol.m))

    def test_latent_estimate_matches_replayed_basis(self):
        # V_k L_k' = A' U_k / tau2 over the criterion-2 problems
        worst = 0.0
        for op, amap, b, tau2, k in criterion_2_problems():
            f = gengk_factorize(amap, op, b, tau2, k)
            Vk = latent_basis(f)
            for sigma2 in (1e-2, 1.0, 1e2):
                sol = solve(f, sigma2, op)
                ref = Vk @ sol.z
                worst = max(worst, np.linalg.norm(sol.m - ref) / np.linalg.norm(ref))
        assert worst <= 1e-12

    def test_full_order_matches_dense_solution_colocated(self, rng):
        g = GridSpec(6, 6)
        spec = MaternSpec(1.0, 0.3, 0.5)
        S = dense_corr(g, spec.rho, spec.nu)
        op = BttbOperator.from_matern(g, spec)
        amap = identity_map(g.n)
        b = rng.standard_normal(g.n)
        sigma2, tau2 = 1.0, 0.25
        f = gengk_factorize(amap, op, b, tau2, k=g.n)
        sol = solve(f, sigma2, op)
        ref = dense_solution(S, np.eye(g.n), b, sigma2, tau2)
        assert np.linalg.norm(sol.x_star - ref) / np.linalg.norm(ref) < 1e-6

    def test_quad_matches_dense_quadratic_form_at_full_order(self, rng):
        g, S, op, amap, b = random_problem(rng, 5, 5, 20)
        sigma2, tau2 = 1.3, 0.4
        f = gengk_factorize(amap, op, b, tau2, k=g.n)
        sol = solve(f, sigma2, op)
        ref = dense_solution(S, amap.matrix.toarray(), b, sigma2, tau2)
        quad_ref = ref @ np.linalg.solve(S, ref)
        assert sol.quad == pytest.approx(quad_ref, rel=1e-6)

    def test_data_fit_non_increasing_in_k(self, rng):
        g, S, op, amap, b = random_problem(rng, 5, 5, 22)
        fits = []
        for k in range(1, 16):
            f = gengk_factorize(amap, op, b, 0.25, k=k)
            sol = solve(f, 1.0, op)
            fits.append(np.linalg.norm(amap.apply(sol.x_star) - b))
        for a, c in zip(fits, fits[1:]):
            assert c <= a + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 50, 150])
    def test_matches_dense_ridge_system(self, rng, k):
        # the tridiagonal and bidiagonal recurrences against dense solves of
        # (B'B + I/sigma2) z = beta1 B' e1 and L_k' g = z, m = A' U_k g / tau2
        g, S, op, amap, b = random_problem(rng, 16, 16, 200)
        f = gengk_factorize(amap, op, b, 0.3, k=k)
        assert f.k == k
        sigma2 = 0.7
        B = f.B
        z = np.linalg.solve(B.T @ B + np.eye(k) / sigma2, f.beta1 * B[0])
        m = amap.apply_t(f.U[:, :k] @ np.linalg.solve(B[:k].T, z)) / f.tau2
        sol = solve(f, sigma2, op)
        assert np.linalg.norm(sol.z - z) <= 1e-12 * np.linalg.norm(z)
        assert np.linalg.norm(sol.m - m) <= 1e-12 * np.linalg.norm(m)
        assert sol.quad == pytest.approx(z @ z, rel=1e-12)

    def test_rejects_nonpositive_sigma2(self, rng):
        g = GridSpec(3, 3)
        op = identity_operator(g)
        amap = identity_map(g.n)
        b = rng.standard_normal(g.n)
        f = gengk_factorize(amap, op, b, 1.0, k=2)
        with pytest.raises(ValueError):
            solve(f, 0.0, op)


def test_factorization_is_independent_of_the_blas_thread_count(under_blas_threads):
    # the reductions are einsum sums in a fixed order, and the BLAS update
    # computes each output on one thread, so B and U agree bit for bit under
    # 1 and 2 BLAS threads, with the update in BLAS and without it
    code = (
        "import sys, numpy as np\n"
        "from kryging.gengk import _blas_free, gengk_factorize\n"
        "from kryging.grid import GridSpec, MaternSpec\n"
        "from kryging.mapping import SparseMap\n"
        "from kryging.toeplitz import BttbOperator\n"
        "from scipy import sparse\n"
        "g = GridSpec(120, 120)\n"
        "op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))\n"
        "b = np.random.default_rng(0).standard_normal(g.n)\n"
        "amap = SparseMap(sparse.identity(g.n, format=\"csr\"))\n"
        "f = gengk_factorize(amap, op, b, 0.5, 30)\n"
        "with _blas_free():\n"
        "    h = gengk_factorize(amap, op, b, 0.5, 30)\n"
        "np.savez(sys.argv[1], U=f.U, B=f.B, free_U=h.U, free_B=h.B)\n"
    )
    one, two = under_blas_threads(code)
    assert one["B"].shape == (31, 30)
    for key in ("B", "U", "free_B", "free_U"):
        np.testing.assert_array_equal(two[key], one[key], err_msg=key)
    # the two update products round differently, but only in the last bits
    np.testing.assert_allclose(one["free_B"], one["B"], rtol=1e-9, atol=1e-12)


def test_solve_is_independent_of_the_blas_thread_count(under_blas_threads):
    # at k = 150 a dense k x k solve would enter the BLAS thread pool; the
    # recurrences and einsum sums round alike under 1 and 2 threads
    code = (
        "import sys, numpy as np\n"
        "from kryging.gengk import gengk_factorize, solve\n"
        "from kryging.grid import GridSpec, MaternSpec\n"
        "from kryging.mapping import SparseMap\n"
        "from kryging.toeplitz import BttbOperator\n"
        "from scipy import sparse\n"
        "g = GridSpec(40, 40)\n"
        "op = BttbOperator.from_matern(g, MaternSpec(1.0, 0.1, 0.5))\n"
        "b = np.random.default_rng(1).standard_normal(g.n)\n"
        "amap = SparseMap(sparse.identity(g.n, format=\"csr\"))\n"
        "f = gengk_factorize(amap, op, b, 0.5, 150)\n"
        "sol = solve(f, 2.0, op)\n"
        "np.savez(sys.argv[1], B=f.B, z=sol.z, m=sol.m, x=sol.x_star, quad=sol.quad)\n"
    )
    one, two = under_blas_threads(code)
    assert one["B"].shape == (151, 150)
    for key in one:
        np.testing.assert_array_equal(two[key], one[key], err_msg=key)
