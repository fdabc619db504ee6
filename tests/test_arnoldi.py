import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import rkupdate.arnoldi as arnoldi
import rkupdate.updater as updater
from rkupdate.arnoldi import (
    FactorizationCache,
    KrylovBasis,
    _SquaredCache,
    adjoint_basis,
    build_basis,
)
from rkupdate.dense import _Band, norm2, qr_orthonormalize, shifted_factorize
from rkupdate.errors import RankDeficient, SingularShift
from rkupdate.functions import FunctionSpec, PartialFractions
from rkupdate.poles import INF, PolePlan, extended_plan, zolotarev_sign_poles
from rkupdate.signsylv import SylvesterProblem, sylvester_solve_krylov
from rkupdate.updater import project_update, run_update

from conftest import BANDS, band_matrix, max_principal_angle, rand_complex, random_hermitian


class TestSeedRules:
    def test_infinite_first_pole_keeps_seed_block(self):
        A = np.diag([1.0, 2.0, 3.0])
        e1 = np.eye(3)[:, :1]
        basis = build_basis(A, e1, [INF])
        assert np.allclose(np.abs(basis.basis), e1, atol=1e-14)

    def test_finite_first_pole_solves(self):
        A = np.diag([1.0, 2.0])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        basis = build_basis(A, b, [0.0])
        v = np.array([1.0, 0.5])
        v /= np.linalg.norm(v)
        got = basis.basis[:, 0]
        got = got / got[0] * abs(got[0])
        assert np.allclose(np.abs(basis.basis[:, 0]), v, atol=1e-14)

    def test_pole_zero_mid_sweep(self, rng):
        # the naive recurrence is the identity for a zero pole; the step must
        # still enlarge the space to q_m(A)^{-1} K_m(A, B)
        A = rand_complex(rng, 12, 12) + 4 * np.eye(12)
        B = rand_complex(rng, 12, 1)
        basis = build_basis(A, B, [INF, 0.0, 0.0])
        Ainv = np.linalg.inv(A)
        target = np.hstack([B, Ainv @ B, Ainv @ Ainv @ B])
        assert max_principal_angle(basis.basis, np.linalg.qr(target)[0]) <= 1e-10


class TestSpans:
    def test_all_infinite_equals_polynomial_krylov(self, rng):
        A = rand_complex(rng, 24, 24)
        B = rand_complex(rng, 24, 2)
        basis = build_basis(A, B, [INF] * 4)
        P = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(4)])
        assert max_principal_angle(basis.basis, np.linalg.qr(P)[0]) <= 1e-10

    def test_extended_plan_span(self, rng):
        A = rand_complex(rng, 16, 16) + 5 * np.eye(16)
        B = rand_complex(rng, 16, 1)
        basis = build_basis(A, B, extended_plan(), 4)
        Ainv = np.linalg.inv(A)
        P = np.hstack([Ainv @ Ainv @ B, Ainv @ B, B, A @ B])
        assert max_principal_angle(basis.basis, np.linalg.qr(P)[0]) <= 1e-10

    def test_rational_span_hermitian_block(self, rng):
        A, _ = random_hermitian(rng, 50)
        B = rand_complex(rng, 50, 2)
        basis = build_basis(A, B, [-1.0, -3.0, INF])
        q = np.linalg.inv((A + np.eye(50)) @ (A + 3 * np.eye(50)))
        P = q @ np.hstack([B, A @ B, A @ A @ B])
        assert max_principal_angle(basis.basis, np.linalg.qr(P)[0]) <= 1e-10

    def test_m1_pole_zero_spans_inverse(self, rng):
        A = rand_complex(rng, 10, 10) + 3 * np.eye(10)
        B = rand_complex(rng, 10, 1)
        basis = build_basis(A, B, [0.0])
        assert max_principal_angle(basis.basis, np.linalg.solve(A, B)) <= 1e-12


class TestInvariants:
    def test_orthonormality_and_compression(self, rng):
        A = rand_complex(rng, 40, 40)
        B = rand_complex(rng, 40, 2)
        basis = build_basis(A, B, [-1.0, INF, -2.0 + 1j, 0.0])
        k = basis.dimension
        assert norm2(basis.basis.conj().T @ basis.basis - np.eye(k)) <= 1e-12
        G = basis.basis.conj().T @ A @ basis.basis
        assert norm2(basis.compression - G) <= 1e-12 * max(norm2(A), 1.0)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("ell", [2, 3])
    def test_complex_blocks_keep_the_bits_of_hstack_growth(self, rng, ell, adjoint):
        # views into preallocated buffers make the products of growth by
        # np.hstack, with only a larger leading dimension
        A = rand_complex(rng, 48, 48) + 3.0 * np.eye(48)
        poles = [-1.0, INF, 0.0, -2.0 + 1.0j, INF, -2.0 - 1.0j, 1.5, -1.0, 0.0, INF]
        basis = KrylovBasis(A, rand_complex(rng, 48, ell), adjoint=adjoint)
        for xi in poles:
            basis.advance(xi)
        U, G = _hstack_basis(A, basis._seed, poles, adjoint)
        assert np.array_equal(basis.basis, U) and np.array_equal(basis.compression, G)

    def test_buffers_double(self, rng, monkeypatch):
        sizes = []
        reallocate = KrylovBasis._reallocate

        def recorded(self, cap, dtype):
            sizes.append(cap)
            return reallocate(self, cap, dtype)

        monkeypatch.setattr(KrylovBasis, "_reallocate", recorded)
        n = 400
        A = np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0] + 1e-2) - np.eye(n, k=1) - np.eye(n, k=-1)
        basis = build_basis(A, rng.standard_normal((n, 2)), PolePlan((-0.3, INF), repetition="cyclic"), 55)
        assert basis.steps == 55 and basis.basis.dtype == np.float64
        assert len(sizes) <= math.ceil(math.log2(55)) + 1
        assert sizes[-1] >= basis.dimension

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_growth_is_lean(self, rng, hermitian):
        # the basis keeps U, its compression and U* seed, and of its
        # products with A only that of its last block: while it grows, the
        # peak of the memory it allocates stays within 3x the final basis
        n = 20000
        sub = np.full(n - 1, -1.0)
        A = scipy.sparse.diags([sub, np.full(n, 2.5), sub if hermitian else 0.5 * sub],
                               [-1, 0, 1], format="csr")
        basis = KrylovBasis(A, rng.standard_normal((n, 4)))
        assert basis.cache.hermitian == hermitian
        tracemalloc.start()
        try:
            for step in range(40):
                basis.advance(INF if step % 2 else -0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.dimension == 160 and basis.basis.dtype == np.float64
        assert peak <= 3 * basis.basis.nbytes

    def test_nested_prefix_bitwise(self, rng):
        A = rand_complex(rng, 20, 20)
        B = rand_complex(rng, 20, 1)
        basis = KrylovBasis(A, B)
        basis.advance(-1.0)
        basis.advance(INF)
        snapshot = basis.basis.copy()
        basis.advance(-2.0)
        assert np.array_equal(basis.basis[:, :2], snapshot)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_leading_is_the_basis_of_an_earlier_step(self, rng, monkeypatch, adjoint):
        # leading(k) is the basis of the step of dimension k, bit for bit,
        # and advancing it (a single step, a real pair, a complex pole that
        # promotes it) moves it into buffers of its own: the basis it came
        # from keeps its basis, compression and seed product.  Below the
        # dimension it keeps no product with A, so its first step makes one
        # more, that of its last block
        calls = []
        matvec = KrylovBasis._matvec

        def counted(self, X, adjoint=False):
            calls.append(adjoint)
            return matvec(self, X, adjoint)

        monkeypatch.setattr(KrylovBasis, "_matvec", counted)
        A = rng.standard_normal((24, 24)) + 6.0 * np.eye(24)
        basis = KrylovBasis(A, rng.standard_normal((24, 2)), adjoint=adjoint)
        assert not basis.cache.hermitian
        steps = []
        for poles in ((-1.0,), (-1.0 + 1.0j, -1.0 - 1.0j), (INF,), (-2.0,), (0.0,)):
            basis.advance(*poles)
            steps.append((basis.dimension, basis.poles_used, basis.basis.copy(),
                          basis.compression.copy(), basis.seed_product.copy()))
        views = ("basis", "compression", "seed_product")
        kept = [getattr(basis, v).copy() for v in views]
        for k, poles_used, U, G, US in steps:
            lead = basis.leading(k)
            assert lead.dimension == k and lead.poles_used == poles_used
            assert np.array_equal(lead.basis, U) and np.array_equal(lead.compression, G)
            assert np.array_equal(lead.seed_product, US)
            calls.clear()
            lead.advance(-3.0)
            # a product with A and one with A* for the compression's rows
            assert calls == [False] * (k < basis.dimension) + [False, True]
            lead.advance(-1.5 + 0.5j, -1.5 - 0.5j).advance(0.5j)
            assert lead.dimension == k + 8 and lead.basis.dtype == np.complex128
            assert np.array_equal(lead.basis[:, :k], U)
            assert basis.basis.dtype == np.float64 and basis.dimension == 12
            for view, want in zip(views, kept):
                assert np.array_equal(getattr(basis, view), want)

    def test_ritz_containment_hermitian(self, rng):
        A, w = random_hermitian(rng, 30, 0.5, 9.0)
        B = rand_complex(rng, 30, 1)
        basis = build_basis(A, B, [-1.0, INF, -0.5, INF])
        ritz = np.linalg.eigvalsh(0.5 * (basis.compression + basis.compression.conj().T))
        assert ritz.min() >= w.min() - 1e-12 * abs(w.max())
        assert ritz.max() <= w.max() + 1e-12 * abs(w.max())

    def test_rational_exactness_lemma(self, rng):
        # r(A) B = U r(G) U* B for r = p/q_m with deg p <= m-1, via partial fractions
        for n, m, seed in [(30, 3, 0), (60, 6, 1), (45, 4, 2)]:
            local = np.random.default_rng(seed)
            A = rand_complex(local, n, n)
            A /= norm2(A)
            B = rand_complex(local, n, 1)
            poles = [2.5 * np.exp(2j * np.pi * local.random()) for _ in range(m)]
            basis = build_basis(A, B, poles)
            pf = PartialFractions(
                poly=(0.0,), poles=tuple(poles), mults=(1,) * m,
                coeffs=tuple((complex(local.standard_normal() + 1j * local.standard_normal()),)
                             for _ in range(m)))
            n_eye = np.eye(n, dtype=complex)
            rA = sum(c[0] * np.linalg.solve(A - p * n_eye, n_eye)
                     for p, c in zip(pf.poles, pf.coeffs))
            G = basis.compression
            k_eye = np.eye(G.shape[0], dtype=complex)
            rG = sum(c[0] * np.linalg.solve(G - p * k_eye, k_eye)
                     for p, c in zip(pf.poles, pf.coeffs))
            lhs = rA @ B
            rhs = basis.basis @ (rG @ (basis.basis.conj().T @ B))
            assert norm2(lhs - rhs) <= 1e-9 * norm2(lhs)


class TestAdjoint:
    def test_hermitian_same_span(self, rng):
        A, _ = random_hermitian(rng, 25)
        B = rand_complex(rng, 25, 1)
        ub = build_basis(A, B, [-1.0, -3.0, INF])
        vb = adjoint_basis(A, B, [-1.0, -3.0, INF])
        assert max_principal_angle(ub.basis, vb.basis) <= 1e-10

    def test_adjoint_infinite_seed(self):
        A = np.diag([1.0, 2.0])
        e2 = np.eye(2)[:, 1:]
        vb = adjoint_basis(A, e2, [INF])
        assert np.allclose(np.abs(vb.basis), e2, atol=1e-14)

    def test_adjoint_orthonormal_complex_poles(self, rng):
        A = rand_complex(rng, 40, 40)
        C = rand_complex(rng, 40, 1)
        vb = adjoint_basis(A, C, [-1.0 + 2.0j, -1.0 - 2.0j])
        k = vb.dimension
        assert norm2(vb.basis.conj().T @ vb.basis - np.eye(k)) <= 1e-12

    def test_adjoint_spans_adjoint_space(self, rng):
        A = rand_complex(rng, 18, 18)
        C = rand_complex(rng, 18, 1)
        xi = -1.0 + 2.0j
        vb = adjoint_basis(A, C, [xi])
        target = np.linalg.solve((A - xi * np.eye(18)).conj().T, C)
        assert max_principal_angle(vb.basis, target) <= 1e-12
        assert vb.poles_used == (xi,)  # the primal pole, not its conjugate

    def test_cache_shared_between_sides(self, rng):
        A = rand_complex(rng, 20, 20)
        B = rand_complex(rng, 20, 1)
        C = rand_complex(rng, 20, 1)
        cache = FactorizationCache(A)
        build_basis(cache, B, [-1.0, -2.0, -1.0])
        adjoint_basis(cache, C, [-1.0, -2.0, -1.0])
        assert len(cache) == 2  # one LU per distinct pole serves both sides


class TestBreakdown:
    def test_rank_deficient_seed(self, rng):
        A = rand_complex(rng, 10, 10)
        b = rand_complex(rng, 10, 1)
        with pytest.raises(RankDeficient) as exc:
            build_basis(A, np.hstack([b, b]), [INF])
        assert exc.value.step == 1

    def test_singular_shift(self):
        A = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(SingularShift):
            build_basis(A, np.ones((3, 1)), [2.0])

    def test_space_saturation_is_breakdown(self, rng):
        A = rand_complex(rng, 3, 3)
        B = rand_complex(rng, 3, 1)
        with pytest.raises(RankDeficient):
            build_basis(A, B, [INF, INF, INF, INF])


def _hstack_basis(A, seed, poles, adjoint=False):
    """(basis, compression) of the poles, grown by np.hstack in complex128:
    the reference for the preallocated buffers.  On a cache that is not
    Hermitian the compression's new rows are (U* (Op* Q))*."""
    cache = FactorizationCache(A)
    n, ell = seed.shape
    U = np.zeros((n, 0), dtype=complex)
    G = np.zeros((0, 0), dtype=complex)
    for j, xi in enumerate(poles, start=1):
        if xi == INF:
            W = seed.copy() if j == 1 else OpQ[:, -ell:].copy()
        else:
            Y = seed if j == 1 else U[:, -ell:] if xi == 0 else OpQ[:, -ell:]
            W = cache.factorization(xi).solve(Y, adjoint=adjoint)
        ref = np.linalg.norm(W, axis=0)
        if U.shape[1]:
            W = W - U @ (U.T @ W.conj()).conj()
            W = W - U @ (U.T @ W.conj()).conj()
        Q = qr_orthonormalize(W, reference_norms=ref, step=j)
        OpQ = cache.matvec(Q, adjoint)
        k = U.shape[1]
        new = np.zeros((k + ell, k + ell), dtype=complex)
        new[:k, :k] = G
        new[:k, k:] = (U.T @ OpQ.conj()).conj()
        new[k:, :k] = (U.T @ cache.matvec(Q, not adjoint).conj()).T
        new[k:, k:] = Q.conj().T @ OpQ
        U, G = np.hstack([U, Q]), new
    return U, G


def _complex_stored(A):
    """A cache that keeps a real A in complex128, as every cache did before
    real operators were stored real: the reference path."""
    cache = FactorizationCache(A)
    cache.A = np.asarray(A, dtype=complex)
    return cache


def _real_operators(rng, n):
    tri = (2.5 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
           + 0.3 * np.diag(rng.standard_normal(n)))
    dense = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
    return {"tridiagonal": tri, "dense": dense}


class TestRealOperator:
    def test_cache_stores_real_operator_real(self, rng):
        R = rng.standard_normal((6, 6))
        for A, dtype in ((R, np.float64), (R.astype(complex), np.float64),
                         (R.astype(int), np.float64),
                         (R + 1e-300j * np.eye(6), np.complex128),
                         (rand_complex(rng, 6, 6), np.complex128)):
            cache = FactorizationCache(A)
            assert cache.A.dtype == dtype and cache.A.flags.c_contiguous
            assert np.array_equal(cache.A, A)

    def test_lu_type_follows_operator_and_shift(self, rng):
        cache = FactorizationCache(rng.standard_normal((8, 8)) + 4.0 * np.eye(8))
        assert cache.factorization(-1.0).lu[0].dtype == np.float64
        assert cache.factorization(0.0).lu[0].dtype == np.float64
        assert cache.factorization(-1.0 + 2.0j).lu[0].dtype == np.complex128
        cache = FactorizationCache(rand_complex(rng, 8, 8))
        assert cache.factorization(-1.0).lu[0].dtype == np.complex128

    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    def test_bases_agree_with_complex_storage(self, rng, kind):
        n = 60
        A = _real_operators(rng, n)[kind]
        B = rand_complex(rng, n, 2)
        C = rand_complex(rng, n, 2)
        poles = [-1.0, INF, 0.0, -2.0 + 1.0j, -2.0 - 1.0j, 1.5, INF, -1.0, 0.0]
        for build, seed in ((build_basis, B), (adjoint_basis, C)):
            got = build(FactorizationCache(A), seed, poles)
            ref = build(_complex_stored(A), seed, poles)
            assert got.cache.A.dtype == np.float64 and ref.cache.A.dtype == np.complex128
            for x, y in ((got.basis, ref.basis), (got.compression, ref.compression)):
                assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    def test_real_data_keep_the_basis_real(self, rng, monkeypatch, kind, adjoint):
        # real data with real or infinite poles run in float64; the first
        # complex pole's block promotes the basis once, in place
        promotions = []
        reallocate = KrylovBasis._reallocate

        def recorded(self, cap, dtype):
            if dtype != self._U.dtype:
                promotions.append(dtype)
            return reallocate(self, cap, dtype)

        monkeypatch.setattr(KrylovBasis, "_reallocate", recorded)
        n = 60
        cache = FactorizationCache(_real_operators(rng, n)[kind])
        assert isinstance(cache.A, _Band) == (kind == "tridiagonal")
        basis = KrylovBasis(cache, rng.standard_normal((n, 2)), adjoint=adjoint)
        for xi in [-1.0, INF, 0.0, 1.5, INF, -1.0]:
            basis.advance(xi)
            assert basis.basis.dtype == basis.compression.dtype == np.float64
        U, G = basis.basis.copy(), basis.compression.copy()
        for xi in [-2.0 + 1.0j, -1.0, -2.0 - 1.0j, INF]:
            basis.advance(xi)
            assert basis.basis.dtype == basis.compression.dtype == np.complex128
        assert promotions == [np.complex128]
        k = U.shape[1]
        assert np.array_equal(basis.basis[:, :k], U)
        assert np.array_equal(basis.compression[:k, :k], G)
        assert basis.basis.imag.any() and basis.compression.imag.any()

    def test_two_sided_run_keeps_a_real_right_basis(self, rng):
        # a complex B makes the left basis complex; the real C keeps the
        # right one real, and the update is the one of complex storage
        n = 60
        A = _real_operators(rng, n)["dense"]
        B = 0.1 * rand_complex(rng, n, 2)
        C = 0.1 * rng.standard_normal((n, 2))
        plan = PolePlan((-1.0, INF, -3.0), repetition="cyclic")
        f = FunctionSpec.inv_sqrt()
        state, _ = run_update(A, B, C, f=f, plan=plan, m_max=7, tol=0.0)
        assert state.left.basis.dtype == np.complex128
        assert state.right.basis.dtype == np.float64
        left = build_basis(_complex_stored(A), B, plan, 7)
        right = adjoint_basis(_complex_stored(A), C, plan, 7)
        assert right.basis.dtype == np.complex128
        for x, y in ((state.right.basis, right.basis), (state.left.basis, left.basis),
                     (state.materialize(),
                      left.basis @ project_update(left, right, f) @ right.basis.conj().T)):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    def test_real_shift_on_real_eigenvalue(self):
        # upper triangular with eigenvalue 2: A - 2I is exactly singular
        A = np.array([[1.0, 5.0, 0.0], [0.0, 2.0, 3.0], [0.0, 0.0, 3.0]])
        for cache in (FactorizationCache(A), FactorizationCache(A.astype(complex))):
            assert cache.A.dtype == np.float64
            with pytest.raises(SingularShift):
                KrylovBasis(cache, np.ones((3, 1))).advance(2.0)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_one_product_with_a_per_step(self, rng, monkeypatch, adjoint):
        calls = []
        matvec = KrylovBasis._matvec

        def counted(self, X, adjoint=False):
            calls.append((X.shape[1], adjoint))
            return matvec(self, X, adjoint)

        monkeypatch.setattr(KrylovBasis, "_matvec", counted)
        A = _real_operators(rng, 40)["dense"]
        poles = [INF, -1.0, INF, 0.0, -2.0 + 1.0j, -1.0, INF]
        basis = KrylovBasis(A, rand_complex(rng, 40, 2), adjoint=adjoint)
        for xi in poles:
            basis.advance(xi)
        # one product with A per step, and from step 2 on one with A* for
        # the compression's rows, since A is not Hermitian
        assert not basis.cache.hermitian
        assert calls == [(2, False)] + [(2, False), (2, True)] * (len(poles) - 1)


class TestConjugatePairs:
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    def test_one_lu_serves_a_conjugate_pair(self, rng, kind, adjoint):
        n = 40
        cache = FactorizationCache(_real_operators(rng, n)[kind])
        xi = -2.0 + 1.0j
        Y = rand_complex(rng, n, 3)
        for first, second in ((xi, xi.conjugate()), (xi.conjugate(), xi)):
            cache.clear()
            cache.factorization(first)
            fac = cache.factorization(second)
            assert len(cache) == 1
            ref = shifted_factorize(cache.A, second)
            for rhs in (Y, Y.real.copy()):
                X, R = fac.solve(rhs, adjoint=adjoint), ref.solve(rhs, adjoint=adjoint)
                assert np.abs(X - R).max() <= 1e-13 * np.abs(R).max()
        # a complex operator has no such symmetry: two LUs
        cache = FactorizationCache(rand_complex(rng, n, n) + 8.0 * np.eye(n))
        cache.factorization(xi)
        cache.factorization(xi.conjugate())
        assert len(cache) == 2

    def test_complex_seed_run_makes_one_lu_per_pair(self, rng, monkeypatch):
        # complex seeds on a real A cannot pair, but the conjugate pole of a
        # pair reuses the LU of the first
        calls = []
        factorize = arnoldi.shifted_factorize

        def counted(A, xi):
            calls.append(complex(xi))
            return factorize(A, xi)

        monkeypatch.setattr(arnoldi, "shifted_factorize", counted)
        n = 30
        A = _real_operators(rng, n)["dense"]
        plan = PolePlan((-1.0 + 1.0j, -1.0 - 1.0j, -3.0, 2.0j, -2.0j), repetition="cyclic")
        state, _ = run_update(A, 0.1 * rand_complex(rng, n, 2), 0.1 * rand_complex(rng, n, 2),
                              f=FunctionSpec.inv_sqrt(), plan=plan, m_max=10, tol=0.0)
        assert state.left.basis.dtype == state.right.basis.dtype == np.complex128
        assert calls == [-1.0 + 1.0j, -3.0, 2.0j]

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    def test_paired_step_spans_the_two_single_steps(self, rng, kind, adjoint, ell):
        n = 50
        A = _real_operators(rng, n)[kind]
        seed = rng.standard_normal((n, ell))
        steps = [(-1.0 + 0.5j, True), (INF, False), (-1.5, False), (0.5 + 2.0j, True)]
        basis = KrylovBasis(A, seed, adjoint=adjoint)
        ref = KrylovBasis(_complex_stored(A), seed.astype(complex), adjoint=adjoint)
        for xi, paired in steps:
            if paired:
                basis.advance(xi, np.conj(xi))
                ref.advance(xi).advance(np.conj(xi))
            else:
                basis.advance(xi)
                ref.advance(xi)
            k = basis.dimension
            assert k == ref.dimension and basis.poles_used == ref.poles_used
            assert basis.basis.dtype == basis.compression.dtype == np.float64
            assert max_principal_angle(basis.basis, ref.basis) <= 1e-12
        U = basis.basis
        Op = A.T if adjoint else A
        assert norm2(U.T @ U - np.eye(k)) <= 1e-13
        assert np.abs(basis.compression - U.T @ Op @ U).max() <= 1e-13 * norm2(A)

    def test_a_complex_basis_takes_a_pair_as_two_single_steps(self, rng):
        A = _real_operators(rng, 20)["dense"]
        seed = rand_complex(rng, 20, 2)
        xi = -1.0 + 1.0j
        for adjoint in (False, True):
            got, want = (KrylovBasis(A, seed, adjoint=adjoint) for _ in range(2))
            for basis in (got, want):
                basis.advance(-2.0)
            got.advance(xi, np.conj(xi))
            want.advance(xi).advance(np.conj(xi))
            _same_bases([got], [want])
            assert got.steps == 3

    @pytest.mark.parametrize("poles", [(-1.0 + 1.0j, -1.0 + 1.0j), (-1.0 + 1.0j, 1.0 - 1.0j),
                                       (-1.0, -1.0), (INF, INF), (1.0j, -1.0j, 2.0), ()])
    def test_anything_but_one_pole_or_a_conjugate_pair_raises(self, rng, poles):
        A = _real_operators(rng, 20)["dense"]
        for seed in (rng.standard_normal((20, 1)), rand_complex(rng, 20, 1)):
            basis = KrylovBasis(A, seed)
            with pytest.raises(ValueError, match="conjugate pair"):
                basis.advance(*poles)
            assert basis.steps == 0

    @settings(derandomize=True, max_examples=24, deadline=None, database=None)
    @given(kind=st.sampled_from(["dense", "tridiagonal", "diagonal"]),
           ell=st.integers(1, 2), adjoint=st.booleans(), seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.sampled_from([0.0, -1.0, -1.5, INF, -2.0 + 1.0j]),
                          min_size=1, max_size=5))
    def test_generated_paired_steps_span_the_single_steps(self, kind, ell, adjoint, seed,
                                                           steps):
        # n = 48 keeps the pentadiagonal operator dense-stored and the
        # tridiagonal and diagonal ones band-stored; at most 6 poles
        rng = np.random.default_rng(seed)
        n = 48
        A = band_matrix(rng, n, *{"dense": (2, 2), "tridiagonal": (1, 1),
                                  "diagonal": (0, 0)}[kind])
        steps = [(xi, np.conj(xi)) if np.iscomplex(xi) else (xi,) for xi in steps]
        while sum(map(len, steps)) > 6:
            steps.pop()
        seed = rng.standard_normal((n, ell))
        basis = KrylovBasis(A, seed, adjoint=adjoint)
        ref = KrylovBasis(_complex_stored(A), seed.astype(complex), adjoint=adjoint)
        assert isinstance(basis.cache.A, _Band) == (kind != "dense")
        for step in steps:
            basis.advance(*step)
            for pole in step:
                ref.advance(pole)
        assert basis.basis.dtype == np.float64 and basis.poles_used == ref.poles_used
        assert basis.dimension == ref.dimension <= 12
        assert max_principal_angle(basis.basis, ref.basis) <= 1e-10

    def test_a_lost_pair_leaves_the_basis_unchanged(self, rng):
        # an eigenvector seed: Re W and Im W are both multiples of it
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        basis = KrylovBasis(A, np.eye(4)[:, :1])
        with pytest.raises(RankDeficient) as info:
            basis.advance(-1.0 + 1.0j, -1.0 - 1.0j)
        assert not info.value.exhausted
        assert basis.dimension == basis.steps == 0
        # no room for two columns, and then none for any
        basis = KrylovBasis(A, np.ones((4, 1)))
        basis.advance(-1.0).advance(INF).advance(-2.0)
        U = basis.basis.copy()
        with pytest.raises(RankDeficient) as info:
            basis.advance(-1.0 + 1.0j, -1.0 - 1.0j)
        assert not info.value.exhausted and np.array_equal(basis.basis, U)
        basis.advance(INF)
        with pytest.raises(RankDeficient) as info:
            basis.advance(-1.0 + 1.0j, -1.0 - 1.0j)
        assert info.value.exhausted and basis.steps == 4


def _same_bases(got, want):
    for x, y in zip(got, want):
        assert x.poles_used == y.poles_used and x.basis.dtype == y.basis.dtype
        assert np.array_equal(x.basis, y.basis) and np.array_equal(x.compression, y.compression)


class TestStepRule:
    """Each branch of ``_advance_step``, the one rule that decides single and
    paired steps, against the steps of the bases it stands for."""

    XI = -1.0 + 1.5j

    @staticmethod
    def bases(A, seeds):
        cache = FactorizationCache(A)
        return (KrylovBasis(cache, seeds[0]),
                *(KrylovBasis(cache, seed, adjoint=True) for seed in seeds[1:]))

    def test_real_bases_pair(self, rng):
        A = _real_operators(rng, 20)["dense"]
        seeds = rng.standard_normal((2, 20, 2))
        poles = (self.XI, np.conj(self.XI), INF)
        got, want = self.bases(A, seeds), self.bases(A, seeds)
        assert arnoldi._advance_step(got, poles, 0) == 2
        for basis in want:
            basis.advance(self.XI, np.conj(self.XI))
        _same_bases(got, want)
        assert all(b.basis.dtype == np.float64 and b.dimension == 4 for b in got)
        # the next pole has no conjugate after it: a single step
        assert arnoldi._advance_step(got, poles, 2) == 1
        assert all(b.steps == 3 and b.dimension == 6 for b in got)

    def test_a_complex_basis_or_a_missing_conjugate_takes_single_steps(self, rng):
        A = _real_operators(rng, 20)["dense"]
        for seeds, poles in (([rand_complex(rng, 20, 1), rand_complex(rng, 20, 1)],
                              (self.XI, np.conj(self.XI))),
                             ([rng.standard_normal((20, 1))] * 2, (self.XI, self.XI))):
            got, want = self.bases(A, seeds), self.bases(A, seeds)
            assert arnoldi._advance_step(got, poles, 0) == 1
            for basis in want:
                basis.advance(self.XI)
            _same_bases(got, want)

    @pytest.mark.parametrize("complex_first", [False, True])
    def test_a_real_basis_pairs_next_to_a_complex_one(self, rng, complex_first):
        # the real basis takes the paired step, the complex one the two
        # single steps of the pair
        A = _real_operators(rng, 20)["dense"]
        seeds = [rng.standard_normal((20, 1)), rand_complex(rng, 20, 1)]
        if complex_first:
            seeds.reverse()
        got, want = self.bases(A, seeds), self.bases(A, seeds)
        assert arnoldi._advance_step(got, (self.XI, np.conj(self.XI)), 0) == 2
        for basis in want:
            if basis.basis.dtype == np.float64:
                basis.advance(self.XI, np.conj(self.XI))
            else:
                basis.advance(self.XI).advance(np.conj(self.XI))
        _same_bases(got, want)
        assert [b.basis.dtype == np.float64 for b in got] == [not complex_first, complex_first]
        assert all(b.dimension == 2 and b.poles_used == (self.XI, np.conj(self.XI))
                   for b in got)

    def test_partial_loss_in_the_first_basis_takes_the_single_step_of_xi(self):
        # an eigenvector seed: Re W and Im W are multiples of it; the other
        # basis could pair, but takes the single step too
        A = np.diag(np.linspace(1.0, 5.0, 12))
        seeds = [np.eye(12)[:, :1], np.ones((12, 1))]
        got, want = self.bases(A, seeds), self.bases(A, seeds)
        assert arnoldi._advance_step(got, (self.XI, np.conj(self.XI)), 0) == 1
        for basis in want:
            basis.advance(self.XI)
        _same_bases(got, want)
        assert all(b.basis.dtype == np.complex128 and b.poles_used == (self.XI,) for b in got)

    def test_partial_loss_in_another_basis_takes_two_single_steps_there(self):
        # a pair near the real axis: for the adjoint seed on the far
        # eigenvalues, Im W is below the rank floor, so [Re W, Im W] loses a
        # column while the two single steps of xi and conj(xi) do not; the
        # first basis, on the eigenvalues next to Re xi, keeps its pair
        xi = -1.0 + 1e-25j
        A = np.diag([-1.0 + 1e-4, -1.0 + 2e-4, 1e5, 2e5])
        seeds = [np.array([[1.0], [1.0], [0.0], [0.0]]), np.array([[0.0], [0.0], [1.0], [1.0]])]
        got, want = self.bases(A, seeds), self.bases(A, seeds)
        assert arnoldi._advance_step(got, (xi, np.conj(xi)), 0) == 2
        want[0].advance(xi, np.conj(xi))
        want[1].advance(xi).advance(np.conj(xi))
        _same_bases(got, want)
        assert got[0].basis.dtype == np.float64 and got[1].basis.dtype == np.complex128
        assert all(b.dimension == 2 and b.poles_used == (xi, np.conj(xi)) for b in got)

    def test_a_fallback_in_another_basis_leaves_the_first_basis_pairing(self):
        # after the right basis takes the first pair as two single steps, it
        # is complex; the left basis stays real through the next pair too,
        # and is the basis that build_basis makes on its own
        xi = -1.0 + 1e-25j
        A = np.diag([-1.0 + 1e-4, -1.0 + 2e-4, 3.0, 5.0, 1e5, 2e5, 3e5, 4e5])
        poles = (xi, np.conj(xi), -2.0 + 1.0j, -2.0 - 1.0j)
        seeds = [np.r_[np.ones(4), np.zeros(4)][:, None], np.r_[np.zeros(4), np.ones(4)][:, None]]
        got = self.bases(A, seeds)
        for m in (0, 2):
            assert arnoldi._advance_step(got, poles, m) == 2
            assert got[0].basis.dtype == np.float64 and got[1].basis.dtype == np.complex128
        _same_bases(got[:1], [build_basis(A, seeds[0], poles)])
        want = KrylovBasis(A, seeds[1], adjoint=True)
        for pole in poles:
            want.advance(pole)
        _same_bases(got[1:], [want])

    def test_an_exhausted_pair_raises_with_the_bases_unchanged(self):
        # the first basis fills R^4: the pair's rank loss is that of the
        # step of xi, exhausted, and no basis moves
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        got = self.bases(A, [np.ones((4, 1))] * 2)
        for xi in (-1.0, INF, -2.0, INF):
            arnoldi._advance_step(got, (xi,), 0)
        with pytest.raises(RankDeficient) as info:
            arnoldi._advance_step(got, (self.XI, np.conj(self.XI)), 0)
        assert info.value.exhausted and info.value.step == 5
        assert all(b.steps == 4 and b.basis.dtype == np.float64 for b in got)

    def test_a_real_sylvester_run_calls_advance_once_per_basis_and_step(self, rng,
                                                                        monkeypatch):
        # Zolotarev sign poles are conjugate pairs i b, -i b: each pair is one
        # call of advance per basis, as a wrapper of advance sees it
        calls, counts = [], []
        advance, advance_step = KrylovBasis.advance, updater._advance_step

        def counted_advance(self, *poles):
            calls.append(poles)
            return advance(self, *poles)

        def counted_step(bases, poles, m):
            before = len(calls)
            taken = advance_step(bases, poles, m)
            counts.append((len(calls) - before, taken))
            return taken

        monkeypatch.setattr(KrylovBasis, "advance", counted_advance)
        monkeypatch.setattr(updater, "_advance_step", counted_step)
        n = 16
        prob = SylvesterProblem.create(rng.standard_normal((n, n)) / n + 4 * np.eye(n),
                                       rng.standard_normal((n, n)) / n - 4 * np.eye(n),
                                       rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))
        plan = PolePlan(zolotarev_sign_poles((3.0, 5.0), 4).poles, repetition="cyclic")
        result, _ = sylvester_solve_krylov(prob, plan, m_max=6, tol=0.0)
        assert result.left.dtype == result.right.dtype == np.float64
        assert counts == [(2, 2)] * 3
        assert all(len(poles) == 2 for poles in calls)


def _dense_stored(A):
    """A cache that keeps A as a dense array in the dtype the cache chose,
    as every cache did before band storage: the reference path."""
    cache = FactorizationCache(A)
    cache.A = np.asarray(A, dtype=cache.A.dtype)
    return cache


class TestBandOperator:
    @pytest.mark.parametrize("kind", sorted(BANDS))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_bases_agree_with_dense_storage(self, rng, kind, complex_entries):
        n = 64
        A = band_matrix(rng, n, *BANDS[kind], complex_entries)
        B = rand_complex(rng, n, 2)
        C = rand_complex(rng, n, 2)
        poles = [-1.0, INF, 0.0, -2.0 + 1.0j, -2.0 - 1.0j, 40.0, INF, -1.0, 0.0]
        for build, seed in ((build_basis, B), (adjoint_basis, C)):
            got = build(FactorizationCache(A), seed, poles)
            ref = build(_dense_stored(A), seed, poles)
            assert isinstance(got.cache.A, _Band) and isinstance(ref.cache.A, np.ndarray)
            assert got.cache.A.dtype == ref.cache.A.dtype
            for x, y in ((got.basis, ref.basis), (got.compression, ref.compression)):
                assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_diagonal_real_operator_keeps_its_bits(self, rng, cols, adjoint):
        # every figure runs on a real diagonal A: its products and solves
        # are the dense path's bits
        A = np.diag(np.logspace(-2, 2, 60) * rng.choice([-1.0, 1.0], 60))
        poles = [INF, -1.0, 0.0, INF, -0.5, -1.0]
        got = KrylovBasis(FactorizationCache(A), rand_complex(rng, 60, cols), adjoint=adjoint)
        ref = KrylovBasis(_dense_stored(A), got._seed, adjoint=adjoint)
        assert isinstance(got.cache.A, _Band)
        X = rand_complex(rng, 60, cols)
        assert np.array_equal(got._matvec(X), ref._matvec(X))
        for xi in poles:
            got.advance(xi)
            ref.advance(xi)
        assert np.array_equal(got.basis, ref.basis)
        assert np.array_equal(got.compression, ref.compression)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_one_product_with_a_per_step(self, rng, monkeypatch, adjoint, complex_entries):
        calls = []
        matvec = KrylovBasis._matvec

        def counted(self, X, adjoint=False):
            calls.append((X.shape[1], adjoint))
            return matvec(self, X, adjoint)

        monkeypatch.setattr(KrylovBasis, "_matvec", counted)
        A = band_matrix(rng, 40, 1, 1, complex_entries)
        poles = [INF, -1.0, INF, 0.0, -2.0 + 1.0j, -1.0, INF]
        basis = KrylovBasis(A, rand_complex(rng, 40, 2), adjoint=adjoint)
        assert isinstance(basis.cache.A, _Band)
        for xi in poles:
            basis.advance(xi)
        # one product with A per step, and from step 2 on one with A* for
        # the compression's rows, since A is not Hermitian
        assert not basis.cache.hermitian
        assert calls == [(2, False)] + [(2, False), (2, True)] * (len(poles) - 1)

    def test_singular_shift_on_band_operator(self):
        A = np.diag(np.arange(1.0, 41.0)) + np.diag(np.full(39, 0.5), 1)
        cache = FactorizationCache(A)
        assert isinstance(cache.A, _Band)
        with pytest.raises(SingularShift):
            KrylovBasis(cache, np.ones((40, 1))).advance(7.0)

    def test_wide_and_small_operators_stay_dense(self, rng):
        for A in (band_matrix(rng, 64, 3, 3, False), np.diag([1.0, 2.0, 3.0]),
                  rand_complex(rng, 30, 30)):
            cache = FactorizationCache(A)
            assert isinstance(cache.A, np.ndarray) and cache.A.flags.c_contiguous

    def test_runs_free_band_factorizations(self, rng):
        n = 64
        A = 2.5 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        B = 0.1 * rand_complex(rng, n, 1)
        C = 0.1 * rand_complex(rng, n, 1)
        plan = PolePlan((-1.0, -3.0), repetition="cyclic")
        f = FunctionSpec.inv_sqrt()
        general, _ = run_update(A, B, C, f=f, plan=plan, m_max=6, tol=1e-8)
        herm, _ = run_update(A, B, f=f, plan=plan, m_max=6, tol=1e-8, J=np.array([[1.0]]))
        for basis in (general.left, general.right, herm.left):
            assert isinstance(basis.cache.A, _Band)
            assert basis.steps > 1 and len(basis.cache) == 0


def _hermitian_operators(rng, n):
    """Hermitian operators whose spectra keep a distance from 0: dense
    complex, and real tridiagonal and diagonal ones in band storage."""
    dense, _ = random_hermitian(rng, n, 0.2, 3.0)
    signs = rng.choice([-1.0, 1.0], n)
    tri = np.diag(signs * rng.uniform(1.0, 3.0, n)) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    diag = np.diag(signs * np.logspace(-1, 1, n))
    return {"dense": dense, "tridiagonal": tri, "diagonal": diag}


class TestSquaredCache:
    @pytest.mark.parametrize("kind", ["dense", "tridiagonal", "diagonal"])
    def test_solves_and_products_of_the_square(self, rng, kind):
        n = 40
        A = _hermitian_operators(rng, n)[kind]
        cache = _SquaredCache(A)
        assert isinstance(cache.A, np.ndarray if kind == "dense" else _Band)
        A2 = A @ A
        for s in (0.1, 2.0):
            fac = cache.factorization(-s * s)
            for Y in (rand_complex(rng, n), rand_complex(rng, n, 3), rng.standard_normal((n, 2))):
                ref = np.linalg.solve(A2 + s * s * np.eye(n), Y)
                for adjoint in (False, True):
                    got = fac.solve(Y, adjoint=adjoint)
                    assert got.shape == Y.shape
                    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        X = rand_complex(rng, n, 2)
        for adjoint in (False, True):
            ref = A @ A @ X
            assert np.linalg.norm(cache.matvec(X, adjoint) - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(cache.plain_matvec(X), FactorizationCache(A).matvec(X))

    @pytest.mark.parametrize("kind", ["tridiagonal", "diagonal"])
    def test_real_data_keep_a_real_basis_through_negative_poles(self, rng, kind):
        # (A^2 + s^2 I)^{-1} is real for a real Hermitian A, although its LU
        # of A - i s I is complex; a complex seed still gives a complex basis
        A = _hermitian_operators(rng, 40)[kind]
        poles = [INF, -0.25, -4.0, INF, -0.25]
        for seed, dtype in ((rng.standard_normal((40, 2)), np.float64),
                            (rand_complex(rng, 40, 2), np.complex128)):
            got = KrylovBasis(_SquaredCache(A), seed)
            ref = _SquaredCache(A)
            ref.A = np.asarray(A, dtype=complex)
            ref = KrylovBasis(ref, seed)
            for xi in poles:
                got.advance(xi)
                ref.advance(xi)
                assert got.basis.dtype == got.compression.dtype == dtype
            assert ref.basis.dtype == np.complex128
            for x, y in ((got.basis, ref.basis), (got.compression, ref.compression)):
                assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    def test_one_lu_of_the_shifted_operator_per_pole(self, rng, monkeypatch):
        shifts = []
        factorize = arnoldi.shifted_factorize

        def recorded(A, xi):
            shifts.append(xi)
            return factorize(A, xi)

        monkeypatch.setattr(arnoldi, "shifted_factorize", recorded)
        A = _hermitian_operators(rng, 40)["tridiagonal"]
        cache = _SquaredCache(A)
        assert isinstance(cache.A, _Band)
        basis = KrylovBasis(cache, rand_complex(rng, 40, 2))
        for xi in (-0.25, INF, -4.0, -0.25, -4.0, INF):
            basis.advance(xi)
        assert shifts == [0.5j, 2.0j]
        assert len(cache) == 2
        assert cache.factorization(-4.0).fac.shift == 2.0j


def _counted(monkeypatch):
    """Count a basis's products with the operator, ``Op`` and ``Op*``, and
    the tall products of its compression, basis* (Op Q) for its new columns
    and basis* (Op* Q) for its new rows, Q the new block."""
    counts = {"Op": 0, "Op*": 0, "compression": 0}
    products = []
    matvec, block_product = KrylovBasis._matvec, KrylovBasis.block_product

    def counted_matvec(self, X, adjoint=False):
        counts["Op*" if adjoint else "Op"] += 1
        products.append(matvec(self, X, adjoint))
        return products[-1]

    def counted_block_product(self, X):
        if any(X is P for P in products):
            counts["compression"] += 1
        return block_product(self, X)

    monkeypatch.setattr(KrylovBasis, "_matvec", counted_matvec)
    monkeypatch.setattr(KrylovBasis, "block_product", counted_block_product)
    return counts


class TestHermitianFill:
    """A basis on a Hermitian cache takes the new rows of its compression
    as the conjugate transpose of its new columns; every basis keeps
    basis* seed as it grows."""

    POLES = [-1.0, INF, -2.0 + 1.0j, -2.0 - 1.0j, 0.5, INF, -1.0]

    @staticmethod
    def operators(rng, n):
        dense, _ = random_hermitian(rng, n, 0.2, 3.0)
        tri = np.diag(rng.uniform(1.0, 3.0, n)) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
        return {"dense": 0.5 * (dense + dense.conj().T), "tridiagonal": tri,
                "real dense": tri + 0.01 * np.ones((n, n))}

    def test_the_cache_probes_a_once(self, rng):
        ops = self.operators(rng, 40)
        for A in ops.values():
            assert FactorizationCache(A).hermitian and _SquaredCache(A).hermitian
        for A in (band_matrix(rng, 40, 1, 1), rand_complex(rng, 40, 40)):
            assert not FactorizationCache(A).hermitian and not _SquaredCache(A).hermitian

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_one_compression_product_per_step_on_a_hermitian_cache(self, rng, monkeypatch,
                                                                   hermitian):
        n = 40
        A = self.operators(rng, n)["dense"] if hermitian else rand_complex(rng, n, n)
        basis = KrylovBasis(A + 4.0 * np.eye(n), rand_complex(rng, n, 2))
        assert basis.cache.hermitian == hermitian
        counts = _counted(monkeypatch)
        for step, xi in enumerate([-1.0, INF, 0.5, INF], start=1):
            basis.advance(xi)
            # one product with A and one tall product for the compression;
            # from step 2 on, on a cache that is not Hermitian, one product
            # with A* and one more tall product for the compression's rows
            rows = 0 if hermitian else step - 1
            assert counts == {"Op": step, "Op*": rows, "compression": step + rows}
        before = dict(counts)
        UB = basis.seed_product
        assert counts == before and UB.shape == (basis.dimension, 2)

    @pytest.mark.parametrize("kind", ["dense", "tridiagonal", "real dense"])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_the_compression_is_exactly_hermitian(self, rng, kind, adjoint):
        n = 40
        A = self.operators(rng, n)[kind]
        for seed in (rng.standard_normal((n, 2)), rand_complex(rng, n, 1)):
            basis = KrylovBasis(A, seed, adjoint=adjoint)
            for xi in self.POLES:
                basis.advance(xi)
            U, G = basis.basis, basis.compression
            assert np.array_equal(G, G.conj().T)
            assert np.abs(G - U.conj().T @ A @ U).max() <= 1e-14 * norm2(A)

    def test_the_squared_cache_fills_too(self, rng):
        A = self.operators(rng, 40)["tridiagonal"]
        basis = KrylovBasis(_SquaredCache(A), rng.standard_normal((40, 2)))
        for xi in (INF, -0.25, -4.0, INF):
            basis.advance(xi)
        U, G = basis.basis, basis.compression
        assert np.array_equal(G, G.T)
        assert np.abs(G - U.T @ A @ A @ U).max() <= 1e-14 * norm2(A @ A)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_the_kept_seed_product(self, rng, hermitian):
        n = 40
        A = self.operators(rng, n)["dense"] if hermitian else rand_complex(rng, n, n)
        seed = rand_complex(rng, n, 3)
        basis = KrylovBasis(A + 4.0 * np.eye(n), seed)
        for xi in self.POLES:
            basis.advance(xi)
            got, ref = basis.seed_product, basis.basis.conj().T @ seed
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert basis.seed is basis._seed


class TestOperatorIntake:
    """A narrow band enters band storage straight from a dense or a sparse
    A, with no n x n copy."""

    @pytest.mark.parametrize("kind", sorted(BANDS))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_sparse_and_dense_bands_agree_bitwise(self, rng, kind, complex_entries):
        A = band_matrix(rng, 64, *BANDS[kind], complex_entries)
        ref = FactorizationCache(A).A
        for M in (scipy.sparse.csr_matrix(A), scipy.sparse.dia_array(A), A.astype(complex),
                  np.asfortranarray(A)):
            got = FactorizationCache(M).A
            assert isinstance(got, _Band) and (got.kl, got.ku) == (ref.kl, ref.ku)
            assert got.dtype == ref.dtype == (complex if complex_entries else np.float64)
            assert np.array_equal(got.ab, ref.ab) and got.scale == ref.scale

    def test_sparse_duplicates_and_explicit_zeros(self):
        # a duplicate entry sums, and an explicit zero outside the band does
        # not widen it
        rows, cols = [0, 1, 1, 2, 0] + list(range(3, 16)), [0, 1, 1, 2, 15] + list(range(3, 16))
        data = [1.0, 0.5, 1.5, 3.0, 0.0] + [2.0] * 13
        A = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(16, 16))
        band = FactorizationCache(A).A
        assert isinstance(band, _Band) and (band.kl, band.ku) == (0, 0)
        assert np.array_equal(band.ab[0], np.diag(A.toarray()))

    def test_wide_sparse_and_bad_input_take_as_array(self, rng):
        A = band_matrix(rng, 64, 3, 3)
        cache = FactorizationCache(scipy.sparse.csr_matrix(A))
        assert isinstance(cache.A, np.ndarray) and np.array_equal(cache.A, A)
        bad = np.diag(np.ones(64)) + np.diag(np.full(63, 0.5), 1)
        bad[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FactorizationCache(bad)
        with pytest.raises(ValueError, match="non-finite"):
            FactorizationCache(scipy.sparse.csr_matrix(bad))
        with pytest.raises(ValueError, match="square"):
            FactorizationCache(scipy.sparse.csr_matrix(np.ones((64, 63))))
        for dtype in (int, bool, np.float16, np.float32, np.complex64):
            assert FactorizationCache(np.eye(64, dtype=dtype)).A.dtype == np.float64

    def test_a_complex_stored_real_band_makes_no_n_by_n_copy(self):
        # 256 MB of complex128 whose untouched zero pages are never written
        n = 4000
        A = np.zeros((n, n), dtype=complex)
        i = np.arange(n)
        A[i, i] = 2.01
        A[i[1:], i[:-1]] = A[i[:-1], i[1:]] = -1.0
        tracemalloc.start()
        try:
            cache = FactorizationCache(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(cache.A, _Band) and cache.A.dtype == np.float64 and cache.hermitian
        assert peak < n * n * 8 / 4
