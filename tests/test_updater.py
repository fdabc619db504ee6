import math
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rkupdate.arnoldi import FactorizationCache, KrylovBasis, adjoint_basis, build_basis
from rkupdate.bounds import SpectralWindow
from rkupdate.dense import _Band, norm2
from rkupdate.errors import (
    CompressedNotSolvable,
    NonFiniteResult,
    RankDeficient,
    SingularityOnSpectrum,
    SingularShift,
)
from rkupdate.functions import FunctionSpec, PartialFractions
from rkupdate.oracles import dense_update, sherman_morrison
from rkupdate.poles import (
    INF,
    PolePlan,
    markov_single_pole,
    zolotarev_invsqrt_poles,
    zolotarev_sign_poles,
)
from rkupdate.rng import normal_block
from rkupdate.signsylv import SylvesterProblem, sign_update, sylvester_solve_krylov
from rkupdate.updater import (
    UpdateReport,
    UpdateState,
    _rational_krylov,
    _schedule,
    padded_difference_norm,
    project_update,
    run_update,
    update_hermitian,
)

from conftest import coupling_at, path_laplacian_update, rand_complex, random_hermitian


def make_rational(poly, poles, mults, coeffs):
    pf = PartialFractions(tuple(poly), tuple(poles), tuple(mults),
                          tuple(tuple(c) for c in coeffs))
    return FunctionSpec.rational(pf)


class TestProjectUpdate:
    def test_constant_gives_zero(self, rng):
        A = rand_complex(rng, 20, 20)
        B = rand_complex(rng, 20, 1)
        C = rand_complex(rng, 20, 1)
        ub = build_basis(A, B, [-2.0, INF])
        vb = adjoint_basis(A, C, [-2.0, INF])
        one = FunctionSpec.custom(lambda z: np.ones_like(z), label="1")
        X = project_update(ub, vb, one)
        assert norm2(X) <= 1e-10

    def test_identity_gives_coupling(self, rng):
        A = rand_complex(rng, 15, 15)
        B = rand_complex(rng, 15, 1)
        C = rand_complex(rng, 15, 1)
        ub = build_basis(A, B, [-2.0])
        vb = adjoint_basis(A, C, [-2.0])
        X = project_update(ub, vb, FunctionSpec.identity())
        expect = (ub.basis.conj().T @ B) @ (vb.basis.conj().T @ C).conj().T
        assert np.array_equal(X, expect)

    def test_single_resolvent_exact(self, rng):
        # one step with pole xi is exact for f = 1/(z - xi)
        n, xi = 30, -1.5 + 0.5j
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        b = 0.3 * rand_complex(rng, n, 1)
        c = 0.3 * rand_complex(rng, n, 1)
        f = make_rational((0.0,), (xi,), (1,), ((1.0,),))
        ub = build_basis(A, b, [xi])
        vb = adjoint_basis(A, c, [xi])
        X = project_update(ub, vb, f)
        approx = ub.basis @ X @ vb.basis.conj().T
        I = np.eye(n)
        dense = np.linalg.inv(A + b @ c.conj().T - xi * I) - np.linalg.inv(A - xi * I)
        assert norm2(approx - dense) <= 1e-10 * norm2(dense)


class TestUpdateHermitian:
    def test_zero_update(self, rng):
        A, _ = random_hermitian(rng, 12, 1.0, 2.0)
        B = rand_complex(rng, 12, 1)
        ub = build_basis(A, B, [-1.0, INF])
        X = update_hermitian(ub, np.zeros((1, 1)), FunctionSpec.inv_sqrt())
        assert norm2(X) <= 1e-12

    def test_refuses_a_basis_of_a_non_hermitian_A(self, rng):
        # its compression is not filled Hermitian, and the small problem
        # would read one triangle of it
        ub = build_basis(rand_complex(rng, 12, 12), rand_complex(rng, 12, 1), [-1.0, INF])
        with pytest.raises(ValueError, match="^A must be Hermitian$"):
            update_hermitian(ub, np.eye(1), FunctionSpec.inv_sqrt())

    def test_two_by_two_hand_value(self):
        A = np.diag([1.0, 2.0])
        B = np.eye(2)[:, :1]
        ub = build_basis(A, B, [INF])
        sq = FunctionSpec.custom(lambda z: z**2, dfn=lambda z: 2 * z, label="z^2")
        X = update_hermitian(ub, np.array([[1.0]]), sq)
        # U1 = e1, G1 = 1, S = 1: f(2) - f(1) = 3 scaled by (U1* e1)^2 = 1
        assert X.shape == (1, 1)
        assert X[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_agrees_with_two_sided_path(self, rng):
        A, _ = random_hermitian(rng, 30, 0.4, 5.0)
        B = 0.4 * rand_complex(rng, 30, 1)
        plan = PolePlan((-1.2,), repetition="cyclic")
        state_h, _ = run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=plan,
                                m_max=6, tol=0.0, d=2, J=np.array([[1.0]]))
        state_g, _ = run_update(A, B, B, f=FunctionSpec.inv_sqrt(), plan=plan,
                                m_max=6, tol=0.0, d=2)
        diff = norm2(state_h.materialize() - state_g.materialize())
        assert diff <= 1e-10 * max(norm2(state_h.materialize()), 1e-30)
        for state in (state_h, state_g):
            UX, V = state.factors()
            dense = state.materialize()
            assert norm2(UX @ V.conj().T - dense) <= 1e-14 * norm2(dense)

    def test_factors_of_a_real_basis_do_not_cast_it(self, rng):
        # U X for a float64 basis U and a complex X goes through X's float64
        # view: numpy's mixed product would first copy U as complex128
        n = 2000
        A, _, _ = path_laplacian_update(n)
        basis = KrylovBasis(A, rng.standard_normal((n, 4)))
        for _ in range(50):
            basis.advance(-0.25)
        U = basis.basis
        assert U.dtype == np.float64 and U.shape == (n, 200)
        X = rand_complex(rng, 200, 200)
        state = UpdateState(basis, basis, X)
        tracemalloc.start()
        try:
            UX, V = state.factors()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(V, U) and UX.dtype == np.complex128
        assert peak - UX.nbytes < U.size * np.dtype(complex).itemsize
        ref = U.astype(complex) @ X
        assert np.linalg.norm(UX - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_the_secular_branch_keeps_the_graded_fig2_update_accurate(self):
        # fig2's instance: eigenvalues log-spaced on [1e-3, 1e3] and a
        # rank-one update of norm 1e4.  Through the secular (DPR1) branch
        # its final true error is 5.7e-10 at both BLAS thread counts; through
        # two Hermitian matrix functions it would be 1.3e-9
        from rkupdate.cli import experiment_fig2

        assert experiment_fig2().rows[-1][1] <= 8e-10

    def test_block_J_path(self, rng):
        # ell = 2 exercises the generic Hermitian difference (no rank-one shortcut)
        A, _ = random_hermitian(rng, 25, 1.0, 6.0)
        B = 0.3 * rand_complex(rng, 25, 2)
        J = np.diag([1.0, -0.5])
        D = B @ J @ B.conj().T
        dense = dense_update(A, D, FunctionSpec.inv_sqrt(), hermitian=True)
        state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(),
                                plan=PolePlan((-2.0,), repetition="cyclic"),
                                m_max=10, tol=0.0, d=2, J=J)
        err = norm2(state.materialize() - dense) / norm2(dense)
        assert err <= 1e-6


class TestRunUpdate:
    def test_zero_update_short_circuit(self, rng):
        A = rand_complex(rng, 10, 10)
        state, rep = run_update(A, np.zeros((10, 1)), np.ones((10, 1)),
                                f=FunctionSpec.exp(), plan=[INF], m_max=4, tol=1e-8)
        assert rep.converged and rep.iterations == 0
        assert norm2(state.coupling) == 0.0
        # no step, and the exact zero update has no error
        assert rep.estimates == rep.true_errors == []
        assert rep.summary() == f"converged=true iterations=0 final_error={0.0:.16e}"

    def test_exactness_rational_plan_match(self, rng):
        n, m = 30, 4
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        b = 0.3 * rand_complex(rng, n, 1)
        c = 0.3 * rand_complex(rng, n, 1)
        poles = PolePlan((-2.0, 1.5 + 1.5j, 1.5 - 1.5j, INF), repetition="cyclic")
        f = make_rational((0.2, -0.1), (-2.0, 1.5 + 1.5j, 1.5 - 1.5j), (1, 1, 1),
                          ((1.0,), (0.4 - 0.2j,), (0.6 + 0.1j,)))
        dense = dense_update(A, b @ c.conj().T, f)
        state, rep = run_update(A, b, c, f=f, plan=poles, m_max=m + 3, tol=1e-10, d=2)
        assert rep.converged
        approx = state.materialize()
        assert norm2(approx - dense) <= 1e-9 * norm2(dense)

    def test_infinite_pole_polynomial_exactness(self, rng):
        # with m~ infinite poles the update is exact for polynomials up to
        # degree m~ (plus the strictly proper part)
        n = 24
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        b = 0.3 * rand_complex(rng, n, 1)
        c = 0.3 * rand_complex(rng, n, 1)
        poles = (INF, -2.0, INF)   # m = 3, m~ = 2
        f = make_rational((0.1, -0.3, 0.45), (-2.0,), (1,), ((0.8,),))
        dense = dense_update(A, b @ c.conj().T, f)
        state, rep = run_update(A, b, c, f=f, plan=poles, m_max=3, tol=0.0, d=1)
        assert norm2(state.materialize() - dense) <= 1e-9 * norm2(dense)

    def test_sherman_morrison_reproduction(self, rng):
        A = rand_complex(rng, 20, 20) + 4 * np.eye(20)
        b = rand_complex(rng, 20, 1)
        c = rand_complex(rng, 20, 1)
        state, rep = run_update(A, b, c, f=FunctionSpec.inverse(), plan=[0.0],
                                m_max=1, tol=0.0, d=1)
        sm = sherman_morrison(A, b, c)
        assert norm2(state.materialize() - sm) <= 1e-12 * norm2(sm)

    def test_nonconvergence_reported_not_raised(self, rng):
        A, _ = random_hermitian(rng, 30, 1e-6, 1.0)
        B = 0.1 * rand_complex(rng, 30, 1)
        state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(),
                                plan=PolePlan((INF,), repetition="cyclic"),
                                m_max=8, tol=1e-12, d=2, J=np.array([[1.0]]))
        assert not rep.converged
        assert rep.stagnation_warning  # polynomial poles stall on this spectrum

    def test_hermitian_mode_requires_conjugate_closed(self, rng):
        A, _ = random_hermitian(rng, 10, 1.0, 2.0)
        B = rand_complex(rng, 10, 1)
        with pytest.raises(ValueError):
            run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=[1j], m_max=1,
                       tol=0.0, J=np.array([[1.0]]))

    def test_singularity_abort_after_two_failures(self, rng):
        A, _ = random_hermitian(rng, 20, -1.0, 1.0)   # indefinite
        B = 0.1 * rand_complex(rng, 20, 1)
        with pytest.raises(SingularityOnSpectrum):
            run_update(A, B, f=FunctionSpec.inv_sqrt(),
                       plan=PolePlan((INF,), repetition="cyclic"),
                       m_max=6, tol=0.0, d=1, J=np.array([[1.0]]))

    def test_monotone_rank(self, rng):
        A = rand_complex(rng, 20, 20)
        B = rand_complex(rng, 20, 2)
        C = rand_complex(rng, 20, 2)
        state, rep = run_update(A, B, C, f=FunctionSpec.exp(), plan=[INF, INF, INF],
                                m_max=3, tol=0.0, d=1)
        assert rep.final_rank == 3 * 2
        assert state.coupling.shape == (6, 6)

    @pytest.mark.parametrize("n,shape", [(30, "dense"), (40, "tridiagonal")])
    def test_real_operator_passed_as_complex_agrees_bitwise(self, rng, n, shape):
        A = rng.standard_normal((n, n)) + 8.0 * np.eye(n)
        if shape == "tridiagonal":
            A = np.triu(np.tril(A, 1), -1)
        B = rand_complex(rng, n, 2)
        C = rand_complex(rng, n, 2)
        (s1, r1), (s2, r2) = [
            run_update(M, B, C, f=FunctionSpec.exp(), plan=[-2.0, INF, -3.0 + 1.0j],
                       m_max=3, tol=0.0, d=1)
            for M in (A, A.astype(complex))]
        assert np.array_equal(s1.left.basis, s2.left.basis)
        assert np.array_equal(s1.right.basis, s2.right.basis)
        assert np.array_equal(s1.coupling, s2.coupling)
        assert r1.estimates == r2.estimates

    @pytest.mark.parametrize("A", [np.ones((4, 3)), np.diag([1.0, np.nan, 2.0, 3.0])],
                             ids=["non-square", "non-finite"])
    def test_rejects_invalid_operator(self, A):
        b = np.ones((4, 1))
        with pytest.raises(ValueError):
            run_update(A, b, b, f=FunctionSpec.exp(), plan=[INF], m_max=1, tol=0.0)
        with pytest.raises(ValueError):
            run_update(A, b, f=FunctionSpec.exp(), plan=[INF], m_max=1, tol=0.0,
                       J=np.array([[1.0]]))


    @pytest.mark.parametrize("J, c_cols, message", [
        (np.eye(1), None, "J must be 2x2"),
        (np.eye(3), None, "J must be 2x2"),
        (None, 3, "B and C must have the same number of columns"),
        (np.eye(2), 2, "pass C for the general mode or J for the Hermitian mode, not both"),
    ], ids=["J-1x1", "J-3x3", "C-3-columns", "J-and-C"])
    def test_shapes_checked_before_any_factorization(self, rng, monkeypatch, J, c_cols,
                                                     message):
        def no_lu(*args, **kwargs):
            raise AssertionError("a factorization before the shapes were checked")

        monkeypatch.setattr(FactorizationCache, "factorization", no_lu)
        A = np.diag(np.linspace(1.0, 2.0, 10))
        B = rand_complex(rng, 10, 2)
        C = None if c_cols is None else rand_complex(rng, 10, c_cols)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_update(A, B, C, f=FunctionSpec.exp(), plan=[-1.0], m_max=1, tol=0.0, J=J)


class TestSparseAboveDeskScale:
    """A ``scipy.sparse`` path Laplacian at n = 2e5 enters band storage and
    runs the Hermitian mode without an n x n array."""

    @pytest.fixture
    def densify_guarded(self, monkeypatch):
        def guard(*args, **kwargs):
            raise AssertionError("a sparse A was densified")

        for cls in (scipy.sparse.csr_matrix, scipy.sparse.coo_matrix):
            for name in ("toarray", "todense"):
                monkeypatch.setattr(cls, name, guard)

    def test_a_sparse_path_laplacian(self, densify_guarded):
        n = 200_000
        degree = np.r_[1.0, np.full(n - 2, 2.0), 1.0] + 1e-2
        off = -np.ones(n - 1)
        A = scipy.sparse.diags([off, degree, off], [-1, 0, 1], format="csr")
        B = np.zeros((n, 2))
        B[[1, n // 3], 0] = 1.0, -1.0
        B[[n // 2, n - 2], 1] = 1.0, -1.0
        plan = PolePlan((markov_single_pole(SpectralWindow(1e-2, 5.01), (-np.inf, 0.0))[0],),
                        repetition="cyclic")
        tracemalloc.start()
        try:
            state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=plan, m_max=8,
                                    tol=0.0, J=0.5 * np.eye(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the basis and its products take 2 x 16 x n x 8 bytes = 51 MB; one
        # row of a dense A would take 1.6 MB, the whole of it 320 GB
        assert peak < 200 * 2**20
        assert isinstance(state.left.cache.A, _Band) and state.left.cache.hermitian
        assert state.left.basis.dtype == np.float64 and rep.iterations == 8
        known = [e for e in rep.estimates if not math.isnan(e)]
        assert known and known[-1] < known[0]


class TestHermitianChecks:
    """The Hermitian mode and the sign update refuse a J or an A that is not
    Hermitian, before any factorization: both would give wrong answers."""

    PLAN = PolePlan((-1.0, -5.0), repetition="cyclic")

    @staticmethod
    def no_lu(monkeypatch):
        def no_lu(*args, **kwargs):
            raise AssertionError("a factorization before the input was checked")

        monkeypatch.setattr(FactorizationCache, "factorization", no_lu)

    def run(self, A, B, J):
        return run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=self.PLAN, m_max=30,
                          tol=1e-12, J=J)

    def test_a_non_hermitian_J(self, monkeypatch):
        # unchecked, J = [[1 + 0.5j]] runs to converged=True 0.116 away from the update
        A = np.diag(np.linspace(1.0, 10.0, 40))
        B = np.random.default_rng(0).standard_normal((40, 1))
        self.no_lu(monkeypatch)
        with pytest.raises(ValueError, match="^J must be Hermitian$"):
            self.run(A, B, np.array([[1.0 + 0.5j]]))
        with pytest.raises(ValueError, match="^J must be Hermitian$"):
            sign_update(A, B, np.array([[1.0 + 0.5j]]), self.PLAN, m_max=4, tol=0.0)

    def test_a_dense_non_hermitian_A(self, monkeypatch):
        # unchecked, this A runs to a relative error of 0.53; the two-sided
        # run of the same update, which takes a general A, is accurate
        rng = np.random.default_rng(0)
        B = rng.standard_normal((40, 1))
        A = np.diag(np.linspace(1.0, 10.0, 40)) + 0.5 * np.triu(rng.standard_normal((40, 40)), 1)
        f = FunctionSpec.inv_sqrt()
        state, _ = run_update(A, B, B, f=f, plan=self.PLAN, m_max=30, tol=1e-12)
        exact = dense_update(A, B @ B.T, f)
        assert norm2(state.materialize() - exact) <= 1e-10 * norm2(exact)
        self.no_lu(monkeypatch)
        with pytest.raises(ValueError, match="^A must be Hermitian$"):
            self.run(A, B, np.eye(1))
        with pytest.raises(ValueError, match="^A must be Hermitian$"):
            sign_update(A, B, np.eye(1), self.PLAN, m_max=4, tol=0.0)

    def test_a_large_dense_non_hermitian_A(self, monkeypatch):
        # above the oracles' size limit; unchecked, this A runs to
        # converged=false at a relative error of 0.078, with no error raised
        n = 600
        rng = np.random.default_rng(0)
        A = (np.diag(np.linspace(1.0, 10.0, n))
             + 0.5 * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n))
        B = rng.standard_normal((n, 1))
        assert isinstance(FactorizationCache(A).A, np.ndarray)
        self.no_lu(monkeypatch)
        with pytest.raises(ValueError, match="^A must be Hermitian$"):
            self.run(A, B, np.eye(1))
        with pytest.raises(ValueError, match="^A must be Hermitian$"):
            sign_update(A, B, np.eye(1), self.PLAN, m_max=4, tol=0.0)

    def test_band_stored_operators(self, monkeypatch):
        # at n = 64 a tridiagonal A is kept in band storage only
        n = 64
        B = np.random.default_rng(1).standard_normal((n, 1))
        diag, upper = np.linspace(1.0, 2.0, n), np.full(n - 1, 0.1)
        hermitian = [np.diag(diag) + np.diag(upper, 1) + np.diag(upper * (1 + 1e-15), -1),
                     np.diag(diag) + np.diag(1j * upper, 1) - np.diag(1j * upper, -1),
                     # a rounding-level entry in one triangle only (kl != ku)
                     np.diag(diag) + np.diag(upper, 1) + np.diag(upper, -1)
                     + np.diag(np.full(n - 2, 1e-18), -2)]
        refused = [np.diag(diag) + np.diag(upper, 1) + np.diag(2 * upper, -1),
                   np.diag(diag) + np.diag(upper, 1),
                   np.diag(diag + 1e-3j) + np.diag(upper, 1) + np.diag(upper, -1)]
        for A in hermitian:
            _, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=self.PLAN, m_max=2,
                                tol=0.0, J=np.eye(1))
            assert rep.iterations == 2
        self.no_lu(monkeypatch)
        for A in refused:
            assert FactorizationCache(A).A.ab.shape[0] <= 3
            with pytest.raises(ValueError, match="^A must be Hermitian$"):
                self.run(A, B, np.eye(1))


class TestEstimator:
    def test_stagnation_zero(self):
        X = np.ones((3, 3))
        Xp = np.zeros((5, 5))
        Xp[:3, :3] = X
        assert padded_difference_norm(Xp, X) == 0.0

    def test_zero_to_identity(self):
        assert padded_difference_norm(np.eye(4), np.zeros((2, 2))) == 1.0

    def test_dense_equality_under_nestedness(self, rng):
        A = rand_complex(rng, 25, 25)
        B = rand_complex(rng, 25, 1)
        C = rand_complex(rng, 25, 1)
        f = FunctionSpec.exp()
        state, rep = run_update(A / norm2(A), B, C, f=f, plan=[-2.0, INF, -3.0],
                                m_max=3, tol=0.0, d=1)
        X2, X3 = coupling_at(state, 2, f), state.coupling
        ub, vb = state.left, state.right
        dense2 = ub.basis[:, :2] @ X2 @ vb.basis[:, :2].conj().T
        dense3 = ub.basis @ X3 @ vb.basis.conj().T
        assert abs(padded_difference_norm(X3, X2) - norm2(dense3 - dense2)) <= 1e-12

    def test_estimate_error_api(self, rng):
        A, _ = random_hermitian(rng, 15, 1.0, 4.0)
        B = 0.5 * rand_complex(rng, 15, 1)
        state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(),
                                plan=PolePlan((-2.0,), repetition="cyclic"),
                                m_max=5, tol=0.0, d=2, J=np.array([[1.0]]))
        X3 = coupling_at(state, 3, FunctionSpec.inv_sqrt(), np.array([[1.0]]))
        assert padded_difference_norm(state.coupling, X3, hermitian=True) == rep.estimates[-1]

    def test_estimator_tracks_true_error(self, rng):
        A, _ = random_hermitian(rng, 40, 0.5, 8.0)
        B = 0.5 * rand_complex(rng, 40, 1)
        D = B @ B.conj().T
        dense = dense_update(A, D, FunctionSpec.inv_sqrt(), hermitian=True)
        state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(),
                                plan=PolePlan((-2.0,), repetition="cyclic"),
                                m_max=10, tol=0.0, d=2, J=np.array([[1.0]]),
                                true_update=dense)
        # estimate at step m estimates the error at step m-d
        d = 2
        for k, est in enumerate(rep.estimates[d:], start=d):
            true_prev = rep.true_errors[k - d]   # step k+1-d
            assert est <= 50 * max(true_prev, 1e-14)
            assert est >= 0.01 * min(true_prev, 1.0)


class TestRateExamples:
    def test_exp_single_pole_decay(self, rng):
        # repeated pole m/sqrt(2): per-step decay well below 0.55 on a
        # bounded negative spectrum (the (-inf,0] asymptote is 1/(1+sqrt 2))
        from rkupdate.poles import exp_single_pole
        n = 40
        A, _ = random_hermitian(rng, n, -8.0, 0.0)
        B = 0.4 * rand_complex(rng, n, 1)
        dense = dense_update(A, B @ B.conj().T, FunctionSpec.exp(), hermitian=True)
        errs = {}
        for m in (4, 8):
            state, _ = run_update(A, B, f=FunctionSpec.exp(), plan=exp_single_pole(m),
                                  m_max=m, tol=0.0, d=1, J=np.array([[1.0]]))
            errs[m] = norm2(state.materialize() - dense) / norm2(dense)
        assert errs[8] > 1e-13  # still above the floor, so the ratio is meaningful
        assert (errs[8] / errs[4]) ** 0.25 <= 0.55

    def test_extended_plan_attains_single_pole_rate(self, rng):
        from rkupdate.bounds import SpectralWindow
        from rkupdate.poles import extended_plan, markov_single_pole
        lam = np.logspace(-2, 2, 60)
        A = np.diag(lam).astype(complex)
        B = 0.5 * rand_complex(rng, 60, 1)
        dense = dense_update(A, B @ B.conj().T, FunctionSpec.inv_sqrt(), hermitian=True)
        w = SpectralWindow.from_matrices(A, A + B @ B.conj().T)
        _, rate_single = markov_single_pole(w, (-np.inf, 0.0))
        state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(), plan=extended_plan(),
                                m_max=40, tol=0.0, d=1, J=np.array([[1.0]]),
                                true_update=dense)
        errs = np.asarray(rep.true_errors) / norm2(dense)
        ms = np.arange(1, 41)
        mask = (errs > 1e-11) & (ms >= 8)
        fitted = np.exp(np.polyfit(ms[mask], np.log(errs[mask]), 1)[0])
        assert fitted <= rate_single + 0.02

    def test_polynomial_mode_frobenius_bound(self, rng):
        # all-infinite poles: measured Frobenius error below the
        # polynomial-Krylov bound with the Chebyshev best-approximation proxy
        from rkupdate.bounds import SpectralWindow, poly_update_bound
        n = 30
        A, _ = random_hermitian(rng, n, -2.0, 0.0)
        B = 0.4 * rand_complex(rng, n, 1)
        C = 0.4 * rand_complex(rng, n, 1)
        D = B @ C.conj().T
        f = FunctionSpec.exp()
        w = SpectralWindow.from_matrices(A, A + 0.5 * (D + D.conj().T))
        w = SpectralWindow(w.lmin - norm2(D), w.lmax + norm2(D))
        dense = dense_update(A, D, f)
        normD_F = float(np.linalg.norm(D, "fro"))
        bounds = poly_update_bound(w, f, 6, normD_F).values
        for m in range(1, 7):
            state, _ = run_update(A, B, C, f=f, plan=[INF] * m, m_max=m, tol=0.0, d=1)
            err_F = float(np.linalg.norm(state.materialize() - dense, "fro"))
            assert err_F <= bounds[m - 1]

    def test_cyclic_pair_plan_may_stop_mid_pair(self, rng):
        # conjugate closure is a property of the plan's cycle, not of every
        # truncated prefix: an odd m_max over conjugate pairs must run
        from rkupdate.poles import zolotarev_sign_poles
        half = 12
        lam = np.concatenate([np.linspace(-1.0, -0.1, half), np.linspace(0.1, 1.0, half)])
        A = np.diag(lam).astype(complex)
        B = 0.2 * rand_complex(rng, 24, 1)
        plan = PolePlan(zolotarev_sign_poles((0.1, 1.0), 4).poles,
                        repetition="cyclic", ordering="leja")
        state, rep = run_update(A, B, f=FunctionSpec.sign(), plan=plan,
                                m_max=5, tol=0.0, d=2, J=np.array([[1.0]]))
        assert rep.iterations == 5


def test_singularity_retry_keeps_rows_aligned(rng, monkeypatch, tmp_path):
    # a transient singularity at step 3 leaves a gap in the report; every
    # later estimate must stay on the row of the step that produced it, and
    # the step whose lag partner is the gap compares with the latest
    # evaluated step before it
    import rkupdate.updater as updater
    from rkupdate.cli import _fmt, _rows_from_report, write_csv
    A, _ = random_hermitian(rng, 30, 0.5, 8.0)
    B = 0.5 * rand_complex(rng, 30, 1)
    dense = dense_update(A, B @ B.conj().T, FunctionSpec.inv_sqrt(), hermitian=True)
    original = updater.update_hermitian
    raised = []

    def flaky(left, *args):
        if left.steps == 3 and not raised:
            raised.append(left.steps)
            raise SingularityOnSpectrum("transient Ritz value")
        return original(left, *args)

    monkeypatch.setattr(updater, "update_hermitian", flaky)
    d, m_max = 2, 8
    state, rep = run_update(A, B, f=FunctionSpec.inv_sqrt(),
                            plan=PolePlan((-2.0,), repetition="cyclic"),
                            m_max=m_max, tol=0.0, d=d, J=np.array([[1.0]]),
                            true_update=dense)
    hist = [coupling_at(state, m, FunctionSpec.inv_sqrt(), np.array([[1.0]]))
            for m in range(1, m_max + 1)]
    assert raised == [3] and rep.iterations == m_max
    assert np.array_equal(state.coupling, hist[-1])
    assert [k for k, e in enumerate(rep.true_errors) if math.isnan(e)] == [2]
    assert len(rep.estimates) == m_max
    assert all(math.isnan(e) for e in rep.estimates[:d])
    for m in range(d + 1, m_max + 1):
        est = rep.estimates[m - 1]
        if m == 3:   # the retried step
            assert math.isnan(est)
        else:
            # step 5's lag partner is the gap at step 3, so it takes step 2
            old = hist[m - 1 - d] if m != 5 else hist[1]
            assert est == padded_difference_norm(hist[m - 1], old, hermitian=True)
    assert not rep.stagnation_warning
    assert "nan" not in rep.summary()

    path = tmp_path / "retry.csv"
    write_csv(path, _rows_from_report(rep))
    text = path.read_text()
    assert "nan" not in text
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, m_max + 1))
    for m, (_, e_true, est, _) in enumerate(rows, start=1):
        assert e_true == _fmt(rep.true_errors[m - 1])
        assert est == _fmt(rep.estimates[m - 1])
    assert rows[2][1] == "" and rows[2][2] == "" and rows[4][2] != ""


def test_runs_free_their_factorizations(rng):
    # every basis a solver returns has an empty factorization cache, also
    # when the run stops early on convergence or raises
    n = 30
    A, _ = random_hermitian(rng, n, 0.5, 4.0)
    B = 0.05 * rand_complex(rng, n, 1)
    C = 0.05 * rand_complex(rng, n, 1)
    f = FunctionSpec.inv_sqrt()
    plan = PolePlan((-1.0, -3.0), repetition="cyclic")
    state, _ = run_update(A, B, C, f=f, plan=plan, m_max=6, tol=1e-6)
    herm, _ = run_update(A, B, f=f, plan=plan, m_max=6, tol=1e-6, J=np.array([[1.0]]))
    S = np.diag(np.r_[-np.linspace(1.0, 0.1, n // 2), np.linspace(0.1, 1.0, n // 2)])
    sign, _ = sign_update(S, B, np.array([[1.0]]),
                          PolePlan(zolotarev_invsqrt_poles((5e-3, 1.2), 3).poles,
                                   repetition="cyclic"), m_max=6, tol=1e-8)
    prob = SylvesterProblem.create(A, -A, B, C)
    sylv, _ = sylvester_solve_krylov(prob, plan, m_max=6, tol=1e-8)
    bases = [state.left, state.right, herm.left, sign.basis,
             sylv.basis_left, sylv.basis_right]
    assert all(basis.steps > 1 for basis in bases)
    assert [len(basis.cache) for basis in bases] == [0] * len(bases)

    def singular(*leading):
        raise SingularityOnSpectrum("forced")

    left = KrylovBasis(A, B)
    with pytest.raises(SingularityOnSpectrum):
        _rational_krylov(left, left, plan.expand(4), singular, padded_difference_norm,
                         tol=0.0, d=1)
    assert left.steps == 2 and len(left.cache) == 0


def test_true_errors_hermitian_eigvalsh_general_norm2(rng):
    # the Hermitian mode takes the norm of its Hermitian error from eigvalsh,
    # which agrees with the SVD norm to rounding; the general mode keeps norm2
    n = 40
    A, _ = random_hermitian(rng, n, 0.5, 8.0)
    B = 0.5 * rand_complex(rng, n, 1)
    f = FunctionSpec.inv_sqrt()
    plan = PolePlan((-2.0, -0.7), repetition="cyclic")
    dense = dense_update(A, B @ B.conj().T, f, hermitian=True)
    state, rep = run_update(A, B, f=f, plan=plan, m_max=8, tol=0.0, d=2,
                            J=np.array([[1.0]]), true_update=dense)
    assert rep.iterations == len(rep.true_errors) == 8
    for m, err in enumerate(rep.true_errors, start=1):
        X = coupling_at(state, m, f, np.array([[1.0]]))
        U = np.ascontiguousarray(state.left.basis[:, :X.shape[0]])
        assert abs(err - norm2(dense - U @ X @ U.conj().T)) <= 1e-13 * norm2(dense)

    C = 0.5 * rand_complex(rng, n, 1)
    dense = dense_update(A, B @ C.conj().T, f)
    state, rep = run_update(A, B, C, f=f, plan=plan, m_max=6, tol=0.0, d=2,
                            true_update=dense)
    assert rep.iterations == len(rep.true_errors) == 6
    for m, err in enumerate(rep.true_errors, start=1):
        X = coupling_at(state, m, f)
        U = np.ascontiguousarray(state.left.basis[:, :X.shape[0]])
        V = np.ascontiguousarray(state.right.basis[:, :X.shape[1]])
        assert err == norm2(dense - U @ X @ V.conj().T)


class TestLuckyBreakdown:
    """A one-basis run whose whole next block lies in its basis has reached
    an invariant subspace that contains the seed, and ends exact."""

    @pytest.mark.parametrize("pole", [-1.0, INF])
    def test_hermitian_run_ends_exact(self, pole):
        A = np.diag([1.0] * 50 + [2.0] * 50)
        b = np.ones((100, 1))
        f = FunctionSpec.inv_sqrt()
        state, report = run_update(A, b, f=f, plan=PolePlan((pole,), repetition="cyclic"),
                                   m_max=10, tol=0.0, J=np.array([[1.0]]))
        assert report.converged and report.breakdown_step == 3
        assert report.iterations == 2 and len(report.poles) == 2
        # no step had an estimate (d = 2) or a true error
        assert report.summary() == "converged=true iterations=2 final_error=none"
        assert state.left.steps == 2 and len(state.left.cache) == 0
        ref = dense_update(A, b @ b.T, f, hermitian=True)
        assert norm2(state.materialize() - ref) <= 1e-12 * norm2(ref)

    def test_sign_update_ends_exact(self):
        lam = np.array([-1.0] * 50 + [2.0] * 50)
        A = np.diag(lam)
        B = np.full((100, 1), 0.1)
        J = np.array([[1.0]])
        plan = PolePlan(zolotarev_invsqrt_poles((0.5, 5.0), 4).poles, repetition="cyclic")
        res, report = sign_update(A, B, J, plan, m_max=10, tol=0.0)
        assert report.converged and report.breakdown_step == 2
        w, V = np.linalg.eigh(A + B @ J @ B.T)
        ref = (V * np.sign(w)) @ V.T - np.diag(np.sign(lam))
        assert norm2(res.materialize() - ref) <= 1e-12 * norm2(ref)

    def test_other_rank_losses_still_raise(self):
        A = np.diag([1.0] * 50 + [2.0] * 50)
        b = np.ones((100, 1))
        f = FunctionSpec.inv_sqrt()
        plan = PolePlan((-1.0,), repetition="cyclic")
        # two bases
        with pytest.raises(RankDeficient) as exc:
            run_update(A, b, b, f=f, plan=plan, m_max=10, tol=0.0)
        assert exc.value.step == 3
        # part of a block: the squared operator has eigenvalues 1 and 4, but
        # [B, A B] meets three eigenspaces of A
        S = np.diag([-1.0] * 30 + [1.0] * 30 + [2.0] * 40)
        zplan = PolePlan(zolotarev_invsqrt_poles((0.5, 5.0), 4).poles, repetition="cyclic")
        with pytest.raises(RankDeficient) as exc:
            sign_update(S, np.full((100, 1), 0.1), np.array([[1.0]]), zplan, m_max=10, tol=0.0)
        assert exc.value.step == 2 and not exc.value.exhausted
        # a run that never converges sets no breakdown step
        _, report = run_update(A, b, f=f, plan=plan, m_max=2, tol=0.0, J=np.array([[1.0]]))
        assert report.breakdown_step is None


@pytest.mark.parametrize("estimates,true_errors,final", [
    ([math.nan, math.nan, math.nan], None, "none"),
    ([math.nan, math.nan, math.nan], [math.nan, math.nan, math.nan], "none"),
    ([math.nan, 0.5, math.nan], None, f"{0.5:.16e}"),
    ([math.nan, math.nan, math.nan], [0.25, math.nan, 0.125], f"{0.125:.16e}"),
])
def test_summary_final_error(estimates, true_errors, final):
    report = UpdateReport(final_rank=3, iterations=3, estimates=estimates,
                          true_errors=true_errors)
    assert report.summary() == f"converged=false iterations=3 final_error={final}"


@pytest.mark.parametrize("hermitian", [True, False])
def test_non_finite_small_problem_is_a_typed_error(hermitian):
    # exp of the Ritz values near 1e3 overflows; the step names itself
    # instead of a warning or numpy's "SVD did not converge"
    n = 200
    A = np.diag(np.linspace(1.0, 1e3, n))
    b = np.ones((n, 1)) / np.sqrt(n)
    plan = PolePlan((INF,), repetition="cyclic")
    kwargs = dict(J=np.array([[1.0]])) if hermitian else dict(C=np.linspace(1.0, 2.0, n) / 20)
    with pytest.raises(NonFiniteResult) as exc:
        run_update(A, b, f=FunctionSpec.exp(), plan=plan, m_max=20, tol=1e-12, **kwargs)
    assert exc.value.step == 2


def test_every_typed_error_of_a_run_names_its_step():
    # the pole 2 is an eigenvalue of A: the LU of step 2 is singular
    with pytest.raises(SingularShift) as exc:
        run_update(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones((4, 1)), f=FunctionSpec.inv_sqrt(),
                   plan=[-1.0, 2.0, -3.0], m_max=3, tol=0, J=np.eye(1))
    assert exc.value.step == 2
    # a small problem that raises: the compressed spectra of step 1 touch
    A = np.diag([1.0, 3.0]).astype(complex)
    ones = np.ones((2, 1), dtype=complex)
    with pytest.raises(CompressedNotSolvable) as exc:
        sylvester_solve_krylov(SylvesterProblem(A1=A, A2=A, B1=ones, C2=ones), [INF, INF],
                               m_max=2, tol=0.0, d=1)
    assert exc.value.step == 1


def test_real_path_laplacian_keeps_the_coupling_real():
    # on real data with a real pole the block eigh path's X has no
    # imaginary part, so its funm_small calls run in real LAPACK
    A, B, J = path_laplacian_update(120)
    left = KrylovBasis(A, B)
    for _ in range(8):
        left.advance(-0.25)  # left of the spectrum [0.01, 4.01]
        X = update_hermitian(left, J, FunctionSpec.inv_sqrt())
        assert X.dtype == np.complex128 and not X.imag.any()


class TestConjugatePairSteps:
    """Real data with a conjugate pair of consecutive poles take one paired
    step; the step of the pair's first pole is a gap."""

    PLAN = PolePlan((-1.0 + 1.5j, -1.0 - 1.5j, -3.0), repetition="cyclic")

    @staticmethod
    def instance(rng, n=24):
        A, _ = random_hermitian(rng, n, 0.5, 4.5)
        return A.real, 0.2 * rng.standard_normal((n, 1)), np.array([[0.8]])

    def test_a_run_that_ends_mid_pair_ends_on_an_evaluated_step(self, rng):
        A, B, J = self.instance(rng)
        f = FunctionSpec.inv_sqrt()
        dense = dense_update(A, B @ J @ B.T, f, hermitian=True)
        state, rep = run_update(A, B, f=f, plan=self.PLAN, m_max=4, tol=0.0, J=J,
                                true_update=dense)
        assert rep.iterations == 4 and rep.poles == self.PLAN.expand(4)
        assert [math.isnan(e) for e in rep.true_errors] == [True, False, False, False]
        assert not math.isnan(rep.true_errors[-1]) and not math.isnan(rep.estimates[-1])
        # the unpaired last pole took a single complex step
        assert state.left.basis.dtype == np.complex128 and state.left.dimension == 4
        ref, _ = run_update(A, 1j * B, f=f, plan=self.PLAN, m_max=4, tol=0.0, J=J)
        assert norm2(state.materialize() - ref.materialize()) <= 1e-13

    def test_dependent_real_and_imaginary_parts_take_the_single_steps(self, rng):
        # an eigenvector seed: W = (A - xi I)^{-1} e_0 is a multiple of e_0,
        # so [Re W, Im W] loses rank; the run does what the single complex
        # steps do, here as for a complex seed
        A = np.diag(np.linspace(1.0, 5.0, 12))
        B, J, f = np.eye(12)[:, :1], np.array([[0.5]]), FunctionSpec.inv_sqrt()
        runs = [run_update(A, seed, f=f, plan=self.PLAN, m_max=6, tol=0.0, J=J)
                for seed in (B, 1j * B)]
        for state, rep in runs:
            assert rep.converged and rep.breakdown_step == 2 and rep.iterations == 1
            assert len(rep.estimates) == 1 and math.isnan(rep.estimates[0])
            exact = dense_update(A, B @ J @ B.T, f, hermitian=True)
            assert norm2(state.materialize() - exact) <= 1e-14
        for seed in (B, 1j * B):
            with pytest.raises(RankDeficient) as info:
                run_update(A, seed, np.ones((12, 1)), f=f, plan=self.PLAN, m_max=6, tol=0.0)
            assert info.value.step == 2

    def test_reports_and_rows_show_the_mid_pair_gaps(self, rng, tmp_path):
        from rkupdate.cli import _rows_from_report, write_csv
        A, B, J = self.instance(rng)
        f = FunctionSpec.inv_sqrt()
        dense = dense_update(A, B @ J @ B.T, f, hermitian=True)
        state, rep = run_update(A, B, f=f, plan=self.PLAN, m_max=6, tol=0.0, J=J,
                                true_update=dense)
        assert state.left.basis.dtype == np.float64 and state.left.dimension == 6
        assert [math.isnan(e) for e in rep.true_errors] == [True, False, False, True, False, False]
        # d = 2: step 3 compares with the gap at step 1 (and has no earlier
        # solution), steps 5 and 6 with step 3, the latest evaluated one at
        # least two steps back
        assert all(math.isnan(e) for e in rep.estimates[:4])
        X3 = coupling_at(state, 3, f, J)
        assert rep.estimates[4:] == [padded_difference_norm(coupling_at(state, m, f, J), X3,
                                                            hermitian=True) for m in (5, 6)]
        path = tmp_path / "pairs.csv"
        write_csv(path, _rows_from_report(rep))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        assert [row[1] == "" for row in rows] == [True, False, False, True, False, False]
        assert [row[2] == "" for row in rows] == [True, True, True, True, False, False]

    def test_fig3_alg3_reaches_the_lucky_breakdown_in_real_arithmetic(self):
        # the fig3 instance at n = 100: 50 pairs fill R^100, and the pair
        # that starts at step 101 has no room left
        from rkupdate.cli import _cyclic, _gap, _sign_instance
        from rkupdate.poles import zolotarev_sign_poles
        lam, b = _sign_instance(100, 1)
        A = np.diag(lam)
        gap = _gap(lam, np.linalg.eigvalsh(A + b @ b.T))
        plan = _cyclic(zolotarev_sign_poles(gap, 10).poles)
        state, rep = run_update(A, b, f=FunctionSpec.sign(), plan=plan, m_max=104, tol=0.0,
                                J=np.eye(1))
        assert rep.converged and rep.breakdown_step == 101 and rep.iterations == 100
        assert state.left.dimension == 100 and state.left.basis.dtype == np.float64
        assert np.array_equal(state.coupling,
                              coupling_at(state, 100, FunctionSpec.sign(), np.eye(1)))


    def test_the_builders_build_the_solvers_bases(self):
        # fig3's degree-2 sign instance (n = 200, real b, the pair
        # (i beta, -i beta) cyclic): the builders pair as the solvers do
        from rkupdate.cli import _cyclic, _gap, _sign_instance
        from rkupdate.poles import zolotarev_sign_poles
        lam, b = _sign_instance(200, 1)
        A = np.diag(lam)
        plan = _cyclic(zolotarev_sign_poles(_gap(lam, np.linalg.eigvalsh(A + b @ b.T)), 2).poles)
        f = FunctionSpec.sign()
        hermitian, _ = run_update(A, b, f=f, plan=plan, m_max=24, tol=0.0, J=np.eye(1))
        general, _ = run_update(A, b, b, f=f, plan=plan, m_max=24, tol=0.0)
        for got, want in ((build_basis(A, b, plan, 24), hermitian.left),
                          (build_basis(A, b, plan, 24), general.left),
                          (adjoint_basis(A, b, plan, 24), general.right)):
            assert got.basis.dtype == np.float64 and got.poles_used == plan.expand(24)
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.compression, want.compression)


@st.composite
def hermitian_update_instance(draw):
    """(A, B, J, plan, m_max, f): a Hermitian A, real or complex, with
    spectrum in [0.4, 5], a block B of one or two columns with ||B|| = 0.3,
    a Hermitian J with eigenvalues of either sign and modulus in [0.5, 1],
    a conjugate-closed pole plan, a step count and a function analytic
    right of 0.3."""
    # room for twice the largest basis, 6 blocks of 2 columns
    n = draw(st.integers(24, 32))
    ell = draw(st.integers(1, 2))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(rows, cols):
        return rng.standard_normal((rows, cols)) if real else rand_complex(rng, rows, cols)

    Q, _ = np.linalg.qr(block(n, n))
    A = (Q * rng.uniform(0.4, 5.0, n)) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    B = block(n, ell)
    B *= 0.3 / norm2(B)
    W, _ = np.linalg.qr(block(ell, ell))
    J = (W * (rng.choice([-1.0, 1.0], ell) * rng.uniform(0.5, 1.0, ell))) @ W.conj().T
    J = 0.5 * (J + J.conj().T)
    plan = draw(st.sampled_from([(-1.0,), (-0.5, INF, -3.0), (-1.0 + 0.5j, -1.0 - 0.5j)]))
    m_max = draw(st.integers(2, 6))
    if plan[0].imag:
        # whole pairs: the right basis of the two-sided run takes conj(xi)
        # where the left one takes xi, so the two modes project onto the
        # same spaces only when the poles taken are closed under conjugation
        m_max -= m_max % 2
    f = draw(st.sampled_from(["inv-sqrt", "sqrt", "exp"]))
    return A, B, J, PolePlan(plan, repetition="cyclic"), m_max, FunctionSpec.from_string(f)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(hermitian_update_instance())
def test_hermitian_mode_agrees_with_the_two_sided_run(instance):
    # the same update D = B J B* = B (B J*)*, through the Hermitian small
    # problem and through the two-sided coupling block with C = B J
    A, B, J, plan, m_max, f = instance
    state_h, _ = run_update(A, B, J=J, f=f, plan=plan, m_max=m_max, tol=0.0)
    state_g, _ = run_update(A, B, B @ J, f=f, plan=plan, m_max=m_max, tol=0.0)
    X = state_h.materialize()
    assert norm2(state_g.materialize() - X) <= 1e-10 * norm2(X)


SCHEDULE_PROPERTIES = settings(derandomize=True, max_examples=10, deadline=None, database=None)


@st.composite
def scheduled_instance(draw):
    """(A, B, J, C, plan, d): a Hermitian A with spectrum in [0.5, 4.5] at a
    size where the checkpoint schedule has gaps, a block of one or two
    columns, a pole plan and a lag d.  A plan with a conjugate pair comes
    with real data, which take the pair as one paired step."""
    n = draw(st.integers(30, 48))
    ell = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = draw(st.sampled_from([(-1.0,), (-1.0, INF, -3.0), (-0.5, -4.0),
                                 (-1.0 + 1.0j, -1.0 - 1.0j),
                                 (-0.5, -1.0 + 0.5j, -1.0 - 0.5j, INF)]))
    if any(isinstance(xi, complex) for xi in plan) or draw(st.booleans()):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * np.linspace(0.5, 4.5, n)) @ Q.T
        A = 0.5 * (A + A.T)
        B, C = 0.1 * rng.standard_normal((n, ell)), 0.1 * rng.standard_normal((n, ell))
    else:
        A, _ = random_hermitian(rng, n, 0.5, 4.5)
        B, C = 0.1 * rand_complex(rng, n, ell), 0.1 * rand_complex(rng, n, ell)
    J = np.diag(rng.uniform(0.5, 1.5, ell))
    return A, B, J, C, PolePlan(plan, repetition="cyclic"), draw(st.integers(1, 3))


#: a small problem that a step loop solved: its step, whether that step was
#: the present one (not an earlier step solved again from the leading
#: blocks of the bases for an estimate), the solution, the loop's
#: ``evaluate`` and its bases
Solve = namedtuple("Solve", "step own new evaluate bases")


@contextmanager
def recorded_solves():
    """Patch the step loop of the three solvers to record each small problem
    it solves, in order, as a :data:`Solve`.  A solve that raises is not
    recorded."""
    import rkupdate.signsylv as signsylv
    import rkupdate.updater as updater
    loop, solves = updater._rational_krylov, []

    def recording_loop(left, right, poles, evaluate, *args, **kwargs):
        def recorded(*leading):
            new = evaluate(*leading)
            k = leading[0].dimension
            solves.append(Solve(k // left.block_size, k == left.dimension, new, evaluate,
                                (left,) if right is left else (left, right)))
            return new
        return loop(left, right, poles, recorded, *args, **kwargs)

    with mock.patch.object(updater, "_rational_krylov", recording_loop), \
            mock.patch.object(signsylv, "_rational_krylov", recording_loop):
        yield solves


def _evaluated(checkpoints, pair_starts, steps):
    """The steps that a run without true errors evaluates: each step that
    is a checkpoint, or ends a pair whose first step is one."""
    return {m for m in range(1, steps + 1) if m not in pair_starts
            and (m in checkpoints or (m - 1 in pair_starts and m - 1 in checkpoints))}


def _pair_instance(d):
    """The real instance of n = 40 with the pair (-1 + 1j, -1 - 1j), every
    odd step the first of a pair: (its every-step report, the keyword
    arguments of a run)."""
    rng = np.random.default_rng(3)
    n = 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.linspace(0.5, 4.5, n)) @ Q.T
    A = 0.5 * (A + A.T)
    B = 0.1 * rng.standard_normal((n, 1))
    f = FunctionSpec.inv_sqrt()
    kwargs = dict(A=A, B=B, f=f, plan=PolePlan((-1 + 1j, -1 - 1j), repetition="cyclic"),
                  m_max=20, tol=0.0, d=d, J=np.eye(1))
    ref = dense_update(A, B @ B.T, f, hermitian=True)
    return run_update(true_update=ref, **kwargs)[1], kwargs


class TestCheckpointSchedule:
    """A run without true errors evaluates a step when it, or the first step
    of the pair that ends at it, is a checkpoint of ``_schedule``, solves
    the partner of an estimate again from the leading blocks of its bases,
    and records each estimate with the bits of the every-step run's."""

    def test_every_step_is_scheduled_at_large_n(self):
        # Krylov work of n = 1e5 outweighs every small problem up to
        # dimension 600; a pure call on step counts, no n-sized array
        tracemalloc.start()
        try:
            steps = _schedule(100_000, 4, 1, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == set(range(1, 151))
        assert peak < 64 * 1024

    @staticmethod
    def _bidiagonal_sylvester(n, m_max, **kwargs):
        lam = np.logspace(-1.0, 1.0, n)
        prob = SylvesterProblem.create(np.diag(lam) + np.diag(0.3 * lam[:-1], 1),
                                       -np.diag(1.37 * lam) - np.diag(0.3 * lam[:-1], -1),
                                       normal_block(2, n, 2), normal_block(3, n, 2))
        plan = PolePlan(zolotarev_sign_poles((0.05, 30.0), 8).poles, repetition="cyclic",
                        ordering="leja")
        return sylvester_solve_krylov(prob, plan, m_max=m_max, **kwargs)[1]

    def test_a_desk_scale_run_stops_near_the_every_step_run(self, monkeypatch):
        # at n = 120 with blocks of 2 columns and two bases, the small
        # problem outweighs the Krylov work of any number of steps from step
        # 30 on; the checkpoints then come every n / 6 = 20 columns, so the
        # run stops within 10 steps of the run that evaluates every step,
        # and not at step 60, where its bases fill the space
        import rkupdate.updater as updater
        assert sorted(_schedule(120, 2, 2, 60))[-6:] == [21, 29, 39, 49, 59, 60]
        rep = self._bidiagonal_sylvester(120, 80, tol=1e-10)
        monkeypatch.setattr(updater, "_schedule", lambda n, ell, bases, steps:
                            set(range(1, steps + 1)))
        every = self._bidiagonal_sylvester(120, 80, tol=1e-10)
        assert rep.converged and every.converged
        assert every.iterations <= rep.iterations <= every.iterations + 10
        assert rep.iterations < 60

    def test_the_step_that_fills_the_bases_is_a_checkpoint(self):
        # at n = 60 the estimate first meets 1e-10 at step 30, where the
        # bases fill the space and which the schedule of 80 steps would
        # skip; the run ends converged there, and not on its missing room
        # for step 31
        assert not {29, 30} & _schedule(60, 2, 2, 80)
        rep = self._bidiagonal_sylvester(60, 80, tol=1e-10)
        assert rep.converged and rep.iterations == 30 and rep.estimates[-1] <= 1e-10

    def test_checkpoints_and_their_lag_partners(self, rng):
        # n = 40, ell = 1: every step to 6, then the gaps grow, and the last
        # step is a checkpoint; at d = 2 a run solves the small problems of
        # the checkpoints and, for their estimates, of the steps d before
        # them, each once: steps 11 and 18 again from the leading blocks
        assert _schedule(40, 1, 1, 20) == {1, 2, 3, 4, 5, 6, 8, 13, 20}
        assert _schedule(40, 1, 1, 1) == {1}
        A, _ = random_hermitian(rng, 40, 0.5, 8.0)
        B = 0.5 * rand_complex(rng, 40, 1)
        with recorded_solves() as solves:
            run_update(A, B, f=FunctionSpec.inv_sqrt(), m_max=20, tol=0.0, d=2, J=np.eye(1),
                       plan=PolePlan((-2.0,), repetition="cyclic"))
        assert [(s.step, s.own) for s in solves] == [(m, True) for m in range(1, 7)] + [
            (8, True), (13, True), (11, False), (20, True), (18, False)]

    def test_checkpoints_and_partners_across_conjugate_pairs(self):
        # every odd step opens a pair: checkpoints 1, 3, 5 and 13 are
        # evaluated at the pair's end, and a partner c - d that opens a pair
        # gives way to the step before it
        for d, partners in ((20, set()), (1, {12, 18}), (3, {10, 16})):
            every, kwargs = _pair_instance(d)
            with recorded_solves() as solves:
                run_update(**kwargs)
            assert {s.step for s in solves if s.own} == {2, 4, 6, 8, 14, 20}
            assert {s.step for s in solves if not s.own} == partners

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_checkpoint_estimates_across_conjugate_pairs(self, d):
        # real data and the pair (-1 + 1j, -1 - 1j): before the partner was
        # chosen by the pairs, step 20 recorded 1.07e-10 against 8.96e-14 at
        # d = 1 and against 4.0e-12 at d = 3
        every, kwargs = _pair_instance(d)
        _, rep = run_update(**kwargs)
        for m in range(1, 21):
            if m in (2, 4, 6, 8, 14, 20):
                # NaN at a checkpoint whose partner would precede step 1
                assert np.array_equal(rep.estimates[m - 1], every.estimates[m - 1],
                                      equal_nan=True)
            else:
                assert math.isnan(rep.estimates[m - 1])
        assert rep.estimates[19] <= 1e-11

    @SCHEDULE_PROPERTIES
    @given(scheduled_instance(), st.booleans())
    def test_checkpoint_estimates_keep_their_bits(self, instance, hermitian):
        # every estimate of a run without a reference is the every-step
        # run's, bit for bit, and no step's small problem is solved twice
        A, B, J, C, plan, d = instance
        n, ell = B.shape
        m_max = 12
        f = FunctionSpec.inv_sqrt()
        kwargs = dict(J=J) if hermitian else dict(C=C)
        ref = dense_update(A, B @ J @ B.conj().T if hermitian else B @ C.conj().T, f,
                           hermitian=hermitian)
        every_state, every = run_update(A, B, f=f, plan=plan, m_max=m_max, tol=0.0, d=d,
                                        true_update=ref, **kwargs)
        with recorded_solves() as solves:
            state, rep = run_update(A, B, f=f, plan=plan, m_max=m_max, tol=0.0, d=d, **kwargs)
        starts = {m for m, e in enumerate(every.true_errors, start=1) if math.isnan(e)}
        evaluated = _evaluated(_schedule(n, ell, 1 if hermitian else 2, m_max), starts, m_max)
        solved = [s.step for s in solves]
        assert len(solved) == len(set(solved)) and not starts & set(solved)
        assert {s.step for s in solves if s.own} == evaluated
        assert rep.true_errors is None and rep.iterations == every.iterations == m_max
        for m, (got, want) in enumerate(zip(rep.estimates, every.estimates), start=1):
            if m in evaluated:
                assert np.array_equal(got, want, equal_nan=True)
            else:
                assert math.isnan(got)
        assert np.array_equal(state.coupling, every_state.coupling)

    @SCHEDULE_PROPERTIES
    @given(scheduled_instance())
    def test_a_converged_run_stops_at_the_first_checkpoint_that_meets_tol(self, instance):
        A, B, J, _, plan, d = instance
        m_max = 12
        f = FunctionSpec.inv_sqrt()
        ref = dense_update(A, B @ J @ B.conj().T, f, hermitian=True)
        _, every = run_update(A, B, f=f, plan=plan, m_max=m_max, tol=0.0, d=d, J=J,
                              true_update=ref)
        starts = {m for m, e in enumerate(every.true_errors, start=1) if math.isnan(e)}
        # the latest estimate at or before step 8 (step 8 may open a pair)
        tol = next(e for e in reversed(every.estimates[:8]) if not math.isnan(e))
        _, rep = run_update(A, B, f=f, plan=plan, m_max=m_max, tol=tol, d=d, J=J)
        evaluated = _evaluated(_schedule(B.shape[0], B.shape[1], 1, m_max), starts, m_max)
        first = next((m for m in sorted(evaluated) if every.estimates[m - 1] <= tol), None)
        if first is None:
            assert not rep.converged and rep.iterations == m_max
        else:
            assert rep.converged and rep.iterations == first
            assert rep.estimates[-1] == every.estimates[first - 1]

    def test_retry_after_a_skipped_step(self, rng, monkeypatch):
        # n = 40: step 7 is skipped and step 8 scheduled; a singularity at
        # step 8 makes step 9, which the schedule skips, evaluated
        import rkupdate.updater as updater
        A, _ = random_hermitian(rng, 40, 0.5, 8.0)
        B = 0.5 * rand_complex(rng, 40, 1)
        plan = PolePlan((-2.0,), repetition="cyclic")
        f = FunctionSpec.inv_sqrt()
        assert 7 not in _schedule(40, 1, 1, 20) and 9 not in _schedule(40, 1, 1, 20)
        original = updater.update_hermitian

        def flaky(left, *args):
            solves.append(left.steps)
            if left.steps in failing:
                failing.remove(left.steps)
                raise SingularityOnSpectrum("transient Ritz value")
            return original(left, *args)

        monkeypatch.setattr(updater, "update_hermitian", flaky)
        failing, solves = [8], []
        state, rep = run_update(A, B, f=f, plan=plan, m_max=20, tol=0.0, J=np.eye(1))
        # each estimate solves its partner again from the leading blocks
        assert solves == [1, 2, 3, 4, 5, 6, 8, 9, 7, 13, 11, 20, 18] and not failing
        # step 9 compares with step 7, the latest step at least two back
        # that did not fail
        assert math.isnan(rep.estimates[8 - 1])
        X9, X7 = (coupling_at(state, m, f, np.eye(1)) for m in (9, 7))
        assert rep.estimates[9 - 1] == padded_difference_norm(X9, X7, hermitian=True)
        # a partner that hits a singularity counts as a failed step, as in
        # a run that evaluates every step: step 13 reads step 10
        failing, solves = [11], []
        state, rep = run_update(A, B, f=f, plan=plan, m_max=20, tol=0.0, J=np.eye(1))
        assert solves == [1, 2, 3, 4, 5, 6, 8, 13, 11, 10, 20, 18] and not failing
        X13, X10 = (coupling_at(state, m, f, np.eye(1)) for m in (13, 10))
        assert rep.estimates[13 - 1] == padded_difference_norm(X13, X10, hermitian=True)
        # a second consecutive failure raises with its step
        failing = [8, 9]
        with pytest.raises(SingularityOnSpectrum) as exc:
            run_update(A, B, f=f, plan=plan, m_max=20, tol=0.0, J=np.eye(1))
        assert exc.value.step == 9

    def test_lucky_breakdown_after_a_skipped_step(self):
        # three eigenvalues of multiplicity 5 or 6 and a block of 2 columns:
        # the basis is invariant at step 3 (dimension 6), which the schedule
        # skips, and step 4 loses its whole block; step 3 is then evaluated,
        # with the estimate that a run evaluating every step records
        A = np.diag([1.0] * 6 + [2.0] * 5 + [3.0] * 5)
        B = np.random.default_rng(0).standard_normal((16, 2))
        J = 0.5 * np.eye(2)
        f = FunctionSpec.inv_sqrt()
        exact = dense_update(A, B @ J @ B.T, f, hermitian=True)
        assert 3 not in _schedule(16, 2, 1, 8)
        kwargs = dict(f=f, plan=PolePlan((-1.0,), repetition="cyclic"), m_max=10, tol=0.0,
                      J=J)
        state, rep = run_update(A, B, **kwargs)
        assert rep.converged and rep.breakdown_step == 4 and rep.iterations == 3
        assert np.array_equal(state.coupling, coupling_at(state, 3, f, J))
        assert norm2(state.materialize() - exact) <= 1e-13 * norm2(exact)
        # at d = 1 step 3 reads step 2
        _, every = run_update(A, B, d=1, true_update=exact, **kwargs)
        _, rep = run_update(A, B, d=1, **kwargs)
        assert rep.breakdown_step == every.breakdown_step == 4
        assert np.array_equal(rep.estimates, every.estimates, equal_nan=True)
        assert rep.estimates[2] > 0

    @pytest.mark.parametrize("variant", ["fig1", "fig2", "fig3-alg3", "fig3-alg4"])
    def test_checkpointed_error_within_twice_the_every_step_error(self, variant):
        # the acceptance instances at n = 100, stopped by the estimator:
        # without a reference the run stops at a checkpoint, at or after the
        # step where the run that evaluates every step stops
        from rkupdate.cli import (_cyclic, _gap, _invsqrt_instance, _invsqrt_reference,
                                  _sign_instance)
        from rkupdate.bounds import SpectralWindow
        from rkupdate.poles import (markov_single_pole, quasi_optimal_poles,
                                    zolotarev_sign_poles)
        if variant.startswith("fig3"):
            lam, b = _sign_instance(100, 1)
            A, J = np.diag(lam), np.eye(1)
            w, V = np.linalg.eigh(A + b @ b.T)
            exact = (V * np.sign(w)) @ V.T - np.diag(np.sign(lam))
            if variant == "fig3-alg3":
                plan = _cyclic(zolotarev_sign_poles(_gap(lam, w), 10).poles)

                def run(ref):
                    state, rep = run_update(A, b, f=FunctionSpec.sign(), plan=plan, m_max=100,
                                            tol=1e-8, J=J, true_update=ref)
                    return state.materialize(), rep
            else:
                sq = np.concatenate([lam ** 2, w ** 2])
                plan = _cyclic(zolotarev_invsqrt_poles((sq.min(), sq.max()), 10).poles)

                def run(ref):
                    res, rep = sign_update(A, b, J, plan, m_max=49, tol=1e-8, true_update=ref)
                    return res.materialize(), rep
        else:
            lam, b, A, window = _invsqrt_instance(100, 1 if variant == "fig1" else 6)
            exact = _invsqrt_reference(lam, b)
            if variant == "fig1":
                plan = _cyclic((markov_single_pole(window, (-np.inf, 0.0))[0],))
            else:
                plan = _cyclic(quasi_optimal_poles(window, (-np.inf, 0.0), 10).poles)

            def run(ref):
                state, rep = run_update(A, b, f=FunctionSpec.inv_sqrt(), plan=plan, m_max=160,
                                        tol=1e-10, J=np.eye(1), true_update=ref)
                return state.materialize(), rep

        every, every_rep = run(exact)
        checked, rep = run(None)
        assert every_rep.converged and rep.converged
        assert rep.iterations >= every_rep.iterations
        assert norm2(exact - checked) <= 2.0 * norm2(exact - every)


@st.composite
def step_indexed_run(draw):
    """(run, d): a small run of one of the solvers, a function of no
    argument that returns (solution, report), and its lag d.  The runs
    cover both modes of ``run_update`` with and without a reference (at a
    size where the checkpoint schedule has gaps), ``sign_update``,
    ``sylvester_solve_krylov`` and the zero update, on plans that mix real
    poles, INF and conjugate pairs (taken as paired steps on real data)."""
    solver = draw(st.sampled_from(["hermitian", "two-sided", "sign", "sylvester", "zero"]))
    reference = draw(st.booleans())
    real = draw(st.booleans())
    d = draw(st.integers(1, 3))
    m_max = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 40 if solver in ("hermitian", "two-sided") else 16

    def block(cols):
        return rng.standard_normal((n, cols)) if real else rand_complex(rng, n, cols)

    # a Hermitian A with moduli of eigenvalues in [0.5, 4.5], of either sign
    # for the sign update
    w = rng.uniform(0.5, 4.5, n) * (rng.choice([-1.0, 1.0], n) if solver == "sign" else 1.0)
    Q, _ = np.linalg.qr(block(n))
    A = (Q * w) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    B = 0.1 * block(1)
    J, f = np.eye(1), FunctionSpec.inv_sqrt()
    kwargs = dict(m_max=m_max, tol=0.0, d=d)
    if solver == "sylvester":
        plan = draw(st.sampled_from([(2j, -2j), (INF, 1j, -1j), (0.5j, -0.5j, 3j, -3j)]))
        prob = SylvesterProblem.create(A, -A, B, 0.1 * block(1))
        return (lambda: sylvester_solve_krylov(prob, PolePlan(plan, repetition="cyclic"),
                                               **kwargs)), d
    if solver == "sign":
        plan = PolePlan(draw(st.sampled_from([(-1.0,), (-0.5, INF, -3.0)])),
                        repetition="cyclic")
        ref = dense_update(A, B @ B.conj().T, FunctionSpec.sign(), hermitian=True)
        return (lambda: sign_update(A, B, J, plan, true_update=ref if reference else None,
                                    **kwargs)), d
    plan = PolePlan(draw(st.sampled_from([(-1.0,), (-0.5, INF, -3.0), (-1.0 + 1.5j, -1.0 - 1.5j,
                                                                       -3.0)])),
                    repetition="cyclic")
    if solver == "zero":
        B = np.zeros_like(B)
    C = None if solver != "two-sided" else 0.1 * block(1)
    ref = dense_update(A, B @ B.conj().T if C is None else B @ C.conj().T, f,
                       hermitian=C is None)
    return (lambda: run_update(A, B, C, f=f, plan=plan, J=J if C is None else None,
                               true_update=ref if reference else None, **kwargs)), d


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("solver", ["hermitian", "two-sided", "sign", "sylvester"])
def test_the_leading_blocks_give_each_steps_solution(solver, real):
    # the small problem of leading(ell * j) of a run's final bases is the
    # solution that the run solved at step j, bit for bit; the two-sided
    # coupling only to rounding, since numpy forms V*B with another kernel
    # when a basis of 1-3 columns fills its buffer
    rng = np.random.default_rng(11)
    # the Sylvester solver evaluates the steps of the checkpoint schedule,
    # which holds every one of its 12 steps of two bases from n = 121 on
    n = 150 if solver == "sylvester" else 30

    def block(cols):
        return rng.standard_normal((n, cols)) if real else rand_complex(rng, n, cols)

    Q, _ = np.linalg.qr(block(n))
    w = rng.uniform(0.5, 4.5, n) * (rng.choice([-1.0, 1.0], n) if solver == "sign" else 1.0)
    A = (Q * w) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    B, C = 0.1 * block(2), 0.1 * block(2)
    pairs = PolePlan((-1.0 + 1.5j, -1.0 - 1.5j, -3.0, INF), repetition="cyclic")
    f = FunctionSpec.inv_sqrt()
    with recorded_solves() as solves:
        if solver == "sylvester":
            sylvester_solve_krylov(SylvesterProblem.create(A, -A, B, C), pairs, m_max=12,
                                   tol=0.0)
        elif solver == "sign":
            # a seed [b, A b] of two columns
            b = B[:, :1]
            sign_update(A, b, np.eye(1), PolePlan((-1.0, INF, -0.3), repetition="cyclic"),
                        m_max=12, tol=0.0, true_update=dense_update(
                            A, b @ b.conj().T, FunctionSpec.sign(), hermitian=True))
        else:
            kwargs = dict(J=np.eye(2)) if solver == "hermitian" else dict(C=C)
            D = B @ B.conj().T if solver == "hermitian" else B @ C.conj().T
            run_update(A, B, f=f, plan=pairs, m_max=12, tol=0.0,
                       true_update=dense_update(A, D, f, hermitian=solver == "hermitian"),
                       **kwargs)
    ell = 2
    assert all(s.own for s in solves) and len(solves) >= 8
    for s in solves:
        again = s.evaluate(*(b.leading(ell * s.step) for b in s.bases))
        tuples = solver in ("sign", "sylvester")
        for got, want in zip(again if tuples else (again,), s.new if tuples else (s.new,)):
            if solver == "two-sided":
                assert norm2(got - want) <= 1e-14 * norm2(want)
            else:
                assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(step_indexed_run())
def test_report_lists_are_step_indexed(instance):
    # estimates[k] is step k + 1's, NaN exactly when that step has no
    # estimate: when its own small problem is not solved, or no earlier
    # one at least d steps back is; no small problem is solved twice
    from rkupdate.cli import _rows_from_report

    run, d = instance
    with recorded_solves() as solves:
        _, rep = run()
    steps = rep.iterations
    assert len(rep.estimates) == len(rep.poles) == steps
    assert rep.true_errors is None or len(rep.true_errors) == steps
    solved = [s.step for s in solves]
    own = {s.step for s in solves if s.own}
    assert len(solved) == len(set(solved))
    for k, est in enumerate(rep.estimates):
        step = k + 1
        empty = step not in own or all(m > step - d for m in solved)
        assert math.isnan(est) == empty
    none = [math.nan] * steps
    lists = np.column_stack([np.arange(1, steps + 1), rep.true_errors or none,
                             rep.estimates, none])
    assert np.array_equal(np.array(_rows_from_report(rep), dtype=float).reshape(-1, 4), lists,
                          equal_nan=True)
