import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rkupdate.signsylv as signsylv
from rkupdate.arnoldi import FactorizationCache
from rkupdate.dense import _Band, funm_block_triangular, funm_small, norm2
from rkupdate.errors import CompressedNotSolvable, SingularityOnSpectrum, SpectraIntersect
from rkupdate.functions import FunctionSpec
from rkupdate.oracles import ORACLE_MAX_N
from rkupdate.poles import INF, PolePlan, zolotarev_invsqrt_poles, zolotarev_sign_poles
from rkupdate.signsylv import (
    SylvesterProblem,
    sign_update,
    sylvester_dense,
    sylvester_solve_krylov,
)
from rkupdate.updater import _hermitian_difference, run_update

from conftest import core_at, max_principal_angle, rand_complex, random_hermitian


def dense_sign_update(A, D):
    s = FunctionSpec.sign()
    return funm_small(A + D, s, hermitian=True) - funm_small(A, s, hermitian=True)


def indefinite_instance(rng, n, gap=1e-1, scale=0.05):
    half = n // 2
    lam = np.concatenate([np.linspace(-1.0, -gap, half), np.linspace(gap, 1.0, half)])
    Q, _ = np.linalg.qr(rand_complex(rng, n, n))
    A = (Q * lam) @ Q.conj().T
    A = 0.5 * (A + A.conj().T)
    B = scale * rand_complex(rng, n, 1)
    return A, B, lam


class TestSignUpdate:
    def test_zero_J(self, rng):
        A, B, _ = indefinite_instance(rng, 20)
        plan = zolotarev_invsqrt_poles((1e-2, 1.2), 4)
        res, rep = sign_update(A, B, np.zeros((1, 1)), PolePlan(plan.poles, repetition="cyclic"),
                               m_max=6, tol=1e-10, d=2)
        assert norm2(res.materialize()) <= 1e-10
        assert rep.converged

    def test_zero_B_gives_the_exact_zero_update(self, rng):
        # as run_update does: no step, and the report of a converged run
        A, B, _ = indefinite_instance(rng, 12)
        plan = PolePlan((-5.0,), repetition="cyclic")
        J = np.array([[1.0]])
        res, rep = sign_update(A, np.zeros_like(B), J, plan, m_max=4, tol=1e-8)
        _, ref = run_update(A, np.zeros_like(B), f=FunctionSpec.sign(), plan=plan,
                            m_max=4, tol=1e-8, J=J)
        update = res.materialize()
        assert update.shape == (12, 12) and not update.any()
        assert rep == ref and rep.converged and rep.iterations == 0

    def test_small_update_tracks_oracle(self, rng):
        # a small perturbation that does not flip any sign: the update is O(eps).
        # (an exact eigenvector B makes the seed block [B, AB] rank deficient,
        # which is the documented hard breakdown, so B is tilted slightly)
        A = np.diag([-2.0, 3.0]).astype(complex)
        B = np.array([[1.0], [0.3]], dtype=complex)
        eps = 1e-3
        J = np.array([[eps]])
        dense = dense_sign_update(A, B @ J @ B.conj().T)
        plan = PolePlan(zolotarev_invsqrt_poles((4.0, 9.0), 1).poles, repetition="cyclic")
        res, rep = sign_update(A, B, J, plan, m_max=1, tol=0.0, d=1)
        upd = res.materialize()
        assert norm2(dense) <= 5 * eps
        assert norm2(upd - dense) <= 1e-8

    def test_eigenvector_seed_is_hard_breakdown(self):
        from rkupdate.errors import RankDeficient
        A = np.diag([-2.0, 3.0]).astype(complex)
        B = np.eye(2)[:, :1].astype(complex)
        with pytest.raises(RankDeficient):
            sign_update(A, B, np.array([[1e-3]]), [-6.0], m_max=1, tol=0.0)

    def test_converges_to_dense_oracle(self, rng):
        A, B, lam = indefinite_instance(rng, 40)
        J = np.array([[1.0]])
        D = B @ J @ B.conj().T
        dense = dense_sign_update(A, D)
        w2 = np.concatenate([np.linalg.eigvalsh(A)**2, np.linalg.eigvalsh(A + D)**2])
        plan = PolePlan(zolotarev_invsqrt_poles((w2.min(), w2.max()), 6).poles,
                        repetition="cyclic", ordering="leja")
        res, rep = sign_update(A, B, J, plan, m_max=18, tol=1e-9, d=2,
                               true_update=dense)
        assert rep.true_errors[-1] <= 1e-7
        assert res.basis.steps > 1 and len(res.basis.cache) == 0

    def test_debug_block_path_agrees(self, rng):
        # the half-size difference equals the coupling block of the
        # block-triangular evaluation on the returned basis, at every step
        A, B, _ = indefinite_instance(rng, 24)
        J = np.array([[0.8]])
        plan = PolePlan(zolotarev_invsqrt_poles((5e-3, 1.5), 3).poles, repetition="cyclic")
        W = np.hstack([B, A @ B])
        M_core = np.block([[J @ B.conj().T @ B @ J, J], [J, np.zeros_like(J)]])
        for m_max in range(1, 5):
            res, _ = sign_update(A, B, J, plan, m_max=m_max, tol=0.0, d=1)
            U = res.basis.basis
            G = 0.5 * (res.basis.compression + res.basis.compression.conj().T)
            E = U.conj().T @ W @ M_core @ W.conj().T @ U
            E = 0.5 * (E + E.conj().T)
            _, X_blk, _ = funm_block_triangular(G, E, G + E, FunctionSpec.inv_sqrt())
            assert norm2(res.coupling - X_blk) <= 1e-10 * norm2(res.coupling)

    def test_coupling_is_the_shared_small_problem(self, rng):
        # sign_update's coupling is update_hermitian's small-problem function
        # on U*[B, AB] and the core of (A + D)^2 - A^2, bit for bit
        A, B, _ = indefinite_instance(rng, 24)
        J = np.array([[0.8 + 0j]])
        plan = PolePlan(zolotarev_invsqrt_poles((5e-3, 1.5), 3).poles, repetition="cyclic")
        W = np.hstack([B, A @ B])
        M_core = np.block([[J @ (B.conj().T @ B) @ J, J], [J, np.zeros_like(J)]])
        for m_max in range(1, 5):
            res, _ = sign_update(A, B, J, plan, m_max=m_max, tol=0.0, d=1)
            G = 0.5 * (res.basis.compression + res.basis.compression.conj().T)
            UW = res.basis.block_product(W)
            X, _ = _hermitian_difference(G, UW @ M_core @ UW.conj().T, FunctionSpec.inv_sqrt())
            assert np.array_equal(res.coupling, X)

    def test_true_error_is_taken_from_the_returned_factors(self, rng):
        A, B, _ = indefinite_instance(rng, 30)
        J = np.array([[1.0]])
        dense = dense_sign_update(A, B @ J @ B.conj().T)
        plan = PolePlan(zolotarev_invsqrt_poles((1e-2, 1.2), 4).poles,
                        repetition="cyclic", ordering="leja")
        res, rep = sign_update(A, B, J, plan, m_max=6, tol=0.0, d=2, true_update=dense)
        assert rep.true_errors[-1] == norm2(dense - res.materialize())

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_estimate_is_the_norm_of_the_difference_of_two_updates(self, rng, complex_data,
                                                                   ell, d):
        # the estimate of step m is ||L_m R_m* - L_p R_p*|| for the factors
        # of runs of m and of p = m - d steps (no step is skipped here)
        n, steps = 40, 6
        e, B = 0.02 * rand_complex(rng, n - 1), 0.05 * rand_complex(rng, n, ell)
        if not complex_data:
            e, B = e.real, B.real
        lam = np.concatenate([-np.linspace(1.0, 0.1, n // 2), np.linspace(0.1, 1.0, n // 2)])
        A = np.diag(lam) + np.diag(e, -1) + np.diag(e.conj(), 1)
        J = np.diag([1.0, -1.0][:ell])
        plan = PolePlan(zolotarev_invsqrt_poles((3e-3, 1.1), 4).poles,
                        repetition="cyclic", ordering="leja")
        _, rep = sign_update(A, B, J, plan, m_max=steps, tol=0.0, d=d,
                             true_update=dense_sign_update(A, B @ J @ B.conj().T))
        updates = [sign_update(A, B, J, plan, m_max=j, tol=0.0, d=d)[0].materialize()
                   for j in range(1, steps + 1)]
        for m in range(d + 1, steps + 1):
            ref = norm2(updates[m - 1] - updates[m - d - 1])
            assert abs(rep.estimates[m - 1] - ref) <= 1e-12 * ref

    def test_singular_square_raises_singularity_on_spectrum(self, rng):
        # |eigenvalues| 1e-7 and 0.6..1 pass the desk check on A, but the
        # compression of A^2 on the whole space has the eigenvalue 1e-14,
        # below TOL_AXIS times its scale: the step loop's retry applies, and
        # the last step raises, and names itself
        Q, _ = np.linalg.qr(rand_complex(rng, 4, 4))
        A = (Q * np.array([1e-7, -1.0, 0.8, -0.6])) @ Q.conj().T
        A = 0.5 * (A + A.conj().T)
        B = 0.05 * rand_complex(rng, 4, 1)
        with pytest.raises(SingularityOnSpectrum) as info:
            sign_update(A, B, np.array([[1.0]]), PolePlan((-1.0, -0.5)), m_max=2, tol=0.0)
        assert info.value.step == 2

    def test_sign_idempotence_at_convergence(self, rng):
        A, B, _ = indefinite_instance(rng, 30)
        J = np.array([[1.0]])
        D = B @ J @ B.conj().T
        dense = dense_sign_update(A, D)
        w2 = np.concatenate([np.linalg.eigvalsh(A)**2, np.linalg.eigvalsh(A + D)**2])
        tol = 1e-8
        plan = PolePlan(zolotarev_invsqrt_poles((w2.min(), w2.max()), 8).poles,
                        repetition="cyclic", ordering="leja")
        res, rep = sign_update(A, B, J, plan, m_max=20, tol=tol, d=2)
        S = funm_small(A, FunctionSpec.sign(), hermitian=True) + res.materialize()
        assert norm2(S @ S - np.eye(30)) <= 10 * max(tol, 1e-7)

    def test_a_raw_plan_shorter_than_m_max_is_refused(self, rng):
        # PolePlan.expand refuses a raw plan of fewer poles than m_max
        # before the sign plan's own check runs
        A, B, _ = indefinite_instance(rng, 10)
        with pytest.raises(ValueError, match="plan has 1 poles, 2 requested"):
            sign_update(A, B, np.array([[1.0]]), [-1.0], m_max=2, tol=0.0)

    @pytest.mark.parametrize("pole", [2.0, 0.0, -1.0 + 1.0j])
    def test_a_pole_off_the_negative_axis_is_refused(self, rng, pole):
        # a cyclic plan gives m_max poles, so the sign plan's own check
        # refuses it (a raw [2.0] is refused earlier, for holding one pole)
        A, B, _ = indefinite_instance(rng, 10)
        with pytest.raises(ValueError, match="must be negative real or infinite, got"):
            sign_update(A, B, np.array([[1.0]]), PolePlan((pole,), repetition="cyclic"),
                        m_max=2, tol=0.0)

    def test_singular_matrix_rejected(self, rng):
        A = np.diag([0.0, 1.0, -1.0])
        with pytest.raises(SingularityOnSpectrum, match="^A is numerically singular"):
            sign_update(A, np.ones((3, 1)), np.eye(1), [-1.0], m_max=1, tol=0.0)

    @pytest.mark.parametrize("ell, j", [(1, 1.0), (1, 1 - 1e-14), (2, 1 - 1e-14)],
                             ids=["singular", "nearly-singular", "small-throughout"])
    def test_singular_update_rejected(self, ell, j):
        # A = diag(1, -1, -1, 2) and B = e2, or [e2, e3]: J = 1 makes A + D
        # = diag(1, 0, -1, 2), and J = (1 - 1e-14) I a capacitance matrix
        # 1e-14 I, not exactly singular, and for ell = 2 small throughout,
        # so that its smallest singular value is its largest
        A = np.diag([1.0, -1.0, -1.0, 2.0])
        with pytest.raises(SingularityOnSpectrum, match="^A \\+ D is numerically singular"):
            sign_update(A, np.eye(4)[:, 1:1 + ell], j * np.eye(ell), [-1.0], m_max=1, tol=0.0)

    def test_subspace_identity_order_2m(self, rng):
        # q_m(A^2)^{-1} K_m(A^2, [B, AB]) == q_m(A^2)^{-1} K_{2m}(A, B)
        for seed in range(3):
            local = np.random.default_rng(seed)
            A, B, _ = indefinite_instance(local, 20)
            m = 4
            poles = [-0.3, -0.05, -0.7, -0.01]
            A2 = A @ A
            q = np.eye(20, dtype=complex)
            for xi in poles[:m]:
                q = q @ (A2 - xi * np.eye(20))
            qinv = np.linalg.inv(q)
            W = np.hstack([B, A @ B])
            S1 = np.hstack([np.linalg.matrix_power(A2, k) @ W for k in range(m)])
            S2 = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(2 * m)])
            assert max_principal_angle(np.linalg.qr(qinv @ S1)[0],
                                       np.linalg.qr(qinv @ S2)[0]) <= 1e-10


class TestSignUpdateAboveDeskScale:
    """n = 600 > ORACLE_MAX_N: no dense A + D and no eigensolve of it."""

    @staticmethod
    def instance(rng, n=600):
        # a Hermitian tridiagonal A with |eigenvalues| in [0.06, 1.04]
        # (Gershgorin), and a rank-2 update of norm at most 8e-4
        half = n // 2
        d = np.concatenate([-np.linspace(1.0, 0.1, half), np.linspace(0.1, 1.0, n - half)])
        e = 0.02 * np.exp(2j * np.pi * rng.random(n - 1))
        A = np.diag(d) + np.diag(e, -1) + np.diag(e.conj(), 1)
        B = 0.02 * rand_complex(rng, n, 2)
        J = np.diag([1.0, -1.0])
        plan = PolePlan(zolotarev_invsqrt_poles((3e-3, 1.1), 6).poles,
                        repetition="cyclic", ordering="leja")
        return A, B, J, plan

    @pytest.fixture
    def dense_eigensolvers_guarded(self, monkeypatch):
        def guard(fn):
            def guarded(a, *args, **kwargs):
                assert np.shape(a)[-1] <= ORACLE_MAX_N, f"dense eigensolver on {np.shape(a)}"
                return fn(a, *args, **kwargs)
            return guarded

        for module in (signsylv.np.linalg, signsylv.sla):
            for name in ("eigvalsh", "eigh"):
                monkeypatch.setattr(module, name, guard(getattr(module, name)))

    def test_runs_are_bitwise_equal(self, rng, dense_eigensolvers_guarded):
        A, B, J, plan = self.instance(rng)
        runs = [sign_update(A, B, J, plan, m_max=12, tol=1e-8) for _ in range(2)]
        (first, rep1), (second, rep2) = runs
        assert rep1.iterations > 2 and rep1.estimates == rep2.estimates
        for x, y in ((first.left, second.left), (first.right, second.right)):
            assert np.array_equal(x, y)

    def test_no_eigensolve_of_A_plus_D(self, rng, monkeypatch, dense_eigensolvers_guarded):
        # the estimate comes from the small matrices of the steps: ARPACK
        # never runs on A + D, and real data keep a real basis
        def refused(*args, **kwargs):
            raise AssertionError("eigsh called")

        # eigsh of scipy, and a name that the module may have bound to it
        for module in (scipy.sparse.linalg, signsylv):
            monkeypatch.setattr(module, "eigsh", refused, raising=False)
        A, B, J, plan = self.instance(rng)
        res, rep = sign_update(A.real.copy(), B.real.copy(), J, plan, m_max=6, tol=1e-8)
        assert rep.iterations > 2 and res.basis.basis.dtype == np.float64
        assert not np.isnan(rep.estimates[-1])

    @pytest.mark.parametrize("case", ["zero pivot", "tiny eigenvalue", "A + D"])
    def test_a_singular_A_or_A_plus_D_is_refused_at_n_2e5(self, case,
                                                           dense_eigensolvers_guarded):
        # a band-stored tridiagonal A whose row and column k hold only the
        # diagonal entry a: a = 0 leaves a zero pivot in the LU of A, and
        # a = 1e-13 passes the pivot check but not the condition estimate;
        # with a = 0.5, B = e_k and J = -a, A + D is singular, and so is the
        # 1 x 1 capacitance matrix 1 + J B* A^{-1} B
        n, k = 200_000, 1234
        d = np.where(np.arange(n) % 2, 1.0, -1.5)
        d[k] = {"zero pivot": 0.0, "tiny eigenvalue": 1e-13, "A + D": 0.5}[case]
        off = np.full(n - 1, 0.1)
        off[[k - 1, k]] = 0.0
        A = scipy.sparse.diags([off, d, off], [-1, 0, 1], format="csr")
        B = np.zeros((n, 1))
        B[k] = 1.0
        J = np.array([[-0.5 if case == "A + D" else 1.0]])
        name = "A \\+ D" if case == "A + D" else "A"
        tracemalloc.start()
        try:
            with pytest.raises(SingularityOnSpectrum, match=f"^{name} is numerically singular"):
                sign_update(A, B, J, PolePlan((-1.0,), repetition="cyclic"), m_max=2, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the band and its LU take a few n x 8 bytes; one row of a dense A
        # would take 1.6 MB, the whole of it 320 GB
        assert peak < 64 * 2**20

    def test_left_factor_applies_A_plus_D(self, rng, dense_eigensolvers_guarded):
        # left = [(A + D) U X, B J] without the dense A + D
        A, B, J, plan = self.instance(rng)
        res, _ = sign_update(A, B, J, plan, m_max=4, tol=0.0)
        UX = res.basis.basis @ res.coupling
        ref = (A + B @ J @ B.conj().T) @ UX
        k = UX.shape[1]
        assert np.abs(res.left[:, :k] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(res.left[:, k:], B @ J)


class TestSylvesterDense:
    def test_diagonal_closed_form(self):
        A1 = np.diag([1.0, 2.0])
        A2 = np.diag([-1.0])
        B1C2 = np.array([[2.0], [3.0]])
        Z = sylvester_dense(A1, A2, B1C2)
        expect = -B1C2 / (np.array([[1.0], [2.0]]) - (-1.0))
        assert np.allclose(Z, expect, atol=1e-14)

    def test_residual_property(self, rng):
        A1 = rand_complex(rng, 30, 30) + 8 * np.eye(30)
        A2 = rand_complex(rng, 20, 20) - 8 * np.eye(20)
        B1C2 = rand_complex(rng, 30, 20)
        Z = sylvester_dense(A1, A2, B1C2)
        R = A1 @ Z - Z @ A2 + B1C2
        assert norm2(R) <= 1e-11 * (norm2(A1) + norm2(A2)) * norm2(Z)

    def test_kronecker_oracle(self, rng):
        n1, n2 = 8, 8
        A1 = rand_complex(rng, n1, n1) + 5 * np.eye(n1)
        A2 = rand_complex(rng, n2, n2) - 5 * np.eye(n2)
        B1C2 = rand_complex(rng, n1, n2)
        Z = sylvester_dense(A1, A2, B1C2)
        K = np.kron(np.eye(n2), A1) - np.kron(A2.T, np.eye(n1))
        z = np.linalg.solve(K, -B1C2.reshape(-1, order="F"))
        assert norm2(Z - z.reshape(n1, n2, order="F")) <= 1e-11 * norm2(Z)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (9, 1), (12, 5), (40, 40)])
    def test_bits_of_scipy_solve_sylvester(self, rng, n1, n2):
        A1 = rand_complex(rng, n1, n1) + 6 * np.eye(n1)
        A2 = rand_complex(rng, n2, n2) - 6 * np.eye(n2)
        C = rand_complex(rng, n1, n2)
        assert np.array_equal(sylvester_dense(A1, A2, C), sla.solve_sylvester(A1, -A2, -C))
        # real data take the real Schur forms, with the bits of scipy on the
        # float64 data, whichever container they come in; the solution is
        # complex128
        R1 = rng.standard_normal((n1, n1)) + 6 * np.eye(n1)
        R2 = rng.standard_normal((n2, n2)) - 6 * np.eye(n2)
        R = rng.standard_normal((n1, n2))
        ref = sla.solve_sylvester(R1, -R2, -R)
        assert ref.dtype == np.float64
        for args in ((R1, R2, R), (R1.astype(complex), R2.astype(complex), R.astype(complex))):
            Z = sylvester_dense(*args)
            assert Z.dtype == np.complex128 and np.array_equal(Z, ref)

    @staticmethod
    def rotations(rng, n, shift):
        """A real n x n matrix with the conjugate eigenvalue pairs
        shift + t_j +- i w_j (2 x 2 rotation blocks), in a random basis."""
        T = np.zeros((n, n))
        for j in range(0, n - 1, 2):
            t, w = rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0)
            T[j:j + 2, j:j + 2] = [[t, w], [-w, t]]
        if n % 2:
            T[-1, -1] = rng.uniform(0.0, 1.0)
        X = rng.standard_normal((n, n)) + 3 * np.eye(n)
        return np.linalg.solve(X, (T + shift * np.eye(n)) @ X)

    @pytest.mark.parametrize("n1, n2", [(2, 2), (7, 6), (8, 5)])
    def test_real_schur_path_against_the_kronecker_oracle(self, rng, n1, n2):
        # real coefficients whose spectra are complex conjugate pairs: the
        # real Schur forms have 2 x 2 blocks
        A1 = self.rotations(rng, n1, 3.0)
        A2 = self.rotations(rng, n2, -3.0)
        assert np.diagonal(sla.schur(A1)[0], -1).any()
        B1C2 = rng.standard_normal((n1, n2))
        Z = sylvester_dense(A1, A2, B1C2)
        K = np.kron(np.eye(n2), A1) - np.kron(A2.T, np.eye(n1))
        z = np.linalg.solve(K, -B1C2.reshape(-1, order="F"))
        assert norm2(Z - z.reshape(n1, n2, order="F")) <= 1e-12 * norm2(Z)
        assert not Z.imag.any()

    def test_schur_eigenvalues_of_the_real_forms(self, rng):
        A = self.rotations(rng, 9, 0.5)
        w = signsylv._schur_eigenvalues(sla.schur(A, output="real")[0])
        ref = np.linalg.eigvals(A)
        assert np.abs(np.sort_complex(w) - np.sort_complex(ref)).max() <= 1e-12 * norm2(A)

    def test_spectra_intersect(self):
        with pytest.raises(SpectraIntersect):
            sylvester_dense(np.diag([1.0, 2.0]), np.diag([2.0]), np.ones((2, 1)))

    @pytest.mark.parametrize("w2, touches", [(2.0, True), (2.0 + 1e-13, True), (3.0, False)])
    def test_conjugate_spectra_read_from_the_2x2_blocks(self, w2, touches):
        # A1 has 1 +- 2i and A2 has 1 +- i w2, each in a 2 x 2 rotation block
        # of its real Schur form, whose diagonal holds only the real part 1:
        # the spectra touch exactly when w2 is 2 (up to 1e-12 of the
        # Frobenius norms)
        A1 = np.array([[1.0, 2.0], [-2.0, 1.0]])
        A2 = np.array([[1.0, w2], [-w2, 1.0]])
        F = np.ones((2, 2))
        if touches:
            with pytest.raises(SpectraIntersect):
                sylvester_dense(A1, A2, F)
        else:
            Z = sylvester_dense(A1, A2, F)
            assert norm2(A1 @ Z - Z @ A2 + F) <= 1e-14 * norm2(Z)

    @pytest.mark.parametrize("gap, touches", [(3e-12, True), (5e-12, False)])
    def test_separation_is_relative_to_frobenius_norms(self, gap, touches):
        # A1 = I and A2 = (1 - gap) I: the spectra are gap apart and the
        # threshold is 1e-12 (||A1||_F + ||A2||_F), about 4e-12 (twice the
        # sum of spectral norms)
        A1, A2, F = np.eye(4), (1.0 - gap) * np.eye(4), np.ones((4, 4))
        if touches:
            with pytest.raises(SpectraIntersect):
                sylvester_dense(A1, A2, F)
        else:
            Z = sylvester_dense(A1, A2, F)
            assert norm2(Z + F / (1.0 - A2[0, 0])) <= 1e-12 * norm2(Z)


class TestSylvesterKrylov:
    def test_scalar_instance(self):
        prob = SylvesterProblem.create(np.array([[2.0]]), np.array([[-1.0]]),
                                       np.array([[1.0]]), np.array([[1.0]]))
        result, report = sylvester_solve_krylov(prob, [INF], m_max=1, tol=0.0, d=1)
        assert result.materialize()[0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_matches_kronecker_at_full_dimension(self, rng):
        n = 10
        A1 = 0.4 * rand_complex(rng, n, n) + 4 * np.eye(n)
        A2 = 0.4 * rand_complex(rng, n, n) - 4 * np.eye(n)
        B1 = rand_complex(rng, n, 1)
        C2 = rand_complex(rng, n, 1)
        prob = SylvesterProblem.create(A1, A2, B1, C2)
        plan = PolePlan((-3.0, -9.0, -5.0), repetition="cyclic")
        result, report = sylvester_solve_krylov(prob, plan, m_max=n, tol=0.0, d=1)
        K = np.kron(np.eye(n), A1) - np.kron(A2.T, np.eye(n))
        z = np.linalg.solve(K, -(B1 @ C2.conj().T).reshape(-1, order="F"))
        Z_ref = z.reshape(n, n, order="F")
        assert norm2(result.materialize() - Z_ref) <= 1e-10 * norm2(Z_ref)

    @pytest.mark.parametrize("zero", ["B1", "C2"])
    @pytest.mark.parametrize("plan", [(2j,), (INF,)])
    def test_a_zero_right_hand_side_gives_the_zero_solution(self, zero, plan):
        # Z = 0 with no step, as the zero update of run_update; the first
        # block of a zero seed used to lose its rank at step 1
        A1 = np.diag(np.linspace(1.0, 3.0, 20))
        B1, C2 = np.ones((20, 1)), np.linspace(1.0, 2.0, 20).reshape(20, 1)
        if zero == "B1":
            B1 = np.zeros_like(B1)
        else:
            C2 = np.zeros_like(C2)
        prob = SylvesterProblem.create(A1, -A1, B1, C2)
        result, report = sylvester_solve_krylov(prob, PolePlan(plan, repetition="cyclic"),
                                                m_max=10, tol=1e-10)
        Z = result.materialize()
        assert Z.shape == (20, 20) and not Z.any()
        assert report.converged and report.iterations == 0 and report.estimates == []
        assert report.summary() == "converged=true iterations=0 final_error=0.0000000000000000e+00"

    def test_galerkin_orthogonality_each_step(self, rng):
        n1, n2 = 14, 11
        A1 = 0.4 * rand_complex(rng, n1, n1) + 4 * np.eye(n1)
        A2 = 0.4 * rand_complex(rng, n2, n2) - 4 * np.eye(n2)
        B1 = rand_complex(rng, n1, 1)
        C2 = rand_complex(rng, n2, 1)
        prob = SylvesterProblem.create(A1, A2, B1, C2)
        result, report = sylvester_solve_krylov(prob, PolePlan((-4.0,), repetition="cyclic"),
                                                m_max=6, tol=0.0, d=1)
        scale = norm2(A1) + norm2(A2)
        for k in range(1, report.iterations + 1):
            Zk = core_at(result, k)
            U = result.basis_left.basis[:, :k]
            V = result.basis_right.basis[:, :k]
            Z = U @ Zk @ V.conj().T
            R = A1 @ Z - Z @ A2 + B1 @ C2.conj().T
            g = norm2(U.conj().T @ R @ V)
            assert g <= 1e-11 * scale * max(norm2(Zk), 1.0)

    @pytest.mark.parametrize("plan", [(-2.0, INF, -5.0), (-1.0 + 1.0j, -1.0 - 1.0j, -3.0)])
    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("kind", ["band", "dense"])
    def test_recorded_residual_is_the_dense_one(self, rng, kind, complex_data, plan):
        # each evaluated step's residual, from the rational Arnoldi
        # relation, is ||A1 Z_k - Z_k A2 + B1 C2*|| / (scale ||Z~_k||) of
        # the dense Z_k = U_k Z~_k V_k*, with the solver's power-step
        # estimate of ||A1|| + ||A2|| as the scale; the steps evaluated are
        # the checkpoints of the schedule (step 7 is none), and on real data
        # the conjugate pair is one paired step, whose first step is a gap
        def coefficient(n, sign):
            if kind == "band":
                lam = np.logspace(-1.0, 1.0, n)
                M = np.diag(lam) + np.diag(0.3 * lam[:-1], 1)
                return sign * (M + 0.2j * np.diag(lam[:-1], -1) if complex_data else M)
            R = rand_complex(rng, n, n) if complex_data else rng.standard_normal((n, n))
            return sign * (R / np.sqrt(n) + 3.0 * np.eye(n))

        def block(n):
            return rand_complex(rng, n, 2) if complex_data else rng.standard_normal((n, 2))

        n1, n2 = 40, 36
        prob = SylvesterProblem.create(coefficient(n1, 1.0), coefficient(n2, -1.0),
                                       block(n1), block(n2))
        result, report = sylvester_solve_krylov(prob, PolePlan(plan, repetition="cyclic"),
                                                m_max=8, tol=0.0)
        left, right = result.basis_left, result.basis_right
        assert isinstance(left.cache.A, _Band) == (kind == "band")
        assert left.basis.dtype == (np.complex128 if complex_data else np.float64)
        paired = not complex_data and plan[1] == np.conj(plan[0])
        gaps = [m for m, e in enumerate(report.true_errors, start=1) if np.isnan(e)]
        assert gaps == ([1, 4, 7] if paired else [7])
        scale = signsylv._norm_estimate(left.cache) + signsylv._norm_estimate(right.cache)
        assert 0.9 <= scale / (norm2(prob.A1) + norm2(prob.A2)) <= 1.0 + 1e-12
        for k, got in enumerate(report.true_errors, start=1):
            if np.isnan(got):
                continue
            Zk = core_at(result, k)
            U = left.leading(k).basis
            V = right.leading(k).basis
            Z = U @ Zk @ V.conj().T
            R = prob.A1 @ Z - Z @ prob.A2 + prob.B1 @ prob.C2.conj().T
            want = norm2(R) / (scale * norm2(Zk))
            assert got == pytest.approx(want, rel=1e-10)

    def test_equivalence_with_sign_embedding(self, rng):
        # Z from the Galerkin solver equals half the coupling block of the
        # direct sign update on the block-diagonal embedding
        n1, n2, m = 8, 7, 4
        A1 = 0.4 * rand_complex(rng, n1, n1) + 4 * np.eye(n1)
        A2 = 0.4 * rand_complex(rng, n2, n2) - 4 * np.eye(n2)
        B1 = rand_complex(rng, n1, 1)
        C2 = rand_complex(rng, n2, 1)
        prob = SylvesterProblem.create(A1, A2, B1, C2)
        plan = PolePlan((-2.0, -7.0), repetition="cyclic")
        result, _ = sylvester_solve_krylov(prob, plan, m_max=m, tol=0.0, d=1)
        Z_m = result.materialize()

        A = np.block([[A1, np.zeros((n1, n2))], [np.zeros((n2, n1)), A2]])
        B = np.vstack([B1, np.zeros((n2, 1))])
        C = np.vstack([np.zeros((n1, 1)), C2])
        state, _ = run_update(A, B, C, f=FunctionSpec.sign(), plan=plan,
                              m_max=m, tol=0.0, d=1)
        emb = state.materialize()
        # sign([[A1, F],[0, A2]]) has -2Z in its corner for A1 Z - Z A2 + F = 0
        # (scalar oracle: A1=2, A2=-1, F=1 gives corner 2/3 and Z = -1/3)
        Z_emb = -0.5 * emb[:n1, n1:]
        assert norm2(emb[n1:, :n1]) <= 1e-10
        assert norm2(Z_m - Z_emb) <= 1e-10 * max(norm2(Z_m), 1.0)

    def test_compressed_not_solvable(self, rng):
        # bypass the half-plane validation to force touching compressed spectra
        A1 = np.diag([1.0, 3.0]).astype(complex)
        A2 = np.diag([1.0, 3.0]).astype(complex)
        prob = SylvesterProblem(A1=A1, A2=A2,
                                B1=np.ones((2, 1), dtype=complex),
                                C2=np.ones((2, 1), dtype=complex))
        with pytest.raises(CompressedNotSolvable):
            sylvester_solve_krylov(prob, [INF, INF], m_max=2, tol=0.0, d=1)

    def test_real_coefficients_stay_real(self, rng):
        # real data are real whatever their container; with real poles the
        # bases stay float64, the core is complex, and once the bases fill
        # C^n the Galerkin solution is scipy's complex dense solution
        n = 12
        A1 = rng.standard_normal((n, n)) / n + 4 * np.eye(n)
        A2 = rng.standard_normal((n, n)) / n - 4 * np.eye(n)
        B1 = rng.standard_normal((n, 1))
        C2 = rng.standard_normal((n, 1))
        real = SylvesterProblem.create(A1, A2, B1, C2)
        cplx = SylvesterProblem.create(A1.astype(complex), A2.astype(complex),
                                       B1.astype(complex), C2.astype(complex))
        for prob in (real, cplx):
            assert all(M.dtype == np.float64 for M in (prob.A1, prob.A2, prob.B1, prob.C2))
        plan = PolePlan((-3.0, -6.0), repetition="cyclic")
        got, _ = sylvester_solve_krylov(real, plan, m_max=n, tol=0.0)
        assert got.left.dtype == got.right.dtype == np.float64
        assert got.core.dtype == np.complex128
        ref = sla.solve_sylvester(A1.astype(complex), -A2.astype(complex),
                                  -(B1 @ C2.T).astype(complex))
        assert norm2(got.materialize() - ref) <= 1e-12 * norm2(ref)

    def test_stability_validation(self, rng):
        with pytest.raises(ValueError):
            SylvesterProblem.create(np.diag([-1.0, 2.0]), np.diag([-1.0]),
                                    np.ones((2, 1)), np.ones((1, 1)))

    def test_seed_columns_must_agree(self):
        with pytest.raises(ValueError, match="^B1 and C2 must have the same number of columns$"):
            SylvesterProblem.create(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((2, 2)))

    @pytest.mark.parametrize("indefinite", ["A1", "-A2"])
    def test_band_numerical_ranges_are_checked_above_desk_scale(self, monkeypatch, indefinite):
        # n = 600: the Hermitian parts of the bidiagonal coefficients are
        # tridiagonal and take the band Cholesky (a dense one is refused
        # here), at every n; a negative diagonal entry of A1, or a positive
        # one of A2, makes one of them indefinite
        def refused(*args, **kwargs):
            raise AssertionError("dense Cholesky of a band Hermitian part")

        monkeypatch.setattr(signsylv.sla, "cholesky", refused)
        n = 600
        lam = np.logspace(-1.0, 1.0, n)
        A1 = np.diag(lam) + np.diag(0.3 * lam[:-1], 1)
        A2 = -np.diag(1.37 * lam) - np.diag(0.3 * lam[:-1], -1)
        B1, C2 = np.ones((n, 1)), np.ones((n, 1))
        SylvesterProblem.create(A1, A2, B1, C2)
        if indefinite == "A1":
            A1[n // 2, n // 2] = -1.0
        else:
            A2[n // 2, n // 2] = 1.0
        with pytest.raises(ValueError, match="^numerical ranges must satisfy"):
            SylvesterProblem.create(A1, A2, B1, C2)


@st.composite
def sylvester_instance(draw):
    """(problem, plan, m_max): coefficients of orders n1, n2 <= 200 with
    their numerical ranges in the right and in the left half-plane, real or
    complex, band-stored (bidiagonal and tridiagonal) or dense, a right-hand
    side of rank 1 or 2, and poles away from both spectra: single real or
    infinite ones, or conjugate pairs on the imaginary axis, which real
    data take as paired steps.  At most six steps keep the residual above
    1e-6, well above its rounding."""
    n1, n2 = draw(st.integers(20, 200)), draw(st.integers(20, 200))
    ell = draw(st.integers(1, 2))
    band, complex_data = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coefficient(n, sign):
        if band:
            lam = np.logspace(-1.0, 1.0, n) * rng.uniform(0.8, 1.2, n)
            M = np.diag(lam) + np.diag(0.3 * lam[:-1], 1)
            return sign * (M + 0.2j * np.diag(lam[:-1], -1) if complex_data else M)
        R = rand_complex(rng, n, n) if complex_data else rng.standard_normal((n, n))
        return sign * (R / np.sqrt(n) + 3.0 * np.eye(n))

    def block(n):
        return rand_complex(rng, n, ell) if complex_data else rng.standard_normal((n, ell))

    prob = SylvesterProblem.create(coefficient(n1, 1.0), coefficient(n2, -1.0),
                                   block(n1), block(n2))
    if draw(st.booleans()):
        w = draw(st.floats(0.5, 5.0))
        plan = (1j * w, -1j * w, INF)
    else:
        plan = (0.0, INF, draw(st.sampled_from([-30.0, 30.0])))
    return prob, PolePlan(plan, repetition="cyclic"), draw(st.integers(3, 6))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(sylvester_instance())
def test_recorded_residual_over_generated_problems(instance):
    # each step that the checkpoint schedule evaluates, the last one
    # included, records a residual from the rational Arnoldi relation that,
    # times the solver's scale, is ||A1 Z_k - Z_k A2 + B1 C2*|| / ||Z~_k||
    # of the dense Z_k = U_k Z~_k V_k*
    prob, plan, m_max = instance
    result, report = sylvester_solve_krylov(prob, plan, m_max=m_max, tol=0.0)
    left, right = result.basis_left, result.basis_right
    scale = signsylv._norm_estimate(left.cache) + signsylv._norm_estimate(right.cache)
    assert not np.isnan(report.true_errors[-1])
    for k, got in enumerate(report.true_errors, start=1):
        if np.isnan(got):
            continue
        Zk = core_at(result, k)
        U = left.leading(k).basis
        V = right.leading(k).basis
        Z = U @ Zk @ V.conj().T
        R = prob.A1 @ Z - Z @ prob.A2 + prob.B1 @ prob.C2.conj().T
        assert got * scale == pytest.approx(norm2(R) / norm2(Zk), rel=1e-10)


def test_sign_convergence_bound_dominates(rng):
    from rkupdate.bounds import SpectralWindow, sign_update_bound
    A, B, _ = indefinite_instance(rng, 36, scale=0.08)
    J = np.array([[1.0]])
    D = B @ J @ B.conj().T
    dense = dense_sign_update(A, D)
    sq = np.concatenate([np.linalg.eigvalsh(A)**2, np.linalg.eigvalsh(A + D)**2])
    w2 = SpectralWindow(float(sq.min()), float(sq.max()))
    plan = PolePlan(zolotarev_invsqrt_poles((w2.lmin, w2.lmax), 4).poles,
                    repetition="cyclic", ordering="leja")
    res, rep = sign_update(A, B, J, plan, m_max=12, tol=0.0, d=2, true_update=dense)
    bnd = sign_update_bound(w2, plan, rep.iterations, norm2(A + D), norm2(B @ J),
                            norm2(B), FunctionSpec.inv_sqrt()).values
    errs = np.asarray(rep.true_errors)
    floor = 1e-13 * norm2(dense_sign_update(A, np.zeros_like(D)) + np.eye(36))
    for err, b in zip(errs, bnd):
        if err < max(floor, 1e-12):
            break
        assert err <= b


def test_sign_update_block_width_two(rng):
    # rank-2 update D = B J B* with a 2x2 Hermitian J
    A, _, _ = indefinite_instance(rng, 30)
    B = 0.05 * rand_complex(rng, 30, 2)
    J = np.array([[1.0, 0.2], [0.2, -0.5]], dtype=complex)
    D = B @ J @ B.conj().T
    dense = dense_sign_update(A, D)
    sq = np.concatenate([np.linalg.eigvalsh(A)**2, np.linalg.eigvalsh(A + D)**2])
    plan = PolePlan(zolotarev_invsqrt_poles((sq.min(), sq.max()), 5).poles,
                    repetition="cyclic", ordering="leja")
    res, rep = sign_update(A, B, J, plan, m_max=7, tol=0.0, d=2, true_update=dense)
    assert res.basis.block_size == 4            # [B, AB] is n x 2*ell
    assert rep.true_errors[-1] <= 1e-6 * max(norm2(dense), 1.0)


def test_sylvester_block_width_two(rng):
    # ell = 2: bases saturate both sides at m = n/ell, where the Galerkin
    # solution matches the dense one
    n = 10
    R1 = 0.4 * rand_complex(rng, n, n)
    R2 = 0.4 * rand_complex(rng, n, n)
    s1 = abs(np.linalg.eigvalsh(0.5 * (R1 + R1.conj().T))[0]) + 1.0
    s2 = abs(np.linalg.eigvalsh(0.5 * (R2 + R2.conj().T))[-1]) + 1.0
    prob = SylvesterProblem.create(R1 + s1 * np.eye(n), R2 - s2 * np.eye(n),
                                   rand_complex(rng, n, 2), rand_complex(rng, n, 2))
    result, report = sylvester_solve_krylov(prob, PolePlan((-2.0, -5.0), repetition="cyclic"),
                                            m_max=5, tol=0.0, d=1)
    Z = result.materialize()
    Z_ref = sylvester_dense(prob.A1, prob.A2, prob.B1 @ prob.C2.conj().T)
    assert norm2(Z - Z_ref) <= 1e-9 * norm2(Z_ref)


@pytest.mark.parametrize("entry", ["run_update", "sign_update", "sylvester_solve_krylov"])
def test_lag_zero_rejected(rng, entry):
    # d = 0 would compare each iterate with itself and stop at once
    A, B, _ = indefinite_instance(rng, 12)
    prob = SylvesterProblem.create(np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, -2.0]),
                                   np.ones((3, 1)), np.ones((2, 1)))
    plan = PolePlan((-5.0,), repetition="cyclic")
    calls = {
        "run_update": lambda: run_update(A, B, B, f=FunctionSpec.exp(), plan=[INF] * 4,
                                         m_max=4, tol=1e-8, d=0),
        "sign_update": lambda: sign_update(A, B, np.array([[1.0]]), plan,
                                           m_max=4, tol=1e-8, d=0),
        "sylvester_solve_krylov": lambda: sylvester_solve_krylov(prob, plan, m_max=2,
                                                                 tol=1e-8, d=0),
    }
    with pytest.raises(ValueError, match="d >= 1"):
        calls[entry]()


@pytest.mark.parametrize("m_max,d", [(0, 2), (2, 0)], ids=["m_max=0", "d=0"])
@pytest.mark.parametrize("entry", ["run_update", "sign_update", "sylvester_solve_krylov"])
def test_step_counts_checked_before_any_work(rng, monkeypatch, entry, m_max, d):
    # one check, one message, before the operator is stored or scanned;
    # run_update gets a zero B, whose short cut returns before any step
    A, B, _ = indefinite_instance(rng, 12)
    prob = SylvesterProblem.create(np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, -2.0]),
                                   np.ones((3, 1)), np.ones((2, 1)))
    plan = PolePlan((-5.0,), repetition="cyclic")

    def no_work(*args, **kwargs):
        raise AssertionError("operator work before the step counts were checked")

    monkeypatch.setattr(FactorizationCache, "__init__", no_work)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
    calls = {
        "run_update": lambda: run_update(A, np.zeros_like(B), f=FunctionSpec.inv_sqrt(),
                                         plan=plan, m_max=m_max, tol=1e-8, d=d,
                                         J=np.array([[1.0]])),
        "sign_update": lambda: sign_update(A, B, np.array([[1.0]]), plan,
                                           m_max=m_max, tol=1e-8, d=d),
        "sylvester_solve_krylov": lambda: sylvester_solve_krylov(prob, plan, m_max=m_max,
                                                                 tol=1e-8, d=d),
    }
    with pytest.raises(ValueError, match=r"^need m_max >= 1 and d >= 1$"):
        calls[entry]()
