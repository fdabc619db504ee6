import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from rkupdate.dense import (
    COND_CAP,
    _Band,
    _banded,
    _coupling_block,
    funm_block_triangular,
    funm_small,
    norm2,
    norm2_hermitian,
    qr_orthonormalize,
    shifted_factorize,
)
from rkupdate.errors import (
    IllConditionedEigenbasis,
    RankDeficient,
    SingularityOnSpectrum,
    SingularShift,
)
from rkupdate.functions import FunctionSpec
from rkupdate.poles import PolePlan
from rkupdate.updater import run_update

from conftest import BANDS, band_matrix, path_laplacian_update, rand_complex, random_hermitian


class TestQR:
    def test_scaled_unit_vector(self):
        Q = qr_orthonormalize(np.array([[2.0], [0.0]]))
        assert np.array_equal(Q, np.array([[1.0 + 0j], [0.0]]))

    def test_identity(self):
        Q = qr_orthonormalize(np.eye(3))
        assert np.allclose(Q, np.eye(3), atol=0)

    def test_random_orthonormal_and_range(self, rng):
        W = rand_complex(rng, 20, 4)
        Q = qr_orthonormalize(W)
        # Gram-matrix oracle
        assert norm2(Q.conj().T @ Q - np.eye(4)) <= 1e-12
        # projector reproduces the column space
        assert norm2(W - Q @ (Q.conj().T @ W)) <= 1e-12 * norm2(W)

    def test_rank_deficient(self, rng):
        b = rand_complex(rng, 10, 1)
        with pytest.raises(RankDeficient):
            qr_orthonormalize(np.hstack([b, b]))

    def test_zero_column(self):
        with pytest.raises(RankDeficient):
            qr_orthonormalize(np.zeros((5, 1)))

    def test_a_subnormal_column_is_lost(self):
        with pytest.raises(RankDeficient) as info:
            qr_orthonormalize(np.full((5, 1), 2.0**-1060))
        assert info.value.exhausted

    def test_a_block_scaled_by_a_power_of_two_gives_the_same_q(self, rng):
        W = rand_complex(rng, 20, 4)
        assert np.array_equal(qr_orthonormalize(2.0**-1000 * W), qr_orthonormalize(W))


class TestShiftedFactorize:
    def test_diagonal_solve(self):
        fac = shifted_factorize(np.diag([1.0, 2.0]), 0.0)
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        assert np.allclose(fac.solve(e1), e1, atol=1e-15)

    def test_exact_eigenvalue_shift(self):
        with pytest.raises(SingularShift):
            shifted_factorize(np.diag([1.0, 2.0]), 1.0)

    def test_residual(self, rng):
        A = rand_complex(rng, 30, 30)
        fac = shifted_factorize(A, -2.0)
        Y = rand_complex(rng, 30, 3)
        X = fac.solve(Y)
        assert norm2((A + 2.0 * np.eye(30)) @ X - Y) <= 1e-12 * norm2(Y)

    def test_adjoint_shares_factorization(self, rng):
        A = rand_complex(rng, 25, 25)
        xi = 1.5 - 0.7j
        fac = shifted_factorize(A, xi)
        Y = rand_complex(rng, 25, 2)
        X = fac.solve(Y, adjoint=True)
        M = (A - xi * np.eye(25)).conj().T
        assert norm2(M @ X - Y) <= 1e-12 * norm2(Y)

    def test_real_operator_real_lu(self, rng):
        A = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
        assert shifted_factorize(A, -2.0).lu[0].dtype == np.float64
        assert shifted_factorize(A, -2.0 + 1e-300j).lu[0].dtype == np.complex128
        # a complex container of real data is real by the realness rule
        assert shifted_factorize(A.astype(complex), -2.0).lu[0].dtype == np.float64

    @pytest.mark.parametrize("shape", [(30, 3), (30, 1), (30,)])
    def test_real_lu_solves_complex_blocks(self, rng, shape):
        # a real LU solves the float64 view of a complex block; both sides
        # agree with scipy's complex LU of the same matrix
        A = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
        real = shifted_factorize(A, -2.0)
        ref = sla.lu_factor(A.astype(complex) + 2.0 * np.eye(30))
        Y = rand_complex(rng, *shape)
        for adjoint in (False, True):
            X = real.solve(Y, adjoint=adjoint)
            Xref = sla.lu_solve(ref, Y, trans=2 if adjoint else 0)
            assert X.shape == Y.shape and X.dtype == np.complex128
            assert np.abs(X - Xref).max() <= 1e-13 * np.abs(Xref).max()
        M = A + 2.0 * np.eye(30)
        assert norm2(M.T @ real.solve(Y, adjoint=True) - Y) <= 1e-12 * norm2(Y)


class TestBandStorage:
    @pytest.mark.parametrize("kind", sorted(BANDS))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_narrow_band_is_stored_banded(self, rng, kind, complex_entries):
        kl, ku = BANDS[kind]
        A = band_matrix(rng, 64, kl, ku, complex_entries)
        band = _banded(A)
        assert isinstance(band, _Band)
        assert (band.kl, band.ku, band.shape, band.dtype) == (kl, ku, A.shape, A.dtype)
        assert band.scale == np.abs(A).max()
        for k in range(-kl, ku + 1):
            assert np.array_equal(band.ab[ku - k, max(k, 0):64 + min(k, 0)], np.diagonal(A, k))

    def test_wide_and_small_matrices_stay_dense(self, rng):
        # 2 kl + ku + 1 = 10 rows of band LU exceed 64 // 8; below n = 8
        # even a diagonal matrix stays dense
        for A in (band_matrix(rng, 64, 3, 3), band_matrix(rng, 7, 0, 0),
                  rng.standard_normal((40, 40))):
            assert _banded(A) is A

    @pytest.mark.parametrize("kind", sorted(BANDS))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_band_lu_agrees_with_dense_lu(self, rng, kind, complex_entries):
        A = band_matrix(rng, 64, *BANDS[kind], complex_entries)
        band = _banded(A)
        for xi in (-1.5, 0.0, 2.0 + 1.5j):
            got = shifted_factorize(band, xi)
            ref = shifted_factorize(A, xi)
            assert got.band == BANDS[kind] and ref.band is None
            assert got.lu[0].dtype == ref.lu[0].dtype
            for shape in ((64, 3), (64, 1), (64,)):
                Y = rand_complex(rng, *shape)
                for adjoint in (False, True):
                    X = got.solve(Y, adjoint=adjoint)
                    Xref = ref.solve(Y, adjoint=adjoint)
                    assert X.shape == Y.shape and X.dtype == np.complex128
                    assert np.abs(X - Xref).max() <= 1e-13 * np.abs(Xref).max()

    @pytest.mark.parametrize("kind", sorted(BANDS))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_band_products_agree_with_dense(self, rng, kind, complex_entries):
        A = band_matrix(rng, 64, *BANDS[kind], complex_entries)
        band = _banded(A)
        X = rng.standard_normal((64, 4)).astype(A.dtype)
        if complex_entries:
            X = X + 1j * rng.standard_normal((64, 4))
        for adjoint, M in ((False, A), (True, A.conj().T)):
            Y = band.dot(X, adjoint=adjoint)
            assert np.abs(Y - M @ X).max() <= 1e-13 * np.abs(M @ X).max()

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    def test_diagonal_real_solves_keep_their_bits(self, rng, cols):
        A = np.diag(np.logspace(-2, 2, 50) * rng.choice([-1.0, 1.0], 50))
        band = _banded(A)
        Y = rand_complex(rng, 50, cols)
        for xi in (-1.0, 0.0, 0.37):
            got, ref = shifted_factorize(band, xi), shifted_factorize(A, xi)
            for adjoint in (False, True):
                assert np.array_equal(got.solve(Y, adjoint=adjoint),
                                      ref.solve(Y, adjoint=adjoint))

    def test_diagonal_complex_lu_keeps_its_bits_for_one_column(self, rng):
        # the band solve (zgbtrs) of a diagonal complex LU has the bits of
        # the BLAS triangular solve (ztrsv) of the dense LU's U factor, as
        # the dense zgetrs has at two threads (at one thread zgetrs takes
        # another path, with other bits); ztrsv is not threaded, so the
        # reference holds at every thread count
        A = np.diag(np.logspace(-2, 2, 50))
        Y = rand_complex(rng, 50, 1)
        got = shifted_factorize(_banded(A), 0.5 + 2.0j)
        ref = shifted_factorize(A, 0.5 + 2.0j)
        lu, piv = ref.lu
        assert np.array_equal(piv, np.arange(50)) and not np.tril(lu, -1).any()
        for adjoint in (False, True):
            X = got.solve(Y, adjoint=adjoint)
            trans = 2 if adjoint else 0
            assert np.array_equal(X[:, 0], sla.blas.ztrsv(lu, Y[:, 0], trans=trans))
            Xref = ref.solve(Y, adjoint=adjoint)
            assert np.abs(X - Xref).max() <= 1e-15 * np.abs(Xref).max()

    @pytest.mark.parametrize("kind", ["diagonal", "upper-bidiagonal", "tridiagonal"])
    def test_exact_eigenvalue_shift(self, kind):
        # a triangular band with an exact diagonal value 2.0, and a
        # tridiagonal matrix with the exact eigenvalue 2 (2 - 2 cos(pi/2))
        n = 63
        kl, ku = BANDS[kind]
        A = np.diag(np.arange(1.0, n + 1))
        if kind == "upper-bidiagonal":
            A += np.diag(np.full(n - 1, 0.5), 1)
        if kind == "tridiagonal":
            A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        band = _banded(A)
        assert (band.kl, band.ku) == (kl, ku)
        with pytest.raises(SingularShift):
            shifted_factorize(band, 2.0)


#: f(z) = z through the spectral path of funm_small (FunctionSpec.identity
#: takes partial fractions), and f(z) = z**2
_Z = FunctionSpec.custom(lambda z: z, label="z")
_Z2 = FunctionSpec.custom(lambda z: z**2, label="z^2")


class TestSpectralDecompose:
    """The eigendecompositions behind funm_small: eigh on the Hermitian
    path, an eigenvector similarity with a condition cap otherwise."""

    def test_hermitian_sorted_unitary(self):
        F = funm_small(np.diag([3.0, 1.0]), _Z2, hermitian=True)
        assert np.allclose(F, np.diag([9.0, 1.0]), atol=1e-12)
        one = FunctionSpec.custom(lambda z: np.ones_like(z), label="1")
        assert norm2(funm_small(np.diag([3.0, 1.0]), one, hermitian=True) - np.eye(2)) <= 1e-12

    def test_rotation_generator(self):
        # eigenvalues +-i: the general path, with a unitary eigenbasis
        F = funm_small(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                       FunctionSpec.custom(np.exp, label="exp"))
        c, s = np.cos(1.0), np.sin(1.0)
        assert np.allclose(F, [[c, s], [-s, c]], atol=1e-12)

    def test_hermitian_reconstruction(self, rng):
        A, _ = random_hermitian(rng, 40)
        assert norm2(funm_small(A, _Z, hermitian=True) - A) <= 1e-11 * norm2(A)

    def test_general_similarity_invariant(self, rng):
        A = rand_complex(rng, 15, 15)
        assert norm2(funm_small(A, _Z) - A) <= 1e-11 * norm2(A)

    def test_ill_conditioned_raises(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-15]])
        with pytest.raises(IllConditionedEigenbasis):
            funm_small(J, FunctionSpec.sqrt())
        assert np.array_equal(funm_small(J, FunctionSpec.exp()), sla.expm(J))


class TestFunmSmall:
    def test_nilpotent_exponential(self):
        # non-diagonalizable: exercises the scaling-and-squaring fallback
        F = funm_small(np.array([[0.0, 1.0], [0.0, 0.0]]), FunctionSpec.exp())
        assert np.allclose(F, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_sign_diag(self):
        F = funm_small(np.diag([-3.0, 5.0]), FunctionSpec.sign(), hermitian=True)
        assert np.allclose(F, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_inv_sqrt_diag(self):
        F = funm_small(np.diag([4.0, 9.0]), FunctionSpec.inv_sqrt(), hermitian=True)
        assert np.allclose(F, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity_and_one(self, rng):
        A = rand_complex(rng, 12, 12)
        # Horner on the expansion z: I A + 0 I is A
        assert np.array_equal(funm_small(A, FunctionSpec.identity()), A)
        assert np.array_equal(funm_small(A.real, FunctionSpec.identity()), A.real)
        one = FunctionSpec.custom(lambda z: np.ones_like(z), label="1")
        assert norm2(funm_small(A, one) - np.eye(12)) <= 1e-13 * norm2(A)

    def test_hermitian_commutes_with_diagonalization(self, rng):
        A, w = random_hermitian(rng, 20, 0.5, 4.0)
        F = funm_small(A, FunctionSpec.inv_sqrt(), hermitian=True)
        w, Q = np.linalg.eigh(A)
        F2 = (Q * w**-0.5) @ Q.conj().T
        assert norm2(F - F2) <= 1e-11 * norm2(F)

    def test_exp_fallback_agrees(self, rng):
        A = rand_complex(rng, 10, 10)
        assert norm2(funm_small(A, FunctionSpec.exp()) - sla.expm(A)) \
            <= 1e-10 * norm2(sla.expm(A))

    def test_sign_near_axis_raises(self):
        with pytest.raises(SingularityOnSpectrum):
            funm_small(np.diag([1e-16, 1.0]), FunctionSpec.sign(), hermitian=True)

    def test_inv_sqrt_indefinite_raises(self):
        with pytest.raises(SingularityOnSpectrum):
            funm_small(np.diag([-1.0, 1.0]), FunctionSpec.inv_sqrt(), hermitian=True)


def _complex_funm(A, f, hermitian):
    """funm_small's spectral paths in complex128 throughout: the reference
    for the real kernels."""
    A = np.asarray(A, dtype=complex)
    if hermitian:
        w, Q = np.linalg.eigh(A)
        fw = f.scalar(w + 0j)
        F = (Q * fw) @ Q.conj().T
        if np.abs(fw.imag).max() <= 1e-14 * max(1.0, np.abs(fw).max()):
            F = 0.5 * (F + F.conj().T)
        return F
    w, V = np.linalg.eig(A)
    return np.linalg.solve(V.T, (V * f.scalar(w)).T).T


def _real_matrices(rng, n=30):
    """Real matrices for funm_small, each with the kinds it takes: a
    symmetric positive definite and an indefinite one (Hermitian path),
    one with complex-conjugate eigenvalue pairs and one with real
    eigenvalues (general path)."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spd = (Q * np.linspace(0.5, 4.0, n)) @ Q.T
    w = np.r_[np.linspace(-2.0, -0.5, n // 2), np.linspace(0.5, 3.0, n - n // 2)]
    indefinite = (Q * w) @ Q.T
    pairs = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
    triangular = np.triu(rng.standard_normal((n, n)), 1) / n + np.diag(np.linspace(1.0, 2.0, n))
    assert np.iscomplexobj(np.linalg.eigvals(pairs))
    assert np.isrealobj(np.linalg.eigvals(triangular))
    exp_iz = FunctionSpec.custom(lambda z: np.exp(1j * z), label="exp(iz)")
    return [(spd, True, FunctionSpec.inv_sqrt()), (spd, True, FunctionSpec.exp()),
            (spd, True, exp_iz), (indefinite, True, FunctionSpec.sign()),
            (pairs, False, FunctionSpec.exp()), (pairs, False, FunctionSpec.inv_sqrt()),
            (triangular, False, FunctionSpec.sqrt()), (triangular, False, exp_iz)]


class TestRealKernels:
    """A small matrix with no nonzero imaginary entry is decomposed in
    float64; the results stay complex128."""

    def test_real_input_matches_complex_path(self, rng):
        for A, hermitian, f in _real_matrices(rng):
            ref = _complex_funm(A, f, hermitian)
            for M in (A, A.astype(complex)):
                F = funm_small(M, f, hermitian=hermitian)
                assert F.dtype == np.complex128
                assert norm2(F - ref) <= 1e-13 * norm2(ref), (f.label, hermitian)

    def test_one_imaginary_entry_keeps_the_complex_bits(self, rng):
        for A, hermitian, f in _real_matrices(rng):
            A = A.astype(complex)
            # the Hermitian path reads the lower triangle only
            A[0, -1] += 1e-3j
            F = funm_small(A, f, hermitian=hermitian)
            assert np.array_equal(F, _complex_funm(A, f, hermitian)), (f.label, hermitian)

    @pytest.mark.parametrize("A, hermitian, f, error", [
        (np.diag([1e-16, 1.0]), True, FunctionSpec.sign(), SingularityOnSpectrum),
        (np.diag([-1.0, 1.0]), True, FunctionSpec.inv_sqrt(), SingularityOnSpectrum),
        (np.array([[-1.0, 5.0], [0.0, 2.0]]), False, FunctionSpec.inv_sqrt(),
         SingularityOnSpectrum),
        (np.array([[1.0, 1.0], [0.0, 1.0 + 1e-15]]), False, FunctionSpec.sqrt(),
         IllConditionedEigenbasis),
    ])
    def test_same_typed_errors(self, A, hermitian, f, error):
        for M in (A, A.astype(complex), A + 1e-300j * np.eye(2)):
            with pytest.raises(error):
                funm_small(M, f, hermitian=hermitian)

    def test_norms_match_complex_path(self, rng):
        for n in (1, 7, 40):
            G = rng.standard_normal((n, n + 3))
            H = G @ G.T - 2.0 * np.eye(n)
            ref = np.linalg.norm(G.astype(complex), 2)
            assert abs(norm2(G) - ref) <= 1e-15 * ref
            assert abs(norm2(G.astype(complex)) - ref) <= 1e-15 * ref
            ref = np.abs(np.linalg.eigvalsh(H.astype(complex))).max()
            assert abs(norm2_hermitian(H.astype(complex)) - ref) <= 1e-15 * ref
        assert norm2(np.zeros((0, 3))) == norm2_hermitian(np.zeros((0, 0))) == 0.0

    def test_real_run_hands_eigh_float64(self, monkeypatch):
        dtypes = []
        eigh = np.linalg.eigh

        def recorded(M, *args, **kwargs):
            dtypes.append(np.asarray(M).dtype)
            return eigh(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        A, B, J = path_laplacian_update(60)
        _, report = run_update(A, B, J=J, f=FunctionSpec.inv_sqrt(),
                               plan=PolePlan((-0.25,), repetition="cyclic"), m_max=6, tol=0.0)
        assert report.iterations == 6
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def _block(rng, k, center, real):
    """center I plus a random k x k perturbation of norm about 0.3: well
    conditioned eigenvectors, spectrum in a disc about center."""
    N = rng.standard_normal((k, k)) if real else rand_complex(rng, k, k) / np.sqrt(2)
    return center * np.eye(k) + 0.3 * N / np.sqrt(k)


class TestCouplingBlock:
    """The closed form of the coupling block from the eigendecompositions of
    the two diagonal blocks, against the assembled 2k x 2k matrix."""

    #: kind -> the centers of the spectra of A11 and A22, in f's domain
    CENTERS = {"inv-sqrt": [(2.0, 1.0)], "sqrt": [(2.0, 1.0)], "exp": [(0.5, -1.0)],
               "sign": [(2.0, -1.5), (-1.0, -2.0), (1.5, 1.0)]}

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", sorted(CENTERS))
    def test_closed_form_agrees_with_the_assembled_matrix(self, rng, kind, real):
        f = FunctionSpec.from_string(kind)
        assembled = dataclasses.replace(f, dd=None)
        for c1, c2 in self.CENTERS[kind]:
            for k1, k2 in ((1, 1), (6, 4), (9, 9)):
                A11, A22 = _block(rng, k1, c1, real), _block(rng, k2, c2, real)
                A12 = rng.standard_normal((k1, k2)) if real else rand_complex(rng, k1, k2)
                got = _coupling_block(A11, A12, A22, f)
                want = _coupling_block(A11, A12, A22, assembled)
                assert got.dtype == np.complex128
                if kind == "sign" and c1 * c2 > 0:
                    # one sign on both spectra: f is constant there, and the
                    # coupling is zero, which the assembled path has to
                    # within rounding
                    assert not got.any() and norm2(want) <= 1e-12 * norm2(A12)
                else:
                    assert norm2(got - want) <= 1e-12 * norm2(want)
                if real:
                    # f(conj z) = conj f(z): the coupling of real blocks is real
                    assert not got.imag.any()

    def test_ill_conditioned_block_takes_the_assembled_path(self, rng):
        # a Jordan block: its eigenvectors are over COND_CAP, so exp falls
        # back to the assembled matrix's expm and inv-sqrt refuses it, for a
        # defective A11 or A22
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert np.linalg.cond(np.linalg.eig(J)[1]) > COND_CAP
        for A11, A22 in ((J, _block(rng, 3, 1.0, True)), (_block(rng, 3, 1.0, True), J)):
            A12 = rng.standard_normal((A11.shape[0], A22.shape[0]))
            Z = np.block([[A11, A12], [np.zeros(A12.T.shape), A22]])
            got = _coupling_block(A11, A12, A22, FunctionSpec.exp())
            assert np.array_equal(got, sla.expm(Z)[:A11.shape[0], A11.shape[0]:])
            with pytest.raises(IllConditionedEigenbasis):
                _coupling_block(A11, A12, A22, FunctionSpec.inv_sqrt())

    @pytest.mark.parametrize("kind, w", [("inv-sqrt", -1e-3), ("sqrt", -1e-3), ("sign", 1e-14)])
    def test_a_diagonal_block_off_the_domain_is_refused(self, rng, kind, w):
        A = _block(rng, 3, 1.0, True)
        bad = np.diag([w, 1.0])
        for A11, A22 in ((bad, A), (A, bad)):
            with pytest.raises(SingularityOnSpectrum):
                _coupling_block(A11, rng.standard_normal((A11.shape[0], A22.shape[0])),
                                A22, FunctionSpec.from_string(kind))


class TestFunmBlockTriangular:
    def test_zero_coupling(self, rng):
        A11 = rand_complex(rng, 4, 4)
        A22 = rand_complex(rng, 3, 3)
        _, F12, _ = funm_block_triangular(A11, np.zeros((4, 3)), A22, FunctionSpec.exp())
        assert np.array_equal(F12, np.zeros((4, 3)))

    def test_identity_map(self, rng):
        A11 = rand_complex(rng, 4, 4)
        A12 = rand_complex(rng, 4, 4)
        A22 = rand_complex(rng, 4, 4)
        F11, F12, F22 = funm_block_triangular(A11, A12, A22, FunctionSpec.identity())
        assert np.array_equal(F12, A12)

    def test_assembled_oracle_exp(self, rng):
        A11 = rand_complex(rng, 6, 6)
        A12 = rand_complex(rng, 6, 6)
        A22 = rand_complex(rng, 6, 6)
        F11, F12, F22 = funm_block_triangular(A11, A12, A22, FunctionSpec.exp())
        Z = np.block([[A11, A12], [np.zeros((6, 6)), A22]])
        F = funm_small(Z, FunctionSpec.exp())
        assert norm2(F12 - F[:6, 6:]) <= 1e-10 * norm2(F)
        # diagonal blocks consistent with direct evaluation
        assert norm2(F11 - F[:6, :6]) <= 1e-12 * max(norm2(F11), 1.0)
        assert norm2(F22 - F[6:, 6:]) <= 1e-12 * max(norm2(F22), 1.0)
