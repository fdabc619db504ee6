"""Dense linear algebra kernels.

Factorizations, orthonormalization, spectral decompositions and matrix
functions of small matrices.  Everything is double precision and dense,
and real or complex by the realness rule of :mod:`rkupdate._validation`:
a shifted factorization of a real operator at a real shift is real, and
:func:`qr_orthonormalize` returns a real Q for a real block.  A real
matrix meets a complex block through the block's ``float64`` view, whose
columns hold the real and imaginary parts side by side
(:func:`_real_product`); the matrix functions of small matrices return
complex matrices.  An operator whose band is narrow, dense or
``scipy.sparse``, is held in LAPACK band storage (:func:`_banded`, run once
per factorization cache, which builds the band without an n x n array),
and its shifted LUs and products then cost O(n) per band row instead of
the dense O(n^3) and O(n^2).  Hermitian structure is an explicit flag.
The heavy lifting is delegated to LAPACK through numpy/scipy; this module
owns the contracts (tolerances, error conditions, fallbacks).  What a
function is, its domain included, is its
:class:`~rkupdate.functions.FunctionSpec`'s to say (``f.check_spectrum``);
the matrix functions here keep only their evaluation shortcuts: the
identity, rational kinds through partial fractions, and
scaling-and-squaring for an ill-conditioned exponential.

The coupling block of the general mode, the (1,2) block of f of a block
upper triangular matrix (:func:`_coupling_block`), has two paths.  When f
has a divided difference (``f.dd``), it comes from the eigendecompositions
of the two diagonal blocks and the divided differences of f between their
spectra (Higham, *Functions of Matrices*, SIAM 2008), real for real
blocks.  The assembled path takes f of the whole matrix through
:func:`funm_small`: for every other kind, and when an eigenvector matrix of
a diagonal block is over ``COND_CAP``, so that the exponential's expm
fallback and :class:`IllConditionedEigenbasis` apply as for any matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse

from ._validation import as_array, real_if_real
from .errors import IllConditionedEigenbasis, RankDeficient, SingularShift

__all__ = [
    "TOL_PIVOT", "TOL_DEFLATE", "TOL_AXIS", "COND_CAP",
    "qr_orthonormalize", "shifted_factorize", "ShiftedFactorization",
    "funm_small", "funm_block_triangular", "eval_rational_pf", "norm2",
    "norm2_hermitian",
]

TOL_PIVOT = 1e-14
TOL_DEFLATE = 1e-12
TOL_AXIS = 1e-12
#: eigenvector condition cap for general-similarity matrix functions
COND_CAP = 1.0 / np.sqrt(np.finfo(float).eps)


def _real_product(apply, X):
    """apply(X) for a real linear map ``apply`` of blocks (a product with a
    ``float64`` matrix, or its solve).  A complex X goes in as its
    ``float64`` view, whose columns hold the real and imaginary parts side
    by side, and the result is viewed as complex again: numpy would cast
    the whole ``float64`` matrix to ``complex128`` instead.  X is 2-d."""
    if not np.iscomplexobj(X):
        return apply(X)
    Y = apply(np.ascontiguousarray(X).view(np.float64))
    return np.ascontiguousarray(Y).view(complex)


def norm2(M):
    """Spectral norm; zero for empty matrices."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(real_if_real(M), 2))


def norm2_hermitian(M):
    """Spectral norm of a Hermitian matrix, max |eigenvalue|, without an SVD;
    only the lower triangle is read.  Zero for empty matrices."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(real_if_real(M))).max())


def qr_orthonormalize(W, reference_norms=None, step=None):
    """Orthonormal basis of the columns of W with deterministic phases,
    real for a real W.

    Raises :class:`RankDeficient` when a diagonal entry of R falls below
    ``TOL_DEFLATE`` times the reference column norm (by default the norms of
    W's own columns; callers orthogonalizing against an outer basis pass the
    pre-projection norms so cancellation is detected).  The error is
    ``exhausted`` when every column of W itself falls below that bound.
    """
    W = as_array(W, "W")
    n, k = W.shape
    if k > n:
        raise ValueError("more columns than rows; cannot orthonormalize")
    if reference_norms is None:
        reference_norms = np.linalg.norm(W, axis=0)
    reference_norms = np.asarray(reference_norms, dtype=float)
    floor = np.finfo(float).tiny + np.finfo(float).eps * max(1.0, reference_norms.max(initial=0.0))
    Q, R = np.linalg.qr(W, mode="reduced")
    rdiag = np.abs(np.diagonal(R))
    cutoff = TOL_DEFLATE * np.maximum(reference_norms, floor)
    bad = rdiag < cutoff
    if np.any(bad):
        raise RankDeficient(
            f"column {int(np.nonzero(bad)[0][0])} lost rank during orthonormalization",
            step=step,
            exhausted=bool(np.all(np.linalg.norm(W, axis=0) < cutoff)),
        )
    # normalize so that R has a real positive diagonal
    phases = np.diagonal(R) / rdiag
    return Q * phases.conj()


@dataclass(frozen=True)
class _Band:
    """A square matrix in LAPACK band storage: ``ab[ku + i - j, j]`` holds
    ``A[i, j]`` for ``-kl <= j - i <= ku``, and every other entry of A is
    zero.  ``scale`` is ``max |A[i, j]|``."""

    ab: np.ndarray
    kl: int
    ku: int
    scale: float

    @property
    def shape(self):
        n = self.ab.shape[1]
        return (n, n)

    @property
    def dtype(self):
        return self.ab.dtype

    def dot(self, X, adjoint=False):
        """A @ X, or A* @ X, one diagonal at a time; the adjoint takes the
        diagonals swapped and conjugated.  X has A's dtype or is the
        ``float64`` view of a complex block under a real A."""
        n = X.shape[0]
        ab = self.ab.conj() if adjoint and self.dtype == np.complex128 else self.ab
        Y = ab[self.ku, :, None] * X
        for k in range(-self.kl, self.ku + 1):
            if k == 0:
                continue
            d = ab[self.ku - k, max(k, 0):n + min(k, 0), None]  # A[i, i + k]
            s = -k if adjoint else k
            if s > 0:
                Y[:-s] += d * X[s:]
            else:
                Y[-s:] += d * X[:s]
        return Y


def _banded(A):
    """A as a factorization cache holds it: in band storage when its band
    is narrow, and as :func:`~rkupdate._validation.as_array` gives it
    otherwise.

    A is read once.  A narrow band goes straight into band storage, from
    the diagonals of a dense A or the entries of a ``scipy.sparse`` one,
    with no n x n array: the band holds every nonzero of A, so the realness
    rule and the finiteness check of ``as_array`` apply to the band alone.
    A wide band, dense or sparse, takes ``as_array`` (which densifies)."""
    sparse = scipy.sparse.issparse(A)
    if sparse:
        coo = A.tocoo()
        coo.sum_duplicates()
        nonzero = coo.data != 0
        rows, cols, data = coo.row[nonzero], coo.col[nonzero], coo.data[nonzero]
        offsets = cols.astype(np.int64) - rows
        kl, ku = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
    else:
        A = np.asarray(A)
        if A.dtype.kind in "biufc":
            # as_array's dtypes, which sla.bandwidth takes (float16 it refuses)
            A = np.asarray(A, dtype=np.complex128 if A.dtype.kind == "c" else np.float64)
        # a matrix that cannot band goes to as_array, which refuses or takes it
        kl = ku = max(A.shape, default=0)
        if A.ndim == 2 and A.dtype.kind in "fc":
            kl, ku = sla.bandwidth(A)
    n = A.shape[0] if A.ndim == 2 else 0
    # The crossover, measured with one BLAS thread for n = 128..2000 and 4
    # complex columns: while the band LU's 2 kl + ku + 1 rows are at most
    # n / 8, a band solve plus a product costs at most 1.3x the dense pair
    # (less from n = 512 on) and the band LU is 8-50x cheaper; at n / 4 the
    # pair costs 1.03-2.1x the dense one, so wider bands stay dense.  Below
    # n = 8 nothing is banded.
    if A.shape != (n, n) or 2 * kl + ku + 1 > n // 8:
        return as_array(A, square=True)
    dtype = np.complex128 if A.dtype.kind == "c" else np.float64
    ab = np.zeros((kl + ku + 1, n), dtype=dtype)
    if sparse:
        ab[ku + rows - cols, cols] = data
    else:
        for k in range(-kl, ku + 1):
            ab[ku - k, max(k, 0):n + min(k, 0)] = np.diagonal(A, k)
    ab = as_array(ab, "A")
    # the band holds every nonzero, so its largest entry is A's
    return _Band(ab, int(kl), int(ku), float(np.abs(ab).max()))


@dataclass(frozen=True)
class ShiftedFactorization:
    """LU factorization of A - shift*I, reusable for many right-hand sides.

    The same factorization serves both (A - shift I) X = Y and its adjoint
    (A - shift I)* X = Y, so pole-conjugate systems never need a second LU.
    A real LU solves a complex Y through its ``float64`` view
    (:func:`_real_product`), and its adjoint is its transpose.  ``band`` is
    ``(kl, ku)`` for a band LU (``?gbtrf``) and None for a dense one
    (``?getrf``).
    """

    shift: complex
    lu: tuple
    band: tuple = None

    def solve(self, Y, adjoint=False):
        Y = np.asarray(Y)
        if self.lu[0].dtype == np.float64:
            Z = Y if Y.ndim == 2 else Y[:, None]
            X = _real_product(lambda V: self._solve(V, 1 if adjoint else 0), Z)
            return X.reshape(Y.shape)
        return self._solve(np.asarray(Y, dtype=complex), 2 if adjoint else 0)

    def _solve(self, Y, trans):
        if self.band is None:
            return sla.lu_solve(self.lu, Y, trans=trans)
        (lu, piv), (kl, ku) = self.lu, self.band
        if kl == ku == 0 and lu.dtype == np.float64:
            # the dense solve of a diagonal matrix (OpenBLAS dtrsm) multiplies
            # by the reciprocal pivots; dividing, or dgbtrs, moves its bits
            return Y * (1.0 / lu[0])[:, None]
        gbtrs = sla.get_lapack_funcs("gbtrs", (lu,))
        X, _ = gbtrs(lu, kl, ku, Y if Y.ndim == 2 else Y[:, None], piv, trans=trans)
        return X.reshape(Y.shape)


def _rcond(A, fac):
    """1 / (||A||_1 ||A^{-1}||_1) for a dense or band-stored A, estimated from its LU at 0."""
    # two steps of Hager's estimate of ||A^{-1}||_1, the estimator inside
    # LAPACK's ?gecon and ?gbcon, written out since ?gbcon is not known to
    # be wrapped by every SciPy release that the package supports: from
    # x = (1, ..., 1) / n, and then from the unit vector e_j that the
    # adjoint solve with the signs of A^{-1} x points to
    y = fac.solve(np.full((A.shape[0], 1), 1.0 / A.shape[0]))
    z = fac.solve(y / np.maximum(np.abs(y), np.finfo(float).tiny), adjoint=True)
    y_j = fac.solve(np.eye(len(y), 1, -int(np.abs(z).argmax())))
    norm1 = np.abs(A.ab if isinstance(A, _Band) else A).sum(axis=0).max()
    return 1.0 / max(norm1 * max(np.abs(y).sum(), np.abs(y_j).sum()), 1e-300)


def shifted_factorize(A, xi):
    """Factor A - xi*I; raises :class:`SingularShift` when xi is (numerically)
    an eigenvalue.

    The LU is real when A is real and xi has a zero imaginary part, and
    complex otherwise.  A band-stored A gets a band LU.
    """
    xi = complex(xi)
    band = isinstance(A, _Band)
    if not band:
        A = as_array(A, square=True)
    real = A.dtype == np.float64 and not xi.imag
    dtype = np.float64 if real else complex
    shift = xi.real if real else xi
    if band:
        kl, ku = A.kl, A.ku
        # gbtrf's storage: kl rows on top of the band take the fill-in of
        # the row interchanges, and the diagonal is row kl + ku
        M = np.zeros((2 * kl + ku + 1, A.shape[0]), dtype=dtype, order="F")
        M[kl:] = A.ab
        M[kl + ku] -= shift
        scale = max(A.scale, abs(xi), 1e-300)
        # an exactly zero pivot (gbtrf's info > 0) fails the check below
        lu, piv, _ = sla.get_lapack_funcs("gbtrf", (M,))(M, kl, ku, overwrite_ab=True)
        pivots = lu[kl + ku]
    else:
        # one n x n buffer: A copied in LAPACK's column order, shifted on the
        # diagonal and factored in place
        M = np.array(A, dtype=dtype, order="F")
        M[np.diag_indices_from(M)] -= shift
        scale = max(np.abs(A).max(), abs(xi), 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(M, overwrite_a=True, check_finite=False)
        pivots = np.diagonal(lu)
    if np.abs(pivots).min(initial=np.inf) < TOL_PIVOT * scale:
        raise SingularShift(f"shift {xi} is numerically an eigenvalue")
    return ShiftedFactorization(shift=xi, lu=(lu, piv), band=(kl, ku) if band else None)


def eval_rational_pf(M, pf):
    """Evaluate a partial-fraction expansion at a square matrix via shifted solves."""
    M = as_array(M, "M", square=True)
    n = M.shape[0]
    I = np.eye(n, dtype=complex)
    F = np.zeros((n, n), dtype=complex)
    if len(pf.poly):
        # Horner on the polynomial part
        F = pf.poly[-1] * I
        for c in pf.poly[-2::-1]:
            F = F @ M + c * I
    for pole, mult, cs in zip(pf.poles, pf.mults, pf.coeffs):
        fac = shifted_factorize(M, pole)
        X = I
        for j in range(1, mult + 1):
            X = fac.solve(X)
            F = F + cs[j - 1] * X
    return F


def funm_small(A, f, hermitian=False):
    """f(A) for a small dense matrix via spectral decomposition.

    Rational kinds go through partial fractions (solves only).  The
    Hermitian path uses ``eigh`` (real eigenvalues, unitary transform); the
    general path an eigenvector similarity whose condition number must stay
    below ``COND_CAP``.  Beyond it the exponential falls back to
    scaling-and-squaring and other kinds raise
    :class:`IllConditionedEigenbasis`.
    """
    A = as_array(A, square=True)
    if f.kind == "identity":
        return A.astype(complex)
    if f.kind == "rational":
        return eval_rational_pf(A, f.fn)
    scale = np.abs(A).max(initial=0.0)
    if hermitian:
        w, Q = np.linalg.eigh(A)
        f.check_spectrum(w, scale)
        # an f that overflows on the spectrum leaves non-finite entries,
        # which the step loop reports as a typed error, not as warnings; an
        # infinite f(w) keeps the complex product, whose NaNs (not the real
        # product's infinities) a later difference takes without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            fw = f.scalar(w)
            if Q.dtype == np.float64 and np.isfinite(fw).all() and not fw.imag.any():
                F = (Q * fw.real) @ Q.T
            else:
                F = (Q * fw) @ Q.conj().T
            if np.abs(fw.imag).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(fw).max()):
                F = 0.5 * (F + F.conj().T)
        return F.astype(complex, copy=False)
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > COND_CAP:
        if f.kind == "exp":
            return sla.expm(A).astype(complex, copy=False)
        raise IllConditionedEigenbasis(
            f"eigenvector condition {cond:.2e} exceeds cap {COND_CAP:.2e}"
        )
    w = w.astype(complex, copy=False)
    f.check_spectrum(w, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        VF = V * f.scalar(w)
    return np.linalg.solve(V.T, VF.T).T


def _coupling_block(A11, A12, A22, f):
    """The (1,2) block of f([[A11, A12], [0, A22]]).

    When f has a divided difference ``f.dd``, it comes from the two diagonal
    blocks' eigendecompositions A11 = V1 diag(lam) V1^{-1} and
    A22 = V2 diag(mu) V2^{-1}:

        F12 = V1 (L o (V1^{-1} A12 V2)) V2^{-1},   L_ij = f[lam_i, mu_j],

    which costs two eigendecompositions at the blocks' sizes in place of one
    of the assembled matrix, and a real one for each ``float64`` block.  For
    real blocks F12 is real (f(conj z) = conj f(z) for every kind with a
    ``dd``), and it is returned with a zero imaginary part.  The assembled
    matrix goes to :func:`funm_small` instead (partial fractions for
    rational kinds, spectral calculus otherwise, with the expm fallback) for
    an f without ``dd`` and when an eigenvector condition of V1 or V2
    exceeds ``COND_CAP``."""
    if f.kind == "identity":
        return A12.astype(complex)
    if not A12.any():
        return np.zeros(A12.shape, dtype=complex)
    if f.dd is not None:
        (lam, V1), (mu, V2) = np.linalg.eig(A11), np.linalg.eig(A22)
        if all(np.linalg.cond(V) <= COND_CAP for V in (V1, V2)):
            # the assembled matrix's scale
            scale = max(np.abs(A).max(initial=0.0) for A in (A11, A12, A22))
            lam, mu = lam.astype(complex, copy=False), mu.astype(complex, copy=False)
            f.check_spectrum(lam, scale)
            f.check_spectrum(mu, scale)
            with np.errstate(over="ignore", invalid="ignore"):
                L = f.dd(lam[:, None], mu[None, :])
                F12 = np.linalg.solve(V2.T, (V1 @ (L * np.linalg.solve(V1, A12 @ V2))).T).T
            if all(A.dtype == np.float64 for A in (A11, A12, A22)):
                return F12.real.astype(complex)
            return F12.astype(complex, copy=False)
    n1, n2 = A12.shape
    Z = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    Z[:n1, :n1] = A11
    Z[:n1, n1:] = A12
    Z[n1:, n1:] = A22
    return funm_small(Z, f, hermitian=False)[:n1, n1:]


def funm_block_triangular(A11, A12, A22, f):
    """The three nonzero blocks of f([[A11, A12], [0, A22]]).

    The diagonal blocks are evaluated directly by :func:`funm_small`; the
    coupling block comes from the assembled matrix.
    """
    A11 = as_array(A11, "A11", square=True)
    A22 = as_array(A22, "A22", square=True)
    A12 = as_array(A12, "A12")
    n1, n2 = A11.shape[0], A22.shape[0]
    if A12.shape != (n1, n2):
        raise ValueError(f"A12 must be {n1}x{n2}, got {A12.shape}")
    F11 = funm_small(A11, f)
    F22 = funm_small(A22, f)
    return F11, _coupling_block(A11, A12, A22, f), F22
