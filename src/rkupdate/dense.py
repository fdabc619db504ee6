"""Dense linear algebra kernels.

Factorizations, orthonormalization, spectral decompositions and matrix
functions of small matrices.  Everything is dense double precision.
Blocks and small matrices are complex; a shifted factorization is real
when its operator is ``float64`` and its shift real, and its solves then
act on the ``float64`` view of the complex right-hand side.  Hermitian
structure is an explicit flag.  The heavy lifting is delegated to LAPACK
through numpy/scipy; this module owns the contracts (tolerances, error
conditions, fallbacks).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._validation import as_matrix, as_operator, require_square
from .errors import (
    IllConditionedEigenbasis,
    RankDeficient,
    SingularityOnSpectrum,
    SingularShift,
)

__all__ = [
    "TOL_PIVOT", "TOL_DEFLATE", "TOL_AXIS", "COND_CAP",
    "qr_orthonormalize", "shifted_factorize", "ShiftedFactorization",
    "spectral_decompose", "SpectralDecomposition",
    "funm_small", "funm_block_triangular", "eval_rational_pf", "norm2",
    "norm2_hermitian",
]

TOL_PIVOT = 1e-14
TOL_DEFLATE = 1e-12
TOL_AXIS = 1e-12
#: eigenvector condition cap for general-similarity matrix functions
COND_CAP = 1.0 / np.sqrt(np.finfo(float).eps)


def norm2(M):
    """Spectral norm; zero for empty matrices."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def norm2_hermitian(M):
    """Spectral norm of a Hermitian matrix, max |eigenvalue|, without an SVD;
    only the lower triangle is read.  Zero for empty matrices."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def qr_orthonormalize(W, reference_norms=None, step=None):
    """Orthonormal basis of the columns of W with deterministic phases.

    Raises :class:`RankDeficient` when a diagonal entry of R falls below
    ``TOL_DEFLATE`` times the reference column norm (by default the norms of
    W's own columns; callers orthogonalizing against an outer basis pass the
    pre-projection norms so cancellation is detected).
    """
    W = as_matrix(W, "W")
    n, k = W.shape
    if k > n:
        raise ValueError("more columns than rows; cannot orthonormalize")
    if reference_norms is None:
        reference_norms = np.linalg.norm(W, axis=0)
    reference_norms = np.asarray(reference_norms, dtype=float)
    floor = np.finfo(float).tiny + np.finfo(float).eps * max(1.0, reference_norms.max(initial=0.0))
    Q, R = np.linalg.qr(W, mode="reduced")
    rdiag = np.abs(np.diagonal(R))
    bad = rdiag < TOL_DEFLATE * np.maximum(reference_norms, floor)
    if np.any(bad):
        raise RankDeficient(
            f"column {int(np.nonzero(bad)[0][0])} lost rank during orthonormalization",
            step=step,
        )
    # normalize so that R has a real positive diagonal
    phases = np.diagonal(R) / rdiag
    return Q * phases.conj()


@dataclass(frozen=True)
class ShiftedFactorization:
    """LU factorization of A - shift*I, reusable for many right-hand sides.

    The same factorization serves both (A - shift I) X = Y and its adjoint
    (A - shift I)* X = Y, so pole-conjugate systems never need a second LU.
    A real LU solves a complex Y as the real system of its ``float64``
    view, whose columns hold the real and imaginary parts side by side;
    its adjoint is its transpose.
    """

    shift: complex
    lu: tuple
    scale: float

    def solve(self, Y, adjoint=False):
        Y = np.asarray(Y, dtype=complex)
        if self.lu[0].dtype == np.float64:
            Yr = np.ascontiguousarray(Y if Y.ndim == 2 else Y[:, None]).view(np.float64)
            X = sla.lu_solve(self.lu, Yr, trans=1 if adjoint else 0)
            return np.ascontiguousarray(X).view(complex).reshape(Y.shape)
        return sla.lu_solve(self.lu, Y, trans=2 if adjoint else 0)


def shifted_factorize(A, xi):
    """Factor A - xi*I; raises :class:`SingularShift` when xi is (numerically)
    an eigenvalue.

    The LU is real when A has a real dtype and xi a zero imaginary part,
    complex otherwise; A's dtype alone decides (no entry is scanned).
    """
    A = as_operator(A)
    xi = complex(xi)
    real = A.dtype == np.float64 and xi.imag == 0.0
    # one n x n buffer: A copied in LAPACK's column order, shifted on the
    # diagonal and factored in place
    M = np.array(A, dtype=np.float64 if real else complex, order="F")
    M[np.diag_indices_from(M)] -= xi.real if real else xi
    scale = max(np.abs(A).max(), abs(xi), 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(M, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if pivots.min(initial=np.inf) < TOL_PIVOT * scale:
        raise SingularShift(f"shift {xi} is numerically an eigenvalue")
    return ShiftedFactorization(shift=xi, lu=(lu, piv), scale=scale)


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    transform: np.ndarray
    kind: str  # "hermitian-unitary" or "general-similarity"


def spectral_decompose(A, hermitian=False):
    """Eigendecomposition with the invariants the rest of the package relies on.

    Hermitian path: real ascending eigenvalues, unitary transform.  General
    path: similarity transform whose condition number must stay below
    ``COND_CAP`` (otherwise :class:`IllConditionedEigenbasis`).
    """
    A = require_square(A)
    if hermitian:
        w, Q = np.linalg.eigh(A)
        return SpectralDecomposition(w, Q, "hermitian-unitary")
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise IllConditionedEigenbasis(
            f"eigenvector condition {cond:.2e} exceeds cap {COND_CAP:.2e}"
        )
    return SpectralDecomposition(w, V, "general-similarity")


def _check_spectrum(w, kind, scale, hermitian):
    """Domain checks for f on the spectrum; raises SingularityOnSpectrum."""
    tol = TOL_AXIS * max(scale, 1e-300)
    if kind == "sign":
        if np.abs(w.real).min(initial=np.inf) < tol:
            raise SingularityOnSpectrum("eigenvalue too close to the imaginary axis for sign")
    elif kind in ("inv-sqrt", "inv-power"):
        if hermitian:
            if w.real.min(initial=np.inf) < tol:
                raise SingularityOnSpectrum(f"{kind} needs a positive definite spectrum")
        elif w.real.min(initial=np.inf) < tol:
            raise SingularityOnSpectrum(f"{kind} needs eigenvalues with positive real part")
    elif kind == "sqrt":
        if not hermitian and w.real.min(initial=np.inf) < -tol:
            raise SingularityOnSpectrum("sqrt needs eigenvalues off the negative axis")
        if hermitian and w.real.min(initial=np.inf) < -tol:
            raise SingularityOnSpectrum("sqrt of an indefinite Hermitian matrix")
    elif kind == "log1p-over-z":
        if (w.real + 1.0).min(initial=np.inf) < tol:
            raise SingularityOnSpectrum("log(1+z)/z needs spectrum right of -1")


def eval_rational_pf(M, pf):
    """Evaluate a partial-fraction expansion at a square matrix via shifted solves."""
    M = require_square(M, "M")
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
    exponential falls back to scaling-and-squaring when the eigenbasis is
    too ill conditioned; other kinds raise in that case.
    """
    A = require_square(A)
    scale = np.abs(A).max(initial=0.0)
    if f.kind == "identity":
        return A.copy()
    if f.kind in ("rational", "inverse"):
        return eval_rational_pf(A, f.partial_fractions())
    if hermitian:
        w, Q = np.linalg.eigh(A)
        _check_spectrum(w + 0j, f.kind, scale, hermitian=True)
        fw = f.scalar(w + 0j)
        F = (Q * fw) @ Q.conj().T
        if np.abs(fw.imag).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(fw).max()):
            F = 0.5 * (F + F.conj().T)
        return F
    try:
        dec = spectral_decompose(A, hermitian=False)
    except IllConditionedEigenbasis:
        if f.kind == "exp":
            return sla.expm(A)
        raise
    w, V = dec.eigenvalues, dec.transform
    _check_spectrum(w, f.kind, scale, hermitian=False)
    fw = f.scalar(w)
    return np.linalg.solve(V.T, ((V * fw)).T).T


def _coupling_block(A11, A12, A22, f):
    """The (1,2) block of f([[A11, A12], [0, A22]]), from the assembled
    matrix (partial fractions for rational kinds, spectral calculus
    otherwise with the expm fallback)."""
    if f.kind == "identity":
        return A12.copy()
    if norm2(A12) == 0.0:
        return np.zeros_like(A12)
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
    A11 = require_square(A11, "A11")
    A22 = require_square(A22, "A22")
    A12 = as_matrix(A12, "A12")
    n1, n2 = A11.shape[0], A22.shape[0]
    if A12.shape != (n1, n2):
        raise ValueError(f"A12 must be {n1}x{n2}, got {A12.shape}")
    F11 = funm_small(A11, f)
    F22 = funm_small(A22, f)
    return F11, _coupling_block(A11, A12, A22, f), F22
