"""Independent reference implementations used for testing and comparison.

Dense brute-force updates and the classical and generalized (rational)
Sherman-Morrison formulas.  These are deliberately different code paths
from the Krylov machinery so they can serve as oracles; they are
size-guarded so they cannot be misused at scale.
"""

from dataclasses import dataclass

import numpy as np

from ._validation import as_array
from .dense import funm_small
from .errors import DenominatorZero, MSingular

__all__ = ["dense_update", "sherman_morrison", "bvl_update",
           "HankelCoefficients", "ORACLE_MAX_N"]

ORACLE_MAX_N = 512


def _guard(n):
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracles are limited to n <= {ORACLE_MAX_N}, got {n}")


def dense_update(A, D, f, hermitian=False):
    """Brute force f(A + D) - f(A) by two dense matrix function evaluations."""
    A = as_array(A, square=True)
    D = as_array(D, "D", square=True)
    _guard(A.shape[0])
    if D.shape != A.shape:
        raise ValueError("A and D must have equal shape")
    return funm_small(A + D, f, hermitian=hermitian) - funm_small(A, f, hermitian=hermitian)


def sherman_morrison(A, b, c):
    """The rank-one inverse update -A^{-1} b c* A^{-1} / (1 + c* A^{-1} b)."""
    A = as_array(A, square=True)
    n = A.shape[0]
    _guard(n)
    b = as_array(b, "b", rows=n)
    c = as_array(c, "c", rows=n)
    Ainv_b = np.linalg.solve(A, b)
    cH_Ainv = np.linalg.solve(A.conj().T, c).conj().T
    denom = 1.0 + (cH_Ainv @ b)[0, 0]
    if abs(denom) < 1e-14 * (1.0 + abs((cH_Ainv @ b)[0, 0])):
        raise DenominatorZero("1 + c* A^{-1} b vanished")
    return -(Ainv_b @ cH_Ainv) / denom


@dataclass(frozen=True)
class HankelCoefficients:
    """Numerator/denominator coefficients with their update Hankel matrices.

    For p(z) = sum alpha_i z^i the m x m Hankel matrix has
    H[i, j] = alpha_{i+j+1} (0-based) when the index is within range, else 0;
    anti-diagonals are constant and the top-left entry is alpha_1.
    """

    alpha: tuple
    beta: tuple

    @property
    def m(self):
        return max(len(self.alpha) - 1, len(self.beta) - 1)

    @staticmethod
    def _hankel(coeffs, m):
        H = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                k = i + j + 1
                if k < len(coeffs):
                    H[i, j] = coeffs[k]
        return H

    @property
    def H_alpha(self):
        return self._hankel(self.alpha, self.m)

    @property
    def H_beta(self):
        return self._hankel(self.beta, self.m)


def _polyvalm(coeffs, A):
    n = A.shape[0]
    F = np.zeros((n, n), dtype=complex)
    for c in coeffs[::-1]:
        F = F @ A
        F += c * np.eye(n)
    return F


def bvl_update(A, b, c, coeffs):
    """Generalized Sherman-Morrison for rational functions (rank-one update).

    Returns factors (X, Y) with X Y* = r(A + b c*) - r(A) for
    r = p/q given by ``coeffs``.  Uses the non-orthogonal Krylov bases
    K_m = [b, Ab, ...] and L_m = [c, (A* + c b*) c, ...]; their conditioning
    degrades quickly with m.
    """
    A = as_array(A, square=True)
    n = A.shape[0]
    _guard(n)
    b = as_array(b, "b", rows=n)
    c = as_array(c, "c", rows=n)
    m = coeffs.m
    if m == 0:
        # constant rational function: the update vanishes identically
        return np.zeros((n, 0), dtype=complex), np.zeros((n, 0), dtype=complex)

    K = np.zeros((n, m), dtype=complex)
    K[:, 0:1] = b
    for j in range(1, m):
        K[:, j:j + 1] = A @ K[:, j - 1:j]
    ApH = A.conj().T + c @ b.conj().T
    L = np.zeros((n, m), dtype=complex)
    L[:, 0:1] = c
    for j in range(1, m):
        L[:, j:j + 1] = ApH @ L[:, j - 1:j]

    Y_alpha = L @ coeffs.H_alpha.conj().T
    Y_beta = L @ coeffs.H_beta.conj().T

    qA = _polyvalm(coeffs.beta, A)
    pA = _polyvalm(coeffs.alpha, A)
    rA = np.linalg.solve(qA, pA)
    X = np.linalg.solve(qA, K)
    M = np.eye(m, dtype=complex) + Y_beta.conj().T @ X
    condM = np.linalg.cond(M)
    if not np.isfinite(condM) or condM > 1e14:
        raise MSingular(f"coupling matrix is numerically singular (cond {condM:.2e})")
    YH = Y_alpha.conj().T - np.linalg.solve(M, Y_beta.conj().T @ (rA + X @ Y_alpha.conj().T))
    return X, YH.conj().T

