"""Sign-function updates via the squaring trick, and Sylvester solvers.

The sign update sign(A+D) - sign(A) for Hermitian A, D = B J B* is computed
as a rank-2l update of (A^2)^{-1/2} plus a correction term, projected onto

    U_m = basis of q_m(A^2)^{-1} K_m(A^2, [B, A B]),

whose poles live on the negative axis (or at infinity) because A^2 is
positive definite.  The coupling block is evaluated through the Hermitian
difference shortcut on matrices of half the block-triangular size.

The same projection applied to the block-diagonal sign embedding of a
Sylvester equation A1 Z - Z A2 + B1 C2* = 0 reduces to a Galerkin method
with two one-sided rational Krylov bases and a small dense Sylvester solve;
both are provided here, the dense kernel via Schur form.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._validation import as_block, is_infinite_pole, require_square
from .arnoldi import KrylovBasis
from .dense import TOL_AXIS, funm_small, norm2
from .errors import CompressedNotSolvable, IndefiniteSquareWindow, SpectraIntersect
from .functions import FunctionSpec
from .oracles import ORACLE_MAX_N
from .poles import PolePlan
from .updater import _rational_krylov, padded_difference_norm

__all__ = ["sign_update", "SignUpdateResult", "SylvesterProblem",
           "sylvester_dense", "sylvester_solve_krylov", "SylvesterResult"]


@dataclass
class SignUpdateResult:
    """Low-rank factors of the approximate sign update, update = left @ right*. """

    left: np.ndarray
    right: np.ndarray
    f_block: np.ndarray          # approximation of (A^2)^{-1/2} B
    coupling: np.ndarray         # X_m for the inverse square root of A^2
    basis: KrylovBasis

    def materialize(self):
        return self.left @ self.right.conj().T


def _validate_sign_plan(poles):
    for xi in poles:
        if is_infinite_pole(xi):
            continue
        z = complex(xi)
        if z.real >= 0 or abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
            raise ValueError(
                "sign-update poles act on the positive definite A^2 and must be "
                f"negative real or infinite, got {xi}")


def sign_update(A, B, J, plan, m_max, tol, d=2, true_update=None):
    """Approximate sign(A + B J B*) - sign(A) for Hermitian A and J.

    Builds the block basis for A^2 seeded with [B, AB], evaluates the
    inverse-square-root coupling through the Hermitian difference, forms the
    correction term U_m G_m^{-1/2} U_m* B, and stops when the combined
    estimate  ||A+D|| * ||dX|| + ||BJ|| * ||d(G^{-1/2} U*B)||  falls below
    tol.  Invertibility of A and A + D is verified at desk scale.

    The step loop is the one of :func:`rkupdate.updater.run_update`: it needs
    m_max >= 1 and d >= 1, and a step whose compression hits a singularity
    of the inverse square root is retried after one extra step (two
    consecutive failures abort).
    """
    A = require_square(A)
    n = A.shape[0]
    B = as_block(B, n, "B")
    J = np.asarray(J, dtype=complex)
    ell = B.shape[1]
    if J.shape != (ell, ell):
        raise ValueError(f"J must be {ell}x{ell}")
    ApD = A + B @ J @ B.conj().T
    w_ApD = np.linalg.eigvalsh(ApD)
    if n <= ORACLE_MAX_N:
        for w, name in ((np.linalg.eigvalsh(A), "A"), (w_ApD, "A + D")):
            if np.abs(w).min() < TOL_AXIS * max(np.abs(w).max(), 1e-300):
                raise ValueError(f"{name} is numerically singular; sign undefined")
    norm_ApD = float(np.abs(w_ApD).max())      # A + D is Hermitian

    if not isinstance(plan, PolePlan):
        plan = PolePlan(tuple(plan))
    poles = plan.expand(m_max)
    _validate_sign_plan(poles)

    A2 = A @ A
    W = np.hstack([B, A @ B])
    BtB = B.conj().T @ B
    M_core = np.block([[J @ BtB @ J, J], [J, np.zeros_like(J)]])
    norm_BJ = norm2(B @ J)
    f = FunctionSpec.inv_sqrt()
    basis = KrylovBasis(A2, W)

    def evaluate():
        """(X, G^{-1/2} U*B) of the current basis."""
        G = 0.5 * (basis.compression + basis.compression.conj().T)
        wG = np.linalg.eigvalsh(G)
        if wG[0] <= 0.0:
            raise IndefiniteSquareWindow(
                f"compression of A^2 lost positive definiteness at step {basis.steps}")
        UW = basis.block_product(W)
        E = UW @ M_core @ UW.conj().T
        E = 0.5 * (E + E.conj().T)
        wGE = np.linalg.eigvalsh(G + E)
        if wGE[0] <= 0.0:
            raise IndefiniteSquareWindow(
                f"compression of (A+D)^2 lost positive definiteness at step {basis.steps}")
        F_plus = funm_small(G + E, f, hermitian=True)
        F_base = funm_small(G, f, hermitian=True)
        return F_plus - F_base, F_base @ basis.block_product(B)

    def estimate(new, old):
        return (norm_ApD * padded_difference_norm(new[0], old[0])
                + norm_BJ * padded_difference_norm(new[1], old[1]))

    def true_error(new):
        X, fvec_small = new
        U = basis.basis
        upd = ApD @ (U @ X @ U.conj().T) + (B @ J) @ (U @ fvec_small).conj().T
        return norm2(true_update - upd)

    history, report = _rational_krylov(
        basis, basis, poles, evaluate, estimate, tol=tol, d=d,
        error=true_error if true_update is not None else None)
    X, fvec_small = history[-1]
    U = basis.basis
    f_block = U @ fvec_small
    left = np.hstack([ApD @ (U @ X), B @ J])
    right = np.hstack([U, f_block])
    report.final_rank = left.shape[1]
    return SignUpdateResult(left=left, right=right, f_block=f_block,
                            coupling=X, basis=basis), report


@dataclass(frozen=True)
class SylvesterProblem:
    """A1 Z - Z A2 + B1 C2* = 0 with W(A1), W(-A2) in the open right half-plane."""

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    C2: np.ndarray

    @classmethod
    def create(cls, A1, A2, B1, C2):
        A1 = require_square(A1, "A1")
        A2 = require_square(A2, "A2")
        B1 = as_block(B1, A1.shape[0], "B1")
        C2 = as_block(C2, A2.shape[0], "C2")
        if B1.shape[1] != C2.shape[1]:
            raise ValueError("B1 and C2 must have the same number of columns")
        if max(A1.shape[0], A2.shape[0]) <= ORACLE_MAX_N:
            h1 = np.linalg.eigvalsh(0.5 * (A1 + A1.conj().T))
            h2 = np.linalg.eigvalsh(0.5 * (A2 + A2.conj().T))
            if h1[0] <= 0.0 or h2[-1] >= 0.0:
                raise ValueError("numerical ranges must satisfy W(A1), W(-A2) in RHP")
        return cls(A1=A1, A2=A2, B1=B1, C2=C2)


def sylvester_dense(A1, A2, B1C2H):
    """Dense solve of A1 Z - Z A2 + B1C2H = 0 by Schur-form back-substitution.

    Raises :class:`SpectraIntersect` when the coefficient spectra touch.
    """
    A1 = require_square(A1, "A1")
    A2 = require_square(A2, "A2")
    w1 = np.linalg.eigvals(A1)
    w2 = np.linalg.eigvals(A2)
    sep = np.abs(w1[:, None] - w2[None, :]).min()
    scale = max(norm2(A1) + norm2(A2), 1e-300)
    if sep < 1e-12 * scale:
        raise SpectraIntersect(f"spectra separated by only {sep:.3e}")
    return sla.solve_sylvester(A1, -A2, -np.asarray(B1C2H, dtype=complex))


@dataclass
class SylvesterResult:
    """Low-rank solution Z = left @ core @ right*. """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray
    basis_left: KrylovBasis
    basis_right: KrylovBasis
    core_history: list = None

    def materialize(self):
        return self.left @ self.core @ self.right.conj().T


def sylvester_solve_krylov(prob, plan, m_max, tol, d=1):
    """Galerkin rational Krylov solver for A1 Z - Z A2 + B1 C2* = 0.

    Grows bases of q_m(A1)^{-1} K_m(A1, B1) and of the adjoint space of A2
    with the same pole plan, solves the compressed Sylvester equation
    G Z~ - Z~ H* + (U*B1)(V*C2)* = 0 each step, and stops on the relative
    change of padded Z~ iterates.  A dense residual history is recorded at
    desk scale.  The step loop, with its need for m_max >= 1 and d >= 1,
    is the one of :func:`rkupdate.updater.run_update`.
    """
    if not isinstance(plan, PolePlan):
        plan = PolePlan(tuple(plan))
    poles = plan.expand(m_max)
    left = KrylovBasis(prob.A1, prob.B1)
    right = KrylovBasis(prob.A2, prob.C2, adjoint=True)

    def evaluate():
        UB = left.block_product(prob.B1)
        VC = right.block_product(prob.C2)
        try:
            return sylvester_dense(left.compression, right.compression.conj().T,
                                   UB @ VC.conj().T)
        except SpectraIntersect as exc:
            raise CompressedNotSolvable(str(exc)) from exc

    def estimate(Z_small, Z_old):
        return padded_difference_norm(Z_small, Z_old) / max(norm2(Z_small), 1e-300)

    desk_scale = max(prob.A1.shape[0], prob.A2.shape[0]) <= ORACLE_MAX_N
    scale = norm2(prob.A1) + norm2(prob.A2) if desk_scale else None

    def residual(Z_small):
        Z = left.basis @ Z_small @ right.basis.conj().T
        R = prob.A1 @ Z - Z @ prob.A2 + prob.B1 @ prob.C2.conj().T
        return norm2(R) / max(scale * norm2(Z_small), 1e-300)

    history, report = _rational_krylov(left, right, poles, evaluate, estimate, tol=tol, d=d,
                                       error=residual if desk_scale else None)
    result = SylvesterResult(left=left.basis, core=history[-1], right=right.basis,
                             basis_left=left, basis_right=right, core_history=history)
    return result, report
