"""Sign-function updates via the squaring trick, and Sylvester solvers.

The sign update sign(A+D) - sign(A) for Hermitian A, D = B J B* is computed
as a rank-2l update of (A^2)^{-1/2} plus a correction term, projected onto

    U_m = basis of q_m(A^2)^{-1} K_m(A^2, [B, A B]),

whose poles live on the negative axis (or at infinity) because A^2 is
positive definite.  Since (A + D)^2 = A^2 + W M W* with W = [B, AB], the
coupling block is a Hermitian difference f(G + U*W M W*U) - f(G), taken
from the small-problem function of :func:`rkupdate.updater.update_hermitian`.

A^2 is never formed.  A product with A^2 is two products with A, and a pole
xi = -s^2 takes one LU of A - i s I: for Hermitian A,
A^2 + s^2 I = (A - i s I)* (A - i s I), so a solve with the adjoint of that
LU followed by a solve with the LU itself applies (A^2 + s^2 I)^{-1}.  A
real or band-stored A thus keeps its storage, and its LUs are complex at
the shift i s.  A + D is never formed, and the stopping estimate takes
no product with A: it comes from the small matrices of the steps.

The same projection applied to the block-diagonal sign embedding of a
Sylvester equation A1 Z - Z A2 + B1 C2* = 0 reduces to a Galerkin method
with two one-sided rational Krylov bases and a small dense Sylvester solve;
both are provided here, the dense kernel via Schur form.  Its usual poles,
the Zolotarev sign poles, are conjugate pairs, which the step loop takes as
paired real steps for real data: the bases and compressions stay real, and
the dense kernel then takes the real Schur forms (quasi-triangular, with
2 x 2 blocks for conjugate eigenvalue pairs) and a real ``?trsyl``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._validation import as_array, is_infinite_pole, real_if_real
from .arnoldi import KrylovBasis, _SquaredCache
from .dense import (TOL_AXIS, _positive_definite, _product, _rcond, norm2, norm2_hermitian,
                    shifted_factorize)
from .errors import CompressedNotSolvable, SingularityOnSpectrum, SingularShift, SpectraIntersect
from .functions import FunctionSpec
from .poles import PolePlan
from .rng import SplitMix64
from .updater import (
    _as_core,
    _check_steps,
    _dense_product,
    _hermitian_difference,
    _padded_difference,
    _rational_krylov,
    _zero_report,
    padded_difference_norm,
)

__all__ = ["sign_update", "SignUpdateResult", "SylvesterProblem",
           "sylvester_dense", "sylvester_solve_krylov", "SylvesterResult"]


@dataclass
class SignUpdateResult:
    """Low-rank factors of the approximate sign update, update = left @ right*.

    The factors and the coupling are complex; the basis of real data is
    ``float64`` (a real A has a real A^2 + s^2 I)."""

    left: np.ndarray
    right: np.ndarray
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

    Builds the block basis U for A^2 seeded with W = [B, AB].  Each step
    passes G = U* A^2 U, U*W and the core M of (A + D)^2 = A^2 + W M W* to
    the small-problem function of :func:`rkupdate.updater.update_hermitian`,
    which returns the coupling X and f(G) for the inverse square root f.
    The update is left @ right* with left = [(A + D) U X, B J] and
    right = [U, U f(G) U*B], and a step's true error (when ``true_update``
    is given) is measured on these same factors.  The run stops when the
    norm of the difference of two steps' updates left @ right* is below tol.
    A numerically singular A or A + D raises :class:`SingularityOnSpectrum`,
    at every n.  A enters only through products and shifted LUs of A
    itself; A^2 and A + D are never formed.
    J must be ell x ell for a B of ell columns, and B = 0 gives the exact
    zero update (no step); A, J and ``true_update`` are checked as in the
    Hermitian mode of :func:`rkupdate.updater.run_update`.

    The step loop is the one of :func:`rkupdate.updater.run_update`: it needs
    m_max >= 1 and d >= 1, evaluates only the steps of the checkpoint
    schedule when ``true_update`` is not given, and a step whose
    compression of A^2 or (A + D)^2 is not numerically positive definite
    (a singularity of f) is retried after one extra step; two consecutive
    failures raise :class:`SingularityOnSpectrum`.
    """
    _check_steps(m_max, d)
    poles = PolePlan.of(plan).expand(m_max)
    _validate_sign_plan(poles)
    cache = _SquaredCache(A)
    n = cache.A.shape[0]
    if true_update is not None:
        true_update = as_array(true_update, "true_update", rows=n, square=True)
    B = as_array(B, "B", rows=n)
    J = _as_core(J, B, cache)
    # a seed with entries of 2^256 or more goes down by a power of two 2^e,
    # and J up by 2^2e: D = B J B* keeps its bits, and so do the scale-free
    # basis, the coupling and the estimates, while B* B, B* A^{-1} B and the
    # estimate's Gram matrix do not overflow; the factors are then those of
    # the scaled seed, whose product keeps its bits
    e = max(int(np.frexp(np.abs(B).max(initial=0.0))[1]) - 256, 0)
    if e:
        B, J = B * np.ldexp(1.0, -e), J * np.ldexp(1.0, e) * np.ldexp(1.0, e)
    basis = KrylovBasis(cache, np.hstack([B, _product(cache.A, B)]))
    if not B.any():
        empty = np.zeros((n, 0), dtype=complex)
        return SignUpdateResult(empty, empty, np.zeros((0, 0), dtype=complex), basis), _zero_report()
    ell = B.shape[1]
    BJ = B @ J

    # A: no tiny pivot of its LU at 0, and a 1-norm condition estimate
    # below 1 / TOL_AXIS from that LU
    try:
        fac = shifted_factorize(cache.A, 0.0)
    except SingularShift:
        fac = None
    if fac is None or _rcond(cache.A, fac) < TOL_AXIS:
        raise SingularityOnSpectrum("A is numerically singular; sign undefined")
    # A + D = A (I + A^{-1} B J B*) is singular exactly when the capacitance
    # matrix I + C, C = J B* A^{-1} B, is: one solve with ell columns, and
    # the smallest singular value of I + C against the norms of its terms
    C = J @ (B.conj().T @ fac.solve(B))
    if np.linalg.svd(np.eye(ell) + C, compute_uv=False)[-1] <= TOL_AXIS * (1 + norm2(C)):
        raise SingularityOnSpectrum("A + D is numerically singular; sign undefined")

    BtB = B.conj().T @ B
    M_core = np.block([[J @ BtB @ J, J], [J, np.zeros_like(J)]])
    f = FunctionSpec.inv_sqrt()

    def evaluate(U):
        """(X, f(G) U*B, K) of a leading basis U; G is exactly Hermitian (the
        cache of a Hermitian A fills it so) and U*W is kept by the basis.
        K = [[G + S, P], [P*, B*B]], S = (U*W) M (U*W)*, P = U*(A + D) B."""
        UW = U.seed_product
        S = UW @ M_core @ UW.conj().T
        X, F_base = _hermitian_difference(U.compression, S, f)
        P = UW[:, ell:] + UW[:, :ell] @ J @ BtB
        K = np.block([[U.compression + S, P], [P.conj().T, BtB]])
        return X, F_base @ UW[:, :ell], K

    def factors(new):
        """([(A + D) U X, B J], [U, U f(G) U*B]) of a step's solution."""
        X, fUB, _ = new
        UX = basis.times(X)
        return (np.hstack([_product(cache.A, UX) + BJ @ (B.conj().T @ UX), BJ]),
                np.hstack([basis.basis, basis.times(fUB)]))

    def estimate(new, old):
        """||left right* - left_old right_old*|| = ||[(A + D) U, B] C U*||
        with C = [dX; J dY*] for the padded differences of X and f(G) U*B;
        its square is the largest eigenvalue of C* K C, K the Gram matrix."""
        (X, fUB, K), (X_old, fUB_old, _) = new, old
        dY = _padded_difference(fUB, fUB_old)
        C = real_if_real(np.vstack([_padded_difference(X, X_old), J @ dY.conj().T]))
        return norm2_hermitian(C.conj().T @ (real_if_real(K) @ C)) ** 0.5

    def true_error(new):
        left, right = factors(new)
        return norm2(true_update - left @ right.conj().T)

    solution, report = _rational_krylov(
        basis, basis, poles, evaluate, estimate, tol=tol, d=d,
        error=true_error if true_update is not None else None,
        every_step=true_update is not None)
    left, right = factors(solution)
    report.final_rank = left.shape[1]
    return SignUpdateResult(left=left, right=right, coupling=solution[0], basis=basis), report


@dataclass(frozen=True)
class SylvesterProblem:
    """A1 Z - Z A2 + B1 C2* = 0 with W(A1), W(-A2) in the open right half-plane.

    ``create`` coerces each matrix by the realness rule of
    :mod:`rkupdate._validation` and checks the numerical ranges, at every n."""

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    C2: np.ndarray

    @classmethod
    def create(cls, A1, A2, B1, C2):
        A1 = as_array(A1, "A1", square=True)
        A2 = as_array(A2, "A2", square=True)
        B1 = as_array(B1, "B1", rows=A1.shape[0])
        C2 = as_array(C2, "C2", rows=A2.shape[0])
        if B1.shape[1] != C2.shape[1]:
            raise ValueError("B1 and C2 must have the same number of columns")
        for M in (A1, -A2):
            # W(M) is in the open right half-plane when the Hermitian part
            # of M has a Cholesky factor
            if not _positive_definite(0.5 * (M + M.conj().T)):
                raise ValueError("numerical ranges must satisfy W(A1), W(-A2) in RHP")
        return cls(A1=A1, A2=A2, B1=B1, C2=C2)


def _schur_eigenvalues(T):
    """The eigenvalues of a Schur form: the diagonal of a triangular T, and
    for a real quasi-triangular T also the conjugate pairs of its 2 x 2
    blocks (LAPACK's standard form, whose diagonal entries are equal)."""
    w = np.diagonal(T).astype(complex)
    i = np.flatnonzero(np.diagonal(T, -1))
    if i.size:
        im = np.sqrt(np.abs(T[i, i + 1])) * np.sqrt(np.abs(T[i + 1, i]))
        w[i] += 1j * im
        w[i + 1] -= 1j * im
    return w


def sylvester_dense(A1, A2, B1C2H):
    """Dense solve of A1 Z - Z A2 + B1C2H = 0 by Schur-form back-substitution.

    The steps, and the bits, of ``scipy.linalg.solve_sylvester(A1, -A2,
    -B1C2H)``: real data (by the realness rule of :mod:`rkupdate._validation`)
    take the real Schur forms and a real ``?trsyl``, all other data the
    complex ones on ``complex128`` copies.  The Schur forms of A1 and of
    (-A2)* also give the spectra, from their diagonals and their 2 x 2
    blocks: the eigenvalues of A1 and minus the conjugate eigenvalues of
    A2.  Raises :class:`SpectraIntersect` when the coefficient spectra are
    closer than 1e-12 (||A1||_F + ||A2||_F).  The solution is
    ``complex128``.
    """
    A1 = as_array(A1, "A1", square=True)
    A2 = as_array(A2, "A2", square=True)
    F = -as_array(B1C2H, "B1C2H", rows=A1.shape[0])
    output = "real" if A1.dtype == A2.dtype == F.dtype == np.float64 else "complex"
    r, u = sla.schur(A1, output=output)
    s, v = sla.schur((-A2).conj().T, output=output)
    w1 = _schur_eigenvalues(r)
    w2 = -_schur_eigenvalues(s).conj()
    sep = np.abs(w1[:, None] - w2[None, :]).min()
    # the Schur forms have the Frobenius norms of A1 and A2
    scale = max(np.linalg.norm(r) + np.linalg.norm(s), 1e-300)
    if sep < 1e-12 * scale:
        raise SpectraIntersect(f"spectra separated by only {sep:.3e}")
    f = u.conj().T @ F @ v
    trsyl, = sla.get_lapack_funcs(("trsyl",), (r, s, f))
    y, factor, info = trsyl(r, s, f, tranb="C")
    if info < 0:
        raise ValueError(f"trsyl rejected argument {-info}")
    return (u @ (factor * y) @ v.conj().T).astype(complex, copy=False)


@dataclass
class SylvesterResult:
    """Low-rank solution Z = left @ core @ right*.

    ``left`` and ``right`` are the two bases, ``float64`` for real data
    with real or infinite poles and conjugate pairs; ``core`` is the last
    step's, complex.  The core of an earlier step is the solution of the
    compressed equation of the bases' leading blocks
    (:meth:`~rkupdate.arnoldi.KrylovBasis.leading`)."""

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray
    basis_left: KrylovBasis
    basis_right: KrylovBasis

    def materialize(self):
        return _dense_product(self.basis_left, self.core, self.basis_right)


def _sylvester_core(U, V):
    """(Z~, ||Z~||) for the core Z~ of G Z~ - Z~ H* + (U*B1)(V*C2)* = 0, the
    compressed equation of bases U and V, whose seed products they keep."""
    try:
        core = sylvester_dense(U.compression, V.compression.conj().T,
                               U.seed_product @ V.seed_product.conj().T)
    except SpectraIntersect as exc:
        raise CompressedNotSolvable(str(exc)) from exc
    return core, norm2(core)


def _norm_estimate(cache):
    """A lower estimate of ||A||_2 for the operator of a cache: eight power
    steps on A* A from a fixed probe."""
    x = SplitMix64(0).signed_uniforms(cache.A.shape[0])[:, None]
    for _ in range(8):
        x = cache.matvec(cache.matvec(x), adjoint=True)
        x /= max(np.linalg.norm(x), 1e-300)
    return float(np.linalg.norm(cache.matvec(x)))


def sylvester_solve_krylov(prob, plan, m_max, tol, d=1):
    """Galerkin rational Krylov solver for A1 Z - Z A2 + B1 C2* = 0.

    Grows bases of q_m(A1)^{-1} K_m(A1, B1) and of the adjoint space of A2
    with the same pole plan, solves the compressed Sylvester equation
    G Z~ - Z~ H* + (U*B1)(V*C2)* = 0 at the steps of the checkpoint
    schedule, at every n, and stops on the relative change of padded Z~
    iterates.  Those steps record ||A1 Z - Z A2 + B1 C2*|| / (s ||Z~||), s a
    power-step estimate of ||A1|| + ||A2||, in O(n k ell).  The step loop,
    with its need for m_max >= 1 and d >= 1, is the one of
    :func:`rkupdate.updater.run_update`.  B1 = 0 or C2 = 0 gives Z = 0.
    """
    _check_steps(m_max, d)
    left = KrylovBasis(prob.A1, prob.B1)
    right = KrylovBasis(prob.A2, prob.C2, adjoint=True)
    if not prob.B1.any() or not prob.C2.any():
        return SylvesterResult(left.basis, np.zeros((0, 0), dtype=complex), right.basis,
                               left, right), _zero_report()
    poles = PolePlan.of(plan).expand(m_max)

    def estimate(new, old):
        return padded_difference_norm(new[0], old[0]) / max(new[1], 1e-300)

    scale = _norm_estimate(left.cache) + _norm_estimate(right.cache)

    def residual(new):
        # The rational Arnoldi relation (Beckermann, SINUM 2011; Druskin and
        # Simoncini, Systems & Control Letters 2011): the next space with an
        # infinite pole holds A1 U and B1, so A1 U = U G + q1 T1* and
        # B1 = U (U*B1) + q1 S1 for the directions q1 that it appends to U,
        # and likewise A2* V = V H + q2 T2* and C2 = V (V*C2) + q2 S2.  Then
        # the residual is [U, q1] M [V, q2]* with M[:k, :k] = 0 (Galerkin),
        # so its norm is that of M, taken down to 2 ell by two thin QRs.
        Z, norm = new
        (q1, T1, S1), (q2, T2, S2) = left._next_directions(), right._next_directions()
        M12 = left.seed_product @ S2.conj().T - Z @ T2
        M21 = T1.conj().T @ Z + S1 @ right.seed_product.conj().T
        R12, R21 = np.linalg.qr(M12, mode="r"), np.linalg.qr(M21.conj().T, mode="r")
        return norm2(np.block([[np.zeros((R12.shape[0], R21.shape[0])), R12],
                               [R21.conj().T, S1 @ S2.conj().T]])) / max(scale * norm, 1e-300)

    (core, _), report = _rational_krylov(left, right, poles, _sylvester_core, estimate,
                                         tol=tol, d=d, error=residual)
    return SylvesterResult(left=left.basis, core=core, right=right.basis,
                           basis_left=left, basis_right=right), report
