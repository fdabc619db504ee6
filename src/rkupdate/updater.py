"""Subspace projection for low-rank updates of matrix functions.

Approximates f(A + B C*) - f(A) by U_m X_m(f) V_m* where U_m, V_m are
orthonormal bases of rational block Krylov subspaces for (A, B) and
(A*, C), X_m(f) is the coupling block of f of a small block upper
triangular matrix, and convergence is monitored by the difference of
padded coupling matrices of nested bases.

In the Hermitian mode (A = A*, D = B J B*, conjugate-closed poles) the
right basis aliases the left one and X_m(f) collapses to the difference of
two small Hermitian matrix functions.  Both modes read U*B (and V*C) from
the bases, which keep them as they grow, and a Hermitian A, which the mode
requires and a general-mode A may pass as well, has its compressions
filled Hermitian (see :mod:`rkupdate.arnoldi`).

The step loop is shared with the solvers of :mod:`rkupdate.signsylv`,
which differ only in what they evaluate and how they weigh the
difference of two iterates.  The loop holds no step rule of its own:
whether a pole takes a single step or, on real data, a paired step with
its conjugate is decided by :func:`rkupdate.arnoldi._steps`, which walks
the pole tuple for the loop and for the public basis builders alike.
Since the bases are nested, an earlier step's small problem is that of
the leading blocks of the present bases, so the loop solves a step's
small problem when an estimate first needs it and keeps only the
solutions that a later estimate can still read (:func:`_rational_krylov`).  A run without a dense reference (the
Sylvester solver's, at every n) evaluates only the steps at the checkpoints
of a fixed schedule (:func:`_schedule`), and every estimate it records has
the bits of a run that evaluates every step.  At n = 1e5 with blocks of 4
columns the schedule holds every step up to 150; a gap is at most about n / 6 columns.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._validation import as_array
from .arnoldi import FactorizationCache, KrylovBasis, _steps
from .dense import _binary_scaled, _coupling_block, funm_small, norm2, norm2_hermitian
from .dpr1 import funm_diff_rank1
from .errors import NonFiniteResult, RankDeficient, RKUpdateError, SingularityOnSpectrum
from .poles import PolePlan

__all__ = ["project_update", "update_hermitian", "run_update",
           "padded_difference_norm",
           "UpdateState", "UpdateReport"]


def project_update(left, right, f):
    """Coupling matrix X_m(f) from a pair of bases (general, two-sided form):
    ``left`` of (A, B) and ``right`` of (A*, C), so B and C are their seeds.

    X_m(f) is the (1,2) block of f([[G_m, (U*B)(V*C)*],
                                    [0,   H_m* + (V*B)(V*C)*]]).

    U*B and V*C are the bases' kept seed products; V*B is one pass over V.
    """
    UB = left.seed_product
    VC = right.seed_product
    VB = right.block_product(left.seed)
    E12 = UB @ VC.conj().T
    M22 = right.compression.conj().T + VB @ VC.conj().T
    return _coupling_block(left.compression, E12, M22, f)


def update_hermitian(left, J, f):
    """Coupling matrix in the Hermitian mode:
    X_m(f) = f(G_m + (U*B) J (U*B)*) - f(G_m), for the basis ``left`` of a
    Hermitian A and its seed B.

    The cache of a Hermitian A (``cache.hermitian``) fills the compression
    G_m exactly Hermitian, and U*B is the basis's kept seed product, so
    neither makes a pass over the basis.  For a positive rank-one update
    the difference is evaluated through the secular
    (diagonal-plus-rank-one) decomposition in the eigenbasis of G_m, which
    keeps the difference accurate on badly graded spectra; otherwise the
    two Hermitian matrix functions are formed and subtracted.
    """
    if not left.cache.hermitian:
        raise ValueError("A must be Hermitian")
    UB = left.seed_product
    J = np.asarray(J)
    G = left.compression
    if J.shape == (1, 1) and J[0, 0].real > 0 and abs(J[0, 0].imag) == 0.0 \
            and UB.shape[1] == 1:
        lam, Q = np.linalg.eigh(G)
        w = Q.conj().T @ UB[:, 0]
        # J ||U*B||^2 from U*B scaled by 2^-e, so that a seed of large norm
        # (D unchanged) gives the scale of the unscaled one, not an overflow
        Y, e = _binary_scaled(UB)
        scale = max(np.abs(G).max(initial=0.0), np.ldexp(J[0, 0].real, 2 * e) * norm2(Y) ** 2)

        def checked_f(z):
            # the secular solver maps the base and the updated spectra; where
            # the map is not finite it raises ValueError, and funm_small
            # takes over
            f.check_spectrum(z, scale)
            with np.errstate(over="ignore", invalid="ignore"):
                return f.scalar(z)

        try:
            core = funm_diff_rank1(lam, w, J[0, 0].real, checked_f)
            return Q @ core @ Q.conj().T
        except ValueError:
            pass
    return _hermitian_difference(G, UB @ J @ UB.conj().T, f)[0]


def _hermitian_difference(G, S, f):
    """(f(G + S) - f(G), f(G)) for Hermitian G and S (S is symmetrized here);
    a spectrum outside the domain of f raises :class:`SingularityOnSpectrum`."""
    S = 0.5 * (S + S.conj().T)
    F_plus = funm_small(G + S, f, hermitian=True)
    F_base = funm_small(G, f, hermitian=True)
    return F_plus - F_base, F_base


def _padded_difference(new, old):
    """new - [[old, 0], [0, 0]] for iterates of nested bases; old may be None."""
    D = np.array(new)
    if old is not None and old.size:
        r, c = old.shape
        D[:r, :c] -= old
    return D


def padded_difference_norm(X_new, X_old, hermitian=False):
    """Spectral norm of X_new - [[X_old, 0], [0, 0]] (nested-basis identity).

    With ``hermitian=True`` (square Hermitian iterates) the norm comes from
    the eigenvalues of the difference, not from an SVD."""
    return (norm2_hermitian if hermitian else norm2)(_padded_difference(X_new, X_old))


@dataclass
class UpdateState:
    """Evolving approximation of f(A + BC*) - f(A).

    ``coupling`` is the last step's X_m, complex; that of an earlier step
    is the small problem of the bases' leading blocks
    (:meth:`~rkupdate.arnoldi.KrylovBasis.leading`).  A basis of real data
    is ``float64``, and so is then the right factor of :meth:`factors`."""

    left: KrylovBasis
    right: KrylovBasis
    coupling: np.ndarray

    def materialize(self):
        """Dense U_m X_m V_m* (desk scale only)."""
        return _dense_product(self.left, self.coupling, self.right)

    def factors(self):
        """(U_m X_m, V_m) so that the update is the product of the pair."""
        return self.left.times(self.coupling), self.right.basis


def _dense_product(left, X, right):
    """The dense left.basis @ X @ right.basis* (desk scale), formed as
    (V (U X)*)* by two :meth:`~rkupdate.arnoldi.KrylovBasis.times`, so that
    no ``float64`` basis is cast; the n x n product is conjugated in place."""
    P = right.times(left.times(X).conj().T)
    return np.conjugate(P, out=P).T


@dataclass
class UpdateReport:
    """Per-step record of a run.

    The lists hold one entry per step: ``estimates[k]`` and
    ``true_errors[k]`` (None without a reference) are step k + 1's.  NaN is
    no value: no estimate at the first d steps, and neither value at a step
    retried after a singularity of f, the first step of a paired conjugate
    pair, and, in a run without a dense reference, a step that the step
    loop does not evaluate (see :func:`_rational_krylov`).  Every estimate
    has the bits it has in a run that evaluates every step.  The exact zero
    update takes no step (empty lists), and its summary's final error is 0.
    ``breakdown_step`` is the step whose basis lost rank when a one-basis
    run ended on a lucky breakdown, and None otherwise.
    """

    final_rank: int
    iterations: int
    estimates: list
    true_errors: list = None
    converged: bool = False
    stagnation_warning: bool = False
    poles: tuple = ()
    breakdown_step: int = None

    def summary(self):
        known = [v for v in (self.true_errors or self.estimates) if not math.isnan(v)]
        if not self.iterations:
            known = [0.0]  # the exact zero update
        final = f"{known[-1]:.16e}" if known else "none"
        return (f"converged={str(self.converged).lower()} "
                f"iterations={self.iterations} final_error={final}")


def _schedule(n, ell, bases, steps):
    """The checkpoints of a run without true errors.

    Step j has the dimension ``dim_j = ell * j`` (a paired step counts as
    its two steps), and its Krylov work is about ``bases * n * dim_j * ell``
    flops: a block of ell columns solved, multiplied and orthogonalized
    against dim_j columns of length n, in each of ``bases`` bases.  A step
    c is a checkpoint once the work of the steps since the previous
    checkpoint reaches ``dim_c**3``, the work of the small problem, or the
    bases have grown by n / 6 columns since it, which at desk scale keeps a
    run from going on to where they fill the space; the last step is one.
    """
    checkpoints, work, prev = set(), 0, 0
    for j in range(1, steps + 1):
        dim = ell * j
        work += bases * n * dim * ell
        if work >= dim ** 3 or 6 * (dim - prev) >= n or j == steps:
            checkpoints.add(j)
            work, prev = 0, dim
    return checkpoints


def _rational_krylov(left, right, poles, evaluate, estimate, *, tol, d, error=None,
                     every_step=False):
    """The step loop shared by every solver: one step per pole.

    Each step appends a block for pole xi to ``left`` and, unless ``right``
    is ``left``, to ``right``.  ``evaluate(*leading)`` returns the small
    solution of a step from the bases of that step, the leading blocks of
    the present ones (:meth:`~rkupdate.arnoldi.KrylovBasis.leading`; one
    basis for a one-basis run, else two), ``error(new)``
    (optional) the true error or residual of each evaluated step, and
    ``estimate(new, old)`` the difference between the present solution and
    its partner's: that of the latest step at most d steps earlier that is
    neither a pair's first step nor a failed evaluation, solved when an
    estimate first needs it.  Only the solutions that a later estimate can
    still read are kept.  The run stops once an estimate is at most ``tol``.

    With ``every_step`` (a run with a dense reference), every step is
    evaluated.  Otherwise step m is evaluated when m, or the first step of
    the pair that ends at m, is a checkpoint of :func:`_schedule`, and after
    a failed evaluation.  So no small problem is solved twice, and every
    estimate is the one that a run evaluating every step records.  A step
    that is not evaluated is a gap, NaN in the estimates and the errors.

    When ``evaluate`` hits a singularity of f (transient Ritz values), the
    step is recorded as a gap and the run goes on with one more step; two
    consecutive failures, or a failure at the last pole, re-raise; a
    partner that hits one counts as a failed evaluation.  A solution with a
    non-finite entry raises :class:`NonFiniteResult` before any estimate is
    taken.  A typed error that leaves the run names its step.  The
    factorization caches of both bases are cleared when the run returns or
    raises.

    A one-basis run (``right is left``) whose whole block at step k > 1
    falls in the span of the basis (an ``exhausted`` :class:`RankDeficient`)
    has hit an invariant subspace that contains the seed, so the solution
    of step k - 1 is exact: the run ends there, converged, with
    ``breakdown_step = k`` (a gap at step k - 1 is solved then, with its
    estimate).  Rank loss at step 1, of part of a block, after a failed
    evaluation, or in a two-basis run re-raises, as does "no room" for a
    block wider than the space left, unless none is left.

    The steps are those of :func:`~rkupdate.arnoldi._steps`, which decides
    whether the bases take the pole alone or, on real data, with its
    conjugate as one paired step, whose first step is a gap.  A complex
    pole whose conjugate does not follow (a run may end mid-pair) takes a
    single step, so a run never ends on a gap.  Since partners skip gaps,
    d = 1 has estimates across pairs.  Returns (the last step's solution,
    UpdateReport).
    """
    bases = (left,) if right is left else (left, right)
    steps = _steps(bases, poles)
    # the last checkpoint is at latest the step that fills the smaller basis,
    # past which a run has no room
    checkpoints = None if every_step else _schedule(
        max(left.n, right.n), left.block_size, len(bases),
        min(len(poles), min(left.n, right.n) // left.block_size))
    solved, skipped = {}, set()  # kept solutions by step; steps without one
    estimates, errors = [], []
    converged, breakdown, failures, m = False, None, 0, 0

    def solve(step):
        try:
            new = evaluate(*(b.leading(step) for b in bases))
        except RKUpdateError as exc:
            # no solution; only a singularity of f lets the run go on
            exc.step = exc.step or step
            skipped.add(step)
            raise
        if not all(np.isfinite(a).all() for a in (new if isinstance(new, tuple) else (new,))):
            raise NonFiniteResult(
                f"the small problem of step {step} has non-finite entries", step=step)
        solved[step] = new
        return new

    def partner(step):
        """The solution that the estimate of ``step`` reads, or None; the
        kept solutions before it are dropped, since no later estimate reads
        them."""
        for p in range(step - d, 0, -1):
            if p not in skipped:
                try:
                    old = solved[p] if p in solved else solve(p)
                except SingularityOnSpectrum:
                    continue
                for q in [q for q in solved if q < p]:
                    del solved[q]
                return old
        return None

    try:
        while m < len(poles):
            try:
                taken = len(next(steps))
            except RankDeficient as exc:
                if right is not left or m == 0 or not exc.exhausted or failures:
                    raise
                converged, breakdown = True, m + 1
                break
            m += taken
            if taken == 2:
                # the step of xi has no solution
                skipped.add(m - 1)
                errors.append(math.nan)
                estimates.append(math.nan)
            err = est = math.nan
            if checkpoints is None or failures or {m + 1 - taken, m} & checkpoints:
                try:
                    new = solve(m)
                except SingularityOnSpectrum:
                    failures += 1
                    if failures >= 2 or m == len(poles):
                        raise
                else:
                    failures = 0
                    err = math.nan if error is None else error(new)
                    old = partner(m)
                    est = math.nan if old is None else estimate(new, old)
            errors.append(err)
            estimates.append(est)
            if est <= tol:
                converged = True
                break
        if m not in solved:
            # a lucky breakdown after a gap; the basis is still that of step m
            new, old = solve(m), partner(m)
            estimates[-1] = math.nan if old is None else estimate(new, old)
        final = solved[m]
    except RKUpdateError as exc:
        # a small problem has named its step; this is the step being taken
        exc.step = exc.step or m + 1
        raise
    finally:
        left.cache.clear()
        right.cache.clear()

    known = [e for e in estimates if not math.isnan(e)]
    stagnation = (not converged and len(known) >= 3
                  and known[-2] > 0.95 * known[-3] and known[-1] > 0.95 * known[-2])
    report = UpdateReport(
        final_rank=left.dimension,
        iterations=m,
        estimates=estimates,
        true_errors=errors if error is not None else None,
        converged=converged,
        stagnation_warning=stagnation,
        poles=left.poles_used,
        breakdown_step=breakdown,
    )
    return final, report


def _check_steps(m_max, d):
    """The step counts every solver checks before any n x n work."""
    if m_max < 1 or d < 1:
        raise ValueError("need m_max >= 1 and d >= 1")


def _as_core(J, B, cache):
    """J as the ell x ell core of D = B J B* for a block B of ell columns
    and a Hermitian A (``cache.hermitian``); J must equal J* exactly."""
    J = as_array(J, "J")
    ell = B.shape[1]
    if J.shape != (ell, ell):
        raise ValueError(f"J must be {ell}x{ell}")
    if not np.array_equal(J, J.conj().T):
        raise ValueError("J must be Hermitian")
    if not cache.hermitian:
        raise ValueError("A must be Hermitian")
    return J


def _zero_report():
    """The report of the exact zero update (B = 0 or C = 0): no step."""
    return UpdateReport(final_rank=0, iterations=0, estimates=[], true_errors=[],
                        converged=True)


def run_update(A, B, C=None, *, f, plan, m_max, tol, d=2, J=None, true_update=None):
    """Grow the update approximation until the difference estimator drops
    below tol or m_max steps are reached.

    Hermitian mode is selected by passing J (then D = B J B*, J must be
    ell x ell for a B of ell columns, A must be Hermitian, and the pole plan
    must be closed under conjugation); the general mode takes C with
    D = B C*, which must have B's columns; passing both C and J is an error.
    All of this is checked before any LU (J must equal J* exactly, A by
    the product probe of its cache, ``FactorizationCache.hermitian``), and
    B = 0 (or C = 0) gives the exact zero update.  ``true_update``, a finite
    n x n dense reference for f(A+D)-f(A) (checked before any LU too),
    enables per-step true-error tracking for experiments; in the Hermitian
    mode the error is Hermitian and its norm is taken from its eigenvalues
    (the lower triangle), not from an SVD.

    The estimate recorded at step m is ||X_m - padded X_{m-d}||, an estimate
    of the error at step m-d (in the Hermitian mode from the eigenvalues of
    that Hermitian difference), or against the latest iterate before step
    m-d when step m-d has none (a pair's first step, a failed evaluation);
    it requires nested bases, which the growth by appended blocks
    guarantees.  Without ``true_update`` only the steps at the checkpoints
    of the module's schedule are evaluated, and the other steps record NaN.
    Non-convergence is reported, not raised.
    The step loop is the one :func:`rkupdate.signsylv.sign_update` and
    :func:`rkupdate.signsylv.sylvester_solve_krylov` use, so the three share
    their stopping rule, the need for m_max >= 1 and d >= 1, and the retry:
    when the compressed problem hits a singularity of f (transient Ritz
    values), the step is retried after one extra Arnoldi step, and two
    consecutive failures abort.
    """
    _check_steps(m_max, d)
    cache = FactorizationCache(A)
    n = cache.A.shape[0]
    if true_update is not None:
        true_update = as_array(true_update, "true_update", rows=n, square=True)
    B = as_array(B, "B", rows=n)
    hermitian_mode = J is not None
    if hermitian_mode:
        if C is not None:
            raise ValueError("pass C for the general mode or J for the Hermitian mode, not both")
        J = _as_core(J, B, cache)
        C = B
    else:
        if C is None:
            raise ValueError("general mode needs C (or pass J for the Hermitian mode)")
        C = as_array(C, "C", rows=n)
        if C.shape[1] != B.shape[1]:
            raise ValueError("B and C must have the same number of columns")
    left = KrylovBasis(cache, B)
    right = left if hermitian_mode else KrylovBasis(cache, C, adjoint=True)
    if not (B.any() and C.any()):
        return UpdateState(left, right, np.zeros((0, 0), dtype=complex)), _zero_report()

    plan = PolePlan.of(plan)
    poles = plan.expand(m_max)
    # closure is a property of the plan's pole multiset (one full cycle);
    # a cyclic sweep may stop mid-pair without invalidating the mode
    if hermitian_mode and not plan.conjugate_closed():
        raise ValueError("Hermitian mode requires a conjugate-closed pole plan")

    def evaluate(U, V=None):
        if hermitian_mode:
            return update_hermitian(U, J, f)
        return project_update(U, V, f)

    def estimate(new, old):
        return padded_difference_norm(new, old, hermitian=hermitian_mode)

    def true_error(X):
        E = true_update - _dense_product(left, X, right)
        return norm2_hermitian(E) if hermitian_mode else norm2(E)

    coupling, report = _rational_krylov(
        left, right, poles, evaluate, estimate, tol=tol, d=d,
        error=true_error if true_update is not None else None,
        every_step=true_update is not None)
    return UpdateState(left, right, coupling), report
