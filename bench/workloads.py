"""The benchmark's workloads: seeded instances, the calls one pass makes, and
the checks on their outputs.

A workload is a list of cases.  A case is one call into the library, timed
under the case's metric name; a pass makes every call once, one after the
other, in this process.  Building the cases is the set-up.  Each workload
also has reference checks: the same generators at n <= 512, compared with a
dense reference.

Why each workload exists:

- paper-figures: the paper's three experiments through the CLI.  The secular
  solver of the small projected problem leads, then the a priori bounds and
  the n x n true-error SVDs; LU factorizations are a negligible share, so
  this is the workload an operator or factorization change must leave alone.
- many-poles: three library entry points, each cycling through 8-10 distinct poles on
  banded operators stored dense.  LU factorizations lead, and the
  factorization cache serves adjoint reuse (run_update), two unshared
  operators (Sylvester) and the squared operator (sign update).
- one-pole-long: one repeated pole for a long Hermitian run, so one LU serves
  every step and basis growth (matvecs, CGS2, compression) leads; the small
  problem takes the block eigh path, not the secular one.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

import rkupdate.cli as cli
import rkupdate.signsylv as signsylv
import rkupdate.updater as updater
from rkupdate import FunctionSpec, PolePlan, SpectralWindow, SylvesterProblem
from rkupdate.dense import norm2
from rkupdate.oracles import dense_update
from rkupdate.poles import (
    markov_single_pole,
    quasi_optimal_poles,
    zolotarev_invsqrt_poles,
    zolotarev_sign_poles,
)
from rkupdate.rng import normal_block

CSV_HEADER = "m,error_true,error_estimate,bound"

INV_SQRT = FunctionSpec.inv_sqrt()

#: problem sizes; "tiny" is for the smoke test
SIZES = {
    "full": dict(fig_n=100, fig1_m=80, fig2_m=60, fig3_m=32,
                 general_n=1000, sylvester_n=700, sign_n=700, path_n=2000,
                 ref_n=400),
    "tiny": dict(fig_n=40, fig1_m=24, fig2_m=24, fig3_m=16,
                 general_n=160, sylvester_n=120, sign_n=120, path_n=300,
                 ref_n=160),
}

#: final true error of each figure variant must lie in [lo, hi]: the range
#: the seed commit gives over seeds 0-59 and the frozen seeds, widened by at
#: least a decade either side to a power of ten.  The digits themselves may
#: move with a different small-problem solver.
FIGURE_BANDS = {
    "full": {"fig1": (1e-3, 1e0), "fig2": (1e-11, 1e-7),
             "fig3-alg4-deg10": (1e-13, 1e-4), "fig3-alg3-deg10": (1e-8, 1e-3),
             "fig3-alg4-deg2": (1e-13, 1e-6), "fig3-alg3-deg2": (1e-4, 1e0)},
    "tiny": {"fig1": (1e-1, 1e2), "fig2": (1e-6, 1e-2),
             "fig3-alg4-deg10": (1e-11, 1e-4), "fig3-alg3-deg10": (1e-5, 1e-1),
             "fig3-alg4-deg2": (1e-8, 1e-3), "fig3-alg3-deg2": (1e-3, 1e0)},
}

#: largest relative error against the dense references: 10-40x the largest
#: the seed commit gives over seeds 0-11.  The sign update stops on an
#: absolute estimate (tol 1e-8), so its relative error is the largest.
REFERENCE_RTOL = {"run_update": 1e-8, "sylvester": 1e-8, "sign_update": 1e-5}
#: largest relative residual of the full-size Sylvester solution
SYLVESTER_RESIDUAL_RTOL = 1e-8


@dataclass
class Case:
    """One timed call.  ``finish`` maps its result to (steps, digest, failures)."""

    metric: str
    n: int
    call: Callable[[], object]
    finish: Callable[[object], tuple]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _rng(seed, tag):
    """Generator for instance `tag`; without a seed the instances use seed 1."""
    return np.random.default_rng([1 if seed is None else seed, tag])


def _block_seed(rng):
    return int(rng.integers(2**62))


def _tridiagonal(diag, lower, upper):
    """Dense complex matrix with the given bands, built without n x n
    temporaries (they would set the run's peak memory)."""
    n = len(diag)
    A = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    A[i, i] = diag
    A[i[1:], i[:-1]] = lower
    A[i[:-1], i[1:]] = upper
    return A


def _rel(approx, ref):
    return norm2(approx - ref) / norm2(ref)


# ----------------------------------------------------------------------
# paper-figures

FIGURES = (
    # metric, experiment, output stem, variants
    ("fig1_s", "fig1-invsqrt-single-pole", "fig1", ("fig1",)),
    ("fig2_s", "fig2-invsqrt-quasiopt", "fig2", ("fig2",)),
    ("fig3_s", "fig3-sign", "fig3",
     ("fig3-alg4-deg10", "fig3-alg3-deg10", "fig3-alg4-deg2", "fig3-alg3-deg2")),
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _parse_summaries(stdout, stem, variants):
    """{variant: iterations} from the CLI's summary lines."""
    its = {}
    for line in stdout.splitlines():
        label, _, summary = line.rpartition(": ")
        fields = dict(kv.split("=", 1) for kv in summary.split())
        variant = label.replace("fig3-sign", stem) if label else variants[0]
        its[variant] = int(fields["iterations"])
    return its


def _figure_case(metric, experiment, stem, variants, m_max, sizes, seed, workdir):
    out = os.path.join(workdir, f"{stem}.csv")
    # tol 0: every variant runs exactly m_max steps, so the work of a pass
    # does not depend on the seed
    argv = ["update", "--experiment", experiment, "--n", str(sizes["fig_n"]),
            "--m-max", str(m_max), "--tol", "0", "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    bands = FIGURE_BANDS[sizes["name"]]

    def finish(result):
        rc, stdout = result
        if rc != 0:
            return 0, "", [f"{experiment} exited with status {rc}"]
        failures = []
        its = _parse_summaries(stdout, stem, variants)
        h = hashlib.sha256(stdout.encode())
        for variant in variants:
            with open(os.path.join(workdir, f"{variant}.csv"), "rb") as fh:
                data = fh.read()
            h.update(data)
            lines = data.decode().splitlines()
            if lines[0] != CSV_HEADER:
                failures.append(f"{variant}: header {lines[0]!r}")
            if len(lines) - 1 != its.get(variant):
                failures.append(f"{variant}: {len(lines) - 1} rows, "
                                f"{its.get(variant)} iterations")
            final = float(lines[-1].split(",")[1])
            lo, hi = bands[variant]
            if not lo <= final <= hi:
                failures.append(f"{variant}: final true error {final:.3e} "
                                f"outside [{lo:.0e}, {hi:.0e}]")
        return sum(its.values()), h.hexdigest(), failures

    return Case(metric, sizes["fig_n"], lambda: _run_cli(argv), finish)


def paper_figures(sizes, seed, workdir):
    return [_figure_case(metric, experiment, stem, variants,
                         sizes[f"{stem}_m"], sizes, seed, workdir)
            for metric, experiment, stem, variants in FIGURES]


# ----------------------------------------------------------------------
# instance generators shared by many-poles, one-pole-long and their checks

def nonnormal_instance(n, seed):
    """Upper-bidiagonal A with log-spaced diagonal on [1e-2, 1e2], rank-2
    B, C, and 10 quasi-optimal poles in Leja order.

    By Gershgorin the Hermitian part of A is at least 0.7 * 1e-2, and
    ||B C*|| <= 0.05**2, so A and A + B C* keep their numerical ranges in
    Re z >= 4e-3, where the inverse square root is analytic.
    """
    rng = _rng(seed, 1)
    lam = np.logspace(-2.0, 2.0, n)
    A = _tridiagonal(lam, 0.0, 0.3 * lam[:-1])
    B = normal_block(_block_seed(rng), n, 2, norm=0.05)
    C = normal_block(_block_seed(rng), n, 2, norm=0.05)
    window = SpectralWindow(4e-3, 1.4e2)
    plan = PolePlan(quasi_optimal_poles(window, (-np.inf, 0.0), 10).poles,
                    repetition="cyclic", ordering="leja")
    return A, B, C, plan


def sylvester_instance(n, seed):
    """A1 upper bidiagonal on [0.1, 10], A2 minus a lower-bidiagonal one on
    1.37 * [0.1, 10], rank-2 right-hand side, 8 Zolotarev sign poles on
    (0.05, 30), which encloses both numerical ranges."""
    rng = _rng(seed, 2)
    lam = np.logspace(-1.0, 1.0, n)
    mu = 1.37 * lam
    A1 = _tridiagonal(lam, 0.0, 0.3 * lam[:-1])
    A2 = _tridiagonal(-mu, -0.3 * mu[:-1], 0.0)
    B1 = normal_block(_block_seed(rng), n, 2)
    C2 = normal_block(_block_seed(rng), n, 2)
    plan = PolePlan(zolotarev_sign_poles((0.05, 30.0), 8).poles,
                    repetition="cyclic", ordering="leja")
    return SylvesterProblem.create(A1, A2, B1, C2), plan


def sign_instance(n, seed):
    """Indefinite diagonal A on [-1, -1e-2] u [1e-2, 1], D = B J B* with
    J = diag(1, -1), and 10 Zolotarev inverse-square-root poles.

    ||D|| <= ||B||_F**2 = 4e-4, so by Weyl the squared spectra of A and
    A + D lie in (0.9e-4, 1.3), the poles' interval.
    """
    rng = _rng(seed, 3)
    half = n // 2
    lam = np.concatenate([-np.linspace(1.0, 1e-2, half), np.linspace(1e-2, 1.0, n - half)])
    A = _tridiagonal(lam, 0.0, 0.0)
    B = normal_block(_block_seed(rng), n, 2, norm=0.02)
    J = np.diag([1.0, -1.0])
    plan = PolePlan(zolotarev_invsqrt_poles((0.9e-4, 1.3), 10).poles,
                    repetition="cyclic", ordering="leja")
    return A, B, J, plan


def path_instance(n, seed):
    """Shifted path-graph Laplacian L + 1e-2 I and a rank-4 edge-weight
    change D = B J B*, J = 0.5 I: four new edges between distinct random
    nodes.  The spectrum of L lies in [0, 4] and ||D|| = 1, so one Markov
    pole for the window [1e-2, 5.01] serves the whole run."""
    rng = _rng(seed, 4)
    degree = np.r_[1.0, np.full(n - 2, 2.0), 1.0]
    A = _tridiagonal(degree + 1e-2, -1.0, -1.0)
    ends = rng.choice(n, size=8, replace=False).reshape(4, 2)
    B = np.zeros((n, 4), dtype=complex)
    for j, (p, q) in enumerate(ends):
        B[p, j], B[q, j] = 1.0, -1.0
    J = 0.5 * np.eye(4)
    pole, _ = markov_single_pole(SpectralWindow(1e-2, 5.01), (-np.inf, 0.0))
    return A, B, J, PolePlan((pole,), repetition="cyclic")


def _converged(report, label):
    return [] if report.converged else [f"{label}: not converged after "
                                        f"{report.iterations} steps"]


def _run_update_general(A, B, C, plan):
    return updater.run_update(A, B, C, f=INV_SQRT, plan=plan, m_max=80, tol=1e-10)


def _run_sylvester(prob, plan):
    return signsylv.sylvester_solve_krylov(prob, plan, m_max=80, tol=1e-10)


def _run_sign(A, B, J, plan):
    return signsylv.sign_update(A, B, J, plan, m_max=80, tol=1e-8)


def _run_update_hermitian(A, B, J, plan):
    return updater.run_update(A, B, f=INV_SQRT, plan=plan, m_max=150, tol=1e-10, J=J)


def _finish_update(label):
    def finish(result):
        state, report = result
        arrays = [state.coupling, state.left.basis]
        if state.right is not state.left:
            arrays.append(state.right.basis)
        return (report.iterations, _digest(*arrays, report.estimates),
                _converged(report, label))
    return finish


def _lowrank_norm(P, Q):
    """||P Q*||_2 from the triangular factors of P and Q."""
    return norm2(np.linalg.qr(P, mode="r") @ np.linalg.qr(Q, mode="r").conj().T)


def _bands_times(diag, upper, X):
    """(diag(diag) + diag(upper, 1)) @ X in O(n k)."""
    Y = diag[:, None] * X
    Y[:-1] += upper[:, None] * X[1:]
    return Y


def sylvester_residual(prob, result):
    """||A1 Z - Z A2 + B1 C2*|| / ||B1 C2*|| with Z = L R*, from the factors
    only: the residual is [A1 L, -L, B1] [R, A2* R, C2]*."""
    L = result.left @ result.core
    R = result.right
    A1L = _bands_times(np.diagonal(prob.A1), np.diagonal(prob.A1, 1), L)
    A2HR = _bands_times(np.diagonal(prob.A2).conj(), np.diagonal(prob.A2, -1).conj(), R)
    P = np.hstack([A1L, -L, prob.B1])
    Q = np.hstack([R, A2HR, prob.C2])
    return _lowrank_norm(P, Q) / _lowrank_norm(prob.B1, prob.C2)


def _finish_sylvester(prob):
    def finish(result):
        res, report = result
        failures = _converged(report, "sylvester")
        rel = sylvester_residual(prob, res)
        if not rel <= SYLVESTER_RESIDUAL_RTOL:
            failures.append(f"sylvester: relative residual {rel:.3e}")
        return report.iterations, _digest(res.left, res.core, res.right), failures
    return finish


def _finish_sign(result):
    res, report = result
    return report.iterations, _digest(res.left, res.right), _converged(report, "sign_update")


def many_poles(sizes, seed, workdir):
    A, B, C, plan = nonnormal_instance(sizes["general_n"], seed)
    prob, splan = sylvester_instance(sizes["sylvester_n"], seed)
    As, Bs, Js, zplan = sign_instance(sizes["sign_n"], seed)
    return [
        Case("run_update_s", A.shape[0], lambda: _run_update_general(A, B, C, plan),
             _finish_update("run_update")),
        Case("sylvester_s", prob.A1.shape[0], lambda: _run_sylvester(prob, splan),
             _finish_sylvester(prob)),
        Case("sign_update_s", As.shape[0], lambda: _run_sign(As, Bs, Js, zplan),
             _finish_sign),
    ]


def one_pole_long(sizes, seed, workdir):
    A, B, J, plan = path_instance(sizes["path_n"], seed)
    return [Case("run_update_s", A.shape[0], lambda: _run_update_hermitian(A, B, J, plan),
                 _finish_update("run_update"))]


CASES = {"paper-figures": paper_figures, "many-poles": many_poles,
            "one-pole-long": one_pole_long}


def build(workload, size, seed, workdir):
    """The cases of one pass: the benchmark's set-up."""
    sizes = dict(SIZES[size], name=size)
    return CASES[workload](sizes, seed, workdir)


# ----------------------------------------------------------------------
# reference checks at n <= 512

def _compare(label, report, approx, ref):
    rel = _rel(approx, ref)
    failures = _converged(report, label)
    if not rel <= REFERENCE_RTOL[label]:
        failures.append(f"{label}: relative error {rel:.3e} against the reference")
    return rel, failures


def _check_nonnormal(n, seed):
    A, B, C, plan = nonnormal_instance(n, seed)
    state, report = _run_update_general(A, B, C, plan)
    I = np.eye(n)
    ref = (np.linalg.solve(sla.sqrtm(A + B @ C.conj().T), I)
           - np.linalg.solve(sla.sqrtm(A), I))
    return _compare("run_update", report, state.materialize(), ref)


def _check_sylvester(n, seed):
    prob, plan = sylvester_instance(n, seed)
    res, report = _run_sylvester(prob, plan)
    ref = signsylv.sylvester_dense(prob.A1, prob.A2, prob.B1 @ prob.C2.conj().T)
    return _compare("sylvester", report, res.materialize(), ref)


def _check_sign(n, seed):
    A, B, J, plan = sign_instance(n, seed)
    res, report = _run_sign(A, B, J, plan)
    w, V = np.linalg.eigh(A + B @ J @ B.conj().T)
    ref = (V * np.sign(w)) @ V.conj().T - np.diag(np.sign(np.diagonal(A).real))
    return _compare("sign_update", report, res.materialize(), ref)


def _check_hermitian(n, seed):
    A, B, J, plan = path_instance(n, seed)
    state, report = _run_update_hermitian(A, B, J, plan)
    ref = dense_update(A, B @ J @ B.conj().T, INV_SQRT, hermitian=True)
    return _compare("run_update", report, state.materialize(), ref)


REFERENCES = {
    "paper-figures": (),
    "many-poles": (("run_update-vs-sqrtm", _check_nonnormal),
                   ("sylvester-vs-dense", _check_sylvester),
                   ("sign_update-vs-eigh", _check_sign)),
    "one-pole-long": (("run_update-vs-dense_update", _check_hermitian),),
}


def reference_checks(workload, size, seed):
    """[(label, check)]: check() returns (relative error, failures)."""
    n = SIZES[size]["ref_n"]
    return [(label, lambda fn=fn: fn(n, seed)) for label, fn in REFERENCES[workload]]
