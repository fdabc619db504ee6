"""Experiment harness and command-line interface.

Reproduces the three benchmark experiments (inverse square root with a
single repeated pole, with cyclic quasi-optimal poles, and the sign-function
comparison) and runs the updater and the Sylvester solver on user-supplied
Matrix Market files.  Output is CSV with the fixed header
``m,error_true,error_estimate,bound`` plus a one-line summary per run on
standard output; identical config+seed gives bitwise-identical files.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import SpectralWindow, markov_bound_hermitian, sign_update_bound
from .dense import norm2
from .dpr1 import funm_dpr1
from .errors import RKUpdateError
from .functions import FunctionSpec
from .mmio import read_matrix, write_matrix
from .oracles import ORACLE_MAX_N, dense_update
from .poles import (
    PolePlan,
    markov_single_pole,
    quasi_optimal_poles,
    zolotarev_invsqrt_poles,
    zolotarev_sign_poles,
    extended_plan,
    exp_single_pole,
)
from .rng import normal_block
from .signsylv import SylvesterProblem, sign_update, sylvester_solve_krylov
from .updater import run_update

__all__ = ["main", "run_experiment", "run_sylvester",
           "experiment_fig1", "experiment_fig2", "experiment_fig3"]

CSV_HEADER = "m,error_true,error_estimate,bound"


@dataclass
class ExperimentResult:
    name: str
    rows: list                      # (m, err_true, est, bound); NaN: no value
    report: object


def _fmt(x):
    """A CSV cell: empty for a step with no value (NaN)."""
    return "" if math.isnan(x) else f"{float(x):.15e}"


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for m, e_true, e_est, bound in rows:
            fh.write(f"{int(m)},{_fmt(e_true)},{_fmt(e_est)},{_fmt(bound)}\n")


def _rows_from_report(report, bounds=None, m_scale=1):
    """Rows (m, error_true, error_estimate, bound), one per step of the
    report's step-indexed lists, with NaN for a run without a reference or
    a bound.  m is the step times ``m_scale``: only the squared-operator runs
    (fig3 alg4, ``m_scale=2``) count the dimension, two columns per step."""
    steps = report.iterations
    none = [math.nan] * steps
    return list(zip((m * m_scale for m in range(1, steps + 1)),
                    none if report.true_errors is None else report.true_errors,
                    report.estimates, none if bounds is None else bounds, strict=True))


# ----------------------------------------------------------------------
# experiment instances

def _cyclic(poles):
    """The plan that repeats ``poles`` cyclically in Leja order."""
    return PolePlan(poles, repetition="cyclic", ordering="leja")


def _logspace_instance(n, seed):
    """Diagonal matrix with log-spaced eigenvalues on [1e-3, 1e3] and a
    random update vector of norm 100."""
    if n < 4:
        raise ValueError("synthetic experiments need n >= 4")
    lam = np.logspace(-3.0, 3.0, n)
    b = normal_block(seed, n, 1, norm=100.0)
    return lam, b


def _invsqrt_reference(lam, b):
    """High-accuracy dense reference for (A + b b*)^{-1/2} - A^{-1/2} when A
    is diagonal (secular decomposition; a general eigensolver floors near
    1e-8 absolute on this grading)."""
    z = np.real(b.ravel())
    return funm_dpr1(lam, z, 1.0, lambda x: x ** -0.5) - np.diag(lam ** -0.5)


def _invsqrt_instance(n, seed):
    """The fig1/fig2 instance: eigenvalues, update vector, A, and the spectral
    window of A and A + b b*."""
    lam, b = _logspace_instance(n, seed)
    A = np.diag(lam)
    window = SpectralWindow.from_matrices(A, A + np.outer(b.real.ravel(), b.real.ravel()))
    return lam, b, A, window


def _invsqrt_run(name, lam, b, A, window, plan, m_max, tol, d):
    """The inverse square root update of a fig1/fig2 instance with its true
    errors and the Hermitian Markov bound."""
    f = FunctionSpec.inv_sqrt()
    dense = _invsqrt_reference(lam, b)
    state, report = run_update(A, b, f=f, plan=plan, m_max=m_max, tol=tol, d=d,
                               J=np.array([[1.0]]), true_update=dense)
    bounds = markov_bound_hermitian(window, plan, f, report.iterations).values
    return ExperimentResult(name, _rows_from_report(report, bounds=bounds), report)


def experiment_fig1(n=200, seed=1, m_max=160, tol=1e-12, d=2):
    """Single repeated asymptotically optimal pole for the inverse square root."""
    lam, b, A, window = _invsqrt_instance(n, seed)
    pole, _ = markov_single_pole(window, (-np.inf, 0.0))
    plan = _cyclic((pole,))
    return _invsqrt_run("fig1-invsqrt-single-pole", lam, b, A, window, plan, m_max, tol, d)


def experiment_fig2(n=200, seed=6, m_max=60, tol=1e-12, d=2):
    """Ten cyclically repeated quasi-optimal poles in Leja ordering."""
    lam, b, A, window = _invsqrt_instance(n, seed)
    plan = _cyclic(quasi_optimal_poles(window, (-np.inf, 0.0), 10).poles)
    return _invsqrt_run("fig2-invsqrt-quasiopt", lam, b, A, window, plan, m_max, tol, d)


def _sign_instance(n, seed):
    half = max(n // 2, 2)
    lam = np.concatenate([np.linspace(-1.0, -1e-2, half), np.linspace(1e-2, 1.0, half)])
    b = normal_block(seed, 2 * half, 1, norm=1.0)
    return lam, b


def experiment_fig3(n=200, seed=1, m_max=100, tol=1e-8, d=2):
    """Sign-function update: squared-operator algorithm vs direct projection,
    with Zolotarev pole sets of degrees 10 and 2.  Returns one result per
    (algorithm, degree) variant."""
    lam, b = _sign_instance(n, seed)
    A = np.diag(lam)
    z = np.real(b.ravel())
    dense = (funm_dpr1(lam, z, 1.0, lambda x: np.where(x > 0, 1.0, -1.0))
             - np.diag(np.where(lam > 0, 1.0, -1.0)))
    lam_plus = np.linalg.eigvalsh(A + np.outer(z, z))
    norm_plus = float(np.abs(lam_plus).max())  # ||A + b J b*||, J = [[1]]
    gap = _gap(lam, lam_plus)
    sq = np.concatenate([lam ** 2, lam_plus ** 2])
    window2 = SpectralWindow(float(sq.min()), float(sq.max()))
    J = np.array([[1.0]])
    norm_bj, norm_b = norm2(b @ J), norm2(b)
    results = []
    for degree in (10, 2):
        plan4 = _cyclic(zolotarev_invsqrt_poles((window2.lmin, window2.lmax), degree).poles)
        res4, rep4 = sign_update(A, b, J, plan4, m_max=m_max, tol=tol, d=d,
                                 true_update=dense)
        bnd = sign_update_bound(window2, plan4, rep4.iterations, norm_plus, norm_bj,
                                norm_b, FunctionSpec.inv_sqrt()).values
        results.append(ExperimentResult(f"fig3-sign-alg4-deg{degree}",
                                        _rows_from_report(rep4, bounds=bnd, m_scale=2), rep4))

        plan3 = _cyclic(zolotarev_sign_poles(gap, degree).poles)
        state3, rep3 = run_update(A, b, f=FunctionSpec.sign(), plan=plan3,
                                  m_max=m_max, tol=tol, d=d, J=J, true_update=dense)
        results.append(ExperimentResult(f"fig3-sign-alg3-deg{degree}",
                                        _rows_from_report(rep3), rep3))
    return results


def _parse_poles(spec, *, window=None, gap=None, m_max=None):
    """Parse --poles: a file path, or strategy[:params].

    Strategies: ``extended``, ``exp-single``, ``markov-single``,
    ``quasi-optimal:COUNT``, ``zolotarev-invsqrt:DEGREE``,
    ``zolotarev-sign:DEGREE``.  Window-based strategies need a Hermitian
    instance at desk scale.  Multi-pole sets come out Leja-ordered; all
    plans repeat cyclically.  ``window`` and ``gap`` are functions that
    compute the spectral window and the gap, or None for an instance that
    has none; only the strategies that read them call them.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()

    def need(spectrum, instance):
        if spectrum is None:
            raise ValueError(f"{name} poles need a {instance} instance")
        return spectrum()

    if name == "extended":
        return extended_plan()
    if name == "exp-single":
        return exp_single_pole(m_max or 1)
    if name == "markov-single":
        pole, _ = markov_single_pole(need(window, "Hermitian"), (-np.inf, 0.0))
        return _cyclic((pole,))
    if name == "quasi-optimal":
        return _cyclic(quasi_optimal_poles(need(window, "Hermitian"), (-np.inf, 0.0),
                                           int(arg or 10)).poles)
    if name == "zolotarev-invsqrt":
        w = need(window, "Hermitian")
        return _cyclic(zolotarev_invsqrt_poles((w.lmin, w.lmax), int(arg or 10)).poles)
    if name == "zolotarev-sign":
        return _cyclic(zolotarev_sign_poles(need(gap, "Hermitian indefinite"),
                                            int(arg or 10)).poles)
    with open(spec) as fh:
        return PolePlan.from_text(fh.read())


def _gap(*spectra):
    """(min, max) of the moduli of the eigenvalues in ``spectra``."""
    absw = np.abs(np.concatenate(spectra))
    return (float(absw.min()), float(absw.max()))


def experiment_custom(args):
    """Update run on user-supplied Matrix Market matrices."""
    if not (args.matrix_a and args.matrix_b):
        raise ValueError("custom experiments need --matrix-a and --matrix-b")
    if bool(args.matrix_c) == bool(args.matrix_j):
        raise ValueError("custom experiments need exactly one of --matrix-c and --matrix-j")
    A = read_matrix(args.matrix_a)
    B = read_matrix(args.matrix_b)
    J = read_matrix(args.matrix_j) if args.matrix_j else None
    C = read_matrix(args.matrix_c) if args.matrix_c else None
    f = FunctionSpec.from_string(args.function)
    desk = A.shape[0] <= ORACLE_MAX_N
    D = None
    if desk:
        D = B @ J @ B.conj().T if J is not None else B @ C.conj().T

    window = gap = None
    if J is not None and desk:
        # a Hermitian instance: the strategies that read the window or the
        # gap take them from the eigenvalues of A and A + D
        def window():
            return SpectralWindow.from_matrices(A, A + D)

        def gap():
            return _gap(np.linalg.eigvalsh(A), np.linalg.eigvalsh(A + D))

    stopping = {"m_max": 50, "tol": 1e-10, **_given(args, "m_max", "tol", "d")}
    plan = _parse_poles(args.poles, window=window, gap=gap, m_max=stopping["m_max"])
    dense = dense_update(A, D, f, hermitian=J is not None) if desk else None
    state, report = run_update(A, B, C, f=f, plan=plan, J=J, true_update=dense, **stopping)
    rows = _rows_from_report(report)
    if report.iterations == 0:
        rows = [(0, 0.0 if dense is not None else math.nan, 0.0, math.nan)]
    return [ExperimentResult("custom", rows, report)]


def _given(args, *names):
    """The options among ``names`` that were given on the command line; an
    option left out takes the default of the function that reads it."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _figure_args(args):
    """Keyword arguments of a figure experiment: the options that were
    given, so that the others take the experiment's own defaults (for
    --seed its frozen seed)."""
    return _given(args, "n", "seed", "m_max", "tol", "d")


#: experiment -> run, which takes the parsed arguments and returns a list
#: of results
EXPERIMENTS = {
    "fig1-invsqrt-single-pole": lambda args: [experiment_fig1(**_figure_args(args))],
    "fig2-invsqrt-quasiopt": lambda args: [experiment_fig2(**_figure_args(args))],
    "fig3-sign": lambda args: experiment_fig3(**_figure_args(args)),
    "custom": experiment_custom,
}


def run_experiment(args):
    """Dispatch an `update` subcommand invocation; returns exit status.

    A single result is written to --out; several results go to one CSV
    each, named after the --out stem and the variant."""
    if args.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {args.experiment!r}")
    results = EXPERIMENTS[args.experiment](args)
    if len(results) == 1:
        write_csv(args.out, results[0].rows)
        print(results[0].report.summary())
        return 0
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for res in results:
        suffix = res.name.replace(args.experiment, "")
        write_csv(f"{stem}{suffix}.csv", res.rows)
        print(f"{res.name}: {res.report.summary()}")
    return 0


def run_sylvester(args):
    """Dispatch a `sylvester` subcommand invocation; returns exit status."""
    prob = SylvesterProblem.create(
        read_matrix(args.matrix_a1), read_matrix(args.matrix_a2),
        read_matrix(args.matrix_b1), read_matrix(args.matrix_c2))
    plan = _parse_poles(args.poles, m_max=args.m_max,
                        gap=lambda: _gap(np.linalg.eigvals(prob.A1), np.linalg.eigvals(prob.A2)))
    result, report = sylvester_solve_krylov(prob, plan, m_max=args.m_max,
                                            tol=args.tol, d=args.d)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    write_matrix(f"{stem}-left.mtx", result.basis_left.times(result.core))
    write_matrix(f"{stem}-right.mtx", result.right)
    with open(f"{stem}-residuals.csv", "w") as fh:
        fh.write("m,residual,estimate\n")
        for m, res, est, _ in _rows_from_report(report):
            fh.write(f"{m},{_fmt(res)},{_fmt(est)}\n")
    print(report.summary())
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="rkupdate",
                                description="Rational Krylov low-rank updates "
                                            "of matrix functions")
    sub = p.add_subparsers(dest="command", required=True)

    up = sub.add_parser("update", help="run an update experiment")
    up.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    # an option left out takes the experiment's own default
    up.add_argument("--n", type=int, help="size of a figure experiment's instance")
    up.add_argument("--seed", type=int, help="instance seed (frozen per experiment)")
    up.add_argument("--tol", type=float, help="stopping tolerance")
    up.add_argument("--m-max", type=int)
    up.add_argument("--d", type=int)
    up.add_argument("--poles", default="markov-single",
                    help="pole file or strategy[:params]")
    up.add_argument("--function", default="inv-sqrt")
    up.add_argument("--matrix-a")
    up.add_argument("--matrix-b")
    up.add_argument("--matrix-c")
    up.add_argument("--matrix-j")
    up.add_argument("--out", required=True, help="output CSV path")

    sy = sub.add_parser("sylvester", help="solve a Sylvester equation")
    sy.add_argument("--matrix-a1", required=True)
    sy.add_argument("--matrix-a2", required=True)
    sy.add_argument("--matrix-b1", required=True)
    sy.add_argument("--matrix-c2", required=True)
    sy.add_argument("--poles", default="zolotarev-sign:10")
    sy.add_argument("--tol", type=float, default=1e-10)
    sy.add_argument("--m-max", type=int, default=50)
    sy.add_argument("--d", type=int, default=1)
    sy.add_argument("--out", required=True, help="output stem for factors/CSV")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "update":
            return run_experiment(args)
        return run_sylvester(args)
    except (RKUpdateError, ValueError, OSError) as exc:
        print(f"rkupdate: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
