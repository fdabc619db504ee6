"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to see
them live).  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from rkupdate.bounds import SpectralWindow, markov_bound_hermitian
from rkupdate.cli import (_invsqrt_instance, _invsqrt_reference, experiment_fig1, experiment_fig2,
                          experiment_fig3)
from rkupdate.dense import funm_block_triangular, funm_small, norm2, norm2_hermitian
from rkupdate.functions import FunctionSpec, PartialFractions
from rkupdate.oracles import dense_update, sherman_morrison
from rkupdate.poles import INF, PolePlan, markov_single_pole, zolotarev_sign_poles
from rkupdate.signsylv import SylvesterProblem, sylvester_dense, sylvester_solve_krylov
from rkupdate.updater import padded_difference_norm, run_update

from conftest import core_at, coupling_at, max_principal_angle, rand_complex, random_hermitian
from curves import detect_superlinear_departure, fit_linear_rate


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ----------------------------------------------------------------------
def _random_rational_trial(seed):
    """One exactness trial: instance + rational function matched to the plan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 51))
    ell = int(rng.integers(1, 3))
    m = int(rng.integers(1, 7))
    A = rand_complex(rng, n, n)
    A /= norm2(A)
    B = 0.3 * rand_complex(rng, n, ell)
    C = 0.3 * rand_complex(rng, n, ell)

    poles = []
    finite_pool = []
    for _ in range(m):
        r = rng.random()
        if r < 0.25:
            poles.append(INF)
        elif finite_pool and r < 0.55:
            poles.append(finite_pool[int(rng.integers(0, len(finite_pool)))])
        else:
            xi = (2.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            poles.append(complex(xi))
            finite_pool.append(complex(xi))
    n_inf = sum(1 for p in poles if p is INF)

    # partial fractions matched to the finite poles, polynomial part up to
    # the infinite-pole multiplicity
    groups = {}
    for p in poles:
        if p is not INF:
            groups[p] = groups.get(p, 0) + 1
    poly = [0.3 * rng.standard_normal() * 0.5**k for k in range(n_inf + 1)]
    pf = PartialFractions(
        poly=tuple(poly),
        poles=tuple(groups),
        mults=tuple(groups.values()),
        coeffs=tuple(
            tuple((rng.standard_normal() + 1j * rng.standard_normal())
                  * (abs(p) - 1.2) ** j for j in range(1, mult + 1))
            for p, mult in groups.items()),
    )
    f = FunctionSpec.rational(pf)
    return A, B, C, poles, m, f


def test_criterion_1_exactness_suite():
    t0 = time.monotonic()
    worst = 0.0
    trials = 0
    seed = 0
    while trials < 100:
        seed += 1
        A, B, C, poles, m, f = _random_rational_trial(seed)
        dense = dense_update(A, B @ C.conj().T, f)
        if norm2(dense) < 1e-6:
            continue
        state, rep = run_update(A, B, C, f=f, plan=poles, m_max=m, tol=0.0, d=1)
        err = norm2(state.materialize() - dense) / norm2(dense)
        worst = max(worst, err)
        trials += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, "exactness suite", ok,
            f"worst rel err {worst:.2e} over {trials} trials in {elapsed:.1f}s")


def test_criterion_2_sherman_morrison():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        A = rand_complex(rng, 20, 20) + 4 * np.eye(20)
        b = rand_complex(rng, 20, 1)
        c = rand_complex(rng, 20, 1)
        state, _ = run_update(A, b, c, f=FunctionSpec.inverse(), plan=[0.0],
                              m_max=1, tol=0.0, d=1)
        sm = sherman_morrison(A, b, c)
        worst = max(worst, norm2(state.materialize() - sm) / norm2(sm))
    ok = worst <= 1e-12
    _report(2, "Sherman-Morrison reproduction", ok, f"worst rel err {worst:.2e}")


def test_criterion_3_fig1_reproduction():
    t0 = time.monotonic()
    res = experiment_fig1(n=200, seed=1, m_max=160, tol=0.0)
    elapsed = time.monotonic() - t0
    errs = np.array([r[1] for r in res.rows])
    bounds = np.array([r[3] for r in res.rows])
    lam, _, _, window = _invsqrt_instance(200, 1)
    _, rate = markov_single_pole(window, (-np.inf, 0.0))
    rate_ref = 0.9651
    fitted = fit_linear_rate(errs, float(np.max(lam ** -0.5)))
    dep = detect_superlinear_departure(errs, rate)
    ok_rate = abs(fitted - rate_ref) <= 0.10 * rate_ref
    ok_env = bool(np.all(errs <= bounds))
    ok_dep = dep is not None and 100 <= dep <= 140
    ok_time = elapsed < 60.0
    ok = ok_rate and ok_env and ok_dep and ok_time
    _report(3, "fig1 single-pole reproduction", ok,
            f"fitted {fitted:.4f} vs {rate_ref} (instance {rate:.4f}), "
            f"departure m={dep}, below-envelope={ok_env}, {elapsed:.1f}s")


def test_criterion_4_fig2_reproduction():
    res = experiment_fig2(n=200, seed=6, m_max=60, tol=0.0)
    lam, b, _, w = _invsqrt_instance(200, 6)
    errs = np.array([r[1] for r in res.rows]) / norm2_hermitian(_invsqrt_reference(lam, b))
    run_min = np.minimum.accumulate(errs)
    first = next((m for m in range(1, len(errs) + 1) if errs[m - 1] <= 1e-10), None)
    ok_cross = first is not None and first <= 60
    ok_monotone = bool(np.all(np.diff(run_min) <= 0))
    ratio = w.lmax / w.lmin
    per_cycle_bound = 2.0 * math.exp(-10 * math.pi**2 / math.log(16.0 * ratio))
    measured = (run_min[39] / run_min[9]) ** (1.0 / 3.0)
    consistent = per_cycle_bound / 4.0 <= measured <= per_cycle_bound * 4.0
    ok = ok_cross and ok_monotone and consistent
    _report(4, "fig2 quasi-optimal reproduction", ok,
            f"1e-10 at m={first}, per-cycle {measured:.3e} vs bound "
            f"{per_cycle_bound:.3e} (ratio {measured / per_cycle_bound:.2f})")


def test_criterion_5_fig3_reproduction():
    results = experiment_fig3(n=200, seed=1, m_max=100, tol=1e-8)
    crossings = {}
    for res in results:
        ms = [r[0] for r in res.rows]
        es = [r[1] for r in res.rows]
        crossings[res.name] = next(
            (ms[i] for i in range(len(es)) if es[i] is not None and es[i] <= 1e-6), None)
    c = crossings
    ok4_10 = c["fig3-sign-alg4-deg10"] is not None and 21 <= c["fig3-sign-alg4-deg10"] <= 27
    ok3_10 = c["fig3-sign-alg3-deg10"] is not None and 31 <= c["fig3-sign-alg3-deg10"] <= 37
    ok4_2 = c["fig3-sign-alg4-deg2"] is not None and 39 <= c["fig3-sign-alg4-deg2"] <= 49
    # alg3-deg2 converges slowly: its Galerkin error, computed from a
    # 40-digit basis of the same space, is 1.0009e-6 at m = 78 and 5.703e-7
    # at m = 80.  A single-step complex basis drifts away from that space
    # (it stops being conjugate-closed) and stagnates near 3e-3 instead.
    ok3_2 = c["fig3-sign-alg3-deg2"] is not None and 76 <= c["fig3-sign-alg3-deg2"] <= 84
    ok = ok4_10 and ok3_10 and ok4_2 and ok3_2
    _report(5, "fig3 sign-update reproduction", ok,
            f"crossings {c} (bands 24+-3, 34+-3, 44+-5, 80+-4)")


def test_criterion_6_sylvester_equivalence():
    worst_sol = 0.0
    worst_galerkin = 0.0
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 31))
        R1 = 0.5 * rand_complex(rng, n, n)
        R2 = 0.5 * rand_complex(rng, n, n)
        # shift each coefficient just past its Hermitian part: stability by construction
        s1 = abs(np.linalg.eigvalsh(0.5 * (R1 + R1.conj().T))[0]) + 0.5 + rng.random()
        s2 = abs(np.linalg.eigvalsh(0.5 * (R2 + R2.conj().T))[-1]) + 0.5 + rng.random()
        A1 = R1 + s1 * np.eye(n)
        A2 = R2 - s2 * np.eye(n)
        B1 = rand_complex(rng, n, 1)
        C2 = rand_complex(rng, n, 1)
        prob = SylvesterProblem.create(A1, A2, B1, C2)
        absw = np.concatenate([np.abs(np.linalg.eigvals(A1)), np.abs(np.linalg.eigvals(A2))])
        plan = PolePlan(zolotarev_sign_poles((absw.min(), absw.max()), 4).poles,
                        repetition="cyclic", ordering="leja")
        result, report = sylvester_solve_krylov(prob, plan, m_max=n, tol=0.0, d=1)
        Z = result.materialize()
        Z_dense = sylvester_dense(A1, A2, B1 @ C2.conj().T)
        K = np.kron(np.eye(n), A1) - np.kron(A2.T, np.eye(n))
        z = np.linalg.solve(K, -(B1 @ C2.conj().T).reshape(-1, order="F"))
        Z_kron = z.reshape(n, n, order="F")
        ref = max(norm2(Z_dense), 1e-30)
        worst_sol = max(worst_sol, norm2(Z - Z_dense) / ref, norm2(Z - Z_kron) / ref)
        scale = norm2(A1) + norm2(A2)
        for k in range(1, report.iterations + 1):
            Zk = core_at(result, k)
            U = result.basis_left.basis[:, :k]
            V = result.basis_right.basis[:, :k]
            Zfull = U @ Zk @ V.conj().T
            G = norm2(U.conj().T @ (A1 @ Zfull - Zfull @ A2 + B1 @ C2.conj().T) @ V)
            worst_galerkin = max(worst_galerkin, G / (scale * max(norm2(Zk), 1.0)))
    ok = worst_sol <= 1e-9 and worst_galerkin <= 1e-11
    _report(6, "Sylvester equivalence", ok,
            f"worst solution err {worst_sol:.2e}, worst Galerkin {worst_galerkin:.2e}")


def test_criterion_7_bound_validity_sweep():
    catalog = [FunctionSpec.inv_sqrt(), FunctionSpec.inv_power(0.25),
               FunctionSpec.inv_power(0.75), FunctionSpec.log1p_over_z()]
    violations = 0
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(30, 61))
        lmin = 10.0 ** rng.uniform(-2.5, -0.5)
        lmax = rng.uniform(2.0, 30.0)
        A, _ = random_hermitian(rng, n, lmin, lmax)
        B = 0.3 * rand_complex(rng, n, 1)
        D = B @ B.conj().T
        window = SpectralWindow.from_matrices(A, A + D)
        for f in catalog:
            pole, _ = markov_single_pole(window, f.markov_support)
            plan = PolePlan((pole,), repetition="cyclic")
            dense = dense_update(A, D, f, hermitian=True)
            norm_fA = norm2(funm_small(A, f, hermitian=True))
            state, rep = run_update(A, B, f=f, plan=plan, m_max=15, tol=0.0, d=2,
                                    J=np.array([[1.0]]), true_update=dense)
            bounds = markov_bound_hermitian(window, plan, f, rep.iterations).values
            for err, bnd in zip(rep.true_errors, bounds):
                if err < 1e-13 * norm_fA:
                    break
                checked += 1
                if err > bnd:
                    violations += 1
    ok = violations == 0 and checked > 500
    _report(7, "Markov bound validity sweep", ok,
            f"{violations} violations over {checked} comparisons")


def _poly_block_span(A, W, m):
    """Orthonormal basis of K_m(A, W) built by power-orthogonalization
    (stable oracle construction, plain numpy)."""
    Q, _ = np.linalg.qr(W)
    cols = [Q]
    cur = Q
    for _ in range(m - 1):
        cur = A @ cur
        for prev in cols:
            cur = cur - prev @ (prev.conj().T @ cur)
        for prev in cols:
            cur = cur - prev @ (prev.conj().T @ cur)
        cur, _ = np.linalg.qr(cur)
        cols.append(cur)
    return np.hstack(cols)


def test_criterion_8_subspace_identity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(12, 61))
        m = int(rng.integers(1, 6))
        half = n // 2
        lam = np.concatenate([
            -np.sort(rng.uniform(0.3, 3.0, half)),
            np.sort(rng.uniform(0.3, 3.0, n - half))])
        Q, _ = np.linalg.qr(rand_complex(rng, n, n))
        A = (Q * lam) @ Q.conj().T
        A = 0.5 * (A + A.conj().T)
        B = rand_complex(rng, n, 1)
        poles = [-float(10.0 ** rng.uniform(-1, 0.6)) for _ in range(m)]
        if m >= 2 and rng.random() < 0.4:
            poles[-1] = INF
        A2 = A @ A
        I = np.eye(n, dtype=complex)

        def apply_qinv(S):
            # one factored solve per pole, re-orthonormalizing in between:
            # spans are preserved and conditioning never accumulates
            for xi in poles:
                if xi is not INF:
                    S = np.linalg.solve(A2 - xi * I, S)
                    S, _ = np.linalg.qr(S)
            return S

        W = np.hstack([B, A @ B])
        S1 = apply_qinv(_poly_block_span(A2, W, m))
        S2 = apply_qinv(_poly_block_span(A, B, 2 * m))
        angle = max_principal_angle(np.linalg.qr(S1)[0], np.linalg.qr(S2)[0])
        worst = max(worst, angle)
    ok = worst <= 1e-10
    _report(8, "squared-operator subspace identity", ok,
            f"max principal angle {worst:.2e}")


def test_criterion_9_property_floor():
    cases = 0
    failures = []

    # orthonormality of generated bases (primal and adjoint, mixed poles)
    from rkupdate.arnoldi import adjoint_basis, build_basis
    for seed in range(60):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(8, 40))
        ell = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        B = rand_complex(rng, n, ell)
        poles = [INF if rng.random() < 0.3 else
                 complex((2 + 2 * rng.random()) * np.exp(2j * np.pi * rng.random()))
                 for _ in range(m)]
        build = adjoint_basis if seed % 3 == 0 else build_basis
        basis = build(A, B, poles)
        k = basis.dimension
        if norm2(basis.basis.conj().T @ basis.basis - np.eye(k)) > 1e-12:
            failures.append(f"orthonormality seed {seed}")
        cases += 1

    # exact nestedness across consecutive steps
    from rkupdate.arnoldi import KrylovBasis
    for seed in range(40):
        rng = np.random.default_rng(9100 + seed)
        n = int(rng.integers(8, 30))
        A = rand_complex(rng, n, n)
        B = rand_complex(rng, n, 1)
        basis = KrylovBasis(A / norm2(A), B)
        basis.advance(-2.5)
        snap = basis.basis.copy()
        basis.advance(INF if seed % 2 else -3.5)
        if not np.array_equal(basis.basis[:, :1], snap):
            failures.append(f"nestedness seed {seed}")
        cases += 1

    # estimator identity: padded difference equals the dense difference
    for seed in range(50):
        rng = np.random.default_rng(9200 + seed)
        n = int(rng.integers(10, 30))
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        B = 0.4 * rand_complex(rng, n, 1)
        C = 0.4 * rand_complex(rng, n, 1)
        state, rep = run_update(A, B, C, f=FunctionSpec.exp(),
                                plan=[-3.0, INF, -2.0], m_max=3, tol=0.0, d=1)
        X2, X3 = coupling_at(state, 2, FunctionSpec.exp()), state.coupling
        d2 = state.left.basis[:, :2] @ X2 @ state.right.basis[:, :2].conj().T
        d3 = state.left.basis @ X3 @ state.right.basis.conj().T
        gap = abs(padded_difference_norm(X3, X2) - norm2(d3 - d2))
        if gap > 1e-12 * max(1.0, norm2(d3)):
            failures.append(f"estimator seed {seed}")
        cases += 1

    # matrix-function consistency on block-triangular and Hermitian paths
    for seed in range(60):
        rng = np.random.default_rng(9300 + seed)
        n = int(rng.integers(3, 10))
        A11 = rand_complex(rng, n, n)
        A12 = rand_complex(rng, n, n)
        A22 = rand_complex(rng, n, n)
        F11, _, F22 = funm_block_triangular(A11, A12, A22, FunctionSpec.exp())
        if norm2(F11 - funm_small(A11, FunctionSpec.exp())) > 1e-12 * norm2(F11):
            failures.append(f"funm diag-block seed {seed}")
        H, _ = random_hermitian(rng, n, 0.5, 3.0)
        F = funm_small(H, FunctionSpec.inv_sqrt(), hermitian=True)
        w, Q = np.linalg.eigh(H)
        F2 = (Q * w**-0.5) @ Q.conj().T
        if norm2(F - F2) > 1e-11 * norm2(F2):
            failures.append(f"funm hermitian seed {seed}")
        ident = funm_small(A11, FunctionSpec.identity())
        if norm2(ident - A11) > 1e-13 * norm2(A11):
            failures.append(f"funm identity seed {seed}")
        cases += 1

    ok = not failures and cases >= 200
    _report(9, "property floor", ok,
            f"{cases} generated cases, failures: {failures[:3] if failures else 'none'}")
