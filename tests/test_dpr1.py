import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkupdate.dense import norm2
from rkupdate.dpr1 import eigh_dpr1, funm_diff_rank1, funm_dpr1

EPS = np.finfo(float).eps
BISECT_STEPS = 120


def scalar_eigh_dpr1(d, z, rho):
    """Reference: one scalar bisection per gap and a scalar weight rebuild.

    Each root is bisected in the coordinates of its gap's left end, so its
    eigenvalues are relatively accurate for any sign of d; the gap to the
    right end is a difference, which loses digits for a root close to it.
    Guards are left to the caller.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    n = d.size
    znorm = np.linalg.norm(z)
    w = z / znorm
    rho_eff = rho * znorm**2
    w2 = w * w
    mu = np.empty(n)
    for i in range(n):
        delta = d - d[i]
        a, b = 0.0, (d[i + 1] - d[i]) if i + 1 < n else rho_eff
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if 1.0 + rho_eff * np.sum(w2 / (delta - mid)) < 0.0:
                a = mid
            else:
                b = mid
        mu[i] = 0.5 * (a + b)
    lam = d + mu
    lam_minus_d = lam[:, None] - d[None, :]
    for i in range(n):
        lam_minus_d[i, i] = mu[i]
        if i + 1 < n:
            lam_minus_d[i, i + 1] = mu[i] - (d[i + 1] - d[i])
    what2 = np.empty(n)
    for k in range(n):
        num = lam_minus_d[:, k]
        logsum = np.log(np.abs(num[k]))
        sign = np.sign(num[k])
        for j in range(n):
            if j == k:
                continue
            t = num[j] / (d[j] - d[k])
            sign *= np.sign(t)
            logsum += np.log(np.abs(t))
        what2[k] = sign * np.exp(logsum) / rho_eff
    what = np.sign(w) * np.sqrt(np.maximum(what2, 0.0))
    V = -(what[None, :] / lam_minus_d).T
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    return lam, V


def _reference_cases():
    """(id, d, z, rho): tiny orders, the figures' grading, random spectra."""
    gen = np.random.default_rng(7)
    cases = [("n1", np.array([0.3]), np.array([1.2]), 1.0),
             ("n2", np.array([0.3, 2.0]), np.array([0.7, -1.1]), 0.5)]
    for n in (3, 10, 25, 40, 60, 80):
        cases.append((f"logspace-n{n}", np.logspace(-3, 3, n), gen.standard_normal(n), 1.0))
    z = gen.standard_normal(40)
    cases.append(("graded-rho1e-12", np.logspace(-8, 0, 40), z / np.linalg.norm(z), 1e-12))
    for n in (5, 17, 33, 64, 89):
        cases.append((f"random-n{n}", np.sort(gen.random(n) * 5 + 0.1),
                      gen.standard_normal(n), 1.7))
    for n in (12, 50):
        cases.append((f"cubic-n{n}", np.sort(gen.random(n)) ** 3 + 1e-3,
                      gen.standard_normal(n), 1e3))
    return cases


def _sign_aligned(V, V_ref):
    """V with each column's sign matched to the column of V_ref."""
    return V * np.where(np.sum(V * V_ref, axis=0) < 0, -1.0, 1.0)


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda case: case[0])
def test_agrees_with_scalar_bisection(case):
    # measured worst cases: 27 eps relative on the eigenvalues (cubic-n12),
    # 5.3e-14 on the eigenvectors (random-n89), 55 eps of orthogonality loss
    # (cubic-n50); the bounds leave a margin of 4-20x
    _, d, z, rho = case
    lam, V = eigh_dpr1(d, z, rho)
    lam_ref, V_ref = scalar_eigh_dpr1(d, z, rho)
    assert np.all(np.diff(lam) > 0)
    assert np.abs((lam - lam_ref) / lam_ref).max() <= 1e-13
    assert np.abs(_sign_aligned(V, V_ref) - V_ref).max() <= 1e-12
    assert np.abs(V.T @ V - np.eye(d.size)).max() <= 256 * EPS


@st.composite
def dpr1_problems(draw):
    """(kind, d, z, rho): d of order 1-12 with magnitudes graded over
    1e-6..1e2, all positive or with d_0 < 0 and random signs; random
    normal z; rho log-uniform in [1e-6, 1e2]."""
    kind = draw(st.sampled_from(["positive", "indefinite"]))
    n = draw(st.integers(1, 12))
    rho = 10.0 ** draw(st.floats(-6.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 10.0 ** rng.uniform(-6.0, 2.0, n)
    if kind == "indefinite":
        d *= np.r_[-1.0, rng.choice([-1.0, 1.0], n - 1)]
    d = np.sort(d)
    assume(np.all(np.diff(d) > 0))
    return kind, d, rng.standard_normal(n), rho


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(dpr1_problems())
def test_accuracy_over_generated_problems(problem):
    """Eigenvalues, eigenvectors up to sign, and orthogonality against the
    scalar bisection.

    Eigenvalues are compared relatively for positive d.  For indefinite d
    the shift to a nonnegative diagonal costs the relative accuracy of roots
    near zero, so they are compared against ||A|| <= max|d| + rho |z|^2.
    Both solvers' eigenvectors lose digits as eps/sep, with sep the smallest
    distance of a root to a pole d_j on the same scale (by interlacing no
    larger than the distance to another root): the reference through the
    gap to a right end, the shifted solver through its absolute error.
    Measured worst cases over 10,000 seeded problems: 26 eps (eigenvalues),
    3.3 eps/sep (eigenvectors), 18 eps (orthogonality); the bounds leave a
    margin of 7-10x.
    """
    kind, d, z, rho = problem
    lam, V = eigh_dpr1(d, z, rho)
    lam_ref, V_ref = scalar_eigh_dpr1(d, z, rho)
    if kind == "positive":
        scale = np.abs(lam_ref)
    else:
        scale = np.full(d.size, np.abs(d).max() + rho * (z @ z))
    sep = min((np.abs(lam_ref[:, None] - d[None, :]).min(axis=1) / scale).min(), 1.0)
    assert np.abs((lam - lam_ref) / scale).max() <= 256 * EPS
    assert np.abs(_sign_aligned(V, V_ref) - V_ref).max() <= 32 * EPS / sep
    assert np.abs(V.T @ V - np.eye(d.size)).max() <= 128 * EPS


def test_matches_general_eigensolver(rng):
    d = np.sort(rng.random(30) * 5 + 0.2)
    z = rng.standard_normal(30)
    rho = 1.7
    lam, V = eigh_dpr1(d, z, rho)
    S = np.diag(d) + rho * np.outer(z, z)
    lam_ref = np.linalg.eigvalsh(S)
    assert np.abs((lam - lam_ref) / lam_ref).max() <= 1e-12
    assert norm2(V.T @ V - np.eye(30)) <= 1e-13
    assert norm2((V * lam) @ V.T - S) <= 1e-12 * norm2(S)


def test_high_relative_accuracy_on_graded_spectrum():
    # the point of the secular path: small eigenvalues stay relatively
    # accurate where a generic eigensolver only achieves eps*||A|| absolute
    d = np.logspace(-8, 0, 40)
    gen = np.random.default_rng(3)
    z = gen.standard_normal(40)
    z /= np.linalg.norm(z)
    lam, V = eigh_dpr1(d, z, 1e-12)
    # a perturbation of size 1e-12 cannot move lam[0] ~ 1e-8 by more than
    # rho*z_0^2-ish; interlacing keeps it inside (d[0], d[1])
    assert d[0] < lam[0] < d[1]
    assert norm2(V.T @ V - np.eye(40)) <= 1e-12


def test_funm_dpr1_inverse_sqrt(rng):
    d = np.sort(rng.random(20)) + 0.5
    z = rng.standard_normal(20)
    F = funm_dpr1(d, z, 1.0, lambda x: x**-0.5)
    S = np.diag(d) + np.outer(z, z)
    w, Q = np.linalg.eigh(S)
    ref = (Q * w**-0.5) @ Q.T
    assert norm2(F - ref) <= 1e-11 * norm2(ref)


def test_funm_diff_rank1_complex_weights(rng):
    d = np.sort(rng.random(15)) + 1.0
    z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    rho = 0.8
    D = funm_diff_rank1(d, z, rho, lambda x: np.exp(x))
    S = np.diag(d).astype(complex) + rho * np.outer(z, z.conj())
    w, Q = np.linalg.eigh(S)
    ref = (Q * np.exp(w)) @ Q.conj().T - np.diag(np.exp(d))
    assert norm2(D - ref) <= 1e-11 * max(norm2(ref), 1.0)


def test_funm_diff_rank1_zero_components(rng):
    d = np.array([0.5, 1.0, 2.0, 3.0])
    z = np.array([0.0, 1.0, 0.0, -2.0], dtype=complex)
    D = funm_diff_rank1(d, z, 1.0, lambda x: 1.0 / x)
    # decoupled coordinates contribute zero rows/columns
    assert np.all(D[0, :] == 0) and np.all(D[:, 0] == 0)
    assert np.all(D[2, :] == 0) and np.all(D[:, 2] == 0)
    S = np.diag(d) + np.outer(z.real, z.real)
    ref = np.linalg.inv(S) - np.diag(1.0 / d)
    assert norm2(D.real - ref) <= 1e-12 * norm2(ref)
    # z = 0 decouples every coordinate: the difference is zero
    assert not funm_diff_rank1(d, np.zeros(4), 1.0, lambda x: 1.0 / x).any()


def test_guards():
    with pytest.raises(ValueError):
        eigh_dpr1([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])      # repeated diagonal
    with pytest.raises(ValueError):
        eigh_dpr1([1.0, 2.0], [1.0, 0.0])                # zero weight
    with pytest.raises(ValueError):
        eigh_dpr1([1.0, 2.0], [1.0, 1.0], rho=-1.0)      # negative rho
    with pytest.raises(ValueError):
        funm_diff_rank1([1.0, 1.0], [1.0, 1.0], 1.0, np.exp)
    # w_0^2 underflows, so the first root sits on its gap's left end
    with pytest.raises(ValueError, match="pinned at a gap endpoint"):
        eigh_dpr1([1.0, 2.0], [1e-200, 1.0])
    # shifted by |d_0| = 1, d_1 and d_2 round to the same value
    with pytest.raises(ValueError, match="collapses under the shift"):
        eigh_dpr1([-1.0, 1e-300, 2e-300], [1.0, 1.0, 1.0])


def test_no_runtime_warnings():
    # the rebuild divides by d_j - d_k, which is zero on the diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _, d, z, rho in _reference_cases():
            eigh_dpr1(d, z, rho)
        with pytest.raises(ValueError):
            eigh_dpr1([1.0, 2.0], [1e-200, 1.0])
