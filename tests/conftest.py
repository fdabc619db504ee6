import numpy as np
import pytest
from scipy.linalg import subspace_angles

from rkupdate.signsylv import _sylvester_core
from rkupdate.updater import project_update, update_hermitian


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n, lmin=None, lmax=None):
    """Random Hermitian matrix, optionally with spectrum in [lmin, lmax]."""
    Q, _ = np.linalg.qr(rand_complex(rng, n, n))
    if lmin is None:
        w = rng.standard_normal(n)
    else:
        w = np.sort(lmin + (lmax - lmin) * rng.random(n))
        w[0], w[-1] = lmin, lmax
    return (Q * w) @ Q.conj().T, w


#: (kl, ku) of the band shapes the band-storage tests cover
BANDS = {"diagonal": (0, 0), "upper-bidiagonal": (0, 1), "lower-bidiagonal": (1, 0),
         "tridiagonal": (1, 1), "pentadiagonal": (2, 2)}


def band_matrix(rng, n, kl, ku, complex_entries=False):
    """Random square matrix with kl sub- and ku superdiagonals, shifted so
    that its spectrum keeps a distance from the poles the tests use
    (0, -1, -1.5, -2 +- 1j, 2 + 1.5j, 40)."""
    A = np.zeros((n, n), dtype=complex if complex_entries else float)
    for k in range(-kl, ku + 1):
        d = rng.standard_normal(n - abs(k))
        if complex_entries:
            d = d + 1j * rng.standard_normal(n - abs(k))
        A += np.diag(d, k)
    return A + (4.0 * (kl + ku + 1) + 2.0) * np.eye(n)


def path_laplacian_update(n):
    """Shifted path-graph Laplacian L + 1e-2 I, real, and the edge vectors
    B of two new edges, for D = B (0.5 I) B*: a real Hermitian instance."""
    A = 2.01 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    A[0, 0] = A[-1, -1] = 1.01
    B = np.zeros((n, 2))
    B[[1, n // 3], 0] = 1.0, -1.0
    B[[n // 2, n - 2], 1] = 1.0, -1.0
    return A, B, 0.5 * np.eye(2)


def coupling_at(state, m, f, J=None):
    """X_m of step m of a ``run_update`` state, solved again on the leading
    blocks of its bases: the Hermitian mode's small problem when J is
    given, else the two-sided one."""
    if J is not None:
        return update_hermitian(state.left.leading(m), J, f)
    return project_update(state.left.leading(m), state.right.leading(m), f)


def core_at(result, m):
    """The core of step m of a ``sylvester_solve_krylov`` result, solved
    again on the leading blocks of its bases."""
    return _sylvester_core(result.basis_left.leading(m), result.basis_right.leading(m))[0]


def _strip(c):
    """Drop the trailing zero coefficients of an ascending polynomial."""
    c = np.asarray(c, dtype=complex).ravel()
    nz = np.nonzero(np.abs(c) > 0)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def rational_from_partial_fractions(pf):
    """Expand a ``PartialFractions`` into (num, den) ascending coefficients,
    the form the ``HankelCoefficients`` oracle takes."""
    den = np.ones(1, dtype=complex)
    for pole, mult in zip(pf.poles, pf.mults):
        for _ in range(mult):
            den = np.convolve(den, [-pole, 1.0])
    num = np.convolve(_strip(pf.poly), den)
    for s, (pole, mult) in enumerate(zip(pf.poles, pf.mults)):
        for j in range(1, mult + 1):
            term = np.asarray([pf.coeffs[s][j - 1]], dtype=complex)
            for t, (pole_t, mult_t) in enumerate(zip(pf.poles, pf.mults)):
                power = mult_t - j if t == s else mult_t
                for _ in range(power):
                    term = np.convolve(term, [-pole_t, 1.0])
            n = max(len(num), len(term))
            num = np.pad(num, (0, n - len(num)))
            num = num + np.pad(term, (0, n - len(term)))
    return _strip(num), _strip(den)


def max_principal_angle(X, Y):
    ang = subspace_angles(np.asarray(X), np.asarray(Y))
    return float(ang.max()) if ang.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
