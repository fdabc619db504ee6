"""High-accuracy eigendecomposition of diagonal-plus-rank-one matrices.

For A = diag(d) + rho * z z^T (real ascending d, z, rho > 0) the eigenvalues
are the roots of the secular equation 1 + rho * sum z_k^2/(d_k - lam) = 0,
one in each gap.  The roots come from LAPACK's ``dlasd4`` (R.-C. Li's
middle-way iteration), which solves the SVD form of the equation: for
D = sqrt(d - c), c = min(d_0, 0), and unit w, root i is the eigenvalue
sigma_i^2 of diag(D^2) + rho w w^T, returned with the gaps D_j - sigma_i
and D_j + sigma_i, so every lam_i - d_j = -(D_j - sigma_i)(D_j + sigma_i)
is accurate.  Rebuilding the weights a la Gu-Eisenstat then gives
numerically orthogonal eigenvectors, far beyond what a general dense
eigensolver delivers on badly graded spectra.

For positive d (c = 0) the eigenvalues keep high relative accuracy.  A
nonpositive d_0 shifts the spectrum by |d_0|, so roots near zero are
accurate to a few eps * |d_0| absolute, not relatively: up to 4.3e-12
relative below 1e-3 on graded indefinite spectra (|d| log-spaced over
[1e-4, 1], n = 30, against 50 digits).  Only functions regular at zero
(sign, exp) meet an indefinite spectrum on the Hermitian rank-one path.

The experiment instances (log-spaced diagonal plus positive rank-one) are
exactly of this form; this module provides their reference decompositions.
"""

import numpy as np
from scipy.linalg.lapack import dlasd4

__all__ = ["eigh_dpr1", "funm_dpr1"]


def eigh_dpr1(d, z, rho=1.0):
    """Eigendecomposition of diag(d) + rho * z z^T.

    Requires strictly increasing d, rho > 0, and all z_k nonzero (no
    deflation is implemented; the experiment generators guarantee this).
    Returns (lam, V) with lam ascending, V orthogonal; raises ValueError
    where the secular structure is unusable.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float).ravel()
    n = d.size
    if z.size != n:
        raise ValueError("z must have the same length as d")
    if np.any(np.diff(d) <= 0):
        raise ValueError("d must be strictly increasing")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if np.any(z == 0.0):
        raise ValueError("z must have no zero components (deflation unsupported)")
    znorm = np.linalg.norm(z)
    w = z / znorm
    rho_eff = rho * znorm**2
    D = np.sqrt(d - min(d[0], 0.0))
    if np.any(np.diff(D) <= 0):
        raise ValueError("d collapses under the shift to a nonnegative spectrum")

    # Row i holds lam_i - d_j for every j.  dlasd4 returns no gaps at n = 1,
    # where the one root is d_0 + rho_eff.
    if n == 1:
        lam_minus_d = np.array([[rho_eff]])
    else:
        lam_minus_d = np.empty((n, n))
        for i in range(n):
            delta, _, work, info = dlasd4(i, D, w, rho_eff)
            if info:
                raise ValueError(f"dlasd4 failed on root {i} (info={info})")
            lam_minus_d[i] = -(delta * work)
    if np.any(lam_minus_d == 0.0):
        raise ValueError("secular root pinned at a gap endpoint; unresolvable")
    lam = d + np.diagonal(lam_minus_d)

    # Gu-Eisenstat: rebuild weights consistent with the computed roots,
    #   what_k^2 = prod_j (lam_j - d_k) / (rho * prod_{j != k} (d_j - d_k)),
    # then the classical eigenvector formula v_i ~ what_k/(d_k - lam_i)
    # gives numerically orthogonal vectors.  d_j - d_k is taken from D, the
    # problem dlasd4 solved; a unit diagonal leaves the j = k factor lam_k - d_k.
    d_gaps = (D[:, None] - D[None, :]) * (D[:, None] + D[None, :])  # [j, k] = d_j - d_k
    np.fill_diagonal(d_gaps, 1.0)
    t = lam_minus_d / d_gaps
    logsum = np.sum(np.log(np.abs(t)), axis=0)
    sign = np.prod(np.sign(t), axis=0)
    what2 = sign * np.exp(logsum) / rho_eff
    if not np.all(np.isfinite(what2)):
        raise ValueError("weight reconstruction overflowed; secular path unusable")
    what = np.sign(w) * np.sqrt(np.maximum(what2, 0.0))

    V = -(what[None, :] / lam_minus_d).T           # V[k, i] = what_k/(d_k - lam_i)
    norms = np.linalg.norm(V, axis=0, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise ValueError("eigenvector reconstruction failed; secular path unusable")
    V /= norms
    return lam, V


def funm_dpr1(d, z, rho, scalar_map):
    """f(diag(d) + rho z z^T) through the secular decomposition."""
    lam, V = eigh_dpr1(d, z, rho)
    return (V * scalar_map(lam)) @ V.T


def funm_diff_rank1(d, z, rho, scalar_map):
    """f(diag(d) + rho z z*) - f(diag(d)) for complex z, real ascending d.

    Complex weights are reduced to the real case by a diagonal phase
    similarity.  Coordinates with z_k = 0 decouple and contribute zero
    rows/columns to the difference.  Raises ValueError when the secular
    structure is unusable (repeated d); callers fall back to a generic
    eigendecomposition in that case.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=complex).ravel()
    n = d.size
    fd = np.asarray(scalar_map(d + 0j))
    if not np.all(np.isfinite(fd)):
        raise ValueError("scalar map not finite on the base spectrum")
    absz = np.abs(z)
    support = absz > 0.0
    D = np.zeros((n, n), dtype=complex)
    if not np.any(support):
        return D
    ds = d[support]
    if np.any(np.diff(ds) <= 0):
        raise ValueError("repeated eigenvalues; secular path unavailable")
    lam, V = eigh_dpr1(ds, absz[support], rho)
    flam = np.asarray(scalar_map(lam + 0j))
    if not np.all(np.isfinite(flam)):
        raise ValueError("scalar map not finite on the updated spectrum")
    core = (V * flam) @ V.T - np.diag(fd[support])
    phases = np.ones(n, dtype=complex)
    phases[support] = z[support] / absz[support]
    ps = phases[support]
    core = (ps[:, None] * core) * ps.conj()[None, :]
    ii = np.nonzero(support)[0]
    D[np.ix_(ii, ii)] = core
    return D
