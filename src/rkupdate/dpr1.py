"""High-accuracy eigendecomposition of diagonal-plus-rank-one matrices.

For A = diag(d) + rho * z z^T (real d, z, rho > 0) the eigenvalues are the
roots of the secular equation 1 + rho * sum z_k^2/(d_k - lam) = 0, one in
each gap.  Solving the secular equation in gap-shifted coordinates and
rebuilding the weight vector a la Gu-Eisenstat gives eigenvalues with high
relative accuracy and numerically orthogonal eigenvectors, far beyond what
a general dense eigensolver delivers on badly graded spectra.

The secular roots come from one bisection over all gaps at once, bit for
bit the same as a scalar bisection per gap: each row keeps its own bracket
and stops where the scalar loop would, and its secular sum is the same
pairwise row sum.  The weight rebuild accumulates its logarithms in the
scalar loop's order, so it is bitwise the same as well.

The experiment instances (log-spaced diagonal plus positive rank-one) are
exactly of this form; this module provides their reference decompositions.
"""

import numpy as np

__all__ = ["eigh_dpr1", "funm_dpr1"]

_BISECT_STEPS = 120


def eigh_dpr1(d, z, rho=1.0):
    """Eigendecomposition of diag(d) + rho * z z^T.

    Requires strictly increasing d, rho > 0, and all z_k nonzero (no
    deflation is implemented; the experiment generators guarantee this).
    Returns (lam, V) with lam ascending, V orthogonal.
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
    w2 = w * w

    # mu[i] = lam[i] - d[i] in the gap (d[i], d[i+1]); last gap (d[n-1], +rho_eff).
    # Row i of delta holds the gap-shifted diagonal d - d[i]; the secular
    # function of row i is increasing between its poles, -inf at 0+ and
    # +inf at hi[i]- (+1 at infinity for the last gap).  Every gap bisects
    # at once; a row freezes once its midpoint no longer splits its bracket.
    delta = d[None, :] - d[:, None]
    hi = np.append(np.diff(d), rho_eff)
    a, b = np.zeros(n), hi.copy()
    active = np.arange(n)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a[active] + b[active])
        moving = (mid != a[active]) & (mid != b[active])
        active, mid = active[moving], mid[moving]
        if active.size == 0:
            break
        val = 1.0 + rho_eff * np.sum(w2 / (delta[active] - mid[:, None]), axis=1)
        below = val < 0.0
        a[active[below]] = mid[below]
        b[active[~below]] = mid[~below]
    mu = 0.5 * (a + b)
    if np.any(mu == 0.0) or np.any(mu == hi):
        raise ValueError("secular root pinned at a gap endpoint; unresolvable")
    lam = d + mu

    # Gu-Eisenstat: rebuild weights consistent with the computed roots,
    #   what_k^2 = prod_j (lam_j - d_k) / (rho * prod_{j != k} (d_j - d_k)),
    # then the classical eigenvector formula v_i ~ what_k/(d_k - lam_i)
    # gives numerically orthogonal vectors.
    idx = np.arange(n)
    lam_minus_d = lam[:, None] - d[None, :]        # [i, k] = lam_i - d_k
    lam_minus_d[idx, idx] = mu
    lam_minus_d[idx[:-1], idx[1:]] = mu[:-1] - hi[:-1]
    if np.any(lam_minus_d == 0.0):
        raise ValueError("an updated eigenvalue coincides with a diagonal entry")
    d_gaps = d[:, None] - d[None, :]               # [j, k] = d_j - d_k
    d_gaps[idx, idx] = 1.0
    t = lam_minus_d / d_gaps
    t[idx, idx] = 1.0                              # j = k: adds log 1 = 0, times sign 1
    # log|what_k^2| accumulates the j = k term first, then j = 0..n-1 in
    # order; the sign is a product of +-1 and exact in any order.
    logsum = np.add.accumulate(
        np.vstack((np.log(np.abs(mu)), np.log(np.abs(t)))), axis=0)[-1]
    sign = np.sign(mu) * np.prod(np.sign(t), axis=0)
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
