"""Complete elliptic integrals and Jacobi elliptic functions.

Arithmetic-geometric mean iteration with the descending Landen transform
(DLMF 22.20(ii)), accurate to ~1e-13 for real arguments and modulus
kappa in [0, 1).  This is all the Zolotarev-type pole constructions need.
"""

import numpy as np

__all__ = ["complete_k", "jacobi_sn_cn_dn"]

_AGM_TOL = 1e-15
_AGM_MAXIT = 64


def _agm_scheme(kappa):
    """AGM sequences a_n, b_n, c_n for modulus kappa."""
    a = [1.0]
    b = [float(np.sqrt((1.0 - kappa) * (1.0 + kappa)))]
    c = [float(kappa)]
    for _ in range(_AGM_MAXIT):
        an = 0.5 * (a[-1] + b[-1])
        bn = float(np.sqrt(a[-1] * b[-1]))
        cn = 0.5 * (a[-1] - b[-1])
        a.append(an)
        b.append(bn)
        c.append(cn)
        if abs(cn) <= _AGM_TOL * an:
            break
    return a, b, c


def complete_k(kappa):
    """Complete elliptic integral of the first kind K(kappa), modulus convention."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError("modulus must lie in [0, 1)")
    a, _, _ = _agm_scheme(kappa)
    return float(np.pi / (2.0 * a[-1]))


def jacobi_sn_cn_dn(u, kappa):
    """Jacobi sn, cn, dn at real u for modulus kappa in [0, 1)."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError("modulus must lie in [0, 1)")
    if kappa == 0.0:
        return np.sin(u), np.cos(u), 1.0
    a, b, c = _agm_scheme(kappa)
    n = len(a) - 1
    phi = 2.0**n * a[n] * u
    phi_next = phi
    for k in range(n, 0, -1):
        s = np.clip(c[k] / a[k] * np.sin(phi), -1.0, 1.0)
        phi_prev = 0.5 * (phi + np.arcsin(s))
        phi_next = phi
        phi = phi_prev
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = cn / np.cos(phi_next - phi)
    return float(sn), float(cn), float(dn)

