import numpy as np
import pytest
import scipy.special as sp

from rkupdate.elliptic import complete_k, jacobi_sn_cn_dn


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.3, 0.7071067811865476, 0.95, 0.9999])
def test_complete_k_vs_scipy(kappa):
    # scipy uses the parameter convention m = kappa^2
    assert complete_k(kappa) == pytest.approx(float(sp.ellipk(kappa**2)), abs=1e-12)


def test_complete_k_small_modulus_series():
    # K = pi/2 * (1 + m/4 + 9 m^2/64 + ...) for small parameter m
    kappa = 1e-3
    m = kappa**2
    series = np.pi / 2 * (1 + m / 4 + 9 * m**2 / 64)
    assert complete_k(kappa) == pytest.approx(series, abs=1e-12)


@pytest.mark.parametrize("kappa", [0.1, 0.6, 0.99, 0.99995])
def test_jacobi_vs_scipy(kappa):
    K = complete_k(kappa)
    for u in np.linspace(0.05, 0.95, 9) * K:
        sn, cn, dn = jacobi_sn_cn_dn(u, kappa)
        s, c, d, _ = sp.ellipj(u, kappa**2)
        assert abs(sn - s) <= 1e-12
        assert abs(cn - c) <= 1e-12
        assert abs(dn - d) <= 1e-12


def test_special_values():
    kappa = 0.7
    sn0, cn0, dn0 = jacobi_sn_cn_dn(0.0, kappa)
    assert abs(sn0) <= 1e-12
    assert abs(jacobi_sn_cn_dn(complete_k(kappa), kappa)[0] - 1.0) <= 1e-12
    assert abs(cn0 - 1.0) <= 1e-12
    assert abs(dn0 - 1.0) <= 1e-12


def test_invalid_modulus():
    with pytest.raises(ValueError):
        complete_k(1.0)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.5, -0.1)
