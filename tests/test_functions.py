import numpy as np
import pytest

from rkupdate.functions import FunctionSpec, PartialFractions

from conftest import rand_complex


def test_rational_spec_scalar_and_derivative(rng):
    # r(z) = 0.5 - z + z^2/4 + (1 - 2i)/(z - 1.5) + 0.7/(z - 1.5)^2 + 3/(z + 2)
    pf = PartialFractions((0.5, -1.0, 0.25), (1.5, -2.0), (2, 1),
                          ((1.0 - 2.0j, 0.7), (3.0,)))
    f = FunctionSpec.rational(pf)
    z = rand_complex(rng, 16)
    ref = 0.5 - z + 0.25 * z**2 + (1 - 2j) / (z - 1.5) + 0.7 / (z - 1.5) ** 2 + 3 / (z + 2)
    dref = -1 + 0.5 * z - (1 - 2j) / (z - 1.5) ** 2 - 1.4 / (z - 1.5) ** 3 - 3 / (z + 2) ** 2
    assert np.abs(f.scalar(z) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(f.derivative(z) - dref).max() <= 1e-12 * np.abs(dref).max()
    h = 1e-7
    fd = (f.scalar(z + h) - f.scalar(z - h)) / (2 * h)
    assert np.abs(f.derivative(z) - fd).max() <= 1e-6 * np.abs(dref).max()


@pytest.mark.parametrize("factory", [
    FunctionSpec.exp, FunctionSpec.inv_sqrt, FunctionSpec.sqrt,
    FunctionSpec.log1p_over_z, lambda: FunctionSpec.inv_power(0.25),
    FunctionSpec.inverse, FunctionSpec.identity,
])
def test_derivatives_match_finite_differences(factory):
    f = factory()
    z = np.array([0.3 + 0.1j, 1.7, 4.0 - 0.2j, 9.0])
    h = 1e-6
    fd = (f.scalar(z + h) - f.scalar(z - h)) / (2 * h)
    assert np.abs(f.derivative(z) - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_log1p_over_z_small_argument():
    f = FunctionSpec.log1p_over_z()
    x = np.array([1e-9, 1e-7])
    ref = np.log1p(x) / x
    assert np.abs(f.scalar(x) - ref).max() <= 1e-13


def test_markov_support_catalog():
    assert FunctionSpec.inv_sqrt().markov_support == (-np.inf, 0.0)
    assert FunctionSpec.inv_power(0.75).markov_support == (-np.inf, 0.0)
    assert FunctionSpec.log1p_over_z().markov_support == (-np.inf, -1.0)
    assert FunctionSpec.exp().markov_support is None


def test_from_string():
    assert FunctionSpec.from_string("inv-sqrt").kind == "inv-sqrt"
    assert FunctionSpec.from_string("inv-power:0.25").gamma == 0.25
    assert FunctionSpec.from_string("sign").kind == "sign"
    inverse = FunctionSpec.from_string("inverse")
    assert inverse.label == "1/z"
    assert np.array_equal(inverse.scalar(np.array([4.0, -0.5j])), [0.25, 2j])
    with pytest.raises(ValueError):
        FunctionSpec.from_string("frobnicate")


def test_sign_scalar():
    f = FunctionSpec.sign()
    assert np.allclose(f.scalar(np.array([-3.0, 5.0, -1e-3 + 2j])), [-1, 1, -1])


def test_inv_power_requires_unit_interval():
    with pytest.raises(ValueError):
        FunctionSpec.inv_power(1.5)
