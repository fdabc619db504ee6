import mpmath
import numpy as np
import pytest

import rkupdate.functions as functions
from rkupdate.dense import funm_small
from rkupdate.errors import SingularityOnSpectrum
from rkupdate.functions import FunctionSpec, PartialFractions

from conftest import rand_complex


def test_rational_spec_scalar_and_derivative(rng):
    # r(z) = 0.5 - z + z^2/4 + (1 - 2i)/(z - 1.5) + 0.7/(z - 1.5)^2 + 3/(z + 2)
    args = ((0.5, -1.0, 0.25), (1.5, -2.0), (2, 1), ((1.0 - 2.0j, 0.7), (3.0,)))
    pf = PartialFractions(*args)
    f = FunctionSpec.rational(pf)
    assert f == FunctionSpec.rational(PartialFractions(*args))
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
    assert FunctionSpec.from_string("inv-power:0.25") == FunctionSpec.inv_power(0.25)
    assert FunctionSpec.from_string("inv-power:0.25").fn == functions._Power(-0.25)
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


def test_custom_support_needs_alpha_below_beta():
    with pytest.raises(ValueError, match="markov support must satisfy alpha < beta"):
        FunctionSpec.custom(np.exp, support=(0.0, -1.0))


@pytest.mark.parametrize("name, factory", [
    ("exp", FunctionSpec.exp), ("inv-sqrt", FunctionSpec.inv_sqrt),
    ("sqrt", FunctionSpec.sqrt), ("log1p-over-z", FunctionSpec.log1p_over_z),
    ("sign", FunctionSpec.sign), ("inverse", FunctionSpec.inverse),
    ("identity", FunctionSpec.identity),
    ("inv-power:0.25", lambda: FunctionSpec.inv_power(0.25)),
])
def test_every_function_name_round_trips(name, factory):
    # the names --function takes; a spec made twice compares equal
    assert FunctionSpec.from_string(name) == factory() == factory()
    assert FunctionSpec.from_string(f" {name.upper()}") == factory()


#: every kind with a domain, by --function name, and the edge of its domain
#: on a matrix whose largest |entry| is 1: the edge sits TOL_AXIS = 1e-12
#: from the singular set, on the side the kind's check takes
DOMAIN_EDGES = [
    ("sign", 1e-12),
    ("inv-sqrt", 1e-12),
    ("inv-power:0.25", 1e-12),
    ("sqrt", -1e-12),
    ("log1p-over-z", -1.0 + 1e-12),
]


def test_domain_table_covers_every_kind_with_a_domain():
    kinds = {FunctionSpec.from_string(name).kind for name, _ in DOMAIN_EDGES}
    assert kinds == set(functions._DOMAINS)
    for name in ("exp", "identity", "inverse"):
        FunctionSpec.from_string(name).check_spectrum(np.array([0.0, -1.0, 1j]), 1.0)


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
@pytest.mark.parametrize("name, edge", DOMAIN_EDGES, ids=[e[0] for e in DOMAIN_EDGES])
def test_domain_edge_through_funm_small(name, edge, hermitian):
    f = FunctionSpec.from_string(name)
    with pytest.raises(SingularityOnSpectrum):
        funm_small(np.diag([edge - 0.5e-12, 1.0]), f, hermitian=hermitian)
    F = funm_small(np.diag([edge + 0.5e-12, 1.0]), f, hermitian=hermitian)
    assert np.isfinite(F).all()


#: kind -> (mpmath f, its derivative, base points mu); each kind's points
#: lie in its domain, together with every lam = mu (1 + r e^{i theta}) drawn
#: from them below
_MP_FUNCTIONS = {
    "inv-sqrt": (lambda z: 1 / mpmath.sqrt(z), lambda z: -mpmath.power(z, -1.5) / 2,
                 (0.7, 3.0 + 1.0j, 2.0 - 1.5j, 1e-3 + 2e-4j, 1e4)),
    "sqrt": (mpmath.sqrt, lambda z: 1 / (2 * mpmath.sqrt(z)),
             (0.7, 3.0 + 1.0j, 2.0 - 1.5j, 1e-3 + 2e-4j, 1e4)),
    "exp": (mpmath.exp, mpmath.exp, (0.7, -30.0 + 5.0j, 12.0 - 3.0j, 1e-3j, -2.5)),
    "sign": (lambda z: 1 if z.real > 0 else -1, lambda z: 0,
             (0.7, -3.0 + 1.0j, 2.0 - 1.5j, -1e-3, 1e4)),
}


def _dd_pairs(mus):
    """(lam, mu) pairs with |lam - mu| / |mu| from 1e-15 to 1 in three
    directions, lam = mu and the conjugate pairs."""
    pairs = []
    for mu in mus:
        mu = complex(mu)
        for r in np.logspace(-15, 0, 16):
            for turn in (1.0, np.exp(1j * np.pi / 3), -1j):
                pairs.append((mu * (1 + r * turn), mu))
        pairs += [(mu, mu), (mu.conjugate(), mu)]
    return pairs


@pytest.mark.parametrize("kind", sorted(_MP_FUNCTIONS))
def test_divided_differences_match_mpmath(kind):
    f = FunctionSpec.from_string(kind)
    mp_f, mp_df, mus = _MP_FUNCTIONS[kind]
    pairs = _dd_pairs(mus)
    if kind == "sign":
        # opposite signs, near and far from the imaginary axis
        pairs += [(-mu.conjugate(), mu) for _, mu in pairs] + [(1e-3 + 5j, -2e-3 + 5j)]
    lam, mu = (np.array(p, dtype=complex) for p in zip(*pairs))
    got = f.dd(lam, mu)
    with mpmath.workdps(40):
        for a, b, value in zip(lam, mu, got):
            x, y = mpmath.mpc(a), mpmath.mpc(b)
            want = mp_df(y) if a == b else (mp_f(x) - mp_f(y)) / (x - y)
            err = abs(mpmath.mpc(value) - want)
            assert err <= 1e-14 * abs(want), (a, b, value, want)
