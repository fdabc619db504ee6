"""Scalar function catalog used throughout the package.

A :class:`FunctionSpec` is the one place that says what a function kind
is.  Each factory sets the scalar map ``fn``, its analytic derivative
``dfn`` (for a priori bounds) and an optional Markov support interval.
The inverse square root, the square root, the exponential and sign also
set ``dd``, their divided difference f[lam, mu] = (f(lam) - f(mu)) /
(lam - mu) in a closed form that keeps full relative accuracy as lam
approaches mu (where it is f'(mu)); the coupling block of the general mode
is formed from it (:func:`rkupdate.dense._coupling_block`).  The other
kinds have none: numpy's complex ``log1p`` loses digits near 0 (8e-8
relative at z = 1e-10 + 1e-12j), which the closed forms of the inverse
power and of log(1+z)/z would need, and a rational function keeps its
partial fractions.
The kinds with a singularity have a domain, which
:meth:`FunctionSpec.check_spectrum` holds a spectrum to: sign needs the
spectrum off the imaginary axis, the inverse powers right of it, the
square root off the negative axis and log(1+z)/z right of -1.  A rational
function's ``fn`` is its :class:`PartialFractions` expansion over its
poles, the one form in which the scalar and the matrix function are
evaluated.  The catalog's maps are module-level functions or values, so
two specs of a catalog kind made alike compare equal
(``FunctionSpec.inv_power(0.25) == FunctionSpec.inv_power(0.25)``).

Polynomial coefficients are in ascending order: ``p = [p0, p1, ...]``
represents ``p0 + p1*z + p2*z**2 + ...``.
"""

from dataclasses import dataclass, field

import numpy as np

from .dense import TOL_AXIS
from .errors import SingularityOnSpectrum

__all__ = ["FunctionSpec", "PartialFractions"]

_NEG_AXIS = (-np.inf, 0.0)


@dataclass(frozen=True)
class PartialFractions:
    """Expansion  poly(z) + sum_s sum_{j<=mult_s} coef[s][j-1] * (z - pole_s)^{-j}."""

    poly: tuple            # ascending coefficients of the polynomial part
    poles: tuple           # distinct poles
    mults: tuple           # multiplicities, aligned with poles
    coeffs: tuple          # per pole: tuple of residues, index j-1 <-> power -j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for k, c in enumerate(self.poly):
            out = out + c * z**k
        for pole, mult, cs in zip(self.poles, self.mults, self.coeffs):
            for j in range(1, mult + 1):
                out = out + cs[j - 1] * (z - pole) ** (-j)
        return out

    def derivative(self, z):
        """Termwise derivative of the expansion."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for k, c in enumerate(self.poly[1:], start=1):
            out = out + k * c * z ** (k - 1)
        for pole, mult, cs in zip(self.poles, self.mults, self.coeffs):
            for j in range(1, mult + 1):
                out = out - j * cs[j - 1] * (z - pole) ** (-j - 1)
        return out


_INVERSE = PartialFractions((0.0,), (0.0,), (1,), ((1.0,),))
_IDENTITY = PartialFractions((0.0, 1.0), (), (), ())


@dataclass(frozen=True)
class _Power:
    """z -> z**p, or coef * z**p; a value, so specs of one power compare equal."""

    p: float
    coef: float = None

    def __call__(self, z):
        return z ** self.p if self.coef is None else self.coef * z ** self.p


def _sign(z):
    return np.where(z.real > 0, 1.0, -1.0).astype(complex)


def _dd_inv_sqrt(lam, mu):
    # (lam^(-1/2) - mu^(-1/2)) / (lam - mu) with the difference cancelled:
    # right of the imaginary axis no term cancels
    s, t = np.sqrt(lam), np.sqrt(mu)
    return -1.0 / (s * t * (s + t))


def _dd_sqrt(lam, mu):
    return 1.0 / (np.sqrt(lam) + np.sqrt(mu))


def _dd_exp(lam, mu):
    # e^mu expm1(lam - mu) / (lam - mu) with mu the one of larger real part,
    # so expm1 stays bounded and the product overflows only with e^mu
    swap = lam.real > mu.real
    lam, mu = np.where(swap, mu, lam), np.where(swap, lam, mu)
    h = lam - mu
    same = h == 0
    return np.exp(mu) * np.where(same, 1.0, np.expm1(h) / np.where(same, 1.0, h))


def _dd_sign(lam, mu):
    h = _sign(lam) - _sign(mu)
    return np.where(h == 0, 0.0, h / np.where(h == 0, 1.0, lam - mu))


def _log1p_over_z(z):
    out = np.empty_like(z)
    small = np.abs(z) < 1e-6
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs**2 / 3.0 - zs**3 / 4.0
    out[~small] = np.log(1.0 + z[~small]) / z[~small]
    return out


def _d_log1p_over_z(z):
    out = np.empty_like(z)
    small = np.abs(z) < 1e-6
    zs = z[small]
    out[small] = -0.5 + 2.0 * zs / 3.0 - 0.75 * zs**2
    big = z[~small]
    out[~small] = 1.0 / (big * (1.0 + big)) - np.log(1.0 + big) / big**2
    return out


#: kind -> (margin, side, message): an eigenvalue w lies off the domain of
#: f when margin(w) < side * TOL_AXIS * scale
_DOMAINS = {
    "sign": (lambda w: np.abs(w.real), 1.0,
             "eigenvalue too close to the imaginary axis for sign"),
    "inv-sqrt": (lambda w: w.real, 1.0, "inv-sqrt needs eigenvalues with positive real part"),
    "inv-power": (lambda w: w.real, 1.0, "inv-power needs eigenvalues with positive real part"),
    "sqrt": (lambda w: w.real, -1.0, "sqrt needs eigenvalues off the negative axis"),
    "log1p-over-z": (lambda w: w.real + 1.0, 1.0, "log(1+z)/z needs spectrum right of -1"),
}


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function together with everything needed to apply and bound it.

    Use the factory classmethods; the constructor is not meant to be called
    directly.  Specs compare by everything but ``dfn``, the derivative of
    ``fn``, and ``dd``, its divided difference ``dd(lam, mu)`` on complex
    arrays that broadcast together (None for a kind without a closed form),
    so two rational specs of equal expansions are equal.
    """

    kind: str
    fn: object
    dfn: object = field(default=None, compare=False)
    dd: object = field(default=None, compare=False)
    markov_support: tuple = None
    label: str = ""

    # -- factories ---------------------------------------------------------
    @classmethod
    def exp(cls):
        return cls(kind="exp", fn=np.exp, dfn=np.exp, dd=_dd_exp, label="exp")

    @classmethod
    def inv_sqrt(cls):
        return cls(kind="inv-sqrt", fn=_Power(-0.5), dfn=_Power(-1.5, -0.5), dd=_dd_inv_sqrt,
                   markov_support=_NEG_AXIS, label="z^(-1/2)")

    @classmethod
    def sqrt(cls):
        return cls(kind="sqrt", fn=_Power(0.5), dfn=_Power(-0.5, 0.5), dd=_dd_sqrt,
                   label="z^(1/2)")

    @classmethod
    def log1p_over_z(cls):
        return cls(kind="log1p-over-z", fn=_log1p_over_z, dfn=_d_log1p_over_z,
                   markov_support=(-np.inf, -1.0), label="log(1+z)/z")

    @classmethod
    def inv_power(cls, gamma):
        if not 0.0 < gamma < 1.0:
            raise ValueError("inv_power exponent must lie in (0, 1)")
        g = float(gamma)
        return cls(kind="inv-power", fn=_Power(-g), dfn=_Power(-g - 1.0, -g),
                   markov_support=_NEG_AXIS, label=f"z^(-{gamma})")

    @classmethod
    def sign(cls):
        return cls(kind="sign", fn=_sign, dfn=np.zeros_like, dd=_dd_sign, label="sign")

    @classmethod
    def inverse(cls):
        return cls(kind="rational", fn=_INVERSE, dfn=_INVERSE.derivative, label="1/z")

    @classmethod
    def identity(cls):
        return cls(kind="rational", fn=_IDENTITY, dfn=_IDENTITY.derivative, label="z")

    @classmethod
    def rational(cls, pf):
        """The rational function of a :class:`PartialFractions` expansion."""
        return cls(kind="rational", fn=pf, dfn=pf.derivative, label="rational")

    @classmethod
    def custom(cls, fn, dfn=None, label="custom", support=None):
        if support is not None and not support[0] < support[1]:
            raise ValueError("markov support must satisfy alpha < beta")
        return cls(kind="custom", fn=fn, dfn=dfn, markov_support=support, label=label)

    @classmethod
    def from_string(cls, text):
        """Parse CLI function names like ``inv-sqrt`` or ``inv-power:0.25``."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        table = {
            "exp": cls.exp,
            "inv-sqrt": cls.inv_sqrt,
            "sqrt": cls.sqrt,
            "log1p-over-z": cls.log1p_over_z,
            "sign": cls.sign,
            "inverse": cls.inverse,
            "identity": cls.identity,
        }
        if name in table:
            return table[name]()
        if name == "inv-power":
            return cls.inv_power(float(arg))
        raise ValueError(f"unknown function spec {text!r}")

    # -- evaluation --------------------------------------------------------
    @property
    def is_markov(self):
        return self.markov_support is not None

    def scalar(self, z):
        return np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=complex)

    def derivative(self, z):
        if self.dfn is None:
            raise ValueError("custom FunctionSpec has no derivative")
        return np.asarray(self.dfn(np.asarray(z, dtype=complex)), dtype=complex)

    def check_spectrum(self, w, scale):
        """Raise :class:`SingularityOnSpectrum` when an eigenvalue in ``w``
        lies off the domain of f, to within ``TOL_AXIS * scale``; a kind
        without a singularity takes any spectrum."""
        if self.kind not in _DOMAINS:
            return
        margin, side, message = _DOMAINS[self.kind]
        tol = TOL_AXIS * max(scale, 1e-300)
        if margin(np.asarray(w)).min(initial=np.inf) < side * tol:
            raise SingularityOnSpectrum(message)
