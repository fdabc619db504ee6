"""Scalar function catalog used throughout the package.

A :class:`FunctionSpec` bundles a scalar map with the metadata the rest of
the library needs: an analytic derivative (for a priori bounds), an optional
Markov support interval, and, for rational functions, the
:class:`PartialFractions` expansion over their poles, the one form in which
the scalar and the matrix function are evaluated.

Polynomial coefficients are in ascending order: ``p = [p0, p1, ...]``
represents ``p0 + p1*z + p2*z**2 + ...``.
"""

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function together with everything needed to apply and bound it.

    Use the factory classmethods; the constructor is not meant to be called
    directly.
    """

    kind: str
    gamma: float = 0.0
    pf: PartialFractions = None
    fn: object = None
    dfn: object = None
    support: tuple = None
    label: str = ""

    # -- factories ---------------------------------------------------------
    @classmethod
    def exp(cls):
        return cls(kind="exp", label="exp")

    @classmethod
    def inv_sqrt(cls):
        return cls(kind="inv-sqrt", support=_NEG_AXIS, label="z^(-1/2)")

    @classmethod
    def sqrt(cls):
        return cls(kind="sqrt", label="z^(1/2)")

    @classmethod
    def log1p_over_z(cls):
        return cls(kind="log1p-over-z", support=(-np.inf, -1.0), label="log(1+z)/z")

    @classmethod
    def inv_power(cls, gamma):
        if not 0.0 < gamma < 1.0:
            raise ValueError("inv_power exponent must lie in (0, 1)")
        return cls(kind="inv-power", gamma=float(gamma), support=_NEG_AXIS,
                   label=f"z^(-{gamma})")

    @classmethod
    def sign(cls):
        return cls(kind="sign", label="sign")

    @classmethod
    def inverse(cls):
        return cls(kind="rational", pf=PartialFractions((0.0,), (0.0,), (1,), ((1.0,),)),
                   label="1/z")

    @classmethod
    def identity(cls):
        return cls(kind="identity", label="z")

    @classmethod
    def rational(cls, pf):
        """The rational function of a :class:`PartialFractions` expansion."""
        return cls(kind="rational", pf=pf, label="rational")

    @classmethod
    def custom(cls, fn, dfn=None, label="custom", support=None):
        return cls(kind="custom", fn=fn, dfn=dfn, support=support, label=label)

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
    def markov_support(self):
        if self.support is None:
            return None
        alpha, beta = self.support
        if not alpha < beta:
            raise ValueError("markov support must satisfy alpha < beta")
        return (alpha, beta)

    @property
    def is_markov(self):
        return self.support is not None

    def scalar(self, z):
        z = np.asarray(z, dtype=complex)
        k = self.kind
        if k == "exp":
            return np.exp(z)
        if k == "inv-sqrt":
            return z ** (-0.5)
        if k == "sqrt":
            return z ** 0.5
        if k == "inv-power":
            return z ** (-self.gamma)
        if k == "log1p-over-z":
            out = np.empty_like(z)
            small = np.abs(z) < 1e-6
            zs = z[small]
            out[small] = 1.0 - zs / 2.0 + zs**2 / 3.0 - zs**3 / 4.0
            out[~small] = np.log(1.0 + z[~small]) / z[~small]
            return out
        if k == "sign":
            return np.where(z.real > 0, 1.0, -1.0).astype(complex)
        if k == "identity":
            return z
        if k == "rational":
            return self.pf(z)
        if k == "custom":
            return np.asarray(self.fn(z), dtype=complex)
        raise ValueError(f"unknown kind {k!r}")

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        k = self.kind
        if k == "exp":
            return np.exp(z)
        if k == "inv-sqrt":
            return -0.5 * z ** (-1.5)
        if k == "sqrt":
            return 0.5 * z ** (-0.5)
        if k == "inv-power":
            return -self.gamma * z ** (-self.gamma - 1.0)
        if k == "log1p-over-z":
            out = np.empty_like(z)
            small = np.abs(z) < 1e-6
            zs = z[small]
            out[small] = -0.5 + 2.0 * zs / 3.0 - 0.75 * zs**2
            big = z[~small]
            out[~small] = 1.0 / (big * (1.0 + big)) - np.log(1.0 + big) / big**2
            return out
        if k == "sign":
            return np.zeros_like(z)
        if k == "identity":
            return np.ones_like(z)
        if k == "rational":
            return self.pf.derivative(z)
        if k == "custom":
            if self.dfn is None:
                raise ValueError("custom FunctionSpec has no derivative")
            return np.asarray(self.dfn(z), dtype=complex)
        raise ValueError(f"unknown kind {k!r}")

    def sup_abs_derivative_on_interval(self, a, b, samples=257):
        x = np.linspace(a, b, samples)
        return float(np.abs(self.derivative(x)).max())
