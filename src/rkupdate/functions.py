"""Scalar function catalog used throughout the package.

A :class:`FunctionSpec` bundles a scalar map with the metadata the rest of
the library needs: an analytic derivative (for a priori bounds), an optional
Markov support interval, and, for rational functions, numerator/denominator
coefficients together with a partial-fraction decomposition.

Coefficient vectors are in ascending order: ``p = [p0, p1, ...]`` represents
``p0 + p1*z + p2*z**2 + ...``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["FunctionSpec", "PartialFractions", "partial_fractions"]

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


def _strip(c):
    c = np.asarray(c, dtype=complex).ravel()
    nz = np.nonzero(np.abs(c) > 0)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def _taylor_coeffs(c, x0, nterms):
    """Taylor coefficients of p(x0 + h) in h up to order nterms-1 (p ascending)."""
    c = np.asarray(c, dtype=complex)
    deg = len(c) - 1
    out = np.zeros(nterms, dtype=complex)
    # out[k] = sum_{i>=k} binom(i, k) c[i] x0^{i-k}
    for k in range(min(nterms, deg + 1)):
        binom = 1.0
        acc = 0.0 + 0.0j
        for i in range(k, deg + 1):
            acc += binom * c[i] * x0 ** (i - k)
            binom = binom * (i + 1) / (i + 1 - k)
        out[k] = acc
    return out


def _deflate(c, root):
    """Divide ascending polynomial c by (z - root); remainder discarded."""
    d = np.asarray(c, dtype=complex)
    n = len(d) - 1
    out = np.zeros(n, dtype=complex)
    acc = d[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = d[i] + root * acc
    return out


def _conv(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _poly_derivative(c):
    c = np.asarray(c, dtype=complex)
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def _newton_polish(c, x0, steps=40):
    dc = _poly_derivative(c)
    x = complex(x0)
    for _ in range(steps):
        fx = np.polyval(c[::-1], x)
        dfx = np.polyval(dc[::-1], x)
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def _cluster_roots(roots, rtol, den):
    """Greedy clustering of sorted roots; cluster centers are polished as
    simple roots of the (mult-1)-th derivative of the denominator."""
    scale = max(1.0, np.abs(roots).max())
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    clusters = []
    for r in roots:
        if clusters and abs(r - clusters[-1][0] / clusters[-1][1]) <= rtol * scale:
            clusters[-1][0] += r
            clusters[-1][1] += 1
        else:
            clusters.append([r, 1])
    poles, mults = [], []
    for acc, mult in clusters:
        center = acc / mult
        dk = np.asarray(den, dtype=complex)
        for _ in range(mult - 1):
            dk = _poly_derivative(dk)
        poles.append(_newton_polish(dk, center))
        mults.append(mult)
    return poles, mults


def _build_pf(num_rem, quo, den, poles, mults):
    lead = den[-1]
    pole_coeffs = []
    for pole, mult in zip(poles, mults):
        # q_s(z) = den(z) / (z - pole)^mult, via repeated deflation
        qs = den / lead
        for _ in range(mult):
            qs = _deflate(qs, pole)
        qs = qs * lead
        num_ser = _taylor_coeffs(num_rem, pole, mult)
        den_ser = _taylor_coeffs(qs, pole, mult)
        if abs(den_ser[0]) == 0.0:
            raise ZeroDivisionError("pole clustering failed; denominator series vanished")
        g = np.zeros(mult, dtype=complex)
        for k in range(mult):
            acc = num_ser[k]
            for i in range(1, k + 1):
                acc -= den_ser[i] * g[k - i]
            g[k] = acc / den_ser[0]
        # g[k] is the residue of (z - pole)^{-(mult-k)}
        cs = [g[mult - j] for j in range(1, mult + 1)]
        pole_coeffs.append(tuple(cs))
    return PartialFractions(tuple(quo), tuple(poles), tuple(mults), tuple(pole_coeffs))


def partial_fractions(num, den):
    """Partial-fraction decomposition of num/den (ascending coefficients).

    Denominator roots are clustered into poles with multiplicities; since
    a computed root of multiplicity mu scatters over a ring of radius
    ~eps^(1/mu), the clustering radius is staged from tight to loose and the
    first decomposition that reproduces num/den on a sample grid wins.
    """
    num = _strip(num)
    den = _strip(den)
    if len(den) == 1:
        return PartialFractions(tuple(num / den[0]), (), (), ())

    # polynomial part by euclidean division (descending convention for polydiv)
    if len(num) >= len(den):
        quo, rem = np.polydiv(num[::-1], den[::-1])
        quo = np.atleast_1d(quo)[::-1]
        rem = _strip(np.atleast_1d(rem)[::-1])
    else:
        quo = np.zeros(1, dtype=complex)
        rem = num

    roots = np.roots(den[::-1])
    scale = max(1.0, np.abs(roots).max())
    zs = scale * np.exp(2j * np.pi * np.arange(17) / 17) * 2.3
    ref = np.polyval(num[::-1], zs) / np.polyval(den[::-1], zs)
    ref_scale = max(1.0, np.abs(ref).max())

    best = None
    best_err = np.inf
    for rtol in (1e-9, 1e-6, 1e-4, 3e-3):
        try:
            poles, mults = _cluster_roots(roots, rtol, den)
            pf = _build_pf(rem, quo, den, poles, mults)
        except ZeroDivisionError:
            continue
        err = np.abs(pf(zs) - ref).max() / ref_scale
        if err < best_err:
            best, best_err = pf, err
        if err <= 1e-10:
            return pf
    if best is None:
        raise ZeroDivisionError("partial fraction decomposition failed")
    return best


def rational_from_partial_fractions(pf):
    """Expand a :class:`PartialFractions` back into (num, den) ascending coefficients."""
    den = np.ones(1, dtype=complex)
    for pole, mult in zip(pf.poles, pf.mults):
        for _ in range(mult):
            den = _conv(den, [-pole, 1.0])
    num = _conv(_strip(pf.poly), den)
    for s, (pole, mult) in enumerate(zip(pf.poles, pf.mults)):
        for j in range(1, mult + 1):
            term = np.asarray([pf.coeffs[s][j - 1]], dtype=complex)
            for t, (pole_t, mult_t) in enumerate(zip(pf.poles, pf.mults)):
                power = mult_t - j if t == s else mult_t
                for _ in range(power):
                    term = _conv(term, [-pole_t, 1.0])
            n = max(len(num), len(term))
            num = np.pad(num, (0, n - len(num)))
            num = num + np.pad(term, (0, n - len(term)))
    return _strip(num), _strip(den)


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function together with everything needed to apply and bound it.

    Use the factory classmethods; the constructor is not meant to be called
    directly.
    """

    kind: str
    gamma: float = 0.0
    num: tuple = ()
    den: tuple = ()
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
        return cls(kind="inverse", label="1/z")

    @classmethod
    def identity(cls):
        return cls(kind="identity", label="z")

    @classmethod
    def rational(cls, num, den):
        num = tuple(complex(c) for c in _strip(num))
        den = tuple(complex(c) for c in _strip(den))
        return cls(kind="rational", num=num, den=den, label="rational")

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
        if k == "inverse":
            return 1.0 / z
        if k == "identity":
            return z
        if k == "rational":
            pf = self.partial_fractions()
            return pf(z)
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
        if k == "inverse":
            return -(z ** (-2.0))
        if k == "identity":
            return np.ones_like(z)
        if k == "rational":
            p = np.asarray(self.num)
            q = np.asarray(self.den)
            dp = p[1:] * np.arange(1, len(p))
            dq = q[1:] * np.arange(1, len(q))
            pv = np.polyval(p[::-1], z)
            qv = np.polyval(q[::-1], z)
            dpv = np.polyval(dp[::-1], z) if len(dp) else np.zeros_like(z)
            dqv = np.polyval(dq[::-1], z) if len(dq) else np.zeros_like(z)
            return (dpv * qv - pv * dqv) / qv**2
        if k == "custom":
            if self.dfn is None:
                raise ValueError("custom FunctionSpec has no derivative")
            return np.asarray(self.dfn(z), dtype=complex)
        raise ValueError(f"unknown kind {k!r}")

    def partial_fractions(self):
        if self.kind == "inverse":
            return PartialFractions((0.0,), (0.0,), (1,), ((1.0,),))
        if self.kind != "rational":
            raise ValueError("partial fractions only defined for rational kinds")
        return partial_fractions(self.num, self.den)

    def sup_abs_derivative_on_interval(self, a, b, samples=257):
        x = np.linspace(a, b, samples)
        return float(np.abs(self.derivative(x)).max())
