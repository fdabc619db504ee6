"""Pole plans, pole selection strategies and the conformal interval map.

:class:`PolePlan` is the one place where a plan becomes the poles of a run.
The solvers, ``build_basis``, ``adjoint_basis`` and the bounds take a plan
or a raw pole sequence, read the sequence as an as-given plan
(:meth:`PolePlan.of`) and take their poles from :meth:`PolePlan.expand`: a
cyclic plan tiles its poles to any length, an as-given one must hold at
least as many poles as a run asks for, and a Leja-ordered plan is put in
that order once, when it is made.  A plan only orders the poles; whether
a pole and its conjugate after it take one paired step of real arithmetic
is decided by the step rule of :mod:`rkupdate.arnoldi`, for the solvers
and the builders alike, from the realness of the bases.

A pole with an infinite part is the polynomial step :data:`INF`; a pole
with a NaN part is a ``ValueError``.

Also contains the single optimal pole for Markov functions, quasi-optimal
(Zolotarev) pole sets, Zolotarev poles for the matrix sign function and the
inverse square root (their nodes from SciPy's Jacobi elliptic functions,
``scipy.special.ellipj`` and ``ellipkm1``), the repeated pole for the
exponential, the extended plan {0, inf}, Leja ordering, and the parser of
the plain-text pole files the CLI reads (a cyclic plan).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._validation import is_infinite_pole
from .errors import SupportOverlapsSpectrum

__all__ = [
    "INF", "PolePlan", "IntervalMap", "EllipseMap",
    "markov_single_pole", "quasi_optimal_poles",
    "zolotarev_invsqrt_poles", "zolotarev_sign_poles",
    "exp_single_pole", "extended_plan", "leja_order",
]

#: the distinguished infinite pole (a polynomial step)
INF = math.inf


def _canon(p):
    p = complex(p)
    if cmath.isnan(p):
        raise ValueError(f"pole {p} is not a number")
    return INF if is_infinite_pole(p) else p


@dataclass(frozen=True)
class PolePlan:
    """A finite-or-infinite pole sequence plus repetition/ordering metadata.

    ``repetition="cyclic"`` tiles ``poles`` to any requested length;
    ``"as-given"`` requires at least as many poles as requested.  With
    ``ordering="leja"`` the poles are put into Leja ordering once, when the
    plan is made, so ``poles`` holds them in that order.
    """

    poles: tuple
    repetition: str = "as-given"
    ordering: str = "as-given"

    def __post_init__(self):
        if self.repetition not in ("as-given", "cyclic"):
            raise ValueError(f"unknown repetition {self.repetition!r}")
        if self.ordering not in ("as-given", "leja"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        poles = tuple(_canon(p) for p in self.poles)
        if self.ordering == "leja":
            poles = leja_order(poles)
        object.__setattr__(self, "poles", poles)

    @classmethod
    def of(cls, plan):
        """``plan`` itself when it is a PolePlan; a raw pole sequence becomes
        an as-given plan."""
        return plan if isinstance(plan, cls) else cls(tuple(plan))

    def expand(self, m=None):
        """The first m poles of the (possibly cyclically repeated) sequence,
        or one cycle when m is None."""
        if m is None:
            return self.poles
        if m < 1:
            raise ValueError("m must be >= 1")
        k = len(self.poles)
        if k == 0 or (k < m and self.repetition == "as-given"):
            raise ValueError(f"plan has {k} poles, {m} requested")
        return (self.poles * -(-m // k))[:m]

    def conjugate_closed(self):
        """True when the multiset of finite poles is invariant under
        conjugation: every pole that has no conjugate partner is real."""
        finite = [p for p in self.poles if not is_infinite_pole(p)]
        return all(q is not None or p.imag == 0 for p, q in _conjugate_partners(finite))

    @classmethod
    def from_text(cls, text):
        """Parse a pole file into a cyclic plan: one pole per line (a Python
        complex literal, or ``inf`` for infinity); blank lines and lines
        starting with ``#`` are skipped."""
        poles = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower() == "inf":
                poles.append(INF)
            else:
                poles.append(complex(line))
        if not poles:
            raise ValueError("no poles found in pole file")
        return cls(tuple(poles), repetition="cyclic")


class IntervalMap:
    """Joukowski pair between the exterior of the unit disk and the exterior
    of a real interval [a, b], normalized with psi(inf) = inf, psi'(inf) > 0."""

    def __init__(self, a, b):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("interval needs a < b")
        self.a, self.b = a, b
        self.center = 0.5 * (a + b)
        self.halfwidth = 0.5 * (b - a)

    def psi(self, u):
        if is_infinite_pole(u):
            return INF
        u = complex(u)
        return self.center + self.halfwidth * (u + 1.0 / u) / 2.0

    def phi(self, x):
        if is_infinite_pole(x):
            return INF
        x = complex(x)
        s = (x - self.center) / self.halfwidth
        root = cmath.sqrt(s - 1.0) * cmath.sqrt(s + 1.0)
        u1 = s + root
        u2 = s - root
        return u1 if abs(u1) >= abs(u2) else u2


class EllipseMap:
    """Joukowski map for an axis-aligned ellipse centered on the real axis.

    Semi-axes rx >= ry > 0; degenerates to :class:`IntervalMap` for ry = 0.
    This is the only non-interval spectral set the bounds accept.
    """

    def __init__(self, center, rx, ry):
        if not (rx > 0 and 0 <= ry < rx):
            raise ValueError("ellipse needs rx > ry >= 0")
        self.center = float(center)
        self.a = float(center) - float(rx)   # leftmost real point
        self.rho = 0.5 * (rx + ry)
        self.sigma = 0.5 * (rx - ry)

    def psi(self, u):
        if is_infinite_pole(u):
            return INF
        u = complex(u)
        return self.center + self.rho * u + self.sigma / u

    def phi(self, x):
        if is_infinite_pole(x):
            return INF
        x = complex(x) - self.center
        disc = cmath.sqrt(x * x - 4.0 * self.rho * self.sigma)
        u1 = (x + disc) / (2.0 * self.rho)
        u2 = (x - disc) / (2.0 * self.rho)
        return u1 if abs(u1) >= abs(u2) else u2


def _check_interval(window):
    """Raise ValueError for an ellipse window (a positive half-height)."""
    if window.half_height > 0:
        raise ValueError("needs an interval window, got an ellipse (half_height > 0)")


def _check_support(window, support):
    alpha, beta = support
    if not alpha < beta:
        raise ValueError("support needs alpha < beta")
    if beta >= window.lmin:
        raise SupportOverlapsSpectrum(
            f"support endpoint {beta} reaches into the window [{window.lmin}, {window.lmax}]"
        )
    return float(alpha), float(beta)


def markov_single_pole(window, support):
    """Optimal single repeated pole for a Markov function on an interval window.

    Returns (pole, rate) with eta_m = rate**m.  For support (-inf, 0] on a
    positive window this reduces to the closed form -sqrt(lmax*lmin) with
    rate ((lmax/lmin)**(1/4) - 1)/((lmax/lmin)**(1/4) + 1); the general case
    goes through the conformal-map chain, with analytic limit formulas for
    alpha = -inf rather than a large negative surrogate.  An ellipse window
    raises ValueError.
    """
    _check_interval(window)
    alpha, beta = _check_support(window, support)
    lmin, lmax = window.lmin, window.lmax
    if lmax - lmin <= 1e-15 * max(abs(lmax), 1.0):
        # degenerate (single-point) window: reflect through the support endpoint
        return 2.0 * beta - lmin, 0.0
    imap = IntervalMap(lmin, lmax)
    phi_beta = imap.phi(beta).real
    if math.isinf(alpha):
        # analytic limit: psi(y_opt) collapses to the reflected geometric mean
        # of the shifted window (evaluating psi directly cancels badly)
        y_opt = phi_beta - math.sqrt(phi_beta * phi_beta - 1.0)
        pole = beta - math.sqrt((lmin - beta) * (lmax - beta))
    else:
        phi_alpha = imap.phi(alpha).real
        sigma = (phi_beta - phi_alpha) / (phi_beta * phi_alpha - 1.0)
        y_opt = -1.0 / sigma - math.sqrt(1.0 / sigma**2 - 1.0)
        w = (1.0 + phi_alpha * y_opt) / (phi_alpha + y_opt)
        pole = imap.psi(w).real
    rate = 1.0 / abs(y_opt)
    return pole, rate


def _zolotarev_cpoints(ell, r):
    """Zolotarev nodes c_j = ell^2 sn^2/cn^2 (j*K/(2r)), j = 1..2r-1,
    for the gap parameter ell in (0, 1]: parameter m = 1 - ell^2, and K
    from the complementary parameter ell^2, which is exact in ell."""
    if not 0.0 < ell <= 1.0:
        raise ValueError("gap parameter must lie in (0, 1]")
    # imported here, not at module level: scipy.special adds about 65 ms
    # (2-core Xeon VM) to every ``import rkupdate``, also for runs that
    # build no Zolotarev pole
    from scipy.special import ellipj, ellipkm1

    K = ellipkm1(ell**2)
    sn, cn, _, _ = ellipj(np.arange(1, 2 * r) * K / (2.0 * r), 1.0 - ell**2)
    return (ell * sn / cn) ** 2


def zolotarev_invsqrt_poles(interval, degree):
    """Poles of the degree-`degree` Zolotarev approximation of t**(-1/2)
    on a positive interval: `degree` distinct negative reals, log-symmetric
    about -sqrt(lo*hi)."""
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < lo <= hi:
        raise ValueError("interval must be positive with lo <= hi")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if lo == hi:
        return PolePlan((-lo,) * degree)
    ell = math.sqrt(lo / hi)
    c = _zolotarev_cpoints(ell, degree)
    poles = tuple(-hi * c[2 * j] for j in range(degree))  # odd indices 1,3,...
    return PolePlan(poles)


def zolotarev_sign_poles(gap, degree):
    """Poles of the Zolotarev sign approximant on [-b,-a] u [a,b].

    `degree` counts poles; they come in conjugate pairs +/- i*b*sqrt(c) on
    the imaginary axis, so odd degrees are rounded up to a full pair
    (degree 1 and 2 both give one pair).
    """
    a, b = float(gap[0]), float(gap[1])
    if not 0.0 < a <= b:
        raise ValueError("gap needs 0 < a <= b")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    pairs = max(1, -(-degree // 2))
    c = _zolotarev_cpoints(a / b, pairs)
    poles = []
    for j in range(pairs):
        s = b * math.sqrt(c[2 * j])
        poles.append(complex(0.0, s))
        poles.append(complex(0.0, -s))
    return PolePlan(tuple(poles))


def quasi_optimal_poles(window, support, count):
    """`count` quasi-optimal poles for Markov functions with the given support.

    For support = (-inf, beta] the Zolotarev points of the shifted window are
    used; a finite alpha is reduced to that case by the Mobius transform
    sending (alpha, beta) to (-inf, 0).  All poles are real and lie left of
    the support endpoint; for (-inf, 0] on a positive window they are negative
    and log-symmetric about -sqrt(lmin*lmax).  The window must be an
    interval: an ellipse window raises ValueError.
    """
    _check_interval(window)
    alpha, beta = _check_support(window, support)
    if count < 1:
        raise ValueError("count must be >= 1")
    lmin, lmax = window.lmin, window.lmax
    if math.isinf(alpha):
        lo, hi = lmin - beta, lmax - beta
        plan = zolotarev_invsqrt_poles((lo, hi), count)
        return PolePlan(tuple(p + beta for p in plan.poles))
    # T(z) = (alpha-beta)(z-beta)/(alpha-z): beta -> 0, alpha -> -inf
    def T(z):
        return (alpha - beta) * (z - beta) / (alpha - z)

    def T_inv(w):
        return (w * alpha + (alpha - beta) * beta) / (w + alpha - beta)

    lo, hi = T(lmin), T(lmax)
    plan = zolotarev_invsqrt_poles((lo, hi), count)
    return PolePlan(tuple(T_inv(p).real for p in plan.poles))


def exp_single_pole(m):
    """The repeated pole m/sqrt(2) (for spectra shifted into (-inf, 0]).

    The caller supplies the spectral shift; shifting multiplies error bounds
    by exp(lmax_shifted).  The per-step rate tends to 1/(1+sqrt(2)) ~ 0.4142.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    xi = m / math.sqrt(2.0)
    return PolePlan((xi,) * m)


def extended_plan():
    """The cyclic plan {0, inf} of extended Krylov: 0, inf, 0, inf, ..."""
    return PolePlan((0.0, INF), repetition="cyclic")


def _conjugate_partners(pool):
    """Split a pole list into representatives and their partners: a pole of
    the upper half-plane whose conjugate is in the list takes it as its
    partner (one conjugate per pole, multiplicities counted); every other
    pole is a representative without one (None)."""
    pool = list(pool)
    reps = []
    for p in [p for p in pool if p.imag > 0]:
        q = p.conjugate()
        if q in pool:
            pool.remove(p)
            pool.remove(q)
            reps.append((p, q))
    return [(p, None) for p in pool] + reps


def leja_order(poles):
    """Greedy Leja permutation of a finite pole multiset, with each pole of
    a conjugate pair directly before its conjugate.

    Only representatives are chosen: the poles of the upper half-plane that
    have their conjugate in the set, and every pole that has not.  The first
    has maximal magnitude; each next one maximizes the product of distances
    to the poles already placed, conjugates included.  Ties are broken by
    ascending imaginary part, then ascending real part.  A chosen upper pole
    is followed at once by its conjugate, so the solvers can take the pair
    in one real step (see :mod:`rkupdate.arnoldi`).
    """
    pool = [complex(p) for p in poles]
    if not pool:
        raise ValueError("empty pole set")
    if any(is_infinite_pole(p) for p in pool):
        raise ValueError("Leja ordering is defined for finite poles only")
    pool = _conjugate_partners(pool)
    ordered = []

    def place(i):
        p, q = pool.pop(i)
        ordered.extend((p,) if q is None else (p, q))

    # initial pick: max magnitude, ties by (imag, real)
    key0 = [(-abs(p), p.imag, p.real) for p, _ in pool]
    place(min(range(len(pool)), key=key0.__getitem__))
    while pool:
        scores = []
        for p, _ in pool:
            with np.errstate(divide="ignore"):
                s = float(np.sum(np.log([abs(p - q) for q in ordered])))
            scores.append((-s, p.imag, p.real))
        place(min(range(len(pool)), key=scores.__getitem__))
    return tuple(ordered)
