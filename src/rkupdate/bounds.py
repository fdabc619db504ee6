"""A priori error-bound evaluators.

Blaschke-product convergence factors eta_m, Markov-function bounds for the
Hermitian and non-Hermitian update, the polynomial-Krylov bound, the global
perturbation bound, and the z*f(z) modification trick.  Everything here is
scalar work on spectral windows; nothing touches large matrices.

A bound takes its m poles from :meth:`rkupdate.poles.PolePlan.expand` by
the rule the solvers use: a raw sequence is an as-given plan, so it must
hold m poles (it is not tiled), and the Hermitian bounds ask the plan's
cycle, not its first m poles, to be closed under conjugation.  A bound at
steps 1..m needs eta for every prefix of that sequence; one pass
(:func:`_eta_prefixes`) maps each distinct pole once, samples the grid once
and refines all prefixes together, with the same bits as searching each
prefix on its own.  The four Markov bounds (Hermitian, non-Hermitian,
modified and sign update) run one pipeline, :func:`_markov_etas`: the
support check of :mod:`rkupdate.poles` (f's Markov support strictly left
of the window) and of the window's map (strictly left of its left end),
the plan's m poles, the window's conformal map, eta of
every prefix, the factor 2 sup|f| / |phi(beta)| in front of eta and the
per-step rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._validation import as_array, is_infinite_pole
from .errors import (
    EtaNotContracting,
    LastPoleNotInfinite,
    PoleInsideDomain,
    SupportOverlapsSpectrum,
)
from .poles import EllipseMap, IntervalMap, PolePlan, _check_support

__all__ = [
    "SpectralWindow", "BoundReport", "eta_blaschke",
    "markov_bound_hermitian", "markov_bound_nonhermitian",
    "poly_update_bound", "frechet_perturbation_bound",
    "markov_modified_bound", "sign_update_bound",
]

#: sample count of the grid on which the eta maximization starts
_ETA_SAMPLES = 4096

#: sample count of the grid on which the Chebyshev proxy takes its maximum
_PROXY_SAMPLES = 2048

#: constant of the Crouzeix-Kressner Frechet-derivative bound
_CK = (1.0 + math.sqrt(2.0)) ** 2


@dataclass(frozen=True)
class SpectralWindow:
    """Interval (or axis-symmetric ellipse) surrogate for the union of the
    two numerical ranges.

    ``lmin``/``lmax`` are the real extent; a positive ``half_height`` turns
    the window into the axis-symmetric ellipse stub used for non-Hermitian
    problems (any other convex set is rejected).  ``lmin`` is the leftmost
    real point in either case.
    """

    lmin: float
    lmax: float
    half_height: float = 0.0

    def __post_init__(self):
        if not self.lmin <= self.lmax:
            raise ValueError("window needs lmin <= lmax")
        if self.half_height < 0:
            raise ValueError("half_height must be nonnegative")

    @classmethod
    def from_matrices(cls, A, A_plus):
        """Window [min of both smallest, max of both largest eigenvalues] of
        two Hermitian matrices, real ones in real arithmetic."""
        wa = np.linalg.eigvalsh(as_array(A, square=True))
        wb = np.linalg.eigvalsh(as_array(A_plus, "A_plus", square=True))
        return cls(float(min(wa[0], wb[0])), float(max(wa[-1], wb[-1])))

    @classmethod
    def enclosing_ranges(cls, *matrices):
        """Axis-symmetric ellipse enclosing the numerical ranges of the
        given matrices (via their Hermitian/skew parts, desk scale).

        The numerical range sits in the rectangle [Hermitian extent] x
        [i times skew extent] of half-sizes (w, h); the ellipse with
        rx = sqrt(w^2 + 4h^2), ry = sqrt(h^2 + w^2/4) passes exactly through
        the rectangle corners, always satisfies rx > ry, and inflates the
        real extent by at most 2h^2/w.
        """
        lo, hi, h = np.inf, -np.inf, 0.0
        for M in matrices:
            M = as_array(M, "M", square=True)
            H = 0.5 * (M + M.conj().T)
            S = (M - M.conj().T) / 2j
            wh = np.linalg.eigvalsh(H)
            ws = np.linalg.eigvalsh(S)
            lo = min(lo, wh[0])
            hi = max(hi, wh[-1])
            h = max(h, abs(ws[0]), abs(ws[-1]))
        if h == 0.0:
            return cls(float(lo), float(hi))
        c = 0.5 * (lo + hi)
        w = 0.5 * (hi - lo)
        rx = math.hypot(w, 2.0 * h) * (1.0 + 1e-12)
        ry = math.hypot(h, 0.5 * w) * (1.0 + 1e-12)
        return cls(float(c - rx), float(c + rx), half_height=float(ry))

    def interval_map(self):
        if self.half_height > 0:
            c = 0.5 * (self.lmin + self.lmax)
            rx = 0.5 * (self.lmax - self.lmin)
            return EllipseMap(c, rx, self.half_height)
        return IntervalMap(self.lmin, self.lmax)


@dataclass
class BoundReport:
    values: np.ndarray          # bound at steps 1..m
    rate: float                 # aggregate per-step factor
    proxy: str = ""             # nonempty when a computable proxy replaces an inf

    @property
    def final(self):
        return float(self.values[-1])


def _log_abs(z):
    """log|z|, and -inf where z is 0 without evaluating log(0): a pole that
    maps onto a sample (a support end point) makes its term -inf there."""
    r = np.abs(z)
    return np.log(r, out=np.full(r.shape, -np.inf), where=r > 0.0)


def _grouped_log_inv_blaschke(terms, mult, n_inf, log_abs_x):
    """log 1/|B(x)| from per-group terms: the multiples ``mult[g] * terms[g]``
    added to zeros in group order, then ``n_inf * log|x|`` subtracted.

    ``mult[g]`` and ``n_inf`` hold one count per column of ``terms[g]`` (or
    one count for all).  A zero count is never multiplied, since a term may
    be -inf and 0 * inf is NaN; it adds +0.0 instead, which changes no bit of
    a sum that starts at +0.0.
    """
    out = np.zeros(terms.shape[1:])
    for t, k in zip(terms, mult):
        out += np.multiply(k, t, out=np.zeros_like(out), where=k > 0)
    if log_abs_x is not None:
        out -= np.multiply(n_inf, log_abs_x, out=np.zeros_like(out), where=n_inf > 0)
    return out


def _eta_prefixes(poles, imap, support):
    """eta of every prefix ``poles[:k]``, k = 1..m, in one pass.

    The maximum of log 1/|B_k| is located on a Chebyshev-distributed sample
    grid of ``_ETA_SAMPLES`` points and sharpened by golden-section
    refinement around the best sample.  The distinct poles are mapped once and their log terms on the
    grid computed once; each prefix's grid values are rebuilt from those
    terms one row at a time, and the refinement runs for all prefixes at
    once, each row stopping where its own search converges.  Every entry is
    bit for bit the value the same search gives for that prefix alone.
    """
    alpha, beta = float(support[0]), float(support[1])
    # group the finite poles in first-occurrence order; -1 marks infinity
    group_of, index, phis = [], {}, []
    for p in poles:
        if is_infinite_pole(p):
            group_of.append(-1)
            continue
        key = complex(p)
        if key not in index:
            ph = imap.phi(key)
            if abs(ph) <= 1.0 + 1e-13:
                raise PoleInsideDomain(f"pole {key} lies inside the spectral window")
            index[key] = len(phis)
            phis.append(ph)
        group_of.append(index[key])
    group_of = np.array(group_of, dtype=int)
    # mult[g, k] and n_inf[k]: multiplicity of group g and count of infinite
    # poles in poles[:k + 1]
    mult = np.cumsum(group_of == np.arange(len(phis)).reshape(-1, 1), axis=1)
    n_inf = np.cumsum(group_of == -1)

    phi_beta = imap.phi(beta).real
    nsamp = _ETA_SAMPLES
    cheb = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, nsamp)))  # [0, 1], clustered
    if math.isinf(alpha):
        # substitute x = phi(beta)/t, t in (0, 1]
        grid = np.unique(np.clip(cheb, 1.0 / nsamp**2, 1.0))
        def to_x(t):
            return phi_beta / t
    else:
        phi_alpha = imap.phi(alpha).real
        grid = np.unique(phi_alpha + (phi_beta - phi_alpha) * cheb)
        def to_x(t):
            return t
    any_inf = bool(n_inf[-1])

    def terms(x):
        # one group at a time: temporaries stay the size of x
        T = np.empty((len(phis), len(x)))
        for g, ph in enumerate(phis):
            T[g] = _log_abs(x - ph) - _log_abs(1.0 - x * np.conj(ph))
        return T, (_log_abs(x) if any_inf else None)

    def value(t, rows):
        T, log_abs_x = terms(to_x(t))
        return _grouped_log_inv_blaschke(T, mult[:, rows], n_inf[rows], log_abs_x)

    m = len(group_of)
    T_grid, log_abs_grid = terms(to_x(grid))
    best = np.empty(m)
    a = np.empty(m)
    b = np.empty(m)
    for k in range(m):
        vals = _grouped_log_inv_blaschke(T_grid, mult[:, k:k + 1], n_inf[k:k + 1],
                                         log_abs_grid)
        i = int(np.argmax(vals))
        best[k] = vals[i]
        a[k] = grid[max(i - 1, 0)]
        b[k] = grid[min(i + 1, len(grid) - 1)]

    # golden-section refinement of each row's bracket around its best sample
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    rows = np.arange(m)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = value(c, rows)
    fd = value(d, rows)
    for _ in range(80):
        if len(rows) == 0:
            break
        left = fc[rows] > fd[rows]
        lr, rr = rows[left], rows[~left]
        b[lr], d[lr], fd[lr] = d[lr], c[lr], fc[lr]
        c[lr] = b[lr] - gr * (b[lr] - a[lr])
        a[rr], c[rr], fc[rr] = c[rr], d[rr], fd[rr]
        d[rr] = a[rr] + gr * (b[rr] - a[rr])
        new = np.where(left, c[rows], d[rows])
        f_new = value(new, rows)
        fc[lr] = f_new[left]
        fd[rr] = f_new[~left]
        rows = rows[np.abs(b[rows] - a[rows]) > 1e-14 * np.maximum(1.0, np.abs(a[rows]))]
    # max(grid value, fc, fd) with the builtin's order: a later value wins
    # only when it is greater
    best = np.where(fc > best, fc, best)
    best = np.where(fd > best, fd, best)
    return np.exp(best)


def eta_blaschke(plan, imap, support, m=None):
    """Convergence factor eta = max over the mapped support of 1/|B_m|.

    ``plan`` may be a PolePlan or an explicit pole sequence, expanded to m
    poles (one cycle when m is None); ``imap`` the window's conformal map;
    ``support`` the (alpha, beta) interval of the Markov function.  An
    empty sequence gives 1.  Infinite poles contribute a factor 1/|x| each.
    The maximum is searched as in :func:`_eta_prefixes`, which evaluates
    every prefix of the sequence in one pass; this is its last entry.
    """
    poles = PolePlan.of(plan).expand(m)
    if len(poles) == 0:
        return 1.0
    if not support[0] < support[1]:
        raise ValueError("support needs alpha < beta")
    _check_map_support(imap, support)
    return float(_eta_prefixes(poles, imap, support)[-1])


def _check_map_support(imap, support):
    """The support must end strictly left of the map's left end ``imap.a``:
    ``lmin`` for an interval, and ``c - rx`` for an ellipse window, which
    may round below its ``lmin``."""
    if not support[1] < imap.a:
        raise SupportOverlapsSpectrum("support must lie strictly left of the window")


def _markov_lead(f, window, imap, support):
    """2 sup|f| / |phi(beta)|, the Markov factor in front of eta; Markov
    functions are monotone on the window, so sup|f| sits at the endpoint
    nearest the support."""
    sup_f = float(abs(f.scalar(np.array([window.lmin]))[0]))
    return 2.0 * sup_f / abs(imap.phi(support[1]))


def _markov_etas(window, plan, f, m):
    """(lead, etas, rate) of a Markov bound for f on the window: the
    :func:`_markov_lead`, eta of the plan's first k poles for k = 1..m, and
    the per-step rate eta_m^(1/m).  m = 0 gives no etas and rate 1."""
    if not f.is_markov:
        raise ValueError("function has no Markov support interval")
    support = _check_support(window, f.markov_support)
    imap = window.interval_map()
    _check_map_support(imap, support)
    lead = _markov_lead(f, window, imap, support)
    if m == 0:
        return lead, np.ones(0), 1.0
    etas = _eta_prefixes(PolePlan.of(plan).expand(m), imap, support)
    return lead, etas, float(etas[-1] ** (1.0 / m))


def markov_bound_hermitian(window, plan, f, m):
    """Bound 4 * (2 ||f||_E / |phi(beta)|) * eta_k for k = 1..m (Hermitian update).

    As in the Hermitian mode of :func:`rkupdate.updater.run_update`, the
    plan's cycle must be closed under conjugation; its first m poles need
    not be (a cyclic run may stop mid-pair).
    """
    lead, etas, rate = _markov_etas(window, _conjugate_closed(plan), f, m)
    return BoundReport(values=4.0 * lead * etas, rate=rate)


def _conjugate_closed(plan):
    """The plan as a :class:`PolePlan`, whose cycle a Hermitian bound asks
    to be closed under conjugation."""
    plan = PolePlan.of(plan)
    if not plan.conjugate_closed():
        raise ValueError("Hermitian Markov bound requires a conjugate-closed plan")
    return plan


def markov_bound_nonhermitian(window, plan, f, m, normB, normC):
    """Bound 8 |f'(lmin)| * eta/(1-eta) * ||B|| ||C|| (non-Hermitian update)."""
    _, etas, rate = _markov_etas(window, plan, f, m)
    if etas[-1] >= 1.0:
        raise EtaNotContracting(f"eta = {etas[-1]:.3e} >= 1; bound is void")
    fprime = float(abs(f.derivative(np.array([window.lmin + 0j]))[0]))
    with np.errstate(divide="ignore"):
        values = 8.0 * fprime * (etas / np.maximum(1.0 - etas, 1e-300)) * normB * normC
    return BoundReport(values=values, rate=rate)


def _cheb_best_proxy(df, a, b, degree):
    """Chebyshev-interpolation proxy for inf over polynomials of given degree
    of ||f' - p|| on [a, b]; within (1 + Lebesgue constant) of the true inf."""
    k = np.arange(degree + 1)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * (degree + 1)))
    xn = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    coeffs = np.polynomial.chebyshev.chebfit(nodes, np.real(df(xn)), degree)
    x = np.linspace(a, b, _PROXY_SAMPLES)
    xt = (2.0 * x - (a + b)) / (b - a)
    interp = np.polynomial.chebyshev.chebval(xt, coeffs)
    return float(np.abs(np.real(df(x)) - interp).max())


def poly_update_bound(window, f, m, normD_F):
    """Polynomial-Krylov bound 2 (1+sqrt2)^2 ||D||_F inf_{deg <= m-1} ||f' - p||.

    The best-approximation infimum is replaced by a Chebyshev-interpolation
    proxy (an upper estimate within a Lebesgue-constant factor); the report
    labels it.
    """
    a, b = window.lmin, window.lmax
    def df(x):
        return f.derivative(np.asarray(x, dtype=complex))
    values = []
    for k in range(1, m + 1):
        inf_proxy = _cheb_best_proxy(df, a, b, k - 1)
        values.append(2.0 * _CK * normD_F * inf_proxy)
    values = np.array(values or [2.0 * frechet_perturbation_bound(window, f, normD_F)])
    if m > 1 and values[0] > 0:
        rate = float((values[-1] / values[0]) ** (1.0 / (m - 1)))
    else:
        rate = 1.0
    return BoundReport(values=values, rate=rate,
                       proxy="chebyshev-interpolation upper estimate")


def frechet_perturbation_bound(window, f, normD_F):
    """Global bound (1+sqrt2)^2 sup|f'| ||D||_F for ||f(A+D) - f(A)||_F,
    sup|f'| taken on the grid of the Chebyshev proxy."""
    x = np.linspace(window.lmin, window.lmax, _PROXY_SAMPLES)
    return _CK * float(np.abs(f.derivative(x)).max()) * float(normD_F)


def markov_modified_bound(window, plan, f_hat, m):
    """Bound for f(z) = z * f_hat(z) with a final infinite pole:
    ||p1||_E times the Markov bound for f_hat at step m-1 (on the same plan,
    whose first m-1 poles are the ones before the last)."""
    plan = PolePlan.of(plan)
    if not is_infinite_pole(plan.expand(m)[-1]):
        raise LastPoleNotInfinite("the modification trick fixes the last pole at infinity")
    sup_p1 = max(abs(window.lmin), abs(window.lmax))
    # at m = 1 the Hermitian bound of no step: its lead, eta = 1
    lead, etas, rate = _markov_etas(window, _conjugate_closed(plan), f_hat, m - 1)
    return BoundReport(values=sup_p1 * (4.0 * lead * (etas if m > 1 else np.ones(1))), rate=rate)


def sign_update_bound(window_squared, plan, m, norm_A_plus_D, norm_BJ, norm_B, inv_sqrt):
    """Sign-update bound (4||A+D|| + 2||BJ|| ||B||) * min ||f - r|| on the
    squared window, with the Markov estimate for the inverse square root."""
    markov_lead, etas, rate = _markov_etas(window_squared, plan, inv_sqrt, m)
    lead = (4.0 * norm_A_plus_D + 2.0 * norm_BJ * norm_B)
    return BoundReport(values=lead * markov_lead * etas, rate=rate)
