import math
import warnings

import numpy as np
import pytest

import rkupdate.bounds as bounds
from rkupdate._validation import is_infinite_pole
from rkupdate.bounds import (
    SpectralWindow,
    eta_blaschke,
    frechet_perturbation_bound,
    markov_bound_hermitian,
    markov_bound_nonhermitian,
    markov_modified_bound,
    poly_update_bound,
    sign_update_bound,
)
from rkupdate.dense import norm2
from rkupdate.errors import (
    EtaNotContracting,
    LastPoleNotInfinite,
    PoleInsideDomain,
    SupportOverlapsSpectrum,
)
from rkupdate.functions import FunctionSpec
from rkupdate.oracles import dense_update
from rkupdate.poles import (
    INF,
    EllipseMap,
    PolePlan,
    extended_plan,
    markov_single_pole,
    quasi_optimal_poles,
    zolotarev_invsqrt_poles,
)
from rkupdate.updater import run_update

from conftest import rand_complex, random_hermitian

NEG_AXIS = (-np.inf, 0.0)


class TestEta:
    def test_all_infinite_closed_form(self):
        w = SpectralWindow(1.0, 9.0)
        imap = w.interval_map()
        phi_beta = abs(imap.phi(0.0))
        for m in [1, 3, 7]:
            eta = eta_blaschke([INF] * m, imap, NEG_AXIS)
            assert eta == pytest.approx(phi_beta**-m, rel=1e-10)

    def test_single_optimal_pole_rate(self):
        w = SpectralWindow(1e-3, 1.0078e4)
        pole, rate = markov_single_pole(w, NEG_AXIS)
        imap = w.interval_map()
        for m in [1, 4, 10]:
            eta = eta_blaschke([pole] * m, imap, NEG_AXIS)
            assert eta == pytest.approx(rate**m, rel=1e-9)

    def test_empty_plan(self):
        w = SpectralWindow(1.0, 2.0)
        assert eta_blaschke([], w.interval_map(), NEG_AXIS) == 1.0

    def test_monotone_in_appended_poles(self):
        w = SpectralWindow(0.5, 20.0)
        imap = w.interval_map()
        poles = [-3.0, INF, -0.7, -10.0]
        vals = [eta_blaschke(poles[:k], imap, NEG_AXIS) for k in range(1, 5)]
        assert all(vals[i + 1] <= vals[i] * (1 + 1e-12) for i in range(3))

    def test_pole_inside_domain(self):
        w = SpectralWindow(1.0, 2.0)
        with pytest.raises(PoleInsideDomain):
            eta_blaschke([1.5], w.interval_map(), NEG_AXIS)

    def test_quasi_optimal_meets_closed_bound(self):
        for ratio in [1.0078e7, 1e4]:
            w = SpectralWindow(1.0, ratio)
            imap = w.interval_map()
            for mt in range(2, 17, 2):
                plan = quasi_optimal_poles(w, NEG_AXIS, mt)
                eta = eta_blaschke(plan.poles, imap, NEG_AXIS)
                bound = 2.0 * math.exp(-mt * math.pi**2 / math.log(16.0 * ratio))
                assert eta <= 1.05 * bound

    def test_cyclic_degradation_bound(self):
        ratio = 1e5
        w = SpectralWindow(1.0, ratio)
        imap = w.interval_map()
        mt = 4
        plan = quasi_optimal_poles(w, NEG_AXIS, mt)
        for k in [2, 3]:
            eta = eta_blaschke(plan.poles * k, imap, NEG_AXIS)
            bound = 2.0**k * math.exp(-k * mt * math.pi**2 / math.log(16.0 * ratio))
            assert eta <= bound * (1 + 1e-9)

    def test_env_override(self, monkeypatch):
        w = SpectralWindow(1.0, 50.0)
        imap = w.interval_map()
        ref = eta_blaschke([-5.0, INF], imap, NEG_AXIS)
        monkeypatch.setattr(bounds, "_ETA_SAMPLES", 128)
        coarse = eta_blaschke([-5.0, INF], imap, NEG_AXIS)
        assert coarse == pytest.approx(ref, rel=1e-6)


class TestMarkovHermitian:
    def test_single_pole_rate_report(self):
        w = SpectralWindow(1e-3, 1.0078e4)
        pole, rate = markov_single_pole(w, NEG_AXIS)
        rep = markov_bound_hermitian(w, PolePlan((pole,), repetition="cyclic"),
                                     FunctionSpec.inv_sqrt(), 12)
        assert rep.rate == pytest.approx(rate, rel=1e-6)
        assert rep.values.shape == (12,)
        assert np.all(np.diff(rep.values) <= 1e-12)

    def test_closure_is_checked_on_the_plan_cycle(self):
        # a cyclic run may stop mid-pair, and so may its bound: the values at
        # m = 3 are the first three at m = 4
        w = SpectralWindow(1.0, 4.0)
        plan = PolePlan((-1.0 + 1.0j, -1.0 - 1.0j), repetition="cyclic")
        f = FunctionSpec.inv_sqrt()
        three = markov_bound_hermitian(w, plan, f, 3).values
        assert np.array_equal(three, markov_bound_hermitian(w, plan, f, 4).values[:3])
        with pytest.raises(ValueError, match="conjugate-closed"):
            markov_bound_hermitian(w, PolePlan((-1.0 + 1.0j, -2.0), repetition="cyclic"), f, 4)
        # the modified bound takes its first m - 1 poles from the same plan,
        # so the same rule holds there
        mixed = PolePlan((-1.0 + 1.0j, INF, -1.0 - 1.0j, INF), repetition="cyclic")
        inner = markov_bound_hermitian(w, mixed, f, 1).values
        assert np.array_equal(markov_modified_bound(w, mixed, f, 2).values, 4.0 * inner)
        # at m = 1, where it reads no eta, as at m = 3
        open_plan = PolePlan((INF, -1.0 + 1.0j), repetition="cyclic")
        for m in (1, 3):
            with pytest.raises(ValueError, match="conjugate-closed"):
                markov_modified_bound(SpectralWindow(1e-2, 1e2), open_plan, f, m)

    def test_dominates_measured_error(self, rng):
        A, _ = random_hermitian(rng, 40, 0.5, 30.0)
        B = 0.5 * rand_complex(rng, 40, 1)
        D = B @ B.conj().T
        w = SpectralWindow.from_matrices(A, A + D)
        f = FunctionSpec.inv_sqrt()
        pole, _ = markov_single_pole(w, NEG_AXIS)
        plan = PolePlan((pole,), repetition="cyclic")
        dense = dense_update(A, D, f, hermitian=True)
        state, rep = run_update(A, B, f=f, plan=plan, m_max=8, tol=0.0, d=2,
                                J=np.array([[1.0]]), true_update=dense)
        bounds = markov_bound_hermitian(w, plan, f, 8).values
        assert np.all(np.asarray(rep.true_errors) <= bounds)

    def test_support_overlap(self):
        w = SpectralWindow(-0.5, 2.0)
        with pytest.raises(SupportOverlapsSpectrum):
            markov_bound_hermitian(w, [INF], FunctionSpec.inv_sqrt(), 1)


class TestMarkovNonHermitian:
    def test_frozen_arithmetic(self):
        # window [1, 9] puts phi(0) = -2, so the all-infinite one-step eta is
        # exactly 1/2; with f = z^{-1/2}: 8 * |f'(1)| * (0.5/0.5) * 1 * 1 = 4
        w = SpectralWindow(1.0, 9.0)
        rep = markov_bound_nonhermitian(w, [INF], FunctionSpec.inv_sqrt(), 1, 1.0, 1.0)
        assert rep.final == pytest.approx(4.0, rel=1e-9)

    def test_small_eta_limit(self):
        w = SpectralWindow(1.0, 2.0)
        rep = markov_bound_nonhermitian(w, [INF] * 30, FunctionSpec.inv_sqrt(),
                                        30, 1.0, 1.0)
        assert rep.final <= 1e-8

    def test_eta_at_one_is_void(self):
        # the windows [lmin, 1] map the support end 0 onto the unit circle
        # (phi(0) rounds to -1), so eta = 1 and the bound is void; the check
        # comes before f' is taken at lmin, where f' of 1e-300
        # overflows
        for lmin in (1e-20, 1e-300):
            w = SpectralWindow(lmin, 1.0)
            assert w.interval_map().phi(0.0) == -1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EtaNotContracting):
                    markov_bound_nonhermitian(w, [INF], FunctionSpec.inv_sqrt(), 1, 1.0, 1.0)

    def test_matches_polynomial_structure(self):
        w = SpectralWindow(2.0, 5.0)
        f = FunctionSpec.inv_power(0.25)
        m = 4
        imap = w.interval_map()
        eta = abs(imap.phi(0.0)) ** -m
        fp = abs(f.derivative(np.array([2.0 + 0j]))[0])
        expect = 8.0 * fp * eta / (1 - eta) * 2.0 * 3.0
        rep = markov_bound_nonhermitian(w, [INF] * m, f, m, 2.0, 3.0)
        assert rep.final == pytest.approx(expect, rel=1e-9)


class TestPolyBound:
    def test_linear_function_zero(self):
        w = SpectralWindow(-1.0, 0.0)
        rep = poly_update_bound(w, FunctionSpec.identity(), 3, 1.0)
        assert rep.values[-1] <= 1e-14

    def test_exp_proxy_value(self):
        w = SpectralWindow(-1.0, 0.0)
        f = FunctionSpec.exp()
        rep = poly_update_bound(w, f, 5, 1.0)
        # oracle: independent Chebyshev interpolation of exp' of degree 4
        cheb = np.polynomial.chebyshev.Chebyshev.interpolate(np.exp, 4, domain=[-1.0, 0.0])
        x = np.linspace(-1.0, 0.0, 4001)
        err = np.abs(np.exp(x) - cheb(x)).max()
        expect = 2.0 * (1 + math.sqrt(2.0))**2 * err
        assert rep.final == pytest.approx(expect, rel=1e-6)
        assert rep.proxy

    def test_degenerates_to_perturbation_bound(self):
        w = SpectralWindow(-2.0, 0.0)
        f = FunctionSpec.exp()
        rep = poly_update_bound(w, f, 0, 1.5)
        assert rep.final == 2.0 * frechet_perturbation_bound(w, f, 1.5)


class TestFrechetBound:
    def test_zero_update(self):
        assert frechet_perturbation_bound(SpectralWindow(0.0, 1.0),
                                          FunctionSpec.exp(), 0.0) == 0.0

    def test_identity(self):
        val = frechet_perturbation_bound(SpectralWindow(-1.0, 1.0),
                                         FunctionSpec.identity(), 2.0)
        assert val == pytest.approx((1 + math.sqrt(2.0))**2 * 2.0, rel=1e-12)

    def test_exp_value(self):
        val = frechet_perturbation_bound(SpectralWindow(-2.0, 0.0),
                                         FunctionSpec.exp(), 1.0)
        assert val == pytest.approx(5.828, abs=1e-3)

    def test_dominates_frobenius_difference(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            A, _ = random_hermitian(local, 25, 0.5, 3.0)
            B = 0.3 * rand_complex(local, 25, 1)
            D = B @ B.conj().T
            w = SpectralWindow.from_matrices(A, A + D)
            f = FunctionSpec.inv_sqrt()
            diff = dense_update(A, D, f, hermitian=True)
            fro = float(np.linalg.norm(diff, "fro"))
            assert fro <= frechet_perturbation_bound(w, f, np.linalg.norm(D, "fro"))


class TestModifiedBound:
    def test_sqrt_factor(self):
        w = SpectralWindow(1.0, 4.0)
        plan = [-2.0, -3.0, INF]
        rep = markov_modified_bound(w, plan, FunctionSpec.inv_sqrt(), 3)
        inner = markov_bound_hermitian(w, plan[:-1], FunctionSpec.inv_sqrt(), 2)
        assert rep.values[-1] == pytest.approx(4.0 * inner.values[-1], rel=1e-9)

    def test_base_case_single_infinite_pole(self):
        w = SpectralWindow(1.0, 4.0)
        rep = markov_modified_bound(w, [INF], FunctionSpec.inv_sqrt(), 1)
        imap = w.interval_map()
        expect = 4.0 * (4.0 * 2.0 * 1.0 / abs(imap.phi(0.0)))
        assert rep.final == pytest.approx(expect, rel=1e-9)

    def test_last_pole_must_be_infinite(self):
        w = SpectralWindow(1.0, 4.0)
        with pytest.raises(LastPoleNotInfinite):
            markov_modified_bound(w, [INF, -2.0], FunctionSpec.inv_sqrt(), 2)


def test_sign_update_bound_constants():
    w2 = SpectralWindow(1e-4, 1.0)
    plan = [-1e-2]
    rep = sign_update_bound(w2, plan, 1, 2.0, 0.5, 1.0, FunctionSpec.inv_sqrt())
    imap = w2.interval_map()
    eta = eta_blaschke([-1e-2], imap, NEG_AXIS)
    expect = (4.0 * 2.0 + 2.0 * 0.5 * 1.0) * (2.0 * 100.0 / abs(imap.phi(0.0))) * eta
    assert rep.final == pytest.approx(expect, rel=1e-9)


def test_spectral_window_construction(rng):
    A, wA = random_hermitian(rng, 12, 1.0, 5.0)
    B = rand_complex(rng, 12, 1)
    D = B @ B.conj().T
    win = SpectralWindow.from_matrices(A, A + D)
    wD = np.linalg.eigvalsh(A + D)
    assert win.lmin == pytest.approx(min(wA.min(), wD.min()))
    assert win.lmax == pytest.approx(max(wA.max(), wD.max()))


class TestEllipseWindow:
    def test_kind_and_map(self):
        w = SpectralWindow(1.0, 9.0, half_height=1.5)
        emap = w.interval_map()
        assert isinstance(emap, EllipseMap)
        assert emap.a == pytest.approx(1.0)
        # real points left of the ellipse map outside the unit disk
        assert abs(emap.phi(0.0)) > 1.0

    @pytest.mark.parametrize("bound", [
        lambda w, f: markov_bound_hermitian(w, [-1.0], f, 1),
        lambda w, f: markov_bound_nonhermitian(w, [-1.0], f, 1, 1.0, 1.0),
        lambda w, f: markov_modified_bound(w, [-1.0, INF], f, 2),
        lambda w, f: sign_update_bound(w, [-1.0], 1, 1.0, 1.0, 1.0, f),
    ], ids=["hermitian", "nonhermitian", "modified", "sign"])
    def test_support_must_end_left_of_the_map(self, rng, bound):
        # an ellipse window's map starts at c - rx, which may round below
        # lmin; a support ending in [c - rx, lmin) overlaps the map's set
        while True:
            lmin = rng.uniform(0.1, 2.0)
            w = SpectralWindow(lmin, lmin + rng.uniform(0.5, 20.0), half_height=0.2)
            a = w.interval_map().a
            if a < w.lmin:
                break
        f = FunctionSpec.custom(lambda z: 1.0 / np.sqrt(z - a), support=(-np.inf, a))
        with pytest.raises(SupportOverlapsSpectrum):
            bound(w, f)

    def test_enclosing_ranges(self, rng):
        A = rand_complex(rng, 20, 20) + 10 * np.eye(20)   # genuinely non-normal
        w = SpectralWindow.enclosing_ranges(A)
        assert w.half_height > 0
        # Rayleigh quotients must fall inside the ellipse
        c = 0.5 * (w.lmin + w.lmax)
        rx = 0.5 * (w.lmax - w.lmin)
        ry = w.half_height
        for _ in range(200):
            x = rand_complex(rng, 20, 1)
            x /= np.linalg.norm(x)
            z = (x.conj().T @ A @ x)[0, 0]
            assert ((z.real - c) / rx) ** 2 + (z.imag / ry) ** 2 <= 1.0 + 1e-9
        # Hermitian matrices have real numerical ranges: the window is their
        # eigenvalues' interval
        H, wH = random_hermitian(rng, 20, 1.0, 5.0)
        H = 0.5 * (H + H.conj().T)
        w = SpectralWindow.enclosing_ranges(H, H + np.eye(20))
        assert w.half_height == 0.0
        assert w.lmin == pytest.approx(wH.min()) and w.lmax == pytest.approx(wH.max() + 1.0)

    def test_nonhermitian_bound_dominates_measured(self, rng):
        # mildly non-normal instance: the ellipse-window Markov bound must
        # dominate the measured two-sided update error
        from rkupdate.oracles import dense_update
        from rkupdate.updater import run_update
        n = 30
        H, _ = random_hermitian(rng, n, 2.0, 12.0)
        S = 0.08 * rand_complex(rng, n, n)
        S = 0.5 * (S - S.conj().T)                   # mild skew-Hermitian part
        A = H + S
        B = 0.2 * rand_complex(rng, n, 1)
        C = 0.2 * rand_complex(rng, n, 1)
        f = FunctionSpec.inv_sqrt()
        w = SpectralWindow.enclosing_ranges(A, A + B @ C.conj().T)
        assert w.lmin > 0
        pole = -math.sqrt(w.lmin * w.lmax)
        plan = PolePlan((pole,), repetition="cyclic")
        dense = dense_update(A, B @ C.conj().T, f)
        state, rep = run_update(A, B, C, f=f, plan=plan, m_max=8, tol=0.0, d=2,
                                true_update=dense)
        rep_b = markov_bound_nonhermitian(w, plan, f, 8, norm2(B), norm2(C))
        for err, bnd in zip(rep.true_errors, rep_b.values):
            assert err <= bnd


# ----------------------------------------------------------------------
# the one-pass prefix evaluator, pinned bit for bit to the per-prefix search

def scalar_eta(poles, imap, support):
    """Test-only copy of the per-prefix eta search: sampled maximum of
    log 1/|B| over the mapped support, then an 80-step golden section."""
    if len(poles) == 0:
        return 1.0
    alpha, beta = float(support[0]), float(support[1])
    groups = {}
    for p in poles:
        key = "inf" if is_infinite_pole(p) else complex(p)
        groups[key] = groups.get(key, 0) + 1
    n_inf = groups.pop("inf", 0)
    finite_phis, mults = [], []
    for p, mult in groups.items():
        ph = imap.phi(p)
        if abs(ph) <= 1.0 + 1e-13:
            raise PoleInsideDomain(f"pole {p} lies inside the spectral window")
        finite_phis.append(ph)
        mults.append(mult)

    def log_inv_blaschke(x):
        out = np.zeros_like(x, dtype=float)
        for ph, mult in zip(finite_phis, mults):
            out += mult * (np.log(np.abs(x - ph)) - np.log(np.abs(1.0 - x * np.conj(ph))))
        if n_inf:
            out -= n_inf * np.log(np.abs(x))
        return out

    phi_beta = imap.phi(beta).real
    nsamp = bounds._ETA_SAMPLES
    cheb = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, nsamp)))
    if math.isinf(alpha):
        grid = np.unique(np.clip(cheb, 1.0 / nsamp**2, 1.0))

        def value(tt):
            return log_inv_blaschke(np.asarray(phi_beta / tt, dtype=float))
    else:
        phi_alpha = imap.phi(alpha).real
        grid = np.unique(phi_alpha + (phi_beta - phi_alpha) * cheb)

        def value(tt):
            return log_inv_blaschke(np.asarray(tt, dtype=float))

    vals = value(grid)
    k = int(np.argmax(vals))
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, len(grid) - 1)])
    c_ = b_ - gr * (b_ - a_)
    d_ = a_ + gr * (b_ - a_)
    fc = float(value(np.array([c_]))[0])
    fd = float(value(np.array([d_]))[0])
    for _ in range(80):
        if fc > fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - gr * (b_ - a_)
            fc = float(value(np.array([c_]))[0])
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + gr * (b_ - a_)
            fd = float(value(np.array([d_]))[0])
        if abs(b_ - a_) <= 1e-14 * max(1.0, abs(a_)):
            break
    return float(np.exp(max(float(vals[k]), fc, fd)))


def _finite_support_spec():
    # a Markov-type function on the finite support (-3, -0.2); only its
    # value and derivative at the window's left end enter the bounds
    return FunctionSpec.custom(lambda z: 1.0 / (z + 5.0), lambda z: -1.0 / (z + 5.0) ** 2,
                               support=(-3.0, -0.2))


def _plan_families():
    """(name, window, poles, f): the plan shapes the bounds meet."""
    w1 = SpectralWindow(1e-3, 1.0078e4)
    pole, _ = markov_single_pole(w1, NEG_AXIS)
    w2 = SpectralWindow(1.0, 1e5)
    leja = PolePlan(quasi_optimal_poles(w2, NEG_AXIS, 10).poles,
                    repetition="cyclic", ordering="leja")
    w_sq = SpectralWindow(1e-4, 1.0)
    inv_sqrt = FunctionSpec.inv_sqrt()
    families = [("single", w1, (pole,) * 80, inv_sqrt),
                ("leja-quasi-optimal", w2, leja.expand(80), inv_sqrt)]
    for degree in (10, 2):
        zolo = PolePlan(zolotarev_invsqrt_poles((w_sq.lmin, w_sq.lmax), degree).poles,
                        repetition="cyclic", ordering="leja")
        families.append((f"zolotarev-{degree}", w_sq, zolo.expand(40), inv_sqrt))
    families.append(("interleaved-infinite", SpectralWindow(0.5, 20.0),
                     ((-3.0, INF, -0.7, INF, INF, -10.0, -3.0) * 6)[:40], inv_sqrt))
    families.append(("finite-support", SpectralWindow(1.0, 50.0),
                     ((-0.5, -2.0, INF, -0.5, -7.0) * 8)[:40], _finite_support_spec()))
    return families


FAMILIES = _plan_families()


@pytest.fixture(params=[None, 128], ids=["default-samples", "128-samples"])
def eta_samples(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(bounds, "_ETA_SAMPLES", request.param)
    return request.param


@pytest.mark.parametrize("name,window,poles,f", FAMILIES, ids=[fam[0] for fam in FAMILIES])
def test_bounds_bitwise_equal_per_prefix_search(name, window, poles, f, eta_samples,
                                                monkeypatch):
    imap = window.interval_map()
    support = f.markov_support
    m = len(poles)
    searched = {}   # prefix -> eta of its own search; every call below uses one window

    def per_prefix(seq, imap_, support_):
        assert support_ == support
        for k in range(1, len(seq) + 1):
            if seq[:k] not in searched:
                searched[seq[:k]] = scalar_eta(seq[:k], imap_, support_)
        return np.array([searched[seq[:k]] for k in range(1, len(seq) + 1)])

    expect = per_prefix(poles, imap, support)
    assert np.array_equal(bounds._eta_prefixes(poles, imap, support), expect)
    for k in (1, 2, m // 2, m):
        assert eta_blaschke(poles, imap, support, m=k) == expect[k - 1]
        assert eta_blaschke(poles[:k], imap, support) == expect[k - 1]

    def run_all():
        with_inf = poles[:-1] + (INF,)
        return [markov_bound_hermitian(window, poles, f, m).values,
                markov_bound_nonhermitian(window, poles, f, m, 2.0, 3.0).values,
                markov_modified_bound(window, with_inf, f, m).values,
                sign_update_bound(window, poles, m, 2.0, 0.5, 1.0, f).values]

    got = run_all()
    # the same bounds with every prefix searched on its own
    monkeypatch.setattr(bounds, "_eta_prefixes", per_prefix)
    for values, ref in zip(got, run_all()):
        assert np.array_equal(values, ref)


def test_pole_inside_domain_named_at_first_bad_pole():
    w = SpectralWindow(1.0, 2.0)
    imap = w.interval_map()
    poles = (-1.0, INF, -3.0, 1.5, -1.0, 1.2)
    with pytest.raises(PoleInsideDomain) as ref:
        for k in range(1, len(poles) + 1):
            scalar_eta(poles[:k], imap, NEG_AXIS)
    with pytest.raises(PoleInsideDomain) as got:
        eta_blaschke(poles, imap, NEG_AXIS)
    assert str(got.value) == str(ref.value) == "pole (1.5+0j) lies inside the spectral window"
    with pytest.raises(PoleInsideDomain, match=r"pole \(1\.5\+0j\)"):
        markov_bound_hermitian(w, poles[:4], FunctionSpec.inv_sqrt(), 4)


def test_pole_on_the_grid_adds_no_nan():
    # a pole at the support's left end maps onto the first grid sample, so
    # its term there is -inf; prefixes without that pole must not add 0 * -inf
    w = SpectralWindow(1.0, 50.0)
    imap = w.interval_map()
    support = (-3.0, -0.2)
    poles = (-1.0, INF, -3.0, -1.0, -7.0)
    with np.errstate(divide="ignore"):
        expect = [scalar_eta(poles[:k], imap, support) for k in range(1, len(poles) + 1)]
        got = bounds._eta_prefixes(poles, imap, support)
    assert np.array_equal(got, expect)


def test_pole_at_support_end_takes_no_log_of_zero(monkeypatch):
    # extended_plan's pole 0 is the right end of inv_sqrt's support (-inf, 0],
    # so it maps onto the last grid sample; the bound must come out with no
    # divide-by-zero warning (an error under this suite's warning filter)
    # and with the bits of the per-prefix search
    window = SpectralWindow(1e-2, 1e2)
    f = FunctionSpec.inv_sqrt()
    got = markov_bound_hermitian(window, extended_plan(), f, 6).values
    assert np.all(np.isfinite(got))

    def per_prefix(seq, imap, support):
        with np.errstate(divide="ignore"):
            return np.array([scalar_eta(seq[:k], imap, support)
                             for k in range(1, len(seq) + 1)])

    monkeypatch.setattr(bounds, "_eta_prefixes", per_prefix)
    assert np.array_equal(got, markov_bound_hermitian(window, extended_plan(), f, 6).values)
