import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkupdate.arnoldi import build_basis
from rkupdate.bounds import (
    SpectralWindow,
    eta_blaschke,
    markov_bound_hermitian,
    markov_bound_nonhermitian,
)
from rkupdate.errors import SupportOverlapsSpectrum
from rkupdate.functions import FunctionSpec
from rkupdate.poles import (
    INF,
    EllipseMap,
    IntervalMap,
    PolePlan,
    exp_single_pole,
    extended_plan,
    leja_order,
    markov_single_pole,
    quasi_optimal_poles,
    zolotarev_invsqrt_poles,
    zolotarev_sign_poles,
)
from rkupdate.updater import run_update

from conftest import rand_complex, random_hermitian


class TestPolePlan:
    def test_cyclic_expand(self):
        plan = PolePlan((-1.0, INF), repetition="cyclic")
        assert plan.expand(5) == (-1.0, INF, -1.0, INF, -1.0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            plan.expand(0)

    def test_as_given_requires_enough(self):
        with pytest.raises(ValueError):
            PolePlan((-1.0,)).expand(2)

    def test_conjugate_closed(self):
        assert PolePlan((1j, -1j, 2.0, INF)).conjugate_closed()
        assert not PolePlan((1j, 2.0)).conjugate_closed()
        assert PolePlan((1j, 1j, -1j, -1j)).conjugate_closed()
        assert not PolePlan((1j, 1j, -1j)).conjugate_closed()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(st.sampled_from([2j, -2j, 1 + 2j, 1 - 2j, 1 + 1e-300j, 1 - 1e-300j,
                                     -3 + 0j, complex(-3, -0.0), 0.0, INF]), max_size=7))
    def test_conjugate_closed_against_the_multisets(self, poles):
        # closed when the finite poles and their conjugates are one multiset
        finite = [complex(p) for p in poles if p != INF]
        want = Counter(finite) == Counter(z.conjugate() for z in finite)
        assert PolePlan(tuple(poles)).conjugate_closed() == want

    def test_from_text(self):
        text = "# poles\n-3.5\n\ninf\n1.25+0.5j\n1.25-0.5j\n"
        plan = PolePlan.from_text(text)
        assert plan.poles == (-3.5, INF, 1.25 + 0.5j, 1.25 - 0.5j)
        assert plan.repetition == "cyclic"
        with pytest.raises(ValueError):
            PolePlan.from_text("# no poles\n\n")

    def test_leja_ordering_applied_before_repetition(self):
        plan = PolePlan((-1.0, -4.0, -2.0), repetition="cyclic", ordering="leja")
        assert plan.expand(4) == (-4.0, -1.0, -2.0, -4.0)

    def test_leja_ordering_applied_once_when_made(self):
        plan = PolePlan((-1.0, -4.0, -2.0), ordering="leja")
        assert plan.poles == plan.expand() == (-4.0, -1.0, -2.0)
        assert plan.expand(3) == (-4.0, -1.0, -2.0)

    def test_of(self):
        plan = PolePlan((-1.0, INF), repetition="cyclic")
        assert PolePlan.of(plan) is plan
        raw = PolePlan.of([-1.0, INF])
        assert raw == PolePlan((-1.0, INF)) and raw.repetition == "as-given"
        assert raw.expand() == (-1.0, INF)

    @pytest.mark.parametrize("pole", [math.nan, complex(math.nan, 1.0),
                                      complex(-1.0, math.nan), complex(math.inf, math.nan)])
    def test_nan_pole_rejected(self, pole):
        with pytest.raises(ValueError, match="not a number"):
            PolePlan((-1.0, pole))
        with pytest.raises(ValueError, match="not a number"):
            PolePlan((pole,), repetition="cyclic", ordering="leja")

    @pytest.mark.parametrize("pole", [math.inf, -math.inf, complex(0.0, math.inf),
                                      complex(-math.inf, 1.0)])
    def test_infinite_poles_stay_polynomial_steps(self, pole):
        assert PolePlan((pole, -1.0)).poles == (INF, -1.0)

    def test_from_text_rejects_nan(self):
        for text in ("nan\n-1\n", "-1\nnan+1j\n", "1+nanj\n"):
            with pytest.raises(ValueError, match="not a number"):
                PolePlan.from_text(text)

    @pytest.mark.parametrize("repetition", ["as-given", "cyclic"])
    def test_empty_plan(self, repetition):
        plan = PolePlan((), repetition=repetition)
        with pytest.raises(ValueError, match="plan has 0 poles, 3 requested"):
            plan.expand(3)
        assert plan.expand() == ()


class TestIntervalMap:
    def test_round_trips(self):
        imap = IntervalMap(0.5, 4.0)
        for u in [1.1, -2.0, 3.7 + 1.2j, -1.1 - 0.3j]:
            assert abs(imap.phi(imap.psi(u)) - u) <= 1e-13 * max(1.0, abs(u))
        for x in [-3.0, 7.0, 0.2, 5.0 + 2.0j]:
            assert abs(imap.psi(imap.phi(x)) - x) <= 1e-12 * max(1.0, abs(x))

    def test_normalization_at_infinity(self):
        imap = IntervalMap(1.0, 3.0)
        assert imap.psi(INF) == INF and imap.phi(INF) == INF
        u = 1e9
        assert imap.psi(u).real / u == pytest.approx(imap.halfwidth / 2, rel=1e-6)

    def test_exterior(self):
        imap = IntervalMap(1.0, 3.0)
        for x in [0.5, 3.5, -10.0, 2.0 + 1.0j]:
            assert abs(imap.phi(x)) > 1.0


class TestEllipseMap:
    def test_round_trip(self):
        emap = EllipseMap(2.0, 3.0, 1.0)
        for x in [-4.0, 9.0, 2.0 + 5.0j]:
            assert abs(emap.psi(emap.phi(x)) - x) <= 1e-12 * max(1.0, abs(x))
        assert emap.psi(INF) == INF and emap.phi(INF) == INF


class TestMarkovSinglePole:
    def test_negative_axis_closed_form(self):
        w = SpectralWindow(1e-3, 1.0078e4)
        pole, rate = markov_single_pole(w, (-np.inf, 0.0))
        # oracle: closed formulas evaluated directly
        assert pole == pytest.approx(-math.sqrt(1e-3 * 1.0078e4), rel=1e-10)
        rho = (1.0078e4 / 1e-3) ** 0.25
        assert rate == pytest.approx((rho - 1) / (rho + 1), rel=1e-10)
        assert pole == pytest.approx(-3.1746, rel=1e-4)
        assert rate == pytest.approx(0.9651, abs=1e-4)

    def test_degenerate_window(self):
        pole, rate = markov_single_pole(SpectralWindow(1.0, 1.0), (-np.inf, 0.0))
        assert pole == pytest.approx(-1.0)
        assert rate == 0.0

    def test_finite_alpha_approaches_limit(self):
        w = SpectralWindow(0.5, 8.0)
        pole_inf, rate_inf = markov_single_pole(w, (-np.inf, 0.0))
        pole_fin, rate_fin = markov_single_pole(w, (-1e12, 0.0))
        assert pole_fin == pytest.approx(pole_inf, rel=1e-5)
        assert rate_fin == pytest.approx(rate_inf, rel=1e-5)

    def test_support_overlap(self):
        with pytest.raises(SupportOverlapsSpectrum):
            markov_single_pole(SpectralWindow(1.0, 2.0), (-np.inf, 1.5))


class TestQuasiOptimalPoles:
    def test_single_pole_consistency(self):
        w = SpectralWindow(1e-3, 1.0078e4)
        plan = quasi_optimal_poles(w, (-np.inf, 0.0), 1)
        pole, _ = markov_single_pole(w, (-np.inf, 0.0))
        assert abs(plan.poles[0].real - pole) <= 0.1 * abs(pole)
        assert abs(plan.poles[0].real - pole) <= 1e-6 * abs(pole)

    def test_log_symmetry(self):
        w = SpectralWindow(1e-4, 1.0)
        plan = quasi_optimal_poles(w, (-np.inf, 0.0), 9)
        ps = np.array([p.real for p in plan.poles])
        assert np.all(ps < 0)
        prods = ps * ps[::-1]
        assert np.allclose(prods, 1e-4, rtol=1e-8)

    def test_distinct_and_count(self):
        plan = quasi_optimal_poles(SpectralWindow(0.1, 50.0), (-np.inf, 0.0), 12)
        assert len(plan.poles) == 12
        assert len(set(plan.poles)) == 12

    def test_finite_alpha_single_matches_optimal(self):
        w = SpectralWindow(2.0, 40.0)
        support = (-6.0, 1.0)
        plan = quasi_optimal_poles(w, support, 1)
        pole, _ = markov_single_pole(w, support)
        assert plan.poles[0].real == pytest.approx(pole, rel=1e-8)

    def test_support_overlap(self):
        with pytest.raises(SupportOverlapsSpectrum):
            quasi_optimal_poles(SpectralWindow(1.0, 2.0), (-np.inf, 1.0), 3)


def test_single_pole_and_quasi_optimal_plans_refuse_an_ellipse_window():
    # both read only lmin and lmax, and would return the interval's poles
    window = SpectralWindow(1.0, 3.0, half_height=0.8)
    with pytest.raises(ValueError, match="interval window"):
        markov_single_pole(window, (-np.inf, 0.0))
    with pytest.raises(ValueError, match="interval window"):
        quasi_optimal_poles(window, (-np.inf, 0.0), 4)


class TestZolotarev:
    def test_invsqrt_degree_one_is_geometric_mean(self):
        plan = zolotarev_invsqrt_poles((1e-4, 1.0), 1)
        assert plan.poles[0].real == pytest.approx(-1e-2, rel=1e-10)
        # on a one-point interval every pole is minus that point
        assert zolotarev_invsqrt_poles((2.0, 2.0), 3).poles == (-2.0,) * 3

    def test_sign_degree_one_two_point_limit(self):
        plan = zolotarev_sign_poles((1.0, 1.0), 1)
        assert len(plan.poles) == 2
        assert plan.poles[0] == pytest.approx(1j, abs=1e-12)
        assert plan.poles[1] == pytest.approx(-1j, abs=1e-12)

    def test_sign_conjugate_closed_exactly(self):
        plan = zolotarev_sign_poles((1e-2, 1.0), 10)
        assert len(plan.poles) == 10
        assert plan.conjugate_closed()
        assert all(p.real == 0.0 for p in plan.poles)

    def test_sign_squares_feed_invsqrt(self):
        # squares of degree-2r sign poles = degree-r inverse-sqrt poles (x2)
        sign_plan = zolotarev_sign_poles((1e-2, 1.0), 10)
        inv_plan = zolotarev_invsqrt_poles((1e-4, 1.0), 5)
        squares = sorted({(p**2).real for p in sign_plan.poles})
        invs = sorted(p.real for p in inv_plan.poles)
        assert np.allclose(squares, invs, rtol=1e-9)

    @staticmethod
    def _sign_sup_error(a, b, degree, samples=10000):
        """Sup-norm sweep oracle for the induced sign approximant."""
        plan = zolotarev_sign_poles((a, b), degree)
        codd = sorted({-(p**2).real / b**2 for p in plan.poles})
        pairs = len(codd)
        # the matching zeros interlace the poles (even-index elliptic nodes)
        from rkupdate.poles import _zolotarev_cpoints
        c = _zolotarev_cpoints(a / b, pairs)
        ceven = c[1::2]
        x = np.linspace(a, b, samples)
        t = (x / b) ** 2
        g = (x / b)
        for ce in ceven:
            g = g * (t + ce)
        for co in codd:
            g = g / (t + co)
        gmin, gmax = g.min(), g.max()
        return (gmax - gmin) / (gmax + gmin)

    def test_sign_approximant_error_degree10(self):
        # measured optimal sup error on [1e-2, 1] at 5 conjugate pairs;
        # frozen from the sup-norm sweep oracle (the underlying method run
        # with these poles reaches far lower errors by cyclic repetition)
        err = self._sign_sup_error(1e-2, 1.0, 10)
        assert 8e-4 <= err <= 1.2e-3
        # optimal approximant decays at ~exp(-2 pi^2/log(16 b^2/a^2)) per pair
        err4 = self._sign_sup_error(1e-2, 1.0, 4)
        rate = math.exp(-2.0 * math.pi**2 / math.log(16.0 * 1e4))
        assert err / err4 == pytest.approx(rate**3, rel=0.35)

    # 40-digit mpmath values of the poles for the double inputs
    def test_sign_poles_against_exact_values(self):
        exact = [0.056690818135157393019, 0.46161159074256833233,
                 3.249485130100471111, 26.459311213745911349]
        poles = zolotarev_sign_poles((0.05, 30.0), 8).poles
        upper = sorted(p.imag for p in poles if p.imag > 0)
        assert upper == pytest.approx(exact, rel=5e-11, abs=0.0)

    def test_invsqrt_poles_against_exact_values(self):
        exact = [-0.0015196144497831463035, -0.12525172244114423797,
                 -7.9839221410300352751, -658.06165514068593075]
        poles = zolotarev_invsqrt_poles((1e-3, 1e3), 4).poles
        assert all(p.imag == 0.0 for p in poles)
        assert sorted((p.real for p in poles), reverse=True) == \
            pytest.approx(exact, rel=5e-11, abs=0.0)

    def test_invsqrt_poles_negative_real(self):
        plan = zolotarev_invsqrt_poles((0.25, 9.0), 7)
        assert all(p.imag == 0 and p.real < 0 for p in plan.poles)


def test_exp_single_pole():
    assert exp_single_pole(1).poles == (1 / math.sqrt(2.0),)
    plan = exp_single_pole(10)
    assert len(plan.poles) == 10
    assert all(p == pytest.approx(7.0711, abs=1e-4) for p in plan.poles)


def test_extended_plan():
    assert extended_plan().expand() == (0.0, INF)
    assert extended_plan().expand(1) == (0.0,)
    assert extended_plan().expand(5) == (0.0, INF, 0.0, INF, 0.0)


class TestLeja:
    def test_singleton(self):
        assert leja_order([-2.0]) == (-2.0,)

    def test_hand_computed(self):
        # greedy products: start at max modulus -4; then |-1+4|=3 > |-2+4|=2
        assert leja_order([-1.0, -4.0, -2.0]) == (-4.0, -1.0, -2.0)

    def test_permutation(self, rng):
        poles = [complex(z) for z in rng.standard_normal(8) + 1j * rng.standard_normal(8)]
        ordered = leja_order(poles)
        assert sorted(ordered, key=lambda z: (z.real, z.imag)) == \
            sorted(poles, key=lambda z: (z.real, z.imag))

    def test_conjugate_tie_break(self):
        # a pair is placed as one: its upper pole, then its conjugate at once
        assert leja_order([-2j, 2j, -1j, 1j]) == (2j, -2j, 1j, -1j)
        # ascending imaginary part, then real part, among the poles chosen
        # on a magnitude tie: a real pole before an upper representative,
        # and an unpaired lower pole before a real one
        assert leja_order([2j, -2j, 2.0]) == (2.0, 2j, -2j)
        assert leja_order([2.0, -2j]) == (-2j, 2.0)

    @pytest.mark.parametrize("poles, pairs", [
        (zolotarev_sign_poles((0.05, 30.0), 8).poles, 4),
        ((-1.0, -1 + 1j, -1 - 1j, -3 + 0.5j, -3 - 0.5j, -3 + 0.5j, -4.0), 2)])
    def test_conjugate_pairs_stay_adjacent(self, poles, pairs):
        # every conjugate pair of the set is placed as (upper, lower); the
        # second -3 + 0.5j has no partner and is placed on its own
        ordered = leja_order(poles)
        assert sorted(ordered, key=lambda z: (z.real, z.imag)) == \
            sorted(map(complex, poles), key=lambda z: (z.real, z.imag))
        found, i = 0, 0
        while i < len(ordered):
            if ordered[i].imag > 0 and ordered[i + 1:i + 2] == (ordered[i].conjugate(),):
                found, i = found + 1, i + 2
            else:
                assert ordered[i].imag >= 0 or ordered[i].conjugate() not in ordered
                i += 1
        assert found == pairs

    def test_sign_poles_start_with_the_largest_pair(self):
        poles = zolotarev_sign_poles((0.05, 30.0), 8).poles
        top = max(poles, key=lambda p: p.imag)
        assert leja_order(poles)[:2] == (top, top.conjugate())

    def test_real_sets_keep_the_greedy_order(self, rng):
        # the plain greedy Leja order of a real set, pole by pole
        def greedy(pool):
            pool = [complex(p) for p in pool]
            ordered = [pool.pop(min(range(len(pool)),
                                    key=lambda i: (-abs(pool[i]), pool[i].imag, pool[i].real)))]
            while pool:
                with np.errstate(divide="ignore"):
                    scores = [(-float(np.sum(np.log([abs(p - q) for q in ordered]))),
                               p.imag, p.real) for p in pool]
                ordered.append(pool.pop(min(range(len(pool)), key=scores.__getitem__)))
            return tuple(ordered)

        window = SpectralWindow(1e-3, 1e3)
        for poles in (quasi_optimal_poles(window, (-np.inf, 0.0), 10).poles,
                      tuple(-np.exp(rng.uniform(-5.0, 5.0, 12))), (-1.0, -1.0, -2.0)):
            assert leja_order(poles) == greedy(poles)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            leja_order([INF, -1.0])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_raw_sequence_is_an_as_given_plan_everywhere(rng, m):
    # the solvers, build_basis and the bounds read a raw sequence by
    # one rule: its first m poles, or the same ValueError when it is short
    raw = [-1.0, -2.0, -3.0]
    A, _ = random_hermitian(rng, 12, 0.5, 20.0)
    B = 0.3 * rand_complex(rng, 12, 1)
    f = FunctionSpec.inv_sqrt()
    window = SpectralWindow(0.5, 40.0)
    imap = window.interval_map()
    calls = {
        "run_update": lambda: run_update(A, B, f=f, plan=raw, m_max=m, tol=0.0, d=1,
                                         J=np.array([[1.0]]))[1].poles,
        "build_basis": lambda: build_basis(A, B, raw, m).poles_used,
        "eta_blaschke": lambda: eta_blaschke(raw, imap, f.markov_support, m=m),
        "markov_bound_hermitian":
            lambda: tuple(markov_bound_hermitian(window, raw, f, m).values),
        "markov_bound_nonhermitian":
            lambda: tuple(markov_bound_nonhermitian(window, raw, f, m, 1.0, 1.0).values),
    }
    if m > len(raw):
        for call in calls.values():
            with pytest.raises(ValueError, match="plan has 3 poles, 5 requested"):
                call()
        return
    poles = tuple(raw[:m])
    assert calls["run_update"]() == calls["build_basis"]() == poles
    assert calls["eta_blaschke"]() == eta_blaschke(poles, imap, f.markov_support)
    assert calls["markov_bound_hermitian"]() == tuple(
        markov_bound_hermitian(window, PolePlan(poles), f, m).values)
    assert calls["markov_bound_nonhermitian"]() == tuple(
        markov_bound_nonhermitian(window, PolePlan(poles), f, m, 1.0, 1.0).values)
