import numpy as np
import pytest

from curves import detect_superlinear_departure, fit_linear_rate


class TestCurveDiagnostics:
    def test_fit_linear_rate_exact_decay(self):
        errs = 3.0 * 0.9**np.arange(1, 101)
        rate = fit_linear_rate(errs, f_norm=3.0, m_cap=100)
        assert rate == pytest.approx(0.9, rel=1e-12)

    def test_fit_window_respects_cap(self):
        errs = np.ones(50)
        with pytest.raises(ValueError):
            fit_linear_rate(errs, f_norm=1.0)

    def test_detect_superlinear(self):
        lin = 0.95**np.arange(1, 61)
        sup = lin[-1] * 0.7**np.arange(1, 41)
        errs = np.concatenate([lin, sup])
        dep = detect_superlinear_departure(errs, 0.95)
        assert 58 <= dep <= 72

    def test_detect_none_when_linear(self):
        errs = 0.9**np.arange(1, 81)
        assert detect_superlinear_departure(errs, 0.9) is None
