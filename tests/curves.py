"""Curve diagnostics of the acceptance suite: the linear convergence rate of
an error curve, and the step where it turns superlinear."""

import numpy as np


def fit_linear_rate(errors, f_norm, m_cap=120, lo=1e-8, hi=1e-2):
    """Least-squares per-step rate of log(error) over the window where the
    error lies in [lo, hi] * f_norm, restricted to m <= m_cap."""
    errors = np.asarray(errors, dtype=float)
    ms = np.arange(1, len(errors) + 1)
    mask = (errors >= lo * f_norm) & (errors <= hi * f_norm) & (ms <= m_cap)
    if mask.sum() < 2:
        raise ValueError("empty rate-fit window")
    slope = np.polyfit(ms[mask], np.log(errors[mask]), 1)[0]
    return float(np.exp(slope))


def detect_superlinear_departure(errors, linear_rate, window=10, slack=0.97):
    """First step m after which the local rate stays below slack*linear_rate.

    The local rate at m is (err[m]/err[m-window])**(1/window); the departure
    must be sustained to the end of the data, which rejects transient dips.
    """
    errors = np.asarray(errors, dtype=float)
    n = len(errors)
    if n <= window:
        return None
    local = (errors[window:] / errors[:-window]) ** (1.0 / window)
    below = local < slack * linear_rate
    for i in range(len(below)):
        if np.all(below[i:]):
            return i + window + 1
    return None
