"""Square-root series model of the ReLU: mean power, fluctuation, DC law.

The model rests on max(0, x) = (x + sqrt(x^2)) / 2. For a multi-tone x the
squared signal splits into its mean power A and a zero-mean fluctuation u(t),
x^2 = A * (1 + u), and sqrt(1 + u) is expanded as a power series around 0.
The series' constant term is the DC component the ReLU injects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateInputError, DivergenceError
from .multitone import MultiTone, Signal, _time_grid, synthesize

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class TaylorConfig:
    """Series truncation and the amplitude prescale applied before evaluation.

    Scaling down by ``prescale`` and back up is a no-op in exact arithmetic
    but not in floating point: on the default ``approx`` probe, prescale 1e-4
    and 1 differ by up to ~1.9e22 where the series diverges. The bytes of
    ``approx_time.csv`` depend on it, so the prescale stays.
    """

    n_terms: int = 50
    prescale: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        if not 0 < self.prescale < math.inf:
            raise ValueError(f"prescale must be finite and > 0, got {self.prescale}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Where the series is trustworthy: it requires |fluctuation| < 1."""

    max_abs_fluctuation: float
    fraction_violating: float
    valid: bool


def relu(signal: Signal) -> Signal:
    """Elementwise max(0, sample)."""
    return Signal(np.maximum(0.0, signal.samples), signal.sample_rate)


def mean_power(tones: MultiTone) -> float:
    """Half the sum of squared amplitudes (the multi-tone's mean power); inf if it overflows."""
    amps = tones.amplitudes
    if not np.any(amps > 0):
        raise DegenerateInputError("mean power requires at least one nonzero amplitude")
    with np.errstate(over="ignore"):
        return float(np.sum(amps**2) / 2.0)


def power_fluctuation(tones: MultiTone, sample_rate: float, duration: float) -> Signal:
    """Closed-form fluctuation u(t) with x^2(t) = A * (1 + u(t)).

    u carries the doubled frequencies 2*f_i from each squared tone plus sum
    and difference frequencies f_i + f_j, f_i - f_j from each unordered pair
    of tones. It depends only on the amplitude ratios, so where A is not a
    normal float the amplitudes are first divided by the largest of them.
    """
    a = mean_power(tones)  # raises DegenerateInputError when everything is 0
    amps = tones.amplitudes
    if not _TINY <= a < math.inf:
        amps = amps / amps.max()
        a = mean_power(MultiTone(tones.frequencies, amps))
    freqs = tones.frequencies
    t = _time_grid(sample_rate, duration)
    if t.size == 0:
        raise ValueError("duration too short for the given sample rate")
    out = np.zeros(t.size)
    for ai, fi in zip(amps, freqs):
        out += (ai**2 / (2.0 * a)) * np.cos(2.0 * math.pi * (2.0 * fi) * t)
    for i in range(len(amps)):
        for j in range(i + 1, len(amps)):
            scale = amps[i] * amps[j] / a
            out += scale * np.cos(2.0 * math.pi * (freqs[i] + freqs[j]) * t)
            out += scale * np.cos(2.0 * math.pi * (freqs[i] - freqs[j]) * t)
    return Signal(out, sample_rate)


def fluctuation_from_samples(signal: Signal, mean_power: float) -> Signal:
    """Sample-wise fluctuation x^2/A - 1; the identity oracle for the closed form."""
    if mean_power <= 0:
        raise DegenerateInputError(f"mean power must be > 0, got {mean_power}")
    return Signal(signal.samples**2 / mean_power - 1.0, signal.sample_rate)


def sqrt_taylor_coefficients(n_terms: int) -> np.ndarray:
    """First n_terms coefficients of the series sqrt(1 + u) around u = 0.

    Computed by the multiplicative recurrence c_n = c_{n-1} * (3 - 2n) / (2n),
    which stays exact in floating point far beyond where the factorial closed
    form overflows.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    coeffs = np.empty(n_terms)
    coeffs[0] = 1.0
    for n in range(1, n_terms):
        coeffs[n] = coeffs[n - 1] * (3.0 - 2.0 * n) / (2.0 * n)
    return coeffs


def sqrt1p_series(values: np.ndarray, n_terms: int) -> np.ndarray:
    """Partial sum of the sqrt(1 + u) series, evaluated elementwise.

    Terms are accumulated in ascending order with compensated (Kahan)
    summation in a fixed order, so results are reproducible and large
    out-of-radius inputs do not additionally lose low-order digits.
    """
    coeffs = sqrt_taylor_coefficients(n_terms)
    u = np.asarray(values, dtype=float)
    total = np.zeros_like(u)
    comp = np.zeros_like(u)
    power = np.ones_like(u)
    for c in coeffs:
        term = c * power - comp
        fresh = total + term
        comp = (fresh - total) - term
        total = fresh
        power = power * u
    return total


def convergence_report(fluctuation: Signal) -> ConvergenceReport:
    """Diagnose the fluctuation signal against the |u| < 1 validity region."""
    mag = np.abs(fluctuation.samples)
    max_abs = float(mag.max())
    fraction = float(np.count_nonzero(mag >= 1.0) / mag.size)
    return ConvergenceReport(max_abs, fraction, fraction == 0.0)


def approximate_relu(
    tones: MultiTone,
    sample_rate: float,
    duration: float,
    cfg: TaylorConfig = TaylorConfig(),
) -> Tuple[Signal, ConvergenceReport]:
    """Series approximation of relu(x) for a zero-phase multi-tone x.

    Amplitudes are scaled by cfg.prescale before evaluation and the result is
    scaled back, mirroring the procedure the approximation is defined with.
    The round trip is kept because it is not bitwise neutral and the
    ``approx_time.csv`` artifact depends on it (see TaylorConfig).
    The fluctuation is invariant under that scaling, so the report flags any
    samples with |u| >= 1 where the truncated series is unreliable; no
    clamping is applied there. Where the series' terms grow past the float
    range the partial sum is no longer finite, and DivergenceError is raised.
    """
    mean_power(tones)  # raise DegenerateInputError before any work
    scaled = MultiTone(tones.frequencies, tones.amplitudes * cfg.prescale)
    x = synthesize(scaled, sample_rate, duration)
    power = 2.0 * mean_power(scaled)
    if _TINY <= power < math.inf:
        dc_amp = (math.sqrt(2.0) / 4.0) * math.sqrt(power)
    else:  # the squares left the float range
        dc_amp = dc_model(scaled.amplitudes, np.ones_like(scaled.amplitudes))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as DivergenceError
        fluct = power_fluctuation(scaled, sample_rate, duration)
        series = sqrt1p_series(fluct.samples, cfg.n_terms)
        approx = (x.samples / 2.0 + dc_amp * series) / cfg.prescale
    if not np.all(np.isfinite(approx)):
        peak = float(np.max(np.abs(fluct.samples)))
        raise DivergenceError(
            f"the {cfg.n_terms}-term series is not finite where |u| reaches {peak:.17g}"
        )
    return Signal(approx, sample_rate), convergence_report(fluct)


def dc_model(amplitudes: Sequence[float], gains: Sequence[float]) -> float:
    """DC injected by a ReLU after a filter: sqrt(2)/4 * sqrt(sum a_i^2 b_i^2).

    This is the series' constant term, i.e. the zeroth-order DC; the measured
    DC of relu(cos) is 1/pi per unit amplitude, a factor sqrt(2)*pi/4 ~ 1.11
    below/above which this model sits for single tones.
    """
    a = np.asarray(amplitudes, dtype=float)
    b = np.asarray(gains, dtype=float)
    if a.shape != b.shape:
        raise ValueError("amplitudes and gains must have equal length")
    for name, values in (("amplitudes", a), ("gains", b)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {values.tolist()}")
    if np.any(b < 0):
        raise ValueError("gains must be >= 0")
    # scaled by the largest product, so squares that leave the float range
    # (a = 1e200, b = 1e-200) do not turn into inf * 0
    products = np.abs(a * b)
    scale = float(np.max(products, initial=0.0))
    if scale == 0.0:
        return 0.0
    if math.isinf(scale):  # a product overflowed; the DC is at least sqrt(2)/4 of it
        return math.inf
    return math.sqrt(2.0) / 4.0 * scale * math.sqrt(float(np.sum((products / scale) ** 2)))
