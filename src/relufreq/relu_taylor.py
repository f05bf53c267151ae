"""Square-root series model of the ReLU: mean power, fluctuation, DC law.

The model rests on max(0, x) = (x + sqrt(x^2)) / 2. For a multi-tone x the
squared signal splits into its mean power A and a zero-mean fluctuation u(t),
x^2 = A * (1 + u), and sqrt(1 + u) is expanded as a power series around 0.
The series' constant term is the DC component the ReLU injects.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateInputError, DivergenceError
from .multitone import MultiTone, Signal, _size, _time_grid, synthesize
from .spectral import _norm, _shift

_TINY = np.finfo(float).tiny  # the smallest normal float

# approximate_relu scales the amplitudes by PRESCALE and its result back: a no-op in
# exact arithmetic, but on the default approx probe it moves samples by up to ~1.9e22
# where the series diverges, and the recorded approx_time.csv bytes depend on that.
PRESCALE = 1e-4


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
    A phase 2*pi*f*t that leaves the float range raises ValueError.
    """
    a = mean_power(tones)  # raises DegenerateInputError when everything is 0
    amps = tones.amplitudes
    # by the max, not by a power of two: only that keeps |u| = 1.0 exact for equal amplitudes
    if not _TINY <= a < math.inf:
        amps = amps / amps.max()
        a = mean_power(MultiTone(tones.frequencies, amps))
    freqs = tones.frequencies
    t = _time_grid(sample_rate, duration)
    out = np.zeros(t.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for ai, fi in zip(amps, freqs):
            out += (ai**2 / (2.0 * a)) * np.cos(2.0 * math.pi * (2.0 * fi) * t)
        for i in range(len(amps)):
            for j in range(i + 1, len(amps)):
                scale = amps[i] * amps[j] / a
                out += scale * np.cos(2.0 * math.pi * (freqs[i] + freqs[j]) * t)
                out += scale * np.cos(2.0 * math.pi * (freqs[i] - freqs[j]) * t)
    if not np.all(np.isfinite(out)):
        raise ValueError("a phase of the fluctuation leaves the float range")
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
    n_terms = _size("n_terms", n_terms, 1)
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


def approximate_relu(
    tones: MultiTone,
    sample_rate: float,
    duration: float,
    n_terms: int = 50,
) -> Tuple[Signal, dict]:
    """Series approximation of relu(x) for a zero-phase multi-tone x, summing n_terms terms.

    Amplitudes are scaled by PRESCALE before evaluation and the result is
    scaled back, mirroring the procedure the approximation is defined with.
    The round trip is kept because it is not bitwise neutral and the
    ``approx_time.csv`` artifact depends on it. Amplitudes whose largest
    scaled value is not a normal float raise ValueError.
    The fluctuation u is invariant under that scaling. The returned report
    {"max_abs_g", "fraction_violating", "valid"} gives max |u| and the share of
    samples with |u| >= 1, where the truncated series is unreliable (no clamping
    is applied). Where the series leaves the float range DivergenceError is raised.
    """
    mean_power(tones)  # raise DegenerateInputError before any work
    largest = float(tones.amplitudes.max())
    if largest * PRESCALE < _TINY:
        raise ValueError(f"amplitude {largest!r} times PRESCALE {PRESCALE!r} is not a normal float")
    scaled = MultiTone(tones.frequencies, tones.amplitudes * PRESCALE)
    x = synthesize(scaled, sample_rate, duration)
    shift = _shift(scaled.amplitudes)
    power = float(np.sum(np.ldexp(scaled.amplitudes, shift) ** 2))  # 2 * mean_power, shifted
    dc_amp = math.ldexp((math.sqrt(2.0) / 4.0) * math.sqrt(power), -shift)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as DivergenceError
        fluct = power_fluctuation(scaled, sample_rate, duration)
        series = sqrt1p_series(fluct.samples, n_terms)
        approx = (x.samples / 2.0 + dc_amp * series) / PRESCALE
    mag = np.abs(fluct.samples)
    peak = float(mag.max())
    if not np.all(np.isfinite(approx)):
        raise DivergenceError(
            f"the {n_terms}-term series is not finite where |u| reaches {peak:.17g}"
        )
    fraction = float(np.count_nonzero(mag >= 1.0) / mag.size)
    report = {"max_abs_g": peak, "fraction_violating": fraction, "valid": fraction == 0.0}
    return Signal(approx, sample_rate), report


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
    # _norm's power-of-two shift keeps every square in the float range (a = 1e200, b = 1e-200)
    return math.sqrt(2.0) / 4.0 * _norm(a * b)
