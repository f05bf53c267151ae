"""Discrete Fourier utilities: spectra, DC extraction, error metrics, occupancy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ZeroReferenceError
from .multitone import Signal


@dataclass
class Spectrum:
    """Complex DFT bins of a sampled signal.

    Bins are normalized by 1/N so a unit-amplitude, bin-aligned cosine shows
    magnitude 0.5 at its +/-f bins and a constant 1 signal shows 1.0 at DC.
    Bin k sits at frequency k * bin_resolution for k <= N/2; upper bins mirror
    the negative frequencies.
    """

    bins: np.ndarray
    bin_resolution: float

    def __len__(self) -> int:
        return int(self.bins.size)

    def one_sided(self) -> "tuple[np.ndarray, np.ndarray]":
        """(frequencies, magnitudes) for bins 0..N//2."""
        half = self.bins.size // 2
        k = np.arange(half + 1)
        return k * self.bin_resolution, np.abs(self.bins[: half + 1])


def spectrum(signal: Signal) -> Spectrum:
    """The DFT / N of the samples, taken shifted by _shift, so finite samples give finite bins."""
    n, shift = len(signal), _shift(signal.samples)
    bins = np.fft.fft(np.ldexp(signal.samples, shift)) / n
    bins = np.ldexp(bins.view(float), -shift).view(complex)  # np.ldexp has no complex loop
    return Spectrum(bins, signal.sample_rate / n)


def dc_of(signal: Signal) -> float:
    """Arithmetic mean of the samples (the DC component)."""
    return float(np.mean(signal.samples))


def _shift(*arrays: np.ndarray) -> int:
    """The exponent with which np.ldexp brings the largest |value| into [0.5, 1); 0 for 0, inf, NaN.

    Scaling by a power of two is exact short of subnormal results, so a
    scale-free quantity taken on shifted values keeps the bits of the plain
    formula wherever that formula's squares stay normal.
    """
    return -math.frexp(reduce(np.maximum, (np.abs(a).max(initial=0.0) for a in arrays)))[1]


def _norm(values: np.ndarray) -> float:
    """Euclidean norm, taken on values shifted by _shift, so no square leaves the float range."""
    shift = _shift(values)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.ldexp(np.linalg.norm(np.ldexp(values, shift)), -shift))


def rrmse(reference: Signal, estimate: Signal) -> float:
    """Relative root mean squared error: ||estimate - reference||_2 / ||reference||_2.

    Both signals are first shifted by one shared power of two, so the result
    does not depend on the samples' scale; a ratio beyond the float range is inf.
    """
    if len(reference) != len(estimate):
        raise ValueError("reference and estimate must have equal length")
    if not np.any(reference.samples):
        raise ZeroReferenceError("reference signal has zero norm")
    shift = _shift(reference.samples, estimate.samples)
    ref, est = np.ldexp(reference.samples, shift), np.ldexp(estimate.samples, shift)
    ref_norm = _norm(ref)  # 0 only where the ratio is beyond the float range
    return _norm(est - ref) / ref_norm if ref_norm > 0.0 else math.inf


def band_occupancy(spec: Spectrum, threshold_fraction: float) -> float:
    """Fraction of bins in (0, Nyquist] whose magnitude exceeds a relative threshold.

    The threshold is threshold_fraction times the maximum magnitude over that
    range; a signal concentrated in one bin scores 1/(N/2), a flat spectrum 1.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must lie strictly between 0 and 1")
    half = len(spec) // 2
    mags = np.abs(spec.bins[1 : half + 1])
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:  # no bins in range, or all of them zero
        return 0.0
    return float(np.count_nonzero(mags > threshold_fraction * peak) / mags.size)


def energy_fraction_above(spec: Spectrum, cutoff_hz: float) -> float:
    """Fraction of total spectral energy carried by bins above cutoff_hz.

    Uses the folded (absolute) frequency of every bin, so conjugate pairs
    count on both sides and the ratio is exact under Parseval. The magnitudes
    are shifted by _shift before squaring. A NaN cutoff_hz raises ValueError.
    """
    if math.isnan(cutoff_hz):
        raise ValueError("cutoff_hz must not be NaN")
    n = len(spec)
    k = np.arange(n)
    folded = np.minimum(k, n - k) * spec.bin_resolution
    mags = np.abs(spec.bins)
    energy = np.ldexp(mags, _shift(mags)) ** 2
    total = energy.sum()
    if total == 0.0:
        return 0.0
    return float(energy[folded > cutoff_hz].sum() / total)
