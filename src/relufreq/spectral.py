"""Discrete Fourier utilities: spectra, DC extraction, error metrics, occupancy."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    n = len(signal)
    bins = np.fft.fft(signal.samples) / n
    return Spectrum(bins, signal.sample_rate / n)


def dc_of(signal: Signal) -> float:
    """Arithmetic mean of the samples (the DC component)."""
    return float(np.mean(signal.samples))


# the smallest norm whose square is a normal float
_SQRT_TINY = math.sqrt(sys.float_info.min)


def _norm(values: np.ndarray) -> float:
    """Euclidean norm; max-scaled only where the sum of squares overflows or is not normal."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(values))
    if _SQRT_TINY <= plain < math.inf:
        return plain
    scale = float(np.max(np.abs(values)))
    if scale == 0.0 or math.isinf(scale):  # all zeros, or a value is itself infinite
        return scale
    return scale * float(np.linalg.norm(values / scale))


def rrmse(reference: Signal, estimate: Signal) -> float:
    """Relative root mean squared error: ||estimate - reference||_2 / ||reference||_2.

    Norms whose squares overflow or underflow are computed max-scaled. Where
    the error still comes out inf, both signals are divided by one shared
    power of two, exact save for values far below the largest, and the
    ratio is taken again, so the result does not depend on the samples' scale.
    """
    if len(reference) != len(estimate):
        raise ValueError("reference and estimate must have equal length")
    ref, est = reference.samples, estimate.samples
    ref_norm = _norm(ref)
    if ref_norm == 0.0:
        raise ZeroReferenceError("reference signal has zero norm")
    with np.errstate(over="ignore"):
        error = _norm(est - ref) / ref_norm
    if math.isinf(error) and np.isfinite(est).all():
        shift = 1 - math.frexp(max(np.abs(ref).max(), np.abs(est).max()))[1]
        ref, est = np.ldexp(ref, shift), np.ldexp(est, shift)
        ref_norm = _norm(ref)  # 0 only where the ratio is beyond the float range
        error = _norm(est - ref) / ref_norm if ref_norm > 0.0 else error
    return error


def band_occupancy(spec: Spectrum, threshold_fraction: float) -> float:
    """Fraction of bins in (0, Nyquist] whose magnitude exceeds a relative threshold.

    The threshold is threshold_fraction times the maximum magnitude over that
    range; a signal concentrated in one bin scores 1/(N/2), a flat spectrum 1.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must lie strictly between 0 and 1")
    half = len(spec) // 2
    mags = np.abs(spec.bins[1 : half + 1])
    if mags.size == 0:
        return 0.0
    peak = float(mags.max())
    if peak == 0.0:
        return 0.0
    return float(np.count_nonzero(mags > threshold_fraction * peak) / mags.size)


def energy_fraction_above(spec: Spectrum, cutoff_hz: float) -> float:
    """Fraction of total spectral energy carried by bins above cutoff_hz.

    Uses the folded (absolute) frequency of every bin, so conjugate pairs
    count on both sides and the ratio is exact under Parseval. Where the
    energy sum is not a normal finite number, the magnitudes are divided by
    the largest of them before squaring.
    """
    n = len(spec)
    k = np.arange(n)
    folded = np.minimum(k, n - k) * spec.bin_resolution
    mags = np.abs(spec.bins)
    with np.errstate(over="ignore"):
        energy = mags**2
        total = energy.sum()
    if not sys.float_info.min <= total < math.inf:
        peak = mags.max(initial=0.0)
        if peak == 0.0:
            return 0.0
        energy = (mags / peak) ** 2
        total = energy.sum()
    return float(energy[folded > cutoff_hz].sum() / total)
