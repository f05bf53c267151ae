"""Multi-tone signal model, synthesis to sampled signals, and dataset generation."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AliasingError, EmptyToneError


def _size(name: str, value, low: int) -> int:
    """value as an int >= low; numpy integers pass, 2.0 and "3" do not."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return operator.index(value)


def _generator(name: str, seed) -> np.random.Generator:
    """The PCG64 stream of a seed that _size takes as an integer >= 0; None is rejected."""
    return np.random.Generator(np.random.PCG64(_size(name, seed, 0)))


def _check_rate(sample_rate: float) -> None:
    if not 0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be finite and > 0, got {sample_rate}")


def _sample_count(sample_rate: float, duration: float) -> int:
    """round(duration * sample_rate) >= 1, once the rate and the duration are finite and > 0."""
    _check_rate(sample_rate)
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    if duration * sample_rate == math.inf:
        raise ValueError(f"duration * sample_rate must be finite, got {duration} * {sample_rate}")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValueError(f"duration {duration} s at sample_rate {sample_rate} Hz has no samples")
    if n > sys.maxsize // 8:  # a float64 grid past sys.maxsize bytes; np.arange(2**63) is empty
        raise ValueError(
            f"duration {duration} s at sample_rate {sample_rate} Hz has too many samples"
        )
    return n


def _store_sizes(spec, **minimums: int) -> None:
    """Store each named size of a frozen spec through _size."""
    for name, low in minimums.items():
        object.__setattr__(spec, name, _size(name, getattr(spec, name), low))


@dataclass(frozen=True, eq=False)
class MultiTone:
    """Zero-phase multi-tone: the sum of amplitudes[i] * cos(2*pi*frequencies[i]*t).

    Two equal-length 1-D read-only float arrays; every value is finite and
    >= 0, and the frequencies are pairwise distinct, so downstream closed
    forms can assume distinct tones.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("frequencies", "amplitudes"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {values.shape}")
            bad = values[~(np.isfinite(values) & (values >= 0))]
            if bad.size:
                raise ValueError(f"{name} must be finite and >= 0, got {bad[0]}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.frequencies.shape != self.amplitudes.shape:
            raise ValueError("frequencies and amplitudes must have equal length")
        if np.unique(self.frequencies).size != self.frequencies.size:
            raise ValueError("frequencies must be pairwise distinct")


@dataclass
class Signal:
    """Uniformly sampled real-valued sequence of finite samples."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        bad = self.samples[~np.isfinite(self.samples)]
        if bad.size:
            raise ValueError(f"samples must be finite, got {bad[0]}")
        _check_rate(self.sample_rate)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class DatasetSpec:
    """Geometry of a labeled single-tone dataset.

    Each sample of class ``c`` is cos(2*pi*f*t) with f drawn from a normal
    distribution centered on ``class_means[c]``.
    """

    class_means: tuple
    freq_std: float
    samples_per_class: int
    sample_rate: float
    duration: float

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.class_means)
        object.__setattr__(self, "class_means", means)
        _sample_count(self.sample_rate, self.duration)  # a grid of 0 samples fails here
        if not 0 <= self.freq_std < math.inf:
            raise ValueError(f"freq_std must be finite and >= 0, got {self.freq_std}")
        if not all(math.isfinite(m) for m in means):
            raise ValueError("class_means must be finite")
        if not means:
            raise ValueError("class_means must be non-empty")
        if any(b <= a for a, b in zip(means, means[1:])):
            raise ValueError("class_means must be strictly increasing")
        nyquist = self.sample_rate / 2.0
        if any(m + 3.0 * self.freq_std >= nyquist for m in means):
            raise ValueError("class means within 3 sigma of Nyquist; reduce means or raise sample_rate")
        _store_sizes(self, samples_per_class=1)

    @property
    def n_classes(self) -> int:
        return len(self.class_means)


@dataclass(frozen=True)
class ProbeSpec:
    """Zero-phase harmonic probe: tone i*f0 at ``amplitudes[i-1]`` for i = 1..len(amplitudes)."""

    f0: float
    amplitudes: tuple
    sample_rate: float
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))

    @property
    def tones(self) -> MultiTone:
        return harmonic_stack(self.f0, self.amplitudes)

    def signal(self) -> Signal:
        return synthesize(self.tones, self.sample_rate, self.duration)


@dataclass
class LabeledSet:
    """Equal-length signals as the rows of one array, with class labels.

    ``inputs`` is (N, L), every row sampled at ``sample_rate``; ``frequencies``
    optionally carries each row's drawn tone frequency.
    """

    inputs: np.ndarray
    labels: np.ndarray
    sample_rate: float
    frequencies: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind in "biu":  # compared as integers, so no label rounds
            valid = (labels >= 0) & (labels <= np.iinfo(int).max)
        else:
            labels = labels.astype(float)
            valid = (labels >= 0) & (labels < 2.0**53) & (labels == np.floor(labels))
        if not np.all(valid):
            raise ValueError("labels must be integers >= 0, and float labels below 2**53")
        self.labels = labels.astype(int)
        if self.inputs.ndim != 2 or self.inputs.shape[1] == 0:
            raise ValueError("inputs must have shape (samples, length) with length >= 1")
        if self.labels.shape != (len(self.inputs),):
            raise ValueError("inputs and labels must have equal length")
        if self.frequencies is not None:
            self.frequencies = np.asarray(self.frequencies, dtype=float)
            if self.frequencies.shape != self.labels.shape:
                raise ValueError("frequencies must match inputs in length")
        for name, values in (("inputs", self.inputs), ("frequencies", self.frequencies)):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
        _check_rate(self.sample_rate)

    def __len__(self) -> int:
        return len(self.inputs)


def synthesize(tones: MultiTone, sample_rate: float, duration: float) -> Signal:
    """Render a multi-tone on a uniform grid of round(duration*sample_rate) samples."""
    if not tones.frequencies.size:
        raise EmptyToneError("cannot synthesize a multi-tone with no tones")
    _check_below_nyquist(tones.frequencies, sample_rate)
    t = _time_grid(sample_rate, duration)
    out = np.zeros(t.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for amplitude, frequency in zip(tones.amplitudes.tolist(), tones.frequencies.tolist()):
            out += amplitude * np.cos(2.0 * math.pi * frequency * t)
    if not np.all(np.isfinite(out)):
        raise ValueError("a phase or the sum of the tones leaves the float range")
    return Signal(out, sample_rate)


def _check_below_nyquist(frequencies: np.ndarray, sample_rate: float) -> None:
    _check_rate(sample_rate)
    nyquist = sample_rate / 2.0
    above = frequencies[frequencies >= nyquist]
    if above.size:
        raise AliasingError(f"tone at {above[0]} Hz is at or above Nyquist ({nyquist} Hz)")


def _time_grid(sample_rate: float, duration: float) -> np.ndarray:
    return np.arange(_sample_count(sample_rate, duration)) / sample_rate


def harmonic_stack(f0: float, amplitudes: Sequence[float]) -> MultiTone:
    """Zero-phase tones at integer multiples of f0: i*f0 for i = 1..len(amplitudes)."""
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")
    if len(amplitudes) < 1:
        raise ValueError("n_harmonics (the number of amplitudes) must be >= 1, got 0")
    with np.errstate(over="ignore"):  # an infinite harmonic is rejected by MultiTone
        return MultiTone(np.arange(1, len(amplitudes) + 1) * f0, amplitudes)


def sample_dataset(spec: DatasetSpec, seed: int) -> LabeledSet:
    """Draw a labeled set per the dataset geometry; deterministic given seed.

    Rows are class-major then sample-major, one normal frequency draw per row
    via Box-Muller over two consecutive uniforms, so the frequencies are a
    fixed function of the PCG64 bit stream. Each row equals
    ``synthesize(MultiTone([f], [1.0]), ...)`` bit for bit.
    """
    labels = np.repeat(np.arange(spec.n_classes), spec.samples_per_class)
    uniforms = _generator("seed", seed).random(2 * labels.size)
    u1 = 1.0 - uniforms[0::2]  # (0, 1]
    u2 = uniforms[1::2]
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    freqs = np.array(spec.class_means)[labels] + spec.freq_std * normals
    if np.any(freqs < 0):
        raise ValueError("a drawn frequency is negative; raise the class means")
    _check_below_nyquist(freqs, spec.sample_rate)
    inputs = (2.0 * math.pi * freqs)[:, None] * _time_grid(spec.sample_rate, spec.duration)
    np.cos(inputs, out=inputs)
    return LabeledSet(inputs, labels, spec.sample_rate, freqs)
