"""Multi-tone signal model, synthesis to sampled signals, and dataset generation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import AliasingError, EmptyToneError


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiTone)
            and np.array_equal(self.frequencies, other.frequencies)
            and np.array_equal(self.amplitudes, other.amplitudes)
        )


@dataclass
class Signal:
    """Uniformly sampled real-valued sequence."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class DatasetSpec:
    """Geometry of a labeled single-tone dataset.

    Each sample of class ``c`` is cos(2*pi*f*t) with f drawn from a normal
    distribution centered on ``class_means[c]``; ``dc_map`` optionally adds a
    per-class constant offset to every sample of the signal.
    """

    class_means: tuple
    freq_std: float
    samples_per_class: int
    sample_rate: float
    duration: float
    dc_map: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.class_means)
        object.__setattr__(self, "class_means", means)
        _require_finite(
            freq_std=self.freq_std, sample_rate=self.sample_rate, duration=self.duration
        )
        offsets = self.dc_map.values() if self.dc_map is not None else ()
        if not all(math.isfinite(v) for v in (*means, *offsets)):
            raise ValueError("class_means and dc_map values must be finite")
        if not means:
            raise ValueError("class_means must be non-empty")
        if any(b <= a for a, b in zip(means, means[1:])):
            raise ValueError("class_means must be strictly increasing")
        if self.freq_std < 0:
            raise ValueError("freq_std must be >= 0")
        nyquist = self.sample_rate / 2.0
        if any(m + 3.0 * self.freq_std >= nyquist for m in means):
            raise ValueError("class means within 3 sigma of Nyquist; reduce means or raise sample_rate")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

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
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must have shape (samples, length)")
        if self.labels.shape != (len(self.inputs),):
            raise ValueError("inputs and labels must have equal length")
        if self.frequencies is not None:
            self.frequencies = np.asarray(self.frequencies, dtype=float)
            if self.frequencies.shape != self.labels.shape:
                raise ValueError("frequencies must match inputs in length")
        if np.any(self.labels < 0):
            raise ValueError("labels must be >= 0")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.inputs)


def synthesize(tones: MultiTone, sample_rate: float, duration: float) -> Signal:
    """Render a multi-tone on a uniform grid of round(duration*sample_rate) samples."""
    if not tones.frequencies.size:
        raise EmptyToneError("cannot synthesize a multi-tone with no tones")
    _require_finite(sample_rate=sample_rate, duration=duration)
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
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
    nyquist = sample_rate / 2.0
    above = frequencies[frequencies >= nyquist]
    if above.size:
        raise AliasingError(f"tone at {above[0]} Hz is at or above Nyquist ({nyquist} Hz)")


def _time_grid(sample_rate: float, duration: float) -> np.ndarray:
    return np.arange(int(round(duration * sample_rate))) / sample_rate


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
    ``synthesize(MultiTone([f], [1.0]), ...)`` plus its class's
    ``dc_map`` offset, bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.repeat(np.arange(spec.n_classes), spec.samples_per_class)
    uniforms = rng.random(2 * labels.size)
    u1 = 1.0 - uniforms[0::2]  # (0, 1]
    u2 = uniforms[1::2]
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    freqs = np.array(spec.class_means)[labels] + spec.freq_std * normals
    if np.any(freqs < 0):
        raise ValueError("a drawn frequency is negative; raise the class means")
    _check_below_nyquist(freqs, spec.sample_rate)
    inputs = (2.0 * math.pi * freqs)[:, None] * _time_grid(spec.sample_rate, spec.duration)
    np.cos(inputs, out=inputs)
    if spec.dc_map is not None:
        offsets = np.array([float(spec.dc_map[c]) for c in range(spec.n_classes)])
        inputs += offsets[labels, None]
    return LabeledSet(inputs, labels, spec.sample_rate, freqs)
