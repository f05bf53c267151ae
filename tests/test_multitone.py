import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relufreq import (
    AliasingError,
    DatasetSpec,
    EmptyToneError,
    MultiTone,
    ProbeSpec,
    Signal,
    harmonic_stack,
    sample_dataset,
    synthesize,
)


def test_synthesize_zero_frequency_is_constant():
    sig = synthesize(MultiTone([0.0], [1.0]), 8.0, 1.0)
    assert len(sig) == 8
    assert np.allclose(sig.samples, 1.0)


def test_synthesize_quarter_period_sampling():
    sig = synthesize(MultiTone([2.0], [1.0]), 8.0, 1.0)
    assert np.allclose(sig.samples, [1, 0, -1, 0, 1, 0, -1, 0], atol=1e-12)


def test_synthesize_harmonic_probe_value_at_zero():
    tones = harmonic_stack(5.0, [1.0, 1.0, 1.0, 1.0])
    sig = synthesize(tones, 1024.0, 1.0)
    assert len(sig) == 1024
    assert sig.samples[0] == pytest.approx(4.0, abs=1e-12)


def test_synthesize_rejects_aliasing_and_empty():
    with pytest.raises(AliasingError):
        synthesize(MultiTone([4.0], [1.0]), 8.0, 1.0)
    with pytest.raises(EmptyToneError):
        synthesize(MultiTone([], []), 8.0, 1.0)
    with pytest.raises(ValueError):
        synthesize(MultiTone([1.0], [1.0]), 8.0, 0.0)


def test_harmonic_stack_probe_frequencies():
    tones = harmonic_stack(5.0, [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(tones.frequencies, [5, 10, 15, 20])
    assert np.allclose(tones.amplitudes, 1.0)


def test_harmonic_stack_heart_tones():
    tones = harmonic_stack(1.2, [1.0, 0.5])
    assert np.allclose(tones.frequencies, [1.2, 2.4])
    assert tones.amplitudes[0] > tones.amplitudes[1]


def test_harmonic_stack_degenerate_and_mismatch():
    tones = harmonic_stack(5.0, [0.0])
    assert tones.amplitudes[0] == 0.0
    with pytest.raises(ValueError):
        harmonic_stack(5.0, [])
    with pytest.raises(ValueError):
        harmonic_stack(0.0, [1.0])


def test_probe_spec_harmonics_come_from_its_amplitudes():
    probe = ProbeSpec(1.2, [1, np.float64(0.5)], 64.0, 8.0)
    assert probe.amplitudes == (1.0, 0.5)
    assert all(type(a) is float for a in probe.amplitudes)
    assert probe == ProbeSpec(1.2, (1.0, 0.5), 64.0, 8.0)
    assert probe.tones == harmonic_stack(1.2, [1.0, 0.5])
    expected = synthesize(harmonic_stack(1.2, [1.0, 0.5]), 64.0, 8.0).samples
    assert probe.signal().samples.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="n_harmonics"):
        ProbeSpec(5.0, (), 1024.0, 1.0).signal()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.1, 2.0), st.integers(1, 30)),
        min_size=2,
        max_size=8,
        unique_by=lambda part: part[1],
    ),
    st.integers(1, 7),
)
def test_synthesis_linearity(parts, split):
    # two multi-tones on disjoint frequency sets and their union
    fs, duration = 64.0, 1.0
    split = min(split, len(parts) - 1)
    amps, freqs = zip(*parts)
    tone_a = MultiTone(freqs[:split], amps[:split])
    tone_b = MultiTone(freqs[split:], amps[split:])
    both = MultiTone(freqs, amps)
    lhs = synthesize(both, fs, duration).samples
    rhs = synthesize(tone_a, fs, duration).samples + synthesize(tone_b, fs, duration).samples
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mean_square_equals_mean_power_over_integer_periods():
    # commensurate bin-aligned tones over one second: mean(x^2) = sum a_i^2 / 2
    tones = MultiTone([3.0, 5.0, 10.0], [1.0, 0.5, 2.0])
    sig = synthesize(tones, 64.0, 1.0)
    expected = (1.0 + 0.25 + 4.0) / 2.0
    assert np.mean(sig.samples**2) == pytest.approx(expected, abs=1e-9)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([]), 8.0)
    with pytest.raises(ValueError):
        Signal(np.array([1.0]), 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiTone([1.0], [math.nan]),
        lambda: MultiTone([math.inf], [1.0]),
        lambda: Signal(np.array([1.0]), math.inf),
        lambda: synthesize(MultiTone([1.0], [1.0]), math.inf, 1.0),
        lambda: synthesize(MultiTone([1.0], [1.0]), 8.0, math.nan),
        lambda: DatasetSpec((3.0, math.nan), 0.1, 10, 64.0, 1.0),
        lambda: DatasetSpec((3.0, 5.0), math.nan, 10, 64.0, 1.0),
        lambda: DatasetSpec((3.0, 5.0), 0.1, 10, math.inf, 1.0),
        lambda: DatasetSpec((3.0, 5.0), 0.1, 10, 64.0, math.inf),
        lambda: DatasetSpec((3.0, 5.0), 0.1, 10, 64.0, 1.0, {0: 0.0, 1: math.nan}),
    ],
    ids=[
        "amplitude",
        "frequency",
        "signal_rate",
        "synth_rate",
        "synth_duration",
        "class_mean",
        "freq_std",
        "spec_rate",
        "spec_duration",
        "dc_map",
    ],
)
def test_non_finite_values_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize(
    "frequencies, amplitudes, message",
    [
        ([1.0, math.nan], [1.0, 1.0], "frequencies must be finite"),
        ([1.0], [math.inf], "amplitudes must be finite"),
        ([-1.0], [1.0], "frequencies must be finite and >= 0"),
        ([1.0], [-0.5], "amplitudes must be finite and >= 0"),
        ([2.0, 3.0, 2.0], [1.0, 1.0, 1.0], "distinct"),
        ([1.0, 2.0], [1.0], "equal length"),
        ([[1.0, 2.0]], [[1.0, 1.0]], "1-D"),
    ],
    ids=[
        "non-finite-frequency",
        "non-finite-amplitude",
        "negative-frequency",
        "negative-amplitude",
        "duplicate",
        "unequal-length",
        "2-D",
    ],
)
def test_multitone_rejects_invalid_tones(frequencies, amplitudes, message):
    with pytest.raises(ValueError, match=message):
        MultiTone(frequencies, amplitudes)


class TestDatasetSpec:
    def test_rejects_unsorted_means(self):
        with pytest.raises(ValueError):
            DatasetSpec((5.0, 3.0), 0.1, 10, 64.0, 1.0)

    def test_rejects_means_near_nyquist(self):
        with pytest.raises(ValueError):
            DatasetSpec((3.0, 31.9), 0.1, 10, 64.0, 1.0)


class TestSampleDataset:
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 20, 64.0, 1.0)

    def test_balanced_and_deterministic(self):
        a = sample_dataset(self.spec, seed=42)
        b = sample_dataset(self.spec, seed=42)
        assert len(a) == 60
        assert [int(np.sum(np.array(a.labels) == c)) for c in range(3)] == [20, 20, 20]
        for sa, sb in zip(a.inputs, b.inputs):
            assert np.array_equal(sa, sb)
        assert np.array_equal(a.frequencies, b.frequencies)

    def test_different_seeds_differ(self):
        a = sample_dataset(self.spec, seed=1)
        b = sample_dataset(self.spec, seed=2)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_zero_std_yields_identical_class_signals(self):
        spec = DatasetSpec((3.0, 5.0), 0.0, 5, 64.0, 1.0)
        ds = sample_dataset(spec, seed=0)
        ref = synthesize(MultiTone([3.0], [1.0]), 64.0, 1.0)
        for sig, label in zip(ds.inputs, ds.labels):
            if label == 0:
                assert np.array_equal(sig, ref.samples)

    def test_dc_map_shifts_class_means(self):
        spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 300, 64.0, 1.0, {0: 1.0, 1: 2.0, 2: 3.0})
        ds = sample_dataset(spec, seed=42)
        labels = np.array(ds.labels)
        means = np.array([sig.mean() for sig in ds.inputs])
        for c in range(3):
            vals = means[labels == c]
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - (c + 1.0)) < 3.0 * se


def box_muller_reference(spec, seed):
    """Scalar draws: class-major, two uniforms per sample, u1 taken from (0, 1]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    freqs = []
    for mean in spec.class_means:
        for _ in range(spec.samples_per_class):
            u1 = 1.0 - rng.random()
            u2 = rng.random()
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            freqs.append(mean + spec.freq_std * z)
    return freqs


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 2])
@pytest.mark.parametrize("dc_map", [None, {0: 1.0, 1: 2.0, 2: 3.0}])
def test_sample_dataset_rows_match_scalar_synthesis(seed, dc_map):
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 20, 64.0, 1.0, dc_map)
    ds = sample_dataset(spec, seed)
    assert np.array_equal(ds.frequencies, box_muller_reference(spec, seed))
    assert ds.sample_rate == spec.sample_rate
    for row, f, label in zip(ds.inputs, ds.frequencies, ds.labels):
        tone = synthesize(MultiTone([f], [1.0]), spec.sample_rate, spec.duration)
        offset = dc_map[label] if dc_map is not None else 0.0
        assert np.array_equal(row, tone.samples + offset)
