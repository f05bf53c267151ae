import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relufreq
from relufreq import (
    AliasingError,
    DatasetSpec,
    EmptyToneError,
    LabeledSet,
    MultiTone,
    ProbeSpec,
    Signal,
    harmonic_stack,
    power_fluctuation,
    sample_dataset,
    synthesize,
)
from relufreq.multitone import _sample_count


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
    # a rate that is not > 0 is invalid before any tone is compared with its Nyquist
    for rate in (-8.0, 0.0):
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            synthesize(MultiTone([4.0], [1.0]), rate, 1.0)
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
    tones = harmonic_stack(1.2, [1.0, 0.5])
    assert np.array_equal(probe.tones.frequencies, tones.frequencies)
    assert np.array_equal(probe.tones.amplitudes, tones.amplitudes)
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
    ],
)
def test_non_finite_values_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: DatasetSpec((3.0, 5.0), 0.1, 2, 1e200, 1e200),
        lambda: synthesize(MultiTone([1.0], [1.0]), 1e200, 1e200),
    ],
    ids=["spec", "synthesize"],
)
def test_an_overflowing_sample_count_names_both_fields(build):
    """Finite fields whose product is inf once raised numpy's raw OverflowError."""
    message = r"duration \* sample_rate must be finite, got 1e\+200 \* 1e\+200"
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: DatasetSpec((3.0, 5.0), 0.1, 2, 64.0, 0.001),
        lambda: synthesize(MultiTone([1.0], [1.0]), 64.0, 0.001),
        lambda: power_fluctuation(MultiTone([1.0], [1.0]), 64.0, 0.001),
    ],
    ids=["spec", "synthesize", "power_fluctuation"],
)
def test_a_grid_without_samples_names_duration_and_rate(build):
    """A DatasetSpec of 0 samples once passed and failed later as input_length 0."""
    with pytest.raises(ValueError, match="duration 0.001 s at sample_rate 64.0 Hz has no samples"):
        build()


def test_a_grid_past_sys_maxsize_bytes_names_duration_and_rate():
    """np.arange(2**63) is empty; smaller grids past the limit raised numpy's unnamed size errors.

    The largest float count within sys.maxsize // 8 passes; no grid is built for it.
    """
    limit = sys.maxsize // 8
    largest = math.nextafter(float(limit + 1), 0.0)
    assert _sample_count(largest, 1.0) == int(largest) <= limit
    message = f"duration 1.0 s at sample_rate {float(limit + 1)} Hz has too many samples"
    with pytest.raises(ValueError, match=re.escape(message)):
        _sample_count(float(limit + 1), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_signal_rejects_non_finite_samples(value):
    """A NaN sample once gave band_occupancy 0.0 and energy_fraction_above nan."""
    with pytest.raises(ValueError, match=f"samples must be finite, got {value}"):
        Signal([value, 1.0, 0.0, 2.0], 4.0)


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

    @pytest.mark.parametrize("value", [2.5, 2.0, "3", 0])
    def test_samples_per_class_must_be_an_integer_from_1(self, value):
        with pytest.raises(ValueError, match="samples_per_class must be an integer >= 1"):
            DatasetSpec((3.0, 5.0), 0.1, value, 64.0, 1.0)

    @pytest.mark.parametrize("sample_rate", [0.0, -1.0])
    def test_rate_must_be_positive_at_construction(self, sample_rate):
        """With means below the rate's Nyquist, a rate of 0 or -1 once constructed."""
        message = f"sample_rate must be finite and > 0, got {sample_rate}"
        with pytest.raises(ValueError, match=message):
            DatasetSpec((-10.0, -5.0), 0.0, 1, sample_rate, 1.0)

    def test_numpy_integer_samples_per_class_is_stored_as_int(self):
        spec = DatasetSpec((3.0, 5.0), 0.1, np.int64(3), 64.0, 1.0)
        assert type(spec.samples_per_class) is int and spec.samples_per_class == 3


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

    def test_duration_below_one_sample_is_rejected(self):
        with pytest.raises(ValueError, match="duration 1e-09 s at sample_rate 64.0 Hz"):
            sample_dataset(DatasetSpec((3.0, 5.0), 0.1, 2, 64.0, 1e-9), 0)

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.5, 2.5], [0.0, math.nan, 1.0], [0, -1, 1], [0, math.inf, 1], ["0", "1", "2"]],
    )
    def test_labeled_set_takes_only_integer_labels_from_0(self, labels):
        """Labels were cast with int(), so 0.5, 1.5, 2.5 trained as 0, 1, 2."""
        ds = sample_dataset(DatasetSpec((3.0, 5.0, 10.0), 0.1, 1, 64.0, 1.0), 0)
        assert LabeledSet(ds.inputs, ds.labels, ds.sample_rate).labels.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="labels must be integers >= 0"):
            LabeledSet(ds.inputs, labels, ds.sample_rate)

    def test_labeled_set_keeps_integer_labels_exact(self):
        """Labels went through float64: 2**53 + 1 was stored as 2**53 and 2**63 - 1 rejected."""
        inputs = np.zeros((3, 4))
        for top in (2**53 + 1, 2**63 - 1):
            assert LabeledSet(inputs, [0, 1, top], 8.0).labels.tolist() == [0, 1, top]
        assert LabeledSet(inputs, [0.0, 1.0, 2.0**53 - 1], 8.0).labels[-1] == 2**53 - 1
        for labels in ([0.0, 1.0, 2.0**53], np.array([0, 1, 2**63], dtype=np.uint64)):
            with pytest.raises(ValueError, match="labels must be integers >= 0"):
                LabeledSet(inputs, labels, 8.0)

    def test_labeled_set_rejects_rows_of_no_samples(self):
        """Empty rows once reached zero_train_eval, which raised a raw ZeroDivisionError."""
        with pytest.raises(ValueError, match="length >= 1"):
            LabeledSet(np.zeros((3, 0)), [0, 1, 2], 8.0, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["inputs", "frequencies"])
    def test_labeled_set_rejects_non_finite_values_naming_the_field(self, field, bad):
        """A NaN row once reached zero_train_eval, which blamed the kernel for overflowing."""
        values = {"inputs": np.ones((3, 4)), "frequencies": np.array([1.0, 2.0, 3.0])}
        values[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            LabeledSet(values["inputs"], [0, 1, 2], 8.0, values["frequencies"])


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
def test_sample_dataset_rows_match_scalar_synthesis(seed):
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 20, 64.0, 1.0)
    ds = sample_dataset(spec, seed)
    assert np.array_equal(ds.frequencies, box_muller_reference(spec, seed))
    assert ds.sample_rate == spec.sample_rate
    for row, f in zip(ds.inputs, ds.frequencies):
        tone = synthesize(MultiTone([f], [1.0]), spec.sample_rate, spec.duration)
        assert np.array_equal(row, tone.samples)


def test_each_input_rule_is_stated_once():
    """Every seeded stream, rate, duration, sample count, rescale and DFT goes through one rule.

    Counts PCG64, round, frexp and fft calls and the rules' message texts in
    the package source, so a second copy of a rule fails here. The one frexp
    call is spectral._shift's, which every norm and energy ratio rescales
    with; the one fft call is spectral.spectrum's, on samples shifted by it.
    """
    calls, texts, shift_source, spectrum_source = [], [], "", ""
    for path in sorted(Path(relufreq.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "float_info.min" not in source, f"{path.name}: rescale with spectral._shift"
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.append(getattr(node.func, "attr", getattr(node.func, "id", None)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
            elif isinstance(node, ast.FunctionDef) and node.name == "_shift":
                shift_source = ast.unparse(node)
            elif isinstance(node, ast.FunctionDef) and node.name == "spectrum":
                spectrum_source = ast.unparse(node)
    assert calls.count("PCG64") == 1, "build seeded streams with multitone._generator"
    assert calls.count("round") == 1, "take sample counts from multitone._sample_count"
    assert calls.count("frexp") == 1 and "frexp(" in shift_source, "rescale with spectral._shift"
    assert calls.count("fft") == 1 and "fft(np.ldexp(" in spectrum_source, "use spectral.spectrum"
    for rule in (
        "sample_rate must be finite and > 0",
        "duration must be finite and > 0",
        "Hz has too many samples",
        "unknown stack kind",
    ):
        assert sum(rule in text for text in texts) == 1, rule
