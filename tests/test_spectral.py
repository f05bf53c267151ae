import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relufreq import (
    MultiTone,
    Signal,
    ZeroReferenceError,
    approximate_relu,
    band_occupancy,
    dc_of,
    energy_fraction_above,
    harmonic_stack,
    relu,
    rrmse,
    spectrum,
    synthesize,
)
from relufreq.spectral import _shift


def naive_dft(samples):
    """O(N^2) reference transform with the same 1/N normalization."""
    n = len(samples)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ np.asarray(samples, dtype=float) / n


def test_constant_signal_spectrum():
    spec = spectrum(Signal(np.ones(16), 16.0))
    assert abs(spec.bins[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(spec.bins[1:]) < 1e-12)


def test_bin_aligned_cosine_spectrum():
    sig = synthesize(MultiTone([5.0], [1.0]), 1024.0, 1.0)
    spec = spectrum(sig)
    mags = np.abs(spec.bins)
    assert mags[5] == pytest.approx(0.5, abs=1e-9)
    assert mags[1019] == pytest.approx(0.5, abs=1e-9)
    others = np.delete(mags, [5, 1019])
    assert np.all(others < 1e-9)
    assert spec.bin_resolution == pytest.approx(1.0)


def test_relu_cosine_spectrum_against_naive_dft_oracle():
    sig = relu(synthesize(MultiTone([5.0], [1.0]), 1024.0, 1.0))
    spec = spectrum(sig)
    oracle = naive_dft(sig.samples)
    assert np.allclose(spec.bins, oracle, atol=1e-9)
    mags = np.abs(spec.bins)
    # analytic series of max(0, cos): 1/pi + cos/2 + (2/pi) sum (-1)^(k+1) cos(2k.)/(4k^2-1)
    assert mags[0] == pytest.approx(1.0 / math.pi, abs=1e-3)
    assert mags[5] == pytest.approx(0.25, abs=1e-3)
    assert mags[10] == pytest.approx(1.0 / (3.0 * math.pi), abs=1e-3)
    assert mags[20] > 1e-3  # further even harmonics present


def relu_cosine_dft(period):
    """Exact normalized DFT of relu(cos) sampled at period samples per period (period % 4 == 0).

    The sampled spectrum is the aliased Fourier series of relu(cos), whose sum
    over the aliases has a closed form: even bins m hold
    (-1)^(m/2+1) / (2P) * [cot(pi(m-1)/P) - cot(pi(m+1)/P)], so the DC is
    cot(pi/P)/P, which tends to 1/pi; bins +-1 hold 1/4; every other odd bin is 0.
    """
    m = np.arange(0, period, 2)
    below, above = np.tan(np.pi * (m - 1) / period), np.tan(np.pi * (m + 1) / period)
    bins = np.zeros(period)
    bins[m] = (-1.0) ** (m // 2 + 1) / (2 * period) * (1.0 / below - 1.0 / above)
    bins[1] = bins[-1] = 0.25
    return bins


@pytest.mark.parametrize("period", [8, 12, 64, 128, 1024])
def test_relu_cosine_spectrum_is_the_aliased_fourier_series(period):
    """ReLU of a tone adds a DC and even harmonics only, at every bin to rounding.

    The raw series coefficients 1/pi, 1/4, 2/(pi(4k^2-1)) miss the sampled
    spectrum by 2e-4 (DC) to 7e-3 (6th harmonic), relative, at 128 samples
    per period; the aliased sum does not.
    """
    f0, periods = 2.0, 3
    sig = relu(synthesize(MultiTone([f0], [1.0]), period * f0, periods / f0))
    expected = np.zeros(period * periods)
    expected[::periods] = relu_cosine_dft(period)
    assert np.max(np.abs(spectrum(sig).bins - expected)) < 1e-14
    # cot(pi/P)/P = (1 - pi^2/(3P^2) + ...) / pi
    assert expected[0] == pytest.approx(1.0 / np.pi, rel=4.0 / period**2)


def test_conjugate_symmetry_for_real_signals():
    rng = np.random.default_rng(3)
    sig = Signal(rng.standard_normal(128), 128.0)
    spec = spectrum(sig)
    n = len(spec)
    for k in range(1, n):
        assert spec.bins[n - k] == pytest.approx(np.conj(spec.bins[k]), abs=1e-9)


def test_parseval_under_normalization():
    rng = np.random.default_rng(4)
    sig = Signal(rng.standard_normal(256), 64.0)
    spec = spectrum(sig)
    mean_power = np.mean(sig.samples**2)
    assert mean_power == pytest.approx(float(np.sum(np.abs(spec.bins) ** 2)), abs=1e-9)


def test_dc_of_examples():
    assert dc_of(Signal(np.full(10, 3.5), 10.0)) == pytest.approx(3.5)
    cos = synthesize(MultiTone([4.0], [1.0]), 64.0, 1.0)
    assert dc_of(cos) == pytest.approx(0.0, abs=1e-12)


def test_dc_of_relu_cosine_matches_quadrature_oracle():
    # dense trapezoid quadrature of max(0, cos) over one period
    t = np.linspace(0.0, 1.0, 2_000_001)
    oracle = np.trapezoid(np.maximum(0.0, np.cos(2 * np.pi * t)), t)
    assert oracle == pytest.approx(1.0 / math.pi, abs=1e-9)
    sig = relu(synthesize(MultiTone([8.0], [1.0]), 1024.0, 1.0))
    assert dc_of(sig) == pytest.approx(oracle, abs=1e-3)


def test_dc_of_equals_real_dc_bin():
    rng = np.random.default_rng(5)
    sig = Signal(rng.standard_normal(100), 50.0)
    spec = spectrum(sig)
    assert dc_of(sig) == pytest.approx(spec.bins[0].real, abs=1e-12)


class TestRrmse:
    def test_identical_is_zero(self):
        x = Signal(np.arange(1.0, 9.0), 8.0)
        assert rrmse(x, x) == 0.0

    def test_zero_estimate_is_one(self):
        x = Signal(np.arange(1.0, 9.0), 8.0)
        zero = Signal(np.zeros(8), 8.0)
        assert rrmse(x, zero) == pytest.approx(1.0)

    def test_double_estimate_is_one(self):
        x = Signal(np.arange(1.0, 9.0), 8.0)
        double = Signal(2.0 * x.samples, 8.0)
        assert rrmse(x, double) == pytest.approx(1.0)

    def test_zero_reference_raises(self):
        zero = Signal(np.zeros(8), 8.0)
        with pytest.raises(ZeroReferenceError):
            rrmse(zero, zero)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rrmse(Signal(np.ones(4), 8.0), Signal(np.ones(5), 8.0))

    def test_opposite_extremes_give_a_finite_ratio_without_a_warning(self):
        """The difference overflows, but the ratio of the norms is exactly 2."""
        ref = Signal(np.array([1e308, -1e308, 1e308]), 1.0)
        est = Signal(-ref.samples, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rrmse(ref, est) == 2.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 100.0), st.integers(0, 2**31 - 1))
    @example(alpha=1e300, seed=0)  # squares overflow unless shifted by a power of two
    def test_scale_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32) + 0.1
        y = rng.standard_normal(32)
        base = rrmse(Signal(x, 1.0), Signal(y, 1.0))
        scaled = rrmse(Signal(alpha * x, 1.0), Signal(alpha * y, 1.0))
        assert scaled == pytest.approx(base, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-300, 300), st.integers(0, 2**31 - 1))
    @example(k=-160, seed=0)  # subnormal squares
    @example(k=-200, seed=0)  # squares that underflow to 0
    @example(k=300, seed=0)  # squares that overflow
    def test_power_of_ten_scale_invariance(self, k, seed):
        """rrmse(s*ref, s*est) == rrmse(ref, est) for s = 10**k.

        Every sample differs from its reference by at least half of it, so
        rounding s*ref and s*est moves the ratio by well under 1e-14.
        """
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(2, 32))
        ref = signs[0] * rng.uniform(0.5, 2.0, 32)
        est = ref * signs[1] * rng.uniform(1.5, 3.0, 32)
        base = rrmse(Signal(ref, 1.0), Signal(est, 1.0))
        s = 10.0**k
        assert rrmse(Signal(s * ref, 1.0), Signal(s * est, 1.0)) == pytest.approx(base, rel=1e-14)

    @pytest.mark.parametrize("terms", [200, 300])
    def test_divergent_series_error_is_the_exact_ratio(self, terms):
        """approx's probe at 200 and 300 terms, whose squares overflow: within 2**-53 of
        sqrt(sum (e - r)**2 / sum r**2) taken in exact rationals."""
        tones = harmonic_stack(5.0, [1.0] * 4)
        reference = relu(synthesize(tones, 1024.0, 1.0))
        estimate, _ = approximate_relu(tones, 1024.0, 1.0, terms)
        ref = [Fraction(r) for r in reference.samples.tolist()]
        est = [Fraction(e) for e in estimate.samples.tolist()]
        squared = sum((e - r) ** 2 for r, e in zip(ref, est)) / sum(r * r for r in ref)
        error, eps = Fraction(rrmse(reference, estimate)), Fraction(1, 2**53)
        assert (1 - eps) ** 2 * squared <= error**2 <= (1 + eps) ** 2 * squared

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 64), st.integers(-140, 140), st.integers(-6, 6), st.integers(0, 2**31 - 1)
    )
    def test_equals_the_plain_formula_where_squares_stay_normal(self, n, k, j, seed):
        """Samples and their differences lie within 10**13 of each other and 10**147 of 1
        either way: every square, shifted or not, is a normal float, so no bit changes."""
        rng = np.random.default_rng(seed)
        ref = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n) * 10.0**k
        est = ref + rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n) * 10.0 ** (k + j)
        plain = float(np.linalg.norm(est - ref)) / float(np.linalg.norm(ref))
        assert rrmse(Signal(ref, 1.0), Signal(est, 1.0)) == plain


class TestBandOccupancy:
    def test_single_tone(self):
        sig = synthesize(MultiTone([5.0], [1.0]), 64.0, 1.0)
        assert band_occupancy(spectrum(sig), 0.01) == pytest.approx(1.0 / 32.0)

    def test_impulse_fills_everything(self):
        samples = np.zeros(64)
        samples[3] = 1.0
        assert band_occupancy(spectrum(Signal(samples, 64.0)), 0.01) == 1.0

    def test_zero_signal(self):
        assert band_occupancy(spectrum(Signal(np.zeros(16), 16.0)), 0.5) == 0.0

    def test_one_sample_has_no_bin_in_the_band(self):
        assert band_occupancy(spectrum(Signal(np.ones(1), 16.0)), 0.5) == 0.0

    def test_threshold_validation(self):
        spec = spectrum(Signal(np.ones(16), 16.0))
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                band_occupancy(spec, bad)


def test_energy_fraction_above():
    tones = MultiTone([4.0, 24.0], [1.0, 1.0])
    spec = spectrum(synthesize(tones, 64.0, 1.0))
    assert energy_fraction_above(spec, 10.0) == pytest.approx(0.5, abs=1e-9)
    assert energy_fraction_above(spec, 30.0) == pytest.approx(0.0, abs=1e-12)
    # no bin lies above an infinite cutoff, every bin above a negative one
    assert energy_fraction_above(spec, math.inf) == 0.0
    assert energy_fraction_above(spec, -1.0) == 1.0
    with pytest.raises(ValueError, match="cutoff_hz must not be NaN"):
        energy_fraction_above(spec, math.nan)


def test_energy_fraction_above_is_scale_invariant():
    """The same fraction, without a warning, with the samples scaled by 10**k, |k| <= 300."""
    x = synthesize(MultiTone([3.0, 20.0], [1.0, 0.5]), 64.0, 1.0).samples
    base = energy_fraction_above(spectrum(Signal(x, 64.0)), 10.0)
    assert base == pytest.approx(0.2, rel=1e-14)
    for k in range(-300, 301):
        scaled = energy_fraction_above(spectrum(Signal(10.0**k * x, 64.0)), 10.0)
        assert scaled == pytest.approx(base, rel=1e-14), k


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 64), st.integers(-120, 120), st.floats(-1.0, 40.0), st.integers(0, 2**31 - 1))
def test_energy_fraction_above_is_the_plain_formula_where_squares_are_normal(n, k, cutoff, seed):
    """Where every nonzero squared magnitude, shifted or not, is a normal float, no bit changes."""
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n) * 10.0**k
    spec = spectrum(Signal(samples, 64.0))
    energy = np.abs(spec.bins) ** 2
    lowest, tiny = energy[energy > 0.0].min(), np.finfo(float).tiny
    assume(lowest >= tiny and lowest / energy.max() >= 4.0 * tiny)
    folded = np.minimum(np.arange(n), n - np.arange(n)) * spec.bin_resolution
    plain = float(energy[folded > cutoff].sum() / energy.sum())
    assert energy_fraction_above(spec, cutoff) == plain


def test_finite_samples_give_finite_bins():
    """Samples near the float maximum once made the FFT overflow to inf and nan bins."""
    spec = spectrum(Signal([1e308] * 4, 4.0))
    assert spec.bins.tolist() == [1e308, 0.0, 0.0, 0.0]
    assert band_occupancy(spec, 0.01) == 0.0
    assert energy_fraction_above(spec, 0.5) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 299), st.integers(-300, 300), st.integers(0, 2**31 - 1))
def test_spectrum_is_the_plain_formula_bit_for_bit(n, k, seed):
    """Shifting the samples by a power of two and the bins back moves no bit of fft(x) / n."""
    samples = np.random.default_rng(seed).standard_normal(n) * 10.0**k
    expected = np.fft.fft(samples) / n
    assert spectrum(Signal(samples, 64.0)).bins.tobytes() == expected.tobytes()


finite_arrays = st.one_of(
    st.integers(0, 8).map(np.zeros),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16).map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(finite_arrays, finite_arrays)
@example(np.zeros(4), np.array([0.1]))  # an all-zero array bounds no shift from above
@example(np.array([-1e308]), np.array([5e-324]))
def test_two_array_shift_is_the_shift_of_their_concatenation(a, b):
    assert _shift(a, b) == _shift(b, a) == _shift(np.concatenate([a, b]))


@pytest.mark.parametrize("peak", [math.inf, -math.inf, math.nan])
def test_a_non_finite_value_in_either_array_gives_shift_0(peak):
    """np.maximum carries a NaN through the reduction; Python's max would drop it in one order."""
    other = np.array([0.25])
    assert _shift(other) == 1
    assert _shift(np.array([peak, 0.0])) == _shift(other, np.array([peak])) == 0
    assert _shift(np.array([peak]), other) == 0
