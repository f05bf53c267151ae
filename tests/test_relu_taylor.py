import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relufreq import (
    DegenerateInputError,
    DivergenceError,
    MultiTone,
    Signal,
    approximate_relu,
    dc_model,
    fluctuation_from_samples,
    harmonic_stack,
    mean_power,
    power_fluctuation,
    relu,
    rrmse,
    spectrum,
    sqrt1p_series,
    sqrt_taylor_coefficients,
    synthesize,
)
from relufreq.relu_taylor import PRESCALE

PROBE = harmonic_stack(5.0, [1.0, 1.0, 1.0, 1.0])


def exact_coefficient(n: int) -> Fraction:
    """Closed form (-1)^n (2n)! / ((1-2n) (n!)^2 4^n) in exact rationals."""
    return (
        Fraction((-1) ** n)
        * Fraction(math.factorial(2 * n))
        / (Fraction(1 - 2 * n) * Fraction(math.factorial(n)) ** 2 * Fraction(4**n))
    )


def random_zero_phase_tones(rng, max_components=6):
    n = rng.integers(1, max_components + 1)
    freqs = rng.choice(np.arange(1, 101), size=n, replace=False)
    amps = rng.uniform(0.2, 2.0, size=n)
    return MultiTone(freqs, amps)


class TestRelu:
    def test_elementwise(self):
        sig = Signal(np.array([-1.0, 0.0, 2.0]), 1.0)
        assert np.array_equal(relu(sig).samples, [0.0, 0.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_identities(self, seed):
        rng = np.random.default_rng(seed)
        x = Signal(rng.standard_normal(64), 1.0)
        y = relu(x)
        assert np.array_equal(relu(y).samples, y.samples)  # idempotent
        assert np.array_equal(y.samples, (x.samples + np.abs(x.samples)) / 2.0)
        neg = relu(Signal(-x.samples, 1.0))
        assert np.allclose(neg.samples + y.samples, np.abs(x.samples), atol=1e-15)


class TestMeanPower:
    def test_values(self):
        assert mean_power(MultiTone([3.0], [1.0])) == 0.5
        assert mean_power(PROBE) == 2.0
        two = MultiTone([1.0, 2.0], [3.0, 4.0])
        assert mean_power(two) == 12.5

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            mean_power(MultiTone([3.0], [0.0]))
        with pytest.raises(DegenerateInputError):
            mean_power(MultiTone([], []))


class TestPowerFluctuation:
    def test_single_tone_is_doubled_frequency_cosine(self):
        tones = MultiTone([3.0], [1.0])
        fluct = power_fluctuation(tones, 64.0, 1.0)
        t = np.arange(64) / 64.0
        assert np.allclose(fluct.samples, np.cos(4.0 * np.pi * 3.0 * t), atol=1e-12)
        assert fluct.samples[0] == pytest.approx(1.0)

    def test_probe_value_at_zero(self):
        fluct = power_fluctuation(PROBE, 1024.0, 1.0)
        assert fluct.samples[0] == pytest.approx(7.0, abs=1e-12)

    def test_matches_samplewise_identity_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            tones = random_zero_phase_tones(rng)
            a = mean_power(tones)
            closed = power_fluctuation(tones, 256.0, 1.0)
            sampled = fluctuation_from_samples(synthesize(tones, 256.0, 1.0), a)
            assert np.allclose(closed.samples, sampled.samples, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 31), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=5,
            unique_by=lambda tone: tone[0],
        ),
        st.integers(-300, 300),
    )
    @example([(5, 1.0), (10, 1.0), (15, 1.0), (20, 1.0)], -300)
    @example([(5, 1.0), (10, 1.0), (15, 1.0), (20, 1.0)], -160)
    @example([(5, 1.0), (10, 1.0), (15, 1.0), (20, 1.0)], 300)
    def test_depends_only_on_the_amplitude_ratios(self, tones, exponent):
        """u is unchanged where A = sum a_i^2 / 2 underflows, is subnormal or overflows."""
        freqs, amps = (np.array(column, dtype=float) for column in zip(*tones))
        scaled = power_fluctuation(MultiTone(freqs, amps * 10.0**exponent), 64.0, 1.0)
        plain = power_fluctuation(MultiTone(freqs, amps), 64.0, 1.0)
        assert np.max(np.abs(scaled.samples - plain.samples)) <= 1e-12

    def test_overflowing_phase_raises_without_warnings(self):
        """2*pi*(2*f) leaves the float range for f = 2e307; a leaked warning fails the test."""
        tones = harmonic_stack(5e306, [1.0] * 4)
        with pytest.raises(ValueError, match="phase"):
            power_fluctuation(tones, 1.7e308, 1e-307)

    @pytest.mark.parametrize(
        "sample_rate, duration, message",
        [
            (64.0, math.nan, "duration must be finite and > 0, got nan"),
            (64.0, math.inf, "duration must be finite and > 0, got inf"),
            (math.nan, 1.0, "sample_rate must be finite and > 0, got nan"),
            (1e200, 1e200, r"duration \* sample_rate must be finite, got 1e\+200 \* 1e\+200"),
        ],
    )
    def test_grid_names_the_bad_field(self, sample_rate, duration, message):
        """A NaN duration once raised int()'s 'cannot convert float NaN to integer'."""
        with pytest.raises(ValueError, match=message):
            power_fluctuation(MultiTone([3.0], [1.0]), sample_rate, duration)


class TestFluctuationFromSamples:
    def test_constant_sqrt_mean_power(self):
        a = 2.7
        sig = Signal(np.full(32, math.sqrt(a)), 1.0)
        assert np.allclose(fluctuation_from_samples(sig, a).samples, 0.0, atol=1e-12)

    def test_zero_signal(self):
        sig = Signal(np.zeros(8), 1.0)
        assert np.array_equal(fluctuation_from_samples(sig, 1.0).samples, -np.ones(8))

    def test_nonpositive_mean_power(self):
        with pytest.raises(DegenerateInputError):
            fluctuation_from_samples(Signal(np.ones(4), 1.0), 0.0)


class TestCoefficients:
    def test_first_eight_exact(self):
        expected = [
            1.0,
            0.5,
            -0.125,
            0.0625,
            -0.0390625,
            0.02734375,
            -0.0205078125,
            0.01611328125,
        ]
        assert np.allclose(sqrt_taylor_coefficients(8), expected, atol=0.0)

    def test_table_printed_precision(self):
        # tolerance is half an ulp of each printed value (e.g. -0.02 carries
        # two decimals, the three-decimal entries carry 0.0005)
        printed = [1.0, 0.5, -0.125, 0.0625, -0.039, 0.027, -0.02, 0.016]
        decimals = [3, 3, 3, 4, 3, 3, 2, 3]
        got = sqrt_taylor_coefficients(8)
        for value, target, nd in zip(got, printed, decimals):
            assert abs(value - target) <= 0.5 * 10.0 ** (-nd)

    def test_recurrence_matches_exact_rational_closed_form(self):
        got = sqrt_taylor_coefficients(21)
        for n in range(21):
            assert got[n] == pytest.approx(float(exact_coefficient(n)), abs=1e-12)

    def test_fourth_term_size_both_readings(self):
        # the raw coefficient is 0.0625 while its share of the first four
        # absolute terms is ~3.7%; both are recorded, neither equals the other
        coeffs = np.abs(sqrt_taylor_coefficients(4))
        assert coeffs[3] == pytest.approx(0.0625)
        share = coeffs[3] / coeffs.sum()
        assert share == pytest.approx(0.037037, abs=1e-4)
        assert not math.isclose(share, coeffs[3], rel_tol=0.2)

    def test_no_overflow_far_beyond_factorial_range(self):
        coeffs = sqrt_taylor_coefficients(200)
        assert np.all(np.isfinite(coeffs))
        assert abs(coeffs[199]) < abs(coeffs[100]) < abs(coeffs[10])

    @pytest.mark.parametrize("n_terms", [2.5, 2.0, "3", 0, -1])
    def test_n_terms_must_be_an_integer_from_1(self, n_terms):
        """2.5 once reached np.empty and raised a raw TypeError."""
        with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
            sqrt_taylor_coefficients(n_terms)


class TestSeries:
    def test_matches_sqrt_inside_radius(self):
        u = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
        got = sqrt1p_series(u, 50)
        assert np.all(np.abs(got - np.sqrt(1.0 + u)) < 1e-3)

    def test_tight_convergence_to_09(self):
        u = np.linspace(-0.9, 0.9, 181)
        err = np.abs(sqrt1p_series(u, 50) - np.sqrt(1.0 + u))
        assert err.max() < 1e-3

    def test_pointwise_convergence_to_099(self):
        u = np.array([-0.99, 0.99])
        errs = [np.abs(sqrt1p_series(u, n) - np.sqrt(1.0 + u)).max() for n in (50, 200, 800)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


class TestDecompositionIdentity:
    def test_squared_signal_equals_mean_power_times_one_plus_fluctuation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tones = random_zero_phase_tones(rng)
            a = mean_power(tones)
            x = synthesize(tones, 256.0, 1.0)
            fluct = power_fluctuation(tones, 256.0, 1.0)
            assert np.allclose(x.samples**2, a * (1.0 + fluct.samples), atol=1e-9)


class TestApproximateRelu:
    def test_error_decreases_with_terms_inside_radius(self):
        tones = MultiTone([1.0], [1.0])
        fs, duration = 64.0, 1.0
        x = synthesize(tones, fs, duration)
        target = relu(x)
        fluct = power_fluctuation(tones, fs, duration)
        inside = np.abs(fluct.samples) < 0.99
        assert inside.any()
        medians = []
        for terms in (5, 10, 25, 50):
            approx, _ = approximate_relu(tones, fs, duration, terms)
            medians.append(np.median(np.abs(approx.samples - target.samples)[inside]))
        assert medians[0] > medians[1] > medians[2] > medians[3]
        # well inside the radius the 50-term sum is essentially exact
        tight = np.abs(fluct.samples) <= 0.9
        approx, _ = approximate_relu(tones, fs, duration, 50)
        assert np.abs(approx.samples - target.samples)[tight].max() < 1e-3

    def test_probe_report_flags_divergence(self):
        _, report = approximate_relu(PROBE, 1024.0, 1.0, 50)
        assert report["max_abs_g"] == pytest.approx(7.0, abs=1e-9)
        assert report["fraction_violating"] > 0.0

    def test_single_tone_report_reaches_the_boundary(self):
        """One tone gives u = cos(4*pi*f*t), so |u| touches 1 and the series is not valid."""
        _, report = approximate_relu(MultiTone([1.0], [1.0]), 64.0, 1.0, 5)
        assert report["max_abs_g"] == pytest.approx(1.0)
        assert report["fraction_violating"] > 0.0
        assert report["valid"] is False

    @pytest.mark.parametrize("terms, exponents", [(5, range(-300, 307)), (50, range(-300, 271))])
    def test_error_and_report_do_not_depend_on_the_amplitude_scale(self, terms, exponents):
        """Where the squares of the scaled amplitudes are not normal floats, u comes
        from max-scaled amplitudes and the DC term from shifted ones; a leaked warning fails.

        The exponents run up to the last one at which approximate_relu returns;
        near it the error's norms leave the float range and rrmse rescales.
        """

        def error_and_report(scale):
            tones = MultiTone(PROBE.frequencies, PROBE.amplitudes * scale)
            approx, report = approximate_relu(tones, 1024.0, 1.0, terms)
            return rrmse(relu(synthesize(tones, 1024.0, 1.0)), approx), report

        error, report = error_and_report(1.0)
        for exponent in exponents:
            scaled_error, scaled_report = error_and_report(10.0**exponent)
            assert scaled_error == pytest.approx(error, rel=1e-12)
            assert scaled_report["max_abs_g"] == pytest.approx(report["max_abs_g"], rel=1e-12)
            assert scaled_report["fraction_violating"] == pytest.approx(
                report["fraction_violating"], abs=1e-12
            )
            assert scaled_report["valid"] == report["valid"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-100, 100), st.integers(0, 2**31 - 1))
    def test_dc_term_equals_the_plain_formula_where_squares_stay_normal(self, k, seed):
        """At 1 term the series is 1, so the output is (x / 2 + dc) / PRESCALE. Scaled amplitudes
        within 10**105 of 1 either way square to normal floats: the shift changes no bit of dc."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        freqs = rng.choice(np.arange(1.0, 31.0), n, replace=False)
        tones = MultiTone(freqs, rng.uniform(0.5, 2.0, n) * 10.0**k)
        scaled = MultiTone(freqs, tones.amplitudes * PRESCALE)
        dc = (math.sqrt(2.0) / 4.0) * math.sqrt(2.0 * mean_power(scaled))
        expected = (synthesize(scaled, 64.0, 1.0).samples / 2.0 + dc) / PRESCALE
        approx, _ = approximate_relu(tones, 64.0, 1.0, 1)
        assert np.array_equal(approx.samples, expected)

    def test_default_terms_diverge_from_amplitude_1e300(self):
        for exponent in range(300, 309):
            tones = MultiTone(PROBE.frequencies, PROBE.amplitudes * 10.0**exponent)
            with pytest.raises(DivergenceError, match="50-term series is not finite"):
                approximate_relu(tones, 1024.0, 1.0, 50)

    @pytest.mark.parametrize("n_terms", [2.5, 0])
    def test_n_terms_must_be_an_integer_from_1(self, n_terms):
        with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
            approximate_relu(PROBE, 1024.0, 1.0, n_terms)

    @pytest.mark.parametrize("amplitude", [1e-320, 1e-310])
    def test_amplitude_below_the_normal_range_after_prescale_raises(self, amplitude):
        """1e-320 * PRESCALE underflows to 0 and 1e-310 * PRESCALE is subnormal."""
        with pytest.raises(ValueError, match=rf"amplitude {amplitude!r} times PRESCALE"):
            approximate_relu(MultiTone([5.0], [amplitude]), 64.0, 1.0)
        approximate_relu(MultiTone([5.0], [1e-300]), 64.0, 1.0)

    def test_output_spectrum_lines(self):
        # single tone at f: approximation holds energy only at DC, f, and
        # even multiples of f (the fluctuation's harmonics)
        f0, fs = 1.0, 1024.0
        tones = MultiTone([f0], [1.0])
        approx, _ = approximate_relu(tones, fs, 1.0, 50)
        mags = np.abs(spectrum(approx).bins)
        half = len(mags) // 2
        allowed = {0, 1}
        allowed.update(2 * k for k in range(1, 50))
        peak = mags.max()
        for k in range(half + 1):
            if k not in allowed:
                assert mags[k] < 1e-9 * peak

    def test_degenerate_and_phase_errors(self):
        with pytest.raises(DegenerateInputError):
            approximate_relu(MultiTone([5.0], [0.0]), 64.0, 1.0)


class TestDcModel:
    def test_examples(self):
        assert dc_model([1.0], [1.0]) == pytest.approx(math.sqrt(2.0) / 4.0)
        assert dc_model([1.0, 1.0], [1.0, 1.0]) == pytest.approx(0.5)
        assert dc_model([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dc_model([1.0, 2.0], [1.0])

    @pytest.mark.parametrize(
        "amplitudes, gains, name",
        [
            ([1.0], [math.nan], "gains"),
            ([math.inf], [1.0], "amplitudes"),
            ([1.0, math.nan], [1.0, 1.0], "amplitudes"),
            ([1.0, 2.0], [1.0, -math.inf], "gains"),
        ],
    )
    def test_non_finite_input_rejected(self, amplitudes, gains, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dc_model(amplitudes, gains)

    def test_ratio_to_measured_dc_is_constant(self):
        # measured mean of relu(a cos) via dense quadrature is a/pi; the
        # model is the zeroth-order term, a constant sqrt(2) pi / 4 above it
        t = np.linspace(0.0, 1.0, 400_001)
        for amplitude in (0.5, 1.0, 2.0):
            measured = np.trapezoid(np.maximum(0.0, amplitude * np.cos(2 * np.pi * t)), t)
            ratio = dc_model([amplitude], [1.0]) / measured
            assert ratio == pytest.approx(math.sqrt(2.0) * math.pi / 4.0, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5),
        st.floats(0.0, 4.0),
    )
    def test_homogeneity(self, gains, alpha):
        amps = [1.0 + 0.5 * i for i in range(len(gains))]
        lhs = dc_model([alpha * a for a in amps], gains)
        rhs = alpha * dc_model(amps, gains)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_squares_beyond_the_float_range(self):
        # (1e200)**2 overflows and (1e-200)**2 underflows; their product is 1
        assert dc_model([1e200], [1e-200]) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)
        assert dc_model([1e200, 1e-200], [1e-200, 1e200]) == pytest.approx(0.5, rel=1e-15)
        assert dc_model([0.0, 1e300], [1.0, 0.0]) == 0.0
        with np.errstate(over="ignore"):
            assert dc_model([1e200], [1e200]) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(1e-10, 1e10), st.floats(1e-10, 1e10)), min_size=1, max_size=5),
        st.integers(-150, 150),
    )
    @example([(1e10, 1e-10)], 150)
    def test_invariant_under_opposite_scaling(self, pairs, exponent):
        """dc_model depends on the products a_i * b_i only, at any magnitude."""
        scale = 10.0**exponent
        amps, gains = (np.array(column) for column in zip(*pairs))
        scaled = dc_model(amps * scale, gains / scale)
        assert scaled == pytest.approx(dc_model(amps, gains), rel=1e-14)

    def test_monotone_in_gains(self):
        amps = [1.0, 2.0, 0.5]
        base = dc_model(amps, [1.0, 1.0, 1.0])
        for i in range(3):
            gains = [1.0, 1.0, 1.0]
            gains[i] = 1.5
            assert dc_model(amps, gains) >= base
