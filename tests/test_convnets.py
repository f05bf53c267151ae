import numpy as np
import pytest

from relufreq import (
    Kernel,
    MultiTone,
    Signal,
    avg_pool,
    band_occupancy,
    conv1d,
    energy_fraction_above,
    fir_response,
    harmonic_stack,
    make_prototype_stack,
    run_prototype,
    spectrum,
    synthesize,
)

PROBE_INPUT = synthesize(harmonic_stack(5.0, [1.0] * 4), 1024.0, 1.0)


class TestConv1d:
    def test_identity_kernel(self):
        sig = Signal(np.array([3.0, -1.0, 2.0, 5.0]), 4.0)
        out = conv1d(sig, Kernel(np.array([1.0])))
        assert np.array_equal(out.samples, sig.samples)

    def test_differentiator_kills_dc_in_steady_state(self):
        sig = Signal(np.full(6, 2.5), 6.0)
        out = conv1d(sig, Kernel(np.array([1.0, -1.0])))
        assert np.allclose(out.samples, [2.5, 0, 0, 0, 0, 0])

    def test_two_tap_average_kills_nyquist(self):
        sig = Signal(np.array([1.0, -1.0] * 4), 8.0)
        out = conv1d(sig, Kernel(np.array([0.5, 0.5])))
        assert np.allclose(out.samples, [0.5, 0, 0, 0, 0, 0, 0, 0])

    def test_kernel_longer_than_signal(self):
        with pytest.raises(ValueError):
            conv1d(Signal(np.ones(2), 2.0), Kernel(np.ones(3)))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        k = Kernel(rng.standard_normal(4))
        lhs = conv1d(Signal(x + 2.0 * y, 1.0), k).samples
        rhs = conv1d(Signal(x, 1.0), k).samples + 2.0 * conv1d(Signal(y, 1.0), k).samples
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestFirResponse:
    def test_differentiator_endpoints(self):
        kern = Kernel(np.array([1.0, -1.0]))
        resp = fir_response(kern, [0.0, 32.0], 64.0)
        assert resp.gains[0] == pytest.approx(0.0, abs=1e-12)
        assert resp.gains[1] == pytest.approx(2.0, abs=1e-12)

    def test_gain_at_zero_is_tap_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            taps = rng.standard_normal(rng.integers(1, 9))
            resp = fir_response(Kernel(taps), [0.0], 64.0)
            assert resp.gains[0] == pytest.approx(abs(taps.sum()), abs=1e-12)

    def test_matches_zero_padded_dft_oracle(self):
        rng = np.random.default_rng(2)
        taps = rng.standard_normal(6)
        n = 1024
        fs = 64.0
        padded = np.zeros(n)
        padded[:6] = taps
        oracle = np.abs(np.fft.fft(padded))
        ks = np.arange(0, n // 2 + 1, 8)
        resp = fir_response(Kernel(taps), ks * fs / n, fs)
        assert np.allclose(resp.gains, oracle[ks], atol=1e-9)

    def test_rejects_frequencies_beyond_nyquist(self):
        with pytest.raises(ValueError):
            fir_response(Kernel(np.ones(2)), [33.0], 64.0)


class TestAvgPool:
    def test_identity(self):
        sig = Signal(np.arange(8.0), 8.0)
        out = avg_pool(sig, 1, 1)
        assert np.array_equal(out.samples, sig.samples)
        assert out.sample_rate == sig.sample_rate

    def test_full_window_is_mean(self):
        sig = Signal(np.arange(8.0), 8.0)
        out = avg_pool(sig, 8, 8)
        assert len(out) == 1
        assert out.samples[0] == pytest.approx(3.5)
        assert out.sample_rate == 1.0

    def test_pairs(self):
        out = avg_pool(Signal(np.array([1.0, 3.0, 5.0, 7.0]), 4.0), 2, 2)
        assert np.allclose(out.samples, [2.0, 6.0])
        assert out.sample_rate == 2.0

    def test_validation(self):
        sig = Signal(np.ones(4), 4.0)
        with pytest.raises(ValueError):
            avg_pool(sig, 0, 1)
        with pytest.raises(ValueError):
            avg_pool(sig, 1, 0)
        with pytest.raises(ValueError):
            avg_pool(sig, 5, 1)

    def test_tone_below_new_nyquist_survives_with_window_attenuation(self):
        # width-2 window gain at f is |cos(pi f / fs)|
        sig = synthesize(MultiTone([5.0], [1.0]), 64.0, 1.0)
        pooled = avg_pool(sig, 2, 2)
        assert pooled.sample_rate == 32.0
        mags = np.abs(spectrum(pooled).bins)
        expected = 0.5 * abs(np.cos(np.pi * 5.0 / 64.0))
        assert mags[5] == pytest.approx(expected, abs=1e-3)
        others = np.delete(mags[: len(mags) // 2 + 1], [5])
        assert np.all(others < 0.05 * mags[5])


class TestRunPrototype:
    def test_identity_kernel_on_positive_input(self):
        stack = make_prototype_stack("moving_average", depth=3, avg_len=1)
        sig = Signal(np.linspace(0.5, 2.0, 16), 16.0)
        layers = run_prototype(stack, sig)
        assert len(layers) == 3
        for layer in layers:
            assert np.allclose(layer.samples, sig.samples, atol=1e-12)

    def test_differentiator_fills_the_band(self):
        stack = make_prototype_stack("differentiator", depth=8)
        layers = run_prototype(stack, PROBE_INPUT)
        occ = [band_occupancy(spectrum(sig), 0.01) for sig in [PROBE_INPUT] + layers]
        assert occ[-1] > occ[0]
        assert all(b >= a - 1e-12 for a, b in zip(occ, occ[1:]))

    def test_moving_average_keeps_band_limited(self):
        stack = make_prototype_stack("moving_average", depth=8, avg_len=8)
        layers = run_prototype(stack, PROBE_INPUT)
        first_null = 1024.0 / 8.0
        fractions = [energy_fraction_above(spectrum(sig), first_null) for sig in layers]
        assert fractions[-1] < 0.05
        # band-limiting strengthens with depth once the relu leakage settles
        assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_pooling_halves_rate_per_layer(self):
        stack = make_prototype_stack("moving_average", depth=2, avg_len=2, pool=(2, 2))
        layers = run_prototype(stack, Signal(np.ones(32), 32.0))
        assert layers[0].sample_rate == 16.0
        assert layers[1].sample_rate == 8.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            make_prototype_stack("boxcar", depth=2)
