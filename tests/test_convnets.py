import ast
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import relufreq
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
        gains = fir_response(kern, [0.0, 32.0], 64.0)
        assert gains[0] == pytest.approx(0.0, abs=1e-12)
        assert gains[1] == pytest.approx(2.0, abs=1e-12)

    def test_gain_at_zero_is_tap_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            taps = rng.standard_normal(rng.integers(1, 9))
            gains = fir_response(Kernel(taps), [0.0], 64.0)
            assert gains[0] == pytest.approx(abs(taps.sum()), abs=1e-12)

    def test_matches_zero_padded_dft_oracle(self):
        rng = np.random.default_rng(2)
        taps = rng.standard_normal(6)
        n = 1024
        fs = 64.0
        padded = np.zeros(n)
        padded[:6] = taps
        oracle = np.abs(np.fft.fft(padded))
        ks = np.arange(0, n // 2 + 1, 8)
        gains = fir_response(Kernel(taps), ks * fs / n, fs)
        assert np.allclose(gains, oracle[ks], atol=1e-9)

    def test_rejects_frequencies_beyond_nyquist(self):
        with pytest.raises(ValueError):
            fir_response(Kernel(np.ones(2)), [33.0], 64.0)

    @pytest.mark.parametrize(
        "frequency, sample_rate, message",
        [
            (np.nan, 64.0, "frequencies must lie in"),
            (-1.0, 64.0, "frequencies must lie in"),
            (1.0, np.nan, "sample_rate must be finite and > 0, got nan"),
            (1.0, np.inf, "sample_rate must be finite and > 0, got inf"),
            (0.0, 0.0, "sample_rate must be finite and > 0, got 0.0"),
            (1.0, -64.0, "sample_rate must be finite and > 0, got -64.0"),
        ],
    )
    def test_rejects_nan_and_rates_that_are_not_finite_and_positive(
        self, frequency, sample_rate, message
    ):
        with pytest.raises(ValueError, match=message):
            fir_response(Kernel(np.ones(2)), [frequency], sample_rate)


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

    @pytest.mark.parametrize(
        "width, stride, message",
        [
            (2.5, 1, "width must be an integer >= 1, got 2.5"),
            (2, 1.0, "stride must be an integer >= 1, got 1.0"),
            ("2", 1, "width must be an integer >= 1, got '2'"),
        ],
    )
    def test_non_integer_sizes_rejected(self, width, stride, message):
        """2.5 once reached sliding_window_view and raised a raw TypeError."""
        with pytest.raises(ValueError, match=message):
            avg_pool(Signal(np.ones(4), 4.0), width, stride)

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
        with pytest.raises(ValueError, match="unknown stack kind 'boxcar'"):
            make_prototype_stack("boxcar", depth=2)

    @pytest.mark.parametrize("depth", [2.5, 2.0, "3", 0])
    def test_depth_must_be_an_integer_from_1(self, depth):
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            make_prototype_stack("differentiator", depth=depth)

    @pytest.mark.parametrize("avg_len", [2.5, 2.0, "3", 0])
    def test_avg_len_must_be_an_integer_from_1(self, avg_len):
        """2.5 once reached np.ones and raised a raw TypeError."""
        with pytest.raises(ValueError, match="avg_len must be an integer >= 1"):
            make_prototype_stack("moving_average", avg_len=avg_len)

    @pytest.mark.parametrize(
        "pool, message",
        [
            # each once reached run_prototype and raised a raw TypeError,
            # IndexError, TypeError and ValueError respectively
            ((2.5, 2), "pool width must be an integer >= 1, got 2.5"),
            ((2,), r"pool must be a \(width, stride\) pair, got \(2,\)"),
            (("2", 2), "pool width must be an integer >= 1, got '2'"),
            ((0, 1), "pool width must be an integer >= 1, got 0"),
            ((2, 0), "pool stride must be an integer >= 1, got 0"),
            (2, r"pool must be a \(width, stride\) pair, got 2"),
        ],
    )
    def test_pool_must_be_a_pair_of_integers_from_1(self, pool, message):
        with pytest.raises(ValueError, match=message):
            make_prototype_stack("moving_average", avg_len=2, pool=pool)

    def test_pool_is_stored_as_a_tuple_of_ints(self):
        stack = make_prototype_stack("moving_average", avg_len=2, pool=[np.int64(2), 3])
        assert stack.pool == (2, 3) and all(type(n) is int for n in stack.pool)

    def test_numpy_integer_depth_is_stored_as_int(self):
        stack = make_prototype_stack("differentiator", depth=np.int64(3))
        assert type(stack.depth) is int and stack.depth == 3

    def test_a_checked_stack_cannot_be_changed(self):
        """Setting depth = 2.5 after the check once made run_prototype raise a raw TypeError."""
        stack = make_prototype_stack("moving_average", depth=2, avg_len=2)
        with pytest.raises(FrozenInstanceError):
            stack.depth = 2.5
        with pytest.raises(FrozenInstanceError):
            stack.kernel.taps = np.ones(3)
        with pytest.raises(ValueError, match="read-only"):
            stack.kernel.taps[0] = 1.0
        assert stack.depth == 2 and stack.kernel.taps.tolist() == [0.5, 0.5]


def test_kernel_keeps_a_copy_and_leaves_the_callers_array_writable():
    taps = np.array([1.0, -1.0])
    kernel = Kernel(taps)
    taps[0] = 2.0
    assert taps.flags.writeable
    assert kernel.taps.tolist() == [1.0, -1.0]


def test_each_conv_serves_one_family():
    """np.convolve runs once, in convnets._causal; the trainer's batched conv only in training.

    The fixed-kernel experiments (proto, heart-demo, zero-train) take the
    first and training takes the second: trainer.forward calls _conv_forward,
    and so does _conv_input_grad, on the time-reversed gradient. No convnets
    function and not zero_train_eval calls it. Routing the prototype stacks
    through the batched conv sums kernels of more than 2 taps in another
    order and moves the proto and heart-demo artifacts.
    """
    def called(call):
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    calls, sources, callers = [], {}, {"convolve": set(), "_conv_forward": set()}
    for path in sorted(Path(relufreq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.append(called(node))
            elif isinstance(node, ast.FunctionDef):
                sources[f"{path.stem}.{node.name}"] = ast.unparse(node)
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and called(call) in callers:
                        callers[called(call)].add(f"{path.stem}.{node.name}")
    assert calls.count("convolve") == 1 and "np.convolve(" in sources["convnets._causal"]
    assert callers["convolve"] == {"convnets._causal"}
    assert calls.count("_conv_forward") == 2
    assert callers["_conv_forward"] == {"trainer.forward", "trainer._conv_input_grad"}
