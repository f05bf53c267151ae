import concurrent.futures
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relufreq import (
    Architecture,
    ConvLayerSpec,
    DatasetSpec,
    DegenerateInputError,
    DivergenceError,
    Kernel,
    LabeledSet,
    MultiTone,
    Signal,
    adam_step,
    backward,
    dc_model,
    dc_of,
    forward,
    init_adam_state,
    init_network,
    layer_views,
    loss_sparse_ce,
    run_comparison,
    sample_dataset,
    synthesize,
    train,
    weight_distance,
    zero_train_eval,
)
from relufreq import trainer
from relufreq.cli import DEFAULT_ZERO_KERNEL, ZERO_TRAIN_SPEC, _quartiles
from relufreq.convnets import _causal
from relufreq.trainer import (
    _comparison_architecture,
    _conv_forward,
    _conv_input_grad,
    _conv_weight_grad,
    default_dataset_spec,
)

SMALL_ARCH = Architecture(
    (ConvLayerSpec(3, 3, "relu"), ConvLayerSpec(2, 3, "relu")),
    hidden_units=5,
    n_classes=3,
    input_length=16,
)


def random_batch(rng, n, length):
    return rng.random((n, length)) * 2.0 - 1.0


@st.composite
def small_architectures(draw):
    """1-2 conv layers of relu/linear mixes, all dimensions tiny."""
    conv = tuple(
        ConvLayerSpec(
            draw(st.integers(1, 3)),
            draw(st.integers(1, 3)),
            draw(st.sampled_from(["relu", "linear"])),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    return Architecture(
        conv,
        hidden_units=draw(st.integers(1, 4)),
        n_classes=draw(st.integers(2, 3)),
        input_length=draw(st.integers(3, 8)),
    )


class TestInitNetwork:
    def test_deterministic_per_seed(self):
        a = init_network(SMALL_ARCH, 4)
        b = init_network(SMALL_ARCH, 4)
        for la, lb in zip(layer_views(SMALL_ARCH, a.theta), layer_views(SMALL_ARCH, b.theta)):
            assert np.array_equal(la["w"], lb["w"])
            assert np.array_equal(la["b"], lb["b"])

    def test_seeds_differ(self):
        a = init_network(SMALL_ARCH, 1)
        b = init_network(SMALL_ARCH, 2)
        assert any(
            not np.array_equal(la["w"], lb["w"])
            for la, lb in zip(layer_views(SMALL_ARCH, a.theta), layer_views(SMALL_ARCH, b.theta))
        )

    def test_fan_in_bound_and_zero_biases(self):
        net = init_network(SMALL_ARCH, 9)
        fan_ins = [1 * 3, 3 * 3, 2, 5]
        for layer, fan_in in zip(layer_views(net.architecture, net.theta), fan_ins):
            assert np.all(np.abs(layer["w"]) <= math.sqrt(1.0 / fan_in))
            assert np.all(layer["b"] == 0.0)


class TestLayout:
    def test_layer_views_write_through_to_theta(self):
        net = init_network(SMALL_ARCH, 2)
        assert net.theta.dtype == np.float64 and net.theta.ndim == 1
        layer = layer_views(net.architecture, net.theta)[0]
        layer["b"][...] = 7.0
        assert np.count_nonzero(net.theta == 7.0) == 3

    def test_wrong_length_vector_rejected(self):
        theta = init_network(SMALL_ARCH, 2).theta
        with pytest.raises(ValueError):
            layer_views(SMALL_ARCH, theta[:-1])


class TestSizes:
    @pytest.mark.parametrize("value", [1.5, 2.0, "3", np.float64(2.0)])
    @pytest.mark.parametrize(
        "field", ["filters", "kernel_size", "hidden_units", "n_classes", "input_length"]
    )
    def test_non_integer_sizes_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            if field in ("filters", "kernel_size"):
                replace(SMALL_ARCH.conv_layers[0], **{field: value})
            else:
                replace(SMALL_ARCH, **{field: value})

    def test_numpy_integer_sizes_are_stored_as_int(self):
        conv = ConvLayerSpec(np.int64(3), np.int32(3), "relu")
        arch = replace(
            SMALL_ARCH, conv_layers=(conv, SMALL_ARCH.conv_layers[1]), hidden_units=np.int64(5)
        )
        assert arch == SMALL_ARCH
        assert type(conv.filters) is type(conv.kernel_size) is type(arch.hidden_units) is int

    def test_a_float_size_leaves_the_layout_cache_clean(self):
        """A float size equal to an int one hashes like it, so it must never reach
        _layout's cache, where it would stand in for the int architecture."""
        arch = _comparison_architecture("relu", default_dataset_spec())
        trainer._layout.cache_clear()
        with pytest.raises(ValueError, match="hidden_units"):
            init_network(replace(arch, hidden_units=16.0), 0)
        assert init_network(arch, 0).theta.shape == (trainer._layout(arch)[0],)

    @pytest.mark.parametrize("layer", [(2, 3), None, {"filters": 2, "kernel_size": 3}])
    def test_conv_layers_must_be_conv_layer_specs(self, layer):
        """A tuple or None once raised a raw AttributeError from the kernel-size check."""
        with pytest.raises(ValueError, match="conv_layers must be one or more ConvLayerSpecs"):
            Architecture([layer], 4, 2, 8)

    def test_a_list_of_conv_layers_is_stored_as_a_tuple(self):
        """A list once constructed, then failed in _layout's cache as unhashable."""
        arch = Architecture([ConvLayerSpec(2, 3)], 4, 2, 8)
        assert arch.conv_layers == (ConvLayerSpec(2, 3),)
        net = init_network(arch, 0)
        logits, cache = forward(net, np.ones((3, 8)))
        assert logits.shape == (3, 2)
        assert backward(net, cache, [0, 1, 0]).shape == net.theta.shape


@settings(max_examples=25, deadline=None)
@given(small_architectures())
def test_layer_views_tile_the_vector_in_order(arch):
    """Views of arange(size) come taps-then-bias, layer by layer, and cover it once."""
    channels = [1] + [spec.filters for spec in arch.conv_layers]
    shapes = [
        ((spec.filters, c, spec.kernel_size), (spec.filters,))
        for spec, c in zip(arch.conv_layers, channels)
    ]
    shapes += [((channels[-1], arch.hidden_units), (arch.hidden_units,))]
    shapes += [((arch.hidden_units, arch.n_classes), (arch.n_classes,))]
    size = sum(math.prod(w) + math.prod(b) for w, b in shapes)
    assert init_network(arch, 0).theta.shape == (size,)
    theta = np.arange(size)
    views = layer_views(arch, theta)
    assert [(layer["w"].shape, layer["b"].shape) for layer in views] == shapes
    flat = [v.ravel() for layer in views for v in (layer["w"], layer["b"])]
    assert np.array_equal(np.concatenate(flat), theta)
    assert all(np.shares_memory(v, theta) for v in flat)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
)
def test_batched_conv_matches_np_convolve(b, c, o, k, extra, seed):
    """The trainer's tap-loop conv equals the per-channel sum of np.convolve.

    convnets.conv1d stays a separate np.convolve call: routing the prototype
    stacks through this conv sums the taps in another order and moves the
    proto and heart-demo artifacts by about 1e-15, so they would no longer
    be byte-identical.
    """
    rng = np.random.default_rng(seed)
    length = k + extra
    x = rng.uniform(-1.0, 1.0, (b, c, length))
    w = rng.uniform(-1.0, 1.0, (o, c, k))
    expected = np.zeros((b, o, length))
    for bi in range(b):
        for oi in range(o):
            for ci in range(c):
                expected[bi, oi] += np.convolve(x[bi, ci], w[oi, ci])[:length]
    np.testing.assert_allclose(_conv_forward(x, w), expected, rtol=1e-12, atol=1e-12)


def stacked_conv_forward(x, w):
    """Reference causal conv: one (K*O, C) @ (C, B*L) contraction, then K shifted adds."""
    o, c, k = w.shape
    b, _, length = x.shape
    y = w.transpose(0, 2, 1).reshape(o * k, c) @ x.transpose(1, 0, 2).reshape(c, b * length)
    y = y.reshape(o, k, b, length)
    out = y[:, 0].copy()
    for n in range(1, k):
        out[:, :, n:] += y[:, n, :, : length - n]
    return out.transpose(1, 0, 2)


def stacked_conv_backward(x, w, dout):
    """Reference taps and input gradients in the same stacked formulation."""
    o, c, k = w.shape
    b, _, length = x.shape
    dout_t = np.ascontiguousarray(dout.transpose(1, 0, 2)).reshape(o, b * length)
    x_t = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(c, b * length)
    dw = np.empty((o, c, k))
    dw[:, :, 0] = dout_t @ x_t.T
    for n in range(1, k):
        lhs = dout.transpose(1, 0, 2)[:, :, n:].reshape(o, -1)
        rhs = x.transpose(1, 0, 2)[:, :, : length - n].reshape(c, -1)
        dw[:, :, n] = lhs @ rhs.T
    z = (w.transpose(1, 2, 0).reshape(c * k, o) @ dout_t).reshape(c, k, b, length)
    dx = z[:, 0].copy()
    for n in range(1, k):
        dx[:, :, : length - n] += z[:, n, :, n:]
    return dw, dx.transpose(1, 0, 2)


def assert_bitwise_equal(actual, expected):
    """Equal bit patterns: unlike np.array_equal, -0.0 differs from +0.0."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_conv_kernels_match_reference(x, w, dout):
    dw, dx = stacked_conv_backward(x, w, dout)
    assert_bitwise_equal(_conv_forward(x, w), stacked_conv_forward(x, w))
    assert_bitwise_equal(_conv_weight_grad(x, dout, w.shape[2]), dw)
    assert_bitwise_equal(_conv_input_grad(w, dout), dx)


def assert_conv_kernels_equal_reference(rng, b, c, o, k, length):
    x = rng.uniform(-1.0, 1.0, (b, c, length))
    w = rng.uniform(-1.0, 1.0, (o, c, k))
    dout = rng.uniform(-1.0, 1.0, (b, o, length))
    assert_conv_kernels_match_reference(x, w, dout)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(2, 24),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_conv_kernels_keep_the_stacked_summation_order(b, c, o, length, data, seed):
    """Forward, taps gradient and input gradient equal the stacked reference bit for bit.

    The training artifacts are byte-identical only while every conv output
    adds the same products in the same order. Two things outside that order
    also decide the bits, so the drawn sizes stay clear of them. OpenBLAS
    picks its dgemm kernel by problem size: with numpy 2.4's OpenBLAS 0.3.31,
    stacked products above M*N*K = 1e6 whose per-tap products (K times
    smaller) fell below it differed in the last bit. And at L = 1 the
    reference's reshapes are column-major views, which numpy hands to gemv
    in its transposed form. The training shapes are checked in the test below.
    """
    k = data.draw(st.integers(1, length))
    assert_conv_kernels_equal_reference(np.random.default_rng(seed), b, c, o, k, length)


@pytest.mark.parametrize("batch", [4, 32, 900])
@pytest.mark.parametrize("in_channels", [1, 8])
def test_conv_kernels_equal_the_stacked_reference_on_training_shapes(batch, in_channels):
    """train-compare's conv layers: batches of 32, the last batch of 4, and the 900-sample pass."""
    arch = _comparison_architecture("relu", default_dataset_spec())
    spec = arch.conv_layers[0]
    rng = np.random.default_rng(batch + in_channels)
    assert_conv_kernels_equal_reference(
        rng, batch, in_channels, spec.filters, spec.kernel_size, arch.input_length
    )


@pytest.mark.parametrize("seed", range(8))
def test_single_channel_conv_paths_keep_signed_zeros(seed):
    """The single-channel paths equal the stacked reference bit for bit, signed zeros too.

    Forward with one input channel and the input gradient with one filter
    give that channel a zero partner, so BLAS computes each product as
    w * x + 0 * 0; one filter over one channel, zero-train's shape, takes
    the stacked product of its taps. Many products here are -0.0, and only
    the bits tell whether each sum starts from 0.0 + tap 0 as the reference's
    matmul does. Paths with more channels are not held to this: they add the
    causal padding's +0.0 products where the reference adds nothing, which
    turns a -0.0 sum into +0.0.
    """
    rng = np.random.default_rng(seed)
    values = np.array([-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, -5e-324, 5e-324, 0.5])
    for filters in (3, 1):
        x = rng.choice(values, (5, 1, 12))
        w = rng.choice(values, (filters, 1, 4))
        assert_bitwise_equal(_conv_forward(x, w), stacked_conv_forward(x, w))
    w = rng.choice(values, (1, 3, 4))
    dout = rng.choice(values, (5, 1, 12))
    _, dx = stacked_conv_backward(np.zeros((5, 3, 12)), w, dout)
    assert_bitwise_equal(_conv_input_grad(w, dout), dx)


class TestForward:
    def test_zero_parameters_give_zero_logits_and_log3_loss(self):
        net = init_network(SMALL_ARCH, 0)
        net = replace(net, theta=np.zeros_like(net.theta))
        rng = np.random.default_rng(0)
        logits, _ = forward(net, random_batch(rng, 4, 16))
        assert np.array_equal(logits, np.zeros((4, 3)))
        assert loss_sparse_ce(logits, [0, 1, 2, 0]) == pytest.approx(math.log(3.0))

    def test_constant_input_propagates_past_kernel_rampin(self):
        net = init_network(SMALL_ARCH, 3)
        const = np.full((1, 16), 2.0)
        _, cache = forward(net, const)
        pre = cache["conv"][0]["pre"][0]
        for channel in pre:
            steady = channel[SMALL_ARCH.conv_layers[0].kernel_size - 1 :]
            assert np.allclose(steady, steady[0], atol=1e-12)

    def test_deterministic(self):
        net = init_network(SMALL_ARCH, 5)
        rng = np.random.default_rng(1)
        x = random_batch(rng, 3, 16)
        la, _ = forward(net, x)
        lb, _ = forward(net, x)
        assert np.array_equal(la, lb)

    def test_accepts_array_batches_and_checks_length(self):
        net = init_network(SMALL_ARCH, 5)
        batch = np.stack([np.arange(16.0), np.ones(16)])
        logits, _ = forward(net, batch)
        assert logits.shape == (2, 3)
        with pytest.raises(ValueError):
            forward(net, np.ones((1, 8)))


@settings(max_examples=50, deadline=None)
@given(small_architectures(), st.integers(3, 69), st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_the_head_reads_each_channels_dc(arch, length, batch, seed):
    """The pooled feature of row b, channel o is dc_of that channel's activation, bit for bit."""
    arch = replace(arch, input_length=length)
    net = init_network(arch, seed)
    _, cache = forward(net, random_batch(np.random.default_rng(seed), batch, length))
    act = cache["conv"][-1]["pre"]
    if arch.conv_layers[-1].activation == "relu":
        act = np.maximum(act, 0.0)
    dcs = [[dc_of(Signal(channel, 64.0)) for channel in row] for row in act]
    assert cache["feat"].tobytes() == np.array(dcs).tobytes()


class TestLoss:
    def test_uniform_logits(self):
        logits = np.ones((5, 3)) * 0.7
        assert loss_sparse_ce(logits, [0, 1, 2, 1, 0]) == pytest.approx(math.log(3.0))

    def test_saturated_logit_closed_form(self):
        logits = np.array([[10.0, -10.0, -10.0]])
        expected = math.log1p(2.0 * math.exp(-20.0))
        got = loss_sparse_ce(logits, [0])
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(4.1e-9, rel=0.01)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        perm = rng.permutation(4)
        inv = np.argsort(perm)
        assert loss_sparse_ce(logits[:, perm], inv[labels]) == pytest.approx(
            loss_sparse_ce(logits, labels)
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_sparse_ce(np.zeros((2, 3)), [0, 3])


ROW_LABELS = np.arange(32) % 3
LABEL_DEFECTS = {
    "16_labels_for_32_rows": ROW_LABELS[:16],
    "a_column_of_labels": ROW_LABELS[:, None],
    "minus_one": np.where(ROW_LABELS == 2, -1, ROW_LABELS),
    "the_class_count": np.where(ROW_LABELS == 2, 3, ROW_LABELS),
    "a_fraction": np.where(ROW_LABELS == 1, 1.7, ROW_LABELS),
    "nan": np.where(ROW_LABELS == 1, np.nan, ROW_LABELS),
    "inf": np.where(ROW_LABELS == 1, np.inf, ROW_LABELS),
}


@pytest.mark.parametrize("labels", LABEL_DEFECTS.values(), ids=LABEL_DEFECTS.keys())
@pytest.mark.parametrize("path", ["loss_sparse_ce", "backward"])
def test_loss_and_backward_reject_the_same_labels(path, labels):
    """One integer label in 0..2 per row of a 32-row batch, or ValueError from either path.

    Non-finite labels raise without a RuntimeWarning, which pytest would turn
    into an error of its own.
    """
    net = generic_comparison_net("relu", 0)
    logits, cache = forward(net, sample_dataset(default_dataset_spec(), 0).inputs[:32])
    with pytest.raises(ValueError, match=r"labels must be 32 integers in 0\.\.2"):
        if path == "backward":
            backward(net, cache, labels)
        else:
            loss_sparse_ce(logits, labels)


@pytest.mark.parametrize("path", ["loss_sparse_ce", "backward"])
def test_an_empty_batch_raises_without_a_warning(path):
    net = init_network(SMALL_ARCH, 0)
    logits, cache = forward(net, np.zeros((0, 16)))
    with pytest.raises(ValueError, match=r"labels must be 0 integers in 0\.\.2"):
        if path == "backward":
            backward(net, cache, [])
        else:
            loss_sparse_ce(logits, [])


def finite_difference_max_relative_error(net, x, labels, step=1e-5):
    logits, cache = forward(net, x)
    grads = layer_views(net.architecture, backward(net, cache, labels))
    worst = 0.0
    for li, layer in enumerate(layer_views(net.architecture, net.theta)):
        for key, arr in layer.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = loss_sparse_ce(forward(net, x)[0], labels)
                arr[idx] = orig - step
                down = loss_sparse_ce(forward(net, x)[0], labels)
                arr[idx] = orig
                fd = (up - down) / (2.0 * step)
                ga = grads[li][key][idx]
                worst = max(worst, abs(ga - fd) / max(abs(ga), abs(fd), 1e-4))
    return worst


KINK_MARGIN = 1e-3  # a hundred finite-difference steps


def relu_inputs(net, x):
    _, cache = forward(net, x)
    specs = net.architecture.conv_layers
    pres = [layer["pre"] for layer, spec in zip(cache["conv"], specs) if spec.activation == "relu"]
    return pres + [cache["hidden_pre"]]


def generic_point(net, rng, n, length):
    """Perturb the biases and draw an (n, length) batch on which every relu input,
    conv and hidden, lies at least KINK_MARGIN from the kink, so that the central
    difference stencil never straddles one. Redraws both until it does."""
    theta0 = net.theta.copy()
    for _ in range(100):
        net.theta[...] = theta0
        for layer in layer_views(net.architecture, net.theta):
            layer["b"][...] += rng.random(layer["b"].shape) * 0.2 - 0.1
        x = random_batch(rng, n, length)
        if min(np.abs(pre).min() for pre in relu_inputs(net, x)) >= KINK_MARGIN:
            return net, x
    raise AssertionError("no point clear of the relu kinks in 100 draws")


class TestBackward:
    def test_gradients_match_central_finite_differences(self):
        for seed in (0, 1, 2):
            for batch_seed in (10, 11, 12):
                rng = np.random.default_rng(batch_seed)
                net, x = generic_point(init_network(SMALL_ARCH, seed), rng, 6, 16)
                labels = rng.integers(0, 3, 6)
                err = finite_difference_max_relative_error(net, x, labels)
                assert err < 1e-4, f"seed={seed} batch={batch_seed} err={err}"

    def test_gap_head_gradients(self):
        arch = Architecture((ConvLayerSpec(3, 3, "linear"),), 4, 3, 16)
        rng = np.random.default_rng(20)
        net, x = generic_point(init_network(arch, 5), rng, 5, 16)
        labels = rng.integers(0, 3, 5)
        assert finite_difference_max_relative_error(net, x, labels) < 1e-4

    def test_saturated_batch_has_vanishing_gradients(self):
        net = init_network(SMALL_ARCH, 7)
        # force huge correct-class margins through the output bias
        layer_views(net.architecture, net.theta)[-1]["b"][...] = [100.0, 0.0, 0.0]
        rng = np.random.default_rng(3)
        x = random_batch(rng, 4, 16)
        logits, cache = forward(net, x)
        assert np.all(logits[:, 0] - logits[:, 1:].max(axis=1) > 20.0)
        grad = backward(net, cache, np.zeros(4, dtype=int))
        assert grad.shape == net.theta.shape
        assert math.sqrt(float(np.sum(grad**2))) < 1e-6

    def test_linear_conv_preactivations_scale_with_input(self):
        arch = Architecture(
            (ConvLayerSpec(3, 3, "linear"), ConvLayerSpec(2, 3, "linear")),
            4,
            3,
            16,
        )
        net = init_network(arch, 11)
        rng = np.random.default_rng(4)
        x = random_batch(rng, 3, 16)
        _, cache1 = forward(net, x)
        _, cache2 = forward(net, 2.0 * x)
        for c1, c2 in zip(cache1["conv"], cache2["conv"]):
            assert np.allclose(c2["pre"], 2.0 * c1["pre"], atol=1e-12)

    def test_stale_cache_rejected(self):
        net = init_network(SMALL_ARCH, 13)
        rng = np.random.default_rng(5)
        x = random_batch(rng, 2, 16)
        _, cache = forward(net, x)
        other = init_network(SMALL_ARCH, 14)
        with pytest.raises(ValueError):
            backward(other, cache, [0, 1])

    def test_parameter_write_after_forward_rejected(self):
        net = init_network(SMALL_ARCH, 13)
        x = random_batch(np.random.default_rng(5), 2, 16)
        _, cache = forward(net, x)
        layer_views(net.architecture, net.theta)[0]["w"][...] += 0.5
        with pytest.raises(ValueError, match="stale cache"):
            backward(net, cache, [0, 1])

    def test_fresh_cache_of_nan_parameters_is_not_stale(self):
        """NaN != NaN, so a value comparison would call this cache stale."""
        net = init_network(SMALL_ARCH, 13)
        net = replace(net, theta=np.full_like(net.theta, np.nan))
        _, cache = forward(net, random_batch(np.random.default_rng(5), 2, 16))
        backward(net, cache, [0, 1])
        assert math.isnan(cache["loss"])


@settings(max_examples=25, deadline=None)
@given(small_architectures(), st.integers(0, 2**32 - 1))
@example(  # its first draw puts a conv1 relu input 4.6e-6 from the kink
    Architecture(
        (ConvLayerSpec(1, 1, "relu"), ConvLayerSpec(1, 1, "linear")),
        hidden_units=1,
        n_classes=2,
        input_length=7,
    ),
    53951,
)
def test_gradients_match_finite_differences_on_random_architectures(arch, seed):
    rng = np.random.default_rng(seed)
    net, x = generic_point(init_network(arch, seed), rng, 3, arch.input_length)
    labels = rng.integers(0, arch.n_classes, 3)
    assert finite_difference_max_relative_error(net, x, labels) < 1e-4


def reference_loss(logits, labels):
    """The mean cross entropy from a max shift and exp of its own."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_softmax = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_softmax[np.arange(labels.size), labels].mean())


def reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_backward(net, cache, labels):
    """The gradient from a softmax pass of its own, apart from the loss's."""
    arch = net.architecture
    params = layer_views(arch, net.theta)
    grad = np.zeros_like(net.theta)
    grads = layer_views(arch, grad)
    batch = labels.size
    n_conv = len(arch.conv_layers)

    dlogits = reference_softmax(cache["logits"])
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch

    grads[n_conv + 1]["w"][...] = cache["hidden"].T @ dlogits
    grads[n_conv + 1]["b"][...] = dlogits.sum(axis=0)
    dhidden = dlogits @ params[n_conv + 1]["w"].T
    dhidden_pre = dhidden * (cache["hidden_pre"] > 0)
    grads[n_conv]["w"][...] = cache["feat"].T @ dhidden_pre
    grads[n_conv]["b"][...] = dhidden_pre.sum(axis=0)
    dfeat = dhidden_pre @ params[n_conv]["w"].T

    out_shape = cache["conv"][-1]["pre"].shape
    dacts = np.broadcast_to(dfeat[:, :, None] / out_shape[2], out_shape)
    for i in range(n_conv - 1, -1, -1):
        layer_cache = cache["conv"][i]
        if arch.conv_layers[i].activation == "relu":
            dpre = dacts * (layer_cache["pre"] > 0)
        else:
            dpre = np.asarray(dacts)
        kernel_size = arch.conv_layers[i].kernel_size
        grads[i]["w"][...] = _conv_weight_grad(layer_cache["input"], dpre, kernel_size)
        grads[i]["b"][...] = dpre.sum(axis=(0, 2))
        if i > 0:
            dacts = _conv_input_grad(params[i]["w"], dpre)
    return grad


def assert_step_equals_the_two_pass_reference(net, x, labels, logits=None):
    """loss_sparse_ce, backward's cache["loss"] and its gradient equal the references' bits.

    logits, when given, replace forward's in the cache that both gradients read.
    """
    _, cache = forward(net, x)
    if logits is not None:
        cache["logits"] = logits
    with np.errstate(over="ignore"):  # extreme logits: -1.7e308 - 1.7e308 is -inf
        grad = backward(net, cache, labels)
        expected_grad = reference_backward(net, cache, labels)
        loss = loss_sparse_ce(cache["logits"], labels)
        expected_loss = reference_loss(cache["logits"], labels)
    assert_bitwise_equal(grad, expected_grad)
    assert_bitwise_equal(np.array(loss), np.array(expected_loss))
    assert_bitwise_equal(np.array(cache["loss"]), np.array(expected_loss))


EXTREME_LOGITS = st.sampled_from([1.7e308, -1.7e308, 1e300, -1e300, 700.0, -745.0, 0.0, -0.0])


@settings(max_examples=40, deadline=None)
@given(
    small_architectures(), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.data()
)
def test_loss_and_gradient_equal_the_two_pass_reference(arch, rows, seed, extreme, data):
    """Half the draws replace the logits by extreme values, ties and signed zeros."""
    rng = np.random.default_rng(seed)
    net = init_network(arch, seed)
    x = random_batch(rng, rows, arch.input_length)
    labels = rng.integers(0, arch.n_classes, rows)
    logits = None
    if extreme:
        size = rows * arch.n_classes
        cells = data.draw(st.lists(EXTREME_LOGITS, min_size=size, max_size=size))
        logits = np.reshape(cells, (rows, arch.n_classes))
    assert_step_equals_the_two_pass_reference(net, x, labels, logits)


@pytest.mark.parametrize("rows", [32, 4])
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_loss_and_gradient_equal_the_two_pass_reference_on_training_shapes(activation, rows):
    """train-compare's batches of 32 and its last batch of 4."""
    trainset = sample_dataset(default_dataset_spec(), rows)
    net = generic_comparison_net(activation, rows)
    inputs, labels = trainset.inputs[:rows], trainset.labels[:rows]
    assert_step_equals_the_two_pass_reference(net, inputs, labels)


class TestAdam:
    def test_first_step_moves_by_lr_sign(self):
        theta = np.array([1.0, -2.0, 0.5, 0.0])
        grad = np.array([0.3, -0.2, 0.9, -1.5])
        state = init_adam_state(theta)
        state, new_theta = adam_step(state, theta, grad)
        assert state.step_count == 1
        expected = theta - trainer.ADAM["lr"] * grad / (np.abs(grad) + trainer.ADAM["epsilon"])
        assert np.allclose(new_theta, expected, atol=1e-15)

    def test_equals_a_scalar_loop_of_kingma_and_ba_algorithm_1(self):
        """40 steps, gradients from 1e-8 to 1e8 with all-zero steps, equal bit for bit."""
        lr, beta1, beta2, epsilon = 0.001, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        grads = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 6))
        grads[[0, 7, 8, 23]] = 0.0
        theta = rng.standard_normal(6)
        expected = theta.tolist()
        m, v = [0.0] * 6, [0.0] * 6
        for t, grad in enumerate(grads.tolist(), 1):
            for i, g in enumerate(grad):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
                m_hat = m[i] / (1.0 - beta1**t)
                v_hat = v[i] / (1.0 - beta2**t)
                expected[i] = expected[i] - lr * m_hat / (math.sqrt(v_hat) + epsilon)
        state = init_adam_state(theta)
        for grad in grads:
            state, theta = adam_step(state, theta, grad)
        assert state.step_count == 40
        assert theta.tolist() == expected

    def test_zero_gradient_from_fresh_state_keeps_parameters(self):
        theta = np.array([1.0, 2.0])
        state = init_adam_state(theta)
        state, after = adam_step(state, theta, np.zeros(2))
        assert np.array_equal(after, theta)
        assert state.step_count == 1

    def test_zero_gradients_decay_moments(self):
        theta = np.array([1.0, 2.0])
        state = init_adam_state(theta)
        state, theta = adam_step(state, theta, np.array([0.5, -0.5]))
        m_before = np.abs(state.first_moment).copy()
        for _ in range(10):
            state, theta = adam_step(state, theta, np.zeros(2))
        assert np.all(np.abs(state.first_moment) < 0.5 * m_before)
        assert np.all(np.abs(state.second_moment) < 0.25)

    def test_identical_gradient_sequences_give_identical_trajectories(self):
        rng = np.random.default_rng(6)
        seq = [rng.standard_normal(4) for _ in range(5)]

        def run():
            theta = np.ones(4)
            state = init_adam_state(theta)
            for grad in seq:
                state, theta = adam_step(state, theta, grad)
            return theta

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        theta = np.ones(3)
        state = init_adam_state(theta)
        with pytest.raises(ValueError):
            adam_step(state, theta, np.ones(4))


class TestWeightDistance:
    def test_zero_for_identical(self):
        net = init_network(SMALL_ARCH, 1)
        assert weight_distance(SMALL_ARCH, net.theta, net.theta) == [0.0] * 4

    def test_unit_norm(self):
        theta0 = init_network(SMALL_ARCH, 1).theta
        theta1 = theta0.copy()
        layer_views(SMALL_ARCH, theta1)[1]["w"][0, 0, :] += 0.5
        layer_views(SMALL_ARCH, theta1)[1]["b"][0] += 0.5
        assert weight_distance(SMALL_ARCH, theta0, theta1) == [
            0.0,
            pytest.approx(1.0),
            0.0,
            0.0,
        ]

    def test_triangle_inequality(self):
        thetas = [init_network(SMALL_ARCH, s).theta for s in (1, 2, 3)]
        d02 = weight_distance(SMALL_ARCH, thetas[0], thetas[2])
        d01 = weight_distance(SMALL_ARCH, thetas[0], thetas[1])
        d12 = weight_distance(SMALL_ARCH, thetas[1], thetas[2])
        for a, b, c in zip(d02, d01, d12):
            assert a <= b + c + 1e-12

    def test_shape_mismatch(self):
        theta = init_network(SMALL_ARCH, 1).theta
        with pytest.raises(ValueError):
            weight_distance(SMALL_ARCH, theta, theta[:1])


def toy_separable_set(n_per_class=16, length=16):
    # constant +1 vs constant -1 signals: separable by the first conv bias path
    inputs = np.repeat([[1.0], [-1.0]], n_per_class, axis=0) * np.ones(length)
    labels = [0] * n_per_class + [1] * n_per_class
    return LabeledSet(inputs, labels, float(length))


class TestTrain:
    arch = Architecture((ConvLayerSpec(2, 3, "relu"),), 4, 2, 16)

    def test_zero_epochs(self):
        record = train(init_network(self.arch, 0), toy_separable_set(), 0, 8)
        assert record.curves["loss"].shape == (0,)
        assert record.curves["distance"].tolist() == [[0.0]]

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            train(init_network(self.arch, 0), toy_separable_set(), -1, 8)

    @pytest.mark.parametrize(
        "epochs, batch_size, message",
        [
            (2.5, 8, "epochs must be an integer >= 0, got 2.5"),
            (1, 2.5, "batch_size must be an integer >= 1, got 2.5"),
            ("1", 8, "epochs must be an integer >= 0, got '1'"),
            (1, 0, "batch_size must be an integer >= 1, got 0"),
        ],
    )
    def test_counts_must_be_integers(self, epochs, batch_size, message):
        """The first three once raised a raw TypeError."""
        with pytest.raises(ValueError, match=message):
            train(init_network(self.arch, 0), toy_separable_set(), epochs, batch_size)

    def test_non_finite_loss_names_epoch_and_batch(self, monkeypatch):
        # the first batch's loss is taken before any update; the step of
        # size ~lr after it overflows every logit
        monkeypatch.setitem(trainer.ADAM, "lr", 1e305)
        net = init_network(self.arch, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 1, batch 2"):
                train(net, toy_separable_set(), 3, 8)

    def test_nan_parameters_diverge_at_the_first_batch(self):
        """train takes the loss from backward, whose stale-cache check must let NaN through."""
        net = init_network(self.arch, 0)
        net = replace(net, theta=np.full_like(net.theta, np.nan))
        with pytest.raises(DivergenceError, match="loss is nan at epoch 1, batch 1"):
            train(net, toy_separable_set(), 2, 8)

    def test_loss_decreases_on_separable_toy(self):
        drops = []
        for seed in range(5):
            record = train(
                init_network(self.arch, seed), toy_separable_set(), 8, 8, seed=seed
            )
            drops.append(record.curves["loss"][-1] < record.curves["loss"][0])
        assert sum(drops) >= 3  # median over 5 seeds decreases

    def test_record_shapes_and_determinism(self):
        ds = toy_separable_set()
        a = train(init_network(self.arch, 3), ds, 4, 8, seed=17)
        b = train(init_network(self.arch, 3), ds, 4, 8, seed=17)
        assert a.curves.keys() == b.curves.keys() == {"loss", "distance"}
        for name in a.curves:
            assert np.array_equal(a.curves[name], b.curves[name])
        assert a.final_accuracy == b.final_accuracy
        assert a.architecture == b.architecture == self.arch
        assert a.curves["loss"].shape == (4,)
        assert a.curves["distance"].shape == (1, 5)


def reference_train(net, trainset, epochs, batch_size, seed):
    """train's curves and final accuracy from the public forward -> backward -> adam_step.

    Every adam_step must leave the state, theta and gradient it is given unchanged.
    """
    arch, x, y = net.architecture, trainset.inputs, trainset.labels
    n_conv = len(arch.conv_layers)
    rng = np.random.Generator(np.random.PCG64(seed))
    state, current = init_adam_state(net.theta), net
    losses, distances = [], [[0.0] * n_conv]
    starts = range(0, y.size, batch_size)
    for _ in range(epochs):
        perm = rng.permutation(y.size)
        batch_losses = []
        for start in starts:
            idx = perm[start : start + batch_size]
            _, cache = forward(current, x[idx])
            grad = backward(current, cache, y[idx])
            batch_losses.append(cache["loss"])
            given = (state.first_moment, state.second_moment, current.theta, grad)
            copies = [a.copy() for a in given]
            new_state, theta = adam_step(state, current.theta, grad)
            for a, copy in zip(given, copies):
                assert_bitwise_equal(a, copy)
            assert new_state.step_count == state.step_count + 1
            state, current = new_state, replace(current, theta=theta)
        losses.append(np.mean(batch_losses))
        distances.append(weight_distance(arch, net.theta, current.theta)[:n_conv])
    logits = np.concatenate([forward(current, x[i : i + batch_size])[0] for i in starts])
    return np.array(losses), np.array(distances).T, np.mean(np.argmax(logits, axis=1) == y)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("activation", ["relu", "linear"])
@pytest.mark.parametrize("trainset", ["default", "toy"])
def test_train_equals_the_public_step_loop(trainset, activation, seed):
    """train's in-place step has the bits of forward, backward and adam_step called per batch.

    The default set trains 900 rows in batches of 32, the last of 4; the toy
    set 32 rows in batches of 7, the last of 4.
    """
    if trainset == "default":
        arch = _comparison_architecture(activation, default_dataset_spec())
        data, batch_size = sample_dataset(default_dataset_spec(), seed), 32
    else:
        arch = Architecture((ConvLayerSpec(2, 3, activation),), 4, 2, 16)
        data, batch_size = toy_separable_set(), 7
    net = init_network(arch, seed)
    theta = net.theta.copy()
    record = train(net, data, 2, batch_size, seed=seed + 10)
    assert_bitwise_equal(net.theta, theta)
    loss, distance, accuracy = reference_train(net, data, 2, batch_size, seed + 10)
    assert_bitwise_equal(record.curves["loss"], loss)
    assert_bitwise_equal(record.curves["distance"], distance)
    assert_bitwise_equal(np.array(record.final_accuracy), np.array(accuracy))


@pytest.mark.parametrize("epochs", [0, 2])
def test_a_label_beyond_the_classes_fails_before_any_forward(epochs, monkeypatch):
    """train once trained up to the batch holding the label, and at 0 epochs did not raise."""
    calls = []
    forward_ = trainer.forward

    def counting_forward(*args):
        calls.append(1)
        return forward_(*args)

    monkeypatch.setattr(trainer, "forward", counting_forward)
    toy = toy_separable_set()
    labels = toy.labels.copy()
    labels[-1] = 2
    trainset = LabeledSet(toy.inputs, labels, toy.sample_rate)
    with pytest.raises(ValueError, match=r"labels must be 32 integers in 0\.\.1"):
        train(init_network(TestTrain.arch, 0), trainset, epochs, 8)
    assert calls == []


def generic_comparison_net(activation, seed):
    """A train-compare network with every parameter, biases included, off its init."""
    net = init_network(_comparison_architecture(activation, default_dataset_spec()), seed)
    rng = np.random.default_rng(seed)
    return replace(net, theta=net.theta + rng.uniform(-0.2, 0.2, net.theta.shape))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_final_accuracy_slices_equal_the_whole_set_forward(activation, seed):
    """train's batch_size slices give the whole-set forward's logits bit for bit.

    The default shapes: 900 rows in slices of 32, the last slice of 4.
    """
    trainset = sample_dataset(default_dataset_spec(), seed)
    net = generic_comparison_net(activation, seed)
    whole, _ = forward(net, trainset.inputs)
    starts = range(0, len(trainset), 32)
    sliced = np.concatenate([forward(net, trainset.inputs[i : i + 32])[0] for i in starts])
    assert_bitwise_equal(sliced, whole)
    accuracy = float(np.mean(np.argmax(whole, axis=1) == trainset.labels))
    assert train(net, trainset, 0, 32).final_accuracy == accuracy


@lru_cache(maxsize=None)
def whole_set_features(activation):
    trainset = sample_dataset(default_dataset_spec(), 0)
    net = generic_comparison_net(activation, 0)
    return net, trainset.inputs, forward(net, trainset.inputs)[1]["feat"]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["relu", "linear"]), st.integers(1, 450))
def test_pooled_features_do_not_depend_on_the_slice_size(activation, size):
    """Conv and pooling rows are computed alike however many rows a call gets."""
    net, inputs, whole = whole_set_features(activation)
    starts = range(0, inputs.shape[0], size)
    sliced = np.concatenate([forward(net, inputs[i : i + size])[1]["feat"] for i in starts])
    assert_bitwise_equal(sliced, whole)


@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_training_holds_no_more_than_a_few_batches(activation):
    """One epoch on the default 900-sample set, batch 32, stays under 4 MB of traced peak.

    A forward pass over the whole set holds about 20 MB of activations.
    """
    spec = default_dataset_spec()
    trainset = sample_dataset(spec, 0)
    net = init_network(_comparison_architecture(activation, spec), 0)
    tracemalloc.start()
    try:
        train(net, trainset, 1, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# 40 rows: each epoch trains one full batch of BATCH_SIZE (32) and a ragged last batch of 8
RAGGED_SPEC = DatasetSpec((3.0, 5.0), 0.1, 20, 64.0, 1.0)


class TestRunComparison:
    def test_single_repetition_equals_its_record(self):
        spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 12, 64.0, 1.0)
        nets = run_comparison(1, 0, epochs=2, dataset_spec=spec)
        for net in nets.values():
            assert net.curves["loss"].shape == (1, 2)
            median, q25, q75 = _quartiles(net.curves["loss"])
            assert np.array_equal(median, q25)
            assert np.array_equal(median, q75)
            assert net.curves["distance"].shape == (1, 2, 3)
            assert net.final_losses.shape == (1,)

    def test_zero_epochs_leave_final_losses_empty(self):
        spec = DatasetSpec((3.0, 5.0), 0.1, 4, 64.0, 1.0)
        nets = run_comparison(1, 0, epochs=0, dataset_spec=spec)
        for net in nets.values():
            assert net.final_losses.size == 0
            assert net.curves["loss"].shape == (1, 0)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_stacked_finals_equal_the_per_repetition_records(self, epochs, sequential_repetitions):
        """Row r of a stacked record's finals is repetition r's own record's finals."""
        nets = run_comparison(3, 4, epochs=epochs, dataset_spec=RAGGED_SPEC)
        reps = sequential_repetitions(3, 4, epochs, RAGGED_SPEC)
        for name, net in nets.items():
            recs = [rep[name] for rep in reps]
            assert len(recs) == 3
            assert net.final_losses.tolist() == [x for r in recs for x in r.final_losses]
            for row, rec in enumerate(recs):
                assert net.final_conv_distances[row] == rec.final_conv_distances
                assert net.final_accuracy[row] == rec.final_accuracy

    def test_deterministic_given_base_seed(self):
        a = run_comparison(2, 5, epochs=1, dataset_spec=RAGGED_SPEC)
        b = run_comparison(2, 5, epochs=1, dataset_spec=RAGGED_SPEC)
        for name in a:
            assert np.array_equal(a[name].curves["loss"], b[name].curves["loss"])
            assert np.array_equal(a[name].final_conv_distances, b[name].final_conv_distances)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0), "n_repetitions must be an integer >= 1, got 0"),
            ((1, 0, -1), "epochs must be an integer >= 0, got -1"),
            ((-1, 0), "n_repetitions must be an integer >= 1, got -1"),
            # DEFAULT_DC_LEVELS has no offset for a fourth class
            ((1, 0, 1, DatasetSpec((3.0, 5.0, 10.0, 12.0), 0.1, 2, 64.0, 1.0)), r"\[3\]"),
            # specs that _comparison_architecture cannot take, with and without a pool
            ((1, 0, 1, DatasetSpec((3.0,), 0.1, 2, 64.0, 1.0)), "n_classes must be an integer"),
            (
                (2, 0, 1, DatasetSpec((3.0, 5.0), 0.1, 2, 64.0, 4 / 64)),
                "input_length shorter than a conv kernel",
            ),
            # counts that are not integers once raised a raw TypeError
            ((2.5, 0), "n_repetitions must be an integer >= 1, got 2.5"),
            ((1, 0.5), "base_seed must be an integer >= 0, got 0.5"),
            ((1, 0, 1.5), "epochs must be an integer >= 0, got 1.5"),
            ((1, -1), "base_seed must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_counts_fail_before_any_work(self, args, message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started for an invalid count")

        monkeypatch.setattr(trainer, "sample_dataset", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        with pytest.raises(ValueError, match=message):
            run_comparison(*args)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_pooled_repetitions_equal_the_sequential_reference(
        self, epochs, monkeypatch, sequential_repetitions
    ):
        """Two forked workers, one of them training two rows, give the in-process loop's bits."""
        pools = []
        executor = concurrent.futures.ProcessPoolExecutor

        def recording_executor(workers, **kwargs):
            pools.append(workers)
            return executor(workers, **kwargs)

        # two workers even on a one-core machine, and never more
        monkeypatch.setattr(trainer, "_worker_count", lambda n: min(n, 2))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_executor)
        nets = run_comparison(3, 4, epochs=epochs, dataset_spec=RAGGED_SPEC)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert_same_bits(nets, sequential_repetitions(3, 4, epochs, RAGGED_SPEC))

    def test_records_carry_the_architectures_that_trained(self):
        """Each stacked record names its variant's network for this spec, not the default's."""
        nets = run_comparison(2, 0, epochs=0, dataset_spec=RAGGED_SPEC)
        for name, (activation, _) in trainer.VARIANTS.items():
            arch = _comparison_architecture(activation, RAGGED_SPEC)
            assert arch != _comparison_architecture(activation, default_dataset_spec())
            assert nets[name].architecture == arch

    def test_one_worker_trains_in_this_process(self, monkeypatch, sequential_repetitions):
        """With one worker, as on a one-core machine, no pool is made and nothing forks."""

        def no_fork(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(trainer, "_worker_count", lambda n: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
        monkeypatch.setattr(os, "fork", no_fork)
        nets = run_comparison(3, 4, epochs=2, dataset_spec=RAGGED_SPEC)
        assert_same_bits(nets, sequential_repetitions(3, 4, 2, RAGGED_SPEC))


def test_linear_dc_trains_on_the_one_drawn_set_plus_its_class_offsets(monkeypatch):
    """One draw per repetition; each linear_dc row is its tone plus its class's DC level."""
    draws, trainsets = [], []
    sample, train_ = trainer.sample_dataset, trainer.train

    def counting_sample(spec, seed):
        draws.append(seed)
        return sample(spec, seed)

    def recording_train(net, trainset, epochs, batch_size, seed=0):
        trainsets.append(trainset)
        return train_(net, trainset, epochs, batch_size, seed)

    monkeypatch.setattr(trainer, "_worker_count", lambda n: 1)
    monkeypatch.setattr(trainer, "sample_dataset", counting_sample)
    monkeypatch.setattr(trainer, "train", recording_train)
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 4, 64.0, 1.0)
    run_comparison(2, 7, epochs=0, dataset_spec=spec)
    seeds = np.random.Generator(np.random.PCG64(7)).integers(0, 2**31 - 1, size=(2, 7))
    assert draws == seeds[:, 0].tolist()
    assert len(trainsets) == 2 * len(trainer.VARIANTS)
    for rep, data_seed in enumerate(draws):
        drawn = sample(spec, data_seed)
        tones = np.array(
            [synthesize(MultiTone([f], [1.0]), 64.0, 1.0).samples for f in drawn.frequencies]
        )
        levels = np.array([trainer.DEFAULT_DC_LEVELS[label] for label in drawn.labels])
        wants = {"relu": tones, "linear": tones, "linear_dc": tones + levels[:, None]}
        for name, trainset in zip(trainer.VARIANTS, trainsets[3 * rep : 3 * rep + 3]):
            assert trainset.inputs.tobytes() == wants[name].tobytes()
            assert np.array_equal(trainset.labels, drawn.labels)


def assert_same_bits(nets, reps):
    """Every stacked curve and final accuracy has the bits of the per-repetition records."""
    for name, net in nets.items():
        records = [rep[name] for rep in reps]
        pairs = [(net.curves[c], np.stack([r.curves[c] for r in records])) for c in net.curves]
        pairs.append((net.final_accuracy, np.array([r.final_accuracy for r in records])))
        assert net.curves.keys() == records[0].curves.keys()
        assert all(r.architecture == net.architecture for r in records)
        for got, want in pairs:
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_worker_count_is_usable_cores_capped_at_the_repetitions(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert [trainer._worker_count(n) for n in (1, 3, 4, 100)] == [1, 3, 4, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert trainer._worker_count(100) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork", raising=False)
    assert trainer._worker_count(100) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert trainer._worker_count(100) == 1


# run_comparison's second call in a fresh process; it prints its workers' minor faults
WORKER_FAULTS = """
import resource
from relufreq.trainer import run_comparison
run_comparison(2, 0, 10)
before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
run_comparison(2, 0, 10)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the warm-up block relies on glibc's mmap threshold"
)
@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="run_comparison forks workers only on 2 or more usable cores",
)
def test_workers_fork_from_a_warmed_allocator():
    """The workers of a fresh process's run_comparison(2, 0, 10) take under 10k minor faults.

    Measured on a 2-core VM (glibc 2.36, numpy 2.4 with OpenBLAS 0.3.31, one
    BLAS thread): about 3.4k with the 2 MiB block freed before the fork, and
    29.3k without it, because the workers then give their step temporaries
    back to the system and fault them in again step after step.
    """
    src = os.path.dirname(os.path.dirname(trainer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", WORKER_FAULTS], env=env, capture_output=True, text=True, check=True
    )
    assert int(run.stdout) < 10_000


def test_first_conv_relu_activation_of_cosines_has_positive_mean():
    arch = _comparison_architecture("relu", default_dataset_spec())
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 4, 64.0, 1.0)
    ds = sample_dataset(spec, 21)
    for seed in range(5):
        net = init_network(arch, seed)
        _, cache = forward(net, ds.inputs)
        pre = cache["conv"][0]["pre"]
        post = np.maximum(pre, 0.0)
        for b in range(pre.shape[0]):
            for ch in range(pre.shape[1]):
                if np.any(pre[b, ch] > 0):
                    assert post[b, ch].mean() > 0.0


class TestZeroTrain:
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 30, 64.0, 32.0)

    def test_lowpass_kernel_orders_classes_and_classifies(self):
        ds = sample_dataset(self.spec, 1)
        _, _, report = zero_train_eval(ds, kernel=Kernel(np.array([0.6, 0.4])))
        # same-sign two-tap response decreases with frequency
        b = report["class_gains"]
        assert b[0] > b[1] > b[2]
        closed_form = np.sqrt(
            0.6**2
            + 0.4**2
            + 2 * 0.6 * 0.4 * np.cos(2 * np.pi * report["class_mean_freqs_hz"] / 64.0)
        )
        assert np.allclose(b, closed_form, atol=1e-12)
        d = report["class_mean_dcs"]
        assert d[0] > d[1] > d[2]
        assert report["accuracy"] == 1.0

    def test_symmetric_kernel_matches_dc_model_within_band(self):
        ds = sample_dataset(self.spec, 2)
        _, _, report = zero_train_eval(ds, kernel=Kernel(np.array([0.5, 0.5])))
        for c in range(3):
            modeled = dc_model([1.0], [report["class_gains"][c]])
            ratio = modeled / report["class_mean_dcs"][c]
            assert 1.0 <= ratio <= 1.2

    def test_differentiator_kernel_reverses_order_but_separates(self):
        ds = sample_dataset(self.spec, 3)
        _, _, report = zero_train_eval(ds, kernel=Kernel(np.array([1.0, -1.0])))
        b = report["class_gains"]
        assert b[0] < b[1] < b[2]
        d = report["class_mean_dcs"]
        assert d[0] < d[1] < d[2]
        assert report["accuracy"] == 1.0

    def test_class_separation_in_standard_errors(self):
        ds = sample_dataset(self.spec, 4)
        _, _, report = zero_train_eval(ds, kernel=Kernel(np.array([0.6, 0.4])))
        _, counts = np.unique(ds.labels, return_counts=True)
        ses = report["class_std_dcs"] / np.sqrt(counts)
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(report["class_mean_dcs"][i] - report["class_mean_dcs"][j])
                assert gap > 5.0 * math.hypot(ses[i], ses[j])

    def test_seeded_random_kernel_is_deterministic_and_bounded(self):
        ds = sample_dataset(self.spec, 5)
        a, _, _ = zero_train_eval(ds, seed=8)
        b, _, _ = zero_train_eval(ds, seed=8)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= math.sqrt(0.5))

    def test_argument_validation(self):
        ds = sample_dataset(self.spec, 6)
        with pytest.raises(ValueError):
            zero_train_eval(ds)
        with pytest.raises(ValueError):
            zero_train_eval(ds, kernel=Kernel(np.array([1.0, 2.0])), seed=1)
        with pytest.raises(ValueError):
            zero_train_eval(ds, kernel=Kernel(np.array([1.0, 2.0, 3.0])))
        no_freqs = LabeledSet(ds.inputs, ds.labels, ds.sample_rate)
        with pytest.raises(ValueError):
            zero_train_eval(no_freqs, kernel=Kernel(np.array([1.0, 2.0])))

    def test_zero_kernel_rejected(self):
        """Every DC is 0, so every sample ties and argmin would pick class 0."""
        ds = sample_dataset(self.spec, 7)
        with pytest.raises(DegenerateInputError, match="share a mean DC"):
            zero_train_eval(ds, kernel=Kernel(np.array([0.0, 0.0])))

    @pytest.mark.parametrize("taps", [(1e308, 1e308), (1e308, -1e308), (1.7e308, 0.1)])
    def test_overflowing_kernel_rejected_before_the_tie_check(self, taps):
        """The class mean DCs overflow to inf, which the tie check would report as a tie."""
        ds = sample_dataset(self.spec, 7)
        with pytest.raises(ValueError, match=r"kernel \[.*\] overflows the per-sample DCs"):
            zero_train_eval(ds, kernel=Kernel(np.array(taps)))

    def test_overflowing_dc_spread_rejected(self):
        """Finite per-sample DCs near 1e299 whose squared deviations overflow in std."""
        ds = sample_dataset(self.spec, 7)
        with pytest.raises(ValueError, match=r"kernel \[0\.0, 1e\+300\] overflows the per-class"):
            zero_train_eval(ds, kernel=Kernel(np.array([0.0, 1e300])))

    def test_classes_with_equal_mean_dcs_rejected(self):
        row = np.cos(2 * np.pi * 5.0 * np.arange(64) / 64.0)
        ds = LabeledSet(np.tile(row, (6, 1)), np.repeat([0, 1, 2], 2), 64.0, np.full(6, 5.0))
        with pytest.raises(DegenerateInputError, match="share a mean DC"):
            zero_train_eval(ds, kernel=Kernel(np.array([0.6, 0.4])))


@lru_cache(maxsize=None)
def zero_train_set():
    """The CLI's zero-train dataset at seed 0: 300 rows of 2048 samples."""
    return sample_dataset(ZERO_TRAIN_SPEC, 1)


def whole_set_dcs(inputs, taps):
    """The per-sample DCs from the trainer's batched conv over every row: an independent oracle."""
    conv = _conv_forward(inputs[:, None, :], taps[None, None, :])[:, 0, :]
    return np.maximum(conv, 0.0).mean(axis=1)


@pytest.mark.parametrize("rows", [1, 7, 32, 300])
@pytest.mark.parametrize("kernel", [DEFAULT_ZERO_KERNEL, 0, 5], ids=["default", "seed0", "seed5"])
def test_sliced_dcs_equal_the_whole_set_conv(rows, kernel):
    """The first rows of the set, taken alone, give the whole-set batched conv's DCs bit for bit.

    zero_train_eval's per-row np.convolve DCs thus match the trainer's batched
    conv, and no row's DC depends on the other rows. A kernel tuple is used as
    given; an integer draws a seeded kernel.
    """
    ds = zero_train_set()
    part = LabeledSet(ds.inputs[:rows], ds.labels[:rows], ds.sample_rate, ds.frequencies[:rows])
    if isinstance(kernel, int):
        taps, dcs, _ = zero_train_eval(part, seed=kernel)
    else:
        taps, dcs, _ = zero_train_eval(part, kernel=Kernel(np.array(kernel)))
    assert_bitwise_equal(dcs, whole_set_dcs(ds.inputs, taps)[:rows])


two_tap = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-20, 20)),
)


@settings(max_examples=200, deadline=None)
@given(two_tap, two_tap, st.integers(1, 20), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(1.0, 0.0, 1, 1, 0)
@example(-0.0, 1e-20, 3, 2, 1)
def test_one_row_conv_dcs_equal_the_batched_conv(t0, t1, rows, length, seed):
    """A 2-tap output is a sum of two products, so np.convolve and the batched conv agree bitwise.

    Zero taps and rows that start with -0.0 make zero products of either sign.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, length)) * 10.0 ** rng.integers(-20, 21, (rows, 1))
    x[rng.random(rows) < 0.5, 0] = -0.0
    taps = np.array([t0, t1])
    dcs = np.array([np.maximum(_causal(row, taps), 0.0).mean() for row in x])
    assert_bitwise_equal(dcs, whole_set_dcs(x, taps))


def test_class_mean_dcs_follow_the_dc_law_over_random_kernels():
    """A tone through gain b has a rectified DC of b/pi (c05's law), class by class.

    Over 100 zero-train --seed kernels the largest relative error was 0.24%.
    """
    for seed in range(100):
        _, _, results = zero_train_eval(sample_dataset(ZERO_TRAIN_SPEC, seed + 1), seed=seed)
        law = results["class_gains"] / math.pi
        assert np.allclose(results["class_mean_dcs"], law, rtol=5e-3, atol=0.0), seed


def test_zero_train_holds_no_more_than_a_slice():
    """zero_train_eval on the CLI's 300 x 2048 set stays under 4 MB of traced peak.

    One conv over the whole set holds about 15 MB of temporaries.
    """
    ds = zero_train_set()
    tracemalloc.start()
    try:
        zero_train_eval(ds, kernel=Kernel(np.array(DEFAULT_ZERO_KERNEL)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# entry point -> a function of the seed alone, its other arguments built when it is made
SEEDED_ENTRY_POINTS = {
    "sample_dataset": lambda: partial(sample_dataset, RAGGED_SPEC),
    "init_network": lambda: partial(init_network, SMALL_ARCH),
    "train": lambda: partial(train, init_network(TestTrain.arch, 0), toy_separable_set(), 1, 8),
    "zero_train_eval": lambda: partial(zero_train_eval, sample_dataset(RAGGED_SPEC, 0), None),
    "run_comparison": lambda: lambda seed: run_comparison(1, seed, 1, RAGGED_SPEC),
}


@pytest.mark.parametrize("seed", [2.5, -1, "3", None])
@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
def test_a_seed_must_be_an_integer_from_0_before_any_draw(entry, seed, monkeypatch):
    """None once drew fresh OS entropy; 2.5 and -1 raised numpy's unnamed errors.

    No PCG64 stream may be built once the other arguments are. zero_train_eval
    with no kernel takes a None seed as a missing one.
    """
    call = SEEDED_ENTRY_POINTS[entry]()

    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was built from an invalid seed")

    monkeypatch.setattr(np.random, "PCG64", no_draw)
    field = "base_seed" if entry == "run_comparison" else "seed"
    if entry == "zero_train_eval" and seed is None:
        message = "provide exactly one of kernel or seed"
    else:
        message = re.escape(f"{field} must be an integer >= 0, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        call(seed)
