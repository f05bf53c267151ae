import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relufreq import (
    AdamHyper,
    Architecture,
    ConvLayerSpec,
    DatasetSpec,
    DivergenceError,
    Kernel,
    LabeledSet,
    adam_step,
    backward,
    dc_model,
    forward,
    init_adam_state,
    init_network,
    layer_views,
    loss_sparse_ce,
    run_comparison,
    sample_dataset,
    train,
    weight_distance,
    zero_train_eval,
)
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
    flatten_mode="flatten",
    input_length=16,
)


def random_batch(rng, n, length):
    return rng.random((n, length)) * 2.0 - 1.0


@st.composite
def small_architectures(draw):
    """1-2 conv layers of relu/linear mixes under either head, all dimensions tiny."""
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
        flatten_mode=draw(st.sampled_from(["flatten", "global_average"])),
        input_length=draw(st.integers(3, 8)),
    )


class TestInitNetwork:
    def test_deterministic_per_seed(self):
        a = init_network(SMALL_ARCH, 4)
        b = init_network(SMALL_ARCH, 4)
        for la, lb in zip(a.parameters, b.parameters):
            assert np.array_equal(la["w"], lb["w"])
            assert np.array_equal(la["b"], lb["b"])

    def test_seeds_differ(self):
        a = init_network(SMALL_ARCH, 1)
        b = init_network(SMALL_ARCH, 2)
        assert any(
            not np.array_equal(la["w"], lb["w"])
            for la, lb in zip(a.parameters, b.parameters)
        )

    def test_fan_in_bound_and_zero_biases(self):
        net = init_network(SMALL_ARCH, 9)
        fan_ins = [1 * 3, 3 * 3, 2 * 16, 5]
        for layer, fan_in in zip(net.parameters, fan_ins):
            assert np.all(np.abs(layer["w"]) <= math.sqrt(1.0 / fan_in))
            assert np.all(layer["b"] == 0.0)


class TestLayout:
    def test_parameters_are_read_only_views_of_theta(self):
        net = init_network(SMALL_ARCH, 2)
        assert net.theta.dtype == np.float64 and net.theta.ndim == 1
        layer = net.parameters[0]
        with pytest.raises(TypeError):
            layer["b"] = np.ones(3)
        layer["b"][...] = 7.0
        assert np.count_nonzero(net.theta == 7.0) == 3

    def test_wrong_length_vector_rejected(self):
        theta = init_network(SMALL_ARCH, 2).theta
        with pytest.raises(ValueError):
            layer_views(SMALL_ARCH, theta[:-1])


@settings(max_examples=25, deadline=None)
@given(small_architectures())
def test_layer_views_tile_the_vector_in_order(arch):
    """Views of arange(size) come taps-then-bias, layer by layer, and cover it once."""
    channels = [1] + [spec.filters for spec in arch.conv_layers]
    feat = channels[-1] * (arch.input_length if arch.flatten_mode == "flatten" else 1)
    shapes = [
        ((spec.filters, c, spec.kernel_size), (spec.filters,))
        for spec, c in zip(arch.conv_layers, channels)
    ]
    shapes += [((feat, arch.hidden_units), (arch.hidden_units,))]
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
    """The broadcast-product paths equal the stacked reference bit for bit, signed zeros too.

    Forward with one input channel and the input gradient with one filter
    multiply instead of calling BLAS. Many products here are -0.0, and only
    the bits tell whether each sum starts from 0.0 + tap 0 as the reference's
    matmul does. The BLAS paths are not held to this: they add the causal
    padding's +0.0 products where the reference adds nothing, which turns a
    -0.0 sum into +0.0.
    """
    rng = np.random.default_rng(seed)
    values = np.array([-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, -5e-324, 5e-324, 0.5])
    x = rng.choice(values, (5, 1, 12))
    w = rng.choice(values, (3, 1, 4))
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


def finite_difference_max_relative_error(net, x, labels, step=1e-5):
    logits, cache = forward(net, x)
    grads = layer_views(net.architecture, backward(net, cache, labels))
    worst = 0.0
    for li, layer in enumerate(net.parameters):
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
        for layer in net.parameters:
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
        arch = Architecture(
            (ConvLayerSpec(3, 3, "linear"),), 4, 3, "global_average", 16
        )
        rng = np.random.default_rng(20)
        net, x = generic_point(init_network(arch, 5), rng, 5, 16)
        labels = rng.integers(0, 3, 5)
        assert finite_difference_max_relative_error(net, x, labels) < 1e-4

    def test_saturated_batch_has_vanishing_gradients(self):
        net = init_network(SMALL_ARCH, 7)
        # force huge correct-class margins through the output bias
        net.parameters[-1]["b"][...] = [100.0, 0.0, 0.0]
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
            "flatten",
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
        net.parameters[0]["w"][...] += 0.5
        with pytest.raises(ValueError, match="stale cache"):
            backward(net, cache, [0, 1])


@settings(max_examples=25, deadline=None)
@given(small_architectures(), st.integers(0, 2**32 - 1))
@example(  # its first draw puts a conv1 relu input 4.6e-6 from the kink
    Architecture(
        (ConvLayerSpec(1, 1, "relu"), ConvLayerSpec(1, 1, "linear")),
        hidden_units=1,
        n_classes=2,
        flatten_mode="flatten",
        input_length=7,
    ),
    53951,
)
def test_gradients_match_finite_differences_on_random_architectures(arch, seed):
    rng = np.random.default_rng(seed)
    net, x = generic_point(init_network(arch, seed), rng, 3, arch.input_length)
    labels = rng.integers(0, arch.n_classes, 3)
    assert finite_difference_max_relative_error(net, x, labels) < 1e-4


class TestAdam:
    def test_first_step_moves_by_lr_sign(self):
        theta = np.array([1.0, -2.0, 0.5, 0.0])
        grad = np.array([0.3, -0.2, 0.9, -1.5])
        hyper = AdamHyper(lr=1e-3)
        state = init_adam_state(theta, hyper)
        state, new_theta = adam_step(state, theta, grad)
        assert state.step_count == 1
        expected = theta - hyper.lr * grad / (np.abs(grad) + hyper.epsilon)
        assert np.allclose(new_theta, expected, atol=1e-15)

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


@pytest.mark.parametrize(
    "kwargs",
    [{"lr": math.nan}, {"lr": math.inf}, {"epsilon": math.inf}, {"epsilon": math.nan}],
    ids=["lr_nan", "lr_inf", "epsilon_inf", "epsilon_nan"],
)
def test_adam_hyper_rejects_non_finite(kwargs):
    with pytest.raises(ValueError):
        AdamHyper(**kwargs)


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
    arch = Architecture(
        (ConvLayerSpec(2, 3, "relu"),), 4, 2, "global_average", 16
    )

    def test_zero_epochs(self):
        record = train(init_network(self.arch, 0), toy_separable_set(), 0, 8)
        assert record.epoch_losses == []
        assert record.weight_distances == [[0.0]]

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            train(init_network(self.arch, 0), toy_separable_set(), -1, 8)

    def test_non_finite_loss_names_epoch_and_batch(self):
        # the first batch's loss is taken before any update; the step of
        # size ~lr after it overflows every logit
        net = init_network(self.arch, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 1, batch 2"):
                train(net, toy_separable_set(), 3, 8, AdamHyper(lr=1e305))

    def test_loss_decreases_on_separable_toy(self):
        drops = []
        for seed in range(5):
            record = train(
                init_network(self.arch, seed), toy_separable_set(), 8, 8, seed=seed
            )
            drops.append(record.epoch_losses[-1] < record.epoch_losses[0])
        assert sum(drops) >= 3  # median over 5 seeds decreases

    def test_record_shapes_and_determinism(self):
        ds = toy_separable_set()
        a = train(init_network(self.arch, 3), ds, 4, 8, seed=17)
        b = train(init_network(self.arch, 3), ds, 4, 8, seed=17)
        assert a.epoch_losses == b.epoch_losses
        assert a.weight_distances == b.weight_distances
        assert a.final_accuracy == b.final_accuracy
        assert len(a.epoch_losses) == 4
        assert all(len(d) == 5 for d in a.weight_distances)


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


class TestRunComparison:
    def test_single_repetition_equals_its_record(self):
        spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 12, 64.0, 1.0)
        report = run_comparison(1, 0, epochs=2, batch_size=8, dataset_spec=spec)
        assert report.n_repetitions == 1
        for net in report.nets.values():
            assert net.loss_median.shape == (2,)
            assert np.array_equal(net.loss_median, net.loss_q25)
            assert np.array_equal(net.loss_median, net.loss_q75)
            assert net.distance_median.shape == (2, 3)
            assert net.final_losses.shape == (1,)

    def test_zero_epochs_leave_final_losses_empty(self):
        spec = DatasetSpec((3.0, 5.0), 0.1, 4, 64.0, 1.0)
        report = run_comparison(1, 0, epochs=0, batch_size=8, dataset_spec=spec)
        for net in report.nets.values():
            assert net.final_losses.size == 0
            assert net.loss_median.shape == (0,)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            run_comparison(1, 0, epochs=-1)

    def test_deterministic_given_base_seed(self):
        spec = DatasetSpec((3.0, 5.0), 0.1, 8, 64.0, 1.0)
        a = run_comparison(2, 5, epochs=1, batch_size=8, dataset_spec=spec)
        b = run_comparison(2, 5, epochs=1, batch_size=8, dataset_spec=spec)
        for name in a.nets:
            assert np.array_equal(a.nets[name].loss_median, b.nets[name].loss_median)
            assert np.array_equal(
                a.nets[name].final_conv_distances, b.nets[name].final_conv_distances
            )


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
        report = zero_train_eval(ds, kernel=Kernel(np.array([0.6, 0.4])))
        # same-sign two-tap response decreases with frequency
        b = report.class_gains
        assert b[0] > b[1] > b[2]
        closed_form = np.sqrt(
            0.6**2 + 0.4**2 + 2 * 0.6 * 0.4 * np.cos(2 * np.pi * report.class_mean_freqs / 64.0)
        )
        assert np.allclose(b, closed_form, atol=1e-12)
        d = report.class_mean_dcs
        assert d[0] > d[1] > d[2]
        assert report.accuracy == 1.0

    def test_symmetric_kernel_matches_dc_model_within_band(self):
        ds = sample_dataset(self.spec, 2)
        report = zero_train_eval(ds, kernel=Kernel(np.array([0.5, 0.5])))
        for c in range(3):
            modeled = dc_model([1.0], [report.class_gains[c]])
            ratio = modeled / report.class_mean_dcs[c]
            assert 1.0 <= ratio <= 1.2

    def test_differentiator_kernel_reverses_order_but_separates(self):
        ds = sample_dataset(self.spec, 3)
        report = zero_train_eval(ds, kernel=Kernel(np.array([1.0, -1.0])))
        b = report.class_gains
        assert b[0] < b[1] < b[2]
        d = report.class_mean_dcs
        assert d[0] < d[1] < d[2]
        assert report.accuracy == 1.0

    def test_class_separation_in_standard_errors(self):
        ds = sample_dataset(self.spec, 4)
        report = zero_train_eval(ds, kernel=Kernel(np.array([0.6, 0.4])))
        ses = report.class_std_dcs / np.sqrt(report.class_counts)
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(report.class_mean_dcs[i] - report.class_mean_dcs[j])
                assert gap > 5.0 * math.hypot(ses[i], ses[j])

    def test_seeded_random_kernel_is_deterministic_and_bounded(self):
        ds = sample_dataset(self.spec, 5)
        a = zero_train_eval(ds, seed=8)
        b = zero_train_eval(ds, seed=8)
        assert np.array_equal(a.taps, b.taps)
        assert np.all(np.abs(a.taps) <= math.sqrt(0.5))

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
