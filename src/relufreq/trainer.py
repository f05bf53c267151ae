"""Trainable 1-D CNNs with manual gradients and Adam, plus the zero-training classifier.

A network's parameters are one float64 vector ``theta``: the conv layers in
order, then the hidden dense layer, then the output dense layer, each layer's
taps before its biases. Gradients and Adam moments are vectors of the same
layout; ``layer_views`` turns any of them into per-layer {"w", "b"} views.
All operations are pure functions of their inputs and seeds.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from .convnets import Kernel, fir_response
from .errors import DegenerateInputError, DivergenceError
from .multitone import DatasetSpec, LabeledSet, sample_dataset

RELU = "relu"
LINEAR = "linear"


def _store_sizes(spec, **minimums: int) -> None:
    """Store each named size as an int >= its minimum; numpy integers pass, 2.0 and "3" do not."""
    for name, low in minimums.items():
        value = getattr(spec, name)
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        object.__setattr__(spec, name, operator.index(value))


@dataclass(frozen=True)
class ConvLayerSpec:
    filters: int
    kernel_size: int
    activation: str = RELU

    def __post_init__(self) -> None:
        _store_sizes(self, filters=1, kernel_size=1)
        if self.activation not in (RELU, LINEAR):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class Architecture:
    """Conv feature extractor, global average pooling, two-layer classifier head.

    The pooled features are each last conv channel's DC. The hidden dense
    layer always uses ReLU, so network variants differ only in their conv
    activations. input_length is the length every input row must have.
    """

    conv_layers: Tuple[ConvLayerSpec, ...]
    hidden_units: int
    n_classes: int
    input_length: int = 64
    flatten_mode: ClassVar[str] = "global_average"  # the only head; perfbench's cost model reads it

    def __post_init__(self) -> None:
        if len(self.conv_layers) < 1:
            raise ValueError("need at least one conv layer")
        _store_sizes(self, hidden_units=1, n_classes=2, input_length=1)
        if self.input_length < max(s.kernel_size for s in self.conv_layers):
            raise ValueError("input_length shorter than a conv kernel")


@lru_cache(maxsize=128)
def _layout(arch: Architecture) -> Tuple[int, Tuple[Tuple[slice, Tuple[int, ...], slice], ...]]:
    """Length of theta and, per layer, its taps slice, taps shape and bias slice.

    The only code that knows the parameter layout: conv taps are (filters,
    in_channels, kernel_size), dense taps (d_in, d_out), biases follow taps.
    """
    channels = [1] + [spec.filters for spec in arch.conv_layers]
    units = [(s.filters, (s.filters, c, s.kernel_size)) for s, c in zip(arch.conv_layers, channels)]
    for d_in, d_out in ((channels[-1], arch.hidden_units), (arch.hidden_units, arch.n_classes)):
        units.append((d_out, (d_in, d_out)))
    layers, offset = [], 0
    for n_bias, taps_shape in units:
        end = offset + math.prod(taps_shape)
        layers.append((slice(offset, end), taps_shape, slice(end, end + n_bias)))
        offset = end + n_bias
    return offset, tuple(layers)


def layer_views(arch: Architecture, theta: np.ndarray) -> List[Dict[str, np.ndarray]]:
    """Per-layer {"w", "b"} views into a parameter-layout vector (writes go through)."""
    size, layers = _layout(arch)
    if np.shape(theta) != (size,):
        raise ValueError(f"expected a parameter vector of shape ({size},), got {np.shape(theta)}")
    return [{"w": theta[taps].reshape(shape), "b": theta[bias]} for taps, shape, bias in layers]


@dataclass
class Network:
    architecture: Architecture
    theta: np.ndarray


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not all(math.isfinite(x) and x > 0 for x in (self.lr, self.epsilon)):
            raise ValueError("lr and epsilon must be finite and > 0")


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    hyper: AdamHyper


@dataclass
class TrainingRecord:
    """Named per-epoch curves of one training run, plus its final accuracy.

    curves["loss"] (E,) is the mean batch loss of epochs 1..E, and
    curves["distance"] (n_conv, E + 1) each conv layer's distance from its
    initial weights at epochs 0..E (0 at initialization). final_accuracy is
    the training-set accuracy after the last epoch, in batch_size slices.
    Records stacked over repetitions give every array, final_accuracy's ()
    included, a leading (reps,) axis.
    """

    curves: Dict[str, np.ndarray]
    final_accuracy: np.ndarray

    @property
    def final_losses(self) -> np.ndarray:
        """Last-epoch loss per run, flat; empty when no epoch ran."""
        return self.curves["loss"][..., -1:].ravel()

    @property
    def final_conv_distances(self) -> np.ndarray:
        """L2 distance over all conv parameters after the last epoch."""
        return np.sqrt((self.curves["distance"][..., -1] ** 2).sum(axis=-1))


@dataclass
class ComparisonReport:
    """Each variant's records stacked over repetitions, plus every setting they ran with."""

    n_repetitions: int
    epochs: int
    batch_size: int
    adam_hyper: AdamHyper
    dataset_spec: DatasetSpec
    dc_levels: Dict[int, float]
    architectures: Dict[str, Architecture]
    nets: Dict[str, TrainingRecord]


@dataclass
class ZeroTrainReport:
    """Per-class DC statistics of relu(conv(x)) plus the filter's gains there."""

    taps: np.ndarray
    class_labels: np.ndarray
    class_counts: np.ndarray
    class_mean_freqs: np.ndarray
    class_mean_dcs: np.ndarray
    class_std_dcs: np.ndarray
    class_gains: np.ndarray
    accuracy: float
    sample_dcs: np.ndarray


# ---------------------------------------------------------------------------
# batched causal convolution


def _conv_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (B, C, L), w (O, C, K) -> (B, O, L); causal zero padding keeps L.

    Summation-order contract, on which the byte-identity of the training
    artifacts rests: out[b, o, l] = ((t_0 + t_1) + ...) + t_{K-1}, taps added
    in index order, where t_n = sum_c w[o, c, n] x[b, c, l - n] carries the
    bits of the matching entry of one stacked (K*O, C) @ (C, B*L) matmul (see
    _shifted_products). Taps that reach before the row start add an exact
    zero, which the bias add in forward() makes identical to adding nothing.
    The bits also assume that BLAS runs the same kernel for the per-tap
    product as for the stacked one; OpenBLAS picks its dgemm kernel by size.
    """
    out = _shifted_products(w.transpose(2, 0, 1), x.transpose(1, 0, 2), advance=False)
    return out.transpose(1, 0, 2)


def _shifted_products(taps: np.ndarray, x: np.ndarray, advance: bool) -> np.ndarray:
    """taps (K, R, I), x (I, B, L) -> (R, B, L) sum of the products p_n = taps[n] @ x, shifted.

    Each row is laid out with K-1 zeros before it, or after it when advance,
    so that tap n is one contiguous add: column l adds p_n[..., l - n], or
    p_n[..., l + n] when advance, in index order from tap 0. Each product has
    the bits of its rows of the stacked (K*R, I) @ (I, B*L) matmul. For an
    inner length of 1 numpy computes that matmul in its own slow loop as
    0.0 + w * x; a zero partner channel lets BLAS compute w * x + 0 * 0,
    which has the same bits in any summation order. A single-row product
    would go to gemv, which sums in another order than gemm, so single-row
    taps stay stacked; the other products of taps 1..K-1 share one buffer.
    """
    k, rows, inner = taps.shape
    _, b, length = x.shape
    channels, padded = max(inner, 2), length + k - 1
    data = slice(0, length) if advance else slice(k - 1, padded)
    lhs = np.zeros((k, rows, channels))
    lhs[:, :, :inner] = taps
    rhs = np.zeros((channels, b, padded))
    rhs[:inner, :, data] = x
    rhs = rhs.reshape(channels, b * padded)
    if rows == 1:
        stacked = lhs.reshape(k, channels) @ rhs
        out, products = stacked[:1], (stacked[n : n + 1] for n in range(1, k))
    else:
        out, buf = lhs[0] @ rhs, np.empty((rows, b * padded))
        products = (np.matmul(lhs[n], rhs, out=buf) for n in range(1, k))
    for n, product in enumerate(products, 1):
        dst, src = (slice(0, -n), slice(n, None)) if advance else (slice(n, None), slice(0, -n))
        out[:, dst] += product[:, src]
    return out.reshape(rows, b, padded)[:, :, data]


def _conv_weight_grad(x: np.ndarray, dout: np.ndarray, kernel_size: int) -> np.ndarray:
    """Gradient of the causal convolution w.r.t. its (O, C, K) taps.

    dw[o, c, n] = sum_{b, l} dout[b, o, l] x[b, c, l - n]: one matmul per
    tap over exactly the B(L - n) terms, in (b, l) order. Padding these
    operands would change OpenBLAS's blocking of the sum, and with it the bits.
    """
    _, c, length = x.shape
    o = dout.shape[1]
    dw = np.empty((o, c, kernel_size))
    for n in range(kernel_size):
        lhs = dout.transpose(1, 0, 2)[:, :, n:].reshape(o, -1)
        rhs = x.transpose(1, 0, 2)[:, :, : length - n].reshape(c, -1)
        dw[:, :, n] = lhs @ rhs.T
    return dw


def _conv_input_grad(w: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of the causal convolution w.r.t. its (B, C, L) input.

    dx[b, c, m] = sum_n sum_o w[o, c, n] dout[b, o, m + n], taps added in
    index order as in _conv_forward. The result is laid out (C, B, L) in memory.
    """
    dx = _shifted_products(w.transpose(2, 1, 0), dout.transpose(1, 0, 2), advance=True)
    # copied out contiguous: numpy sums a strided array in another order, and
    # backward() sums this one for the bias gradient of a linear conv layer
    return np.ascontiguousarray(dx).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# network construction and the forward/backward pair


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    return (rng.random(shape) * 2.0 - 1.0) * bound


def init_network(arch: Architecture, seed: int) -> Network:
    """Weights uniform in [-sqrt(1/fan_in), sqrt(1/fan_in)], biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = np.zeros(_layout(arch)[0])
    for layer in layer_views(arch, theta):
        fan_in = layer["w"].size // layer["b"].size  # taps feeding each output unit
        layer["w"][...] = _uniform(rng, layer["w"].shape, math.sqrt(1.0 / fan_in))
    return Network(arch, theta)


def forward(net: Network, batch: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Class logits for a (batch, length) array plus the cache backward() needs."""
    arch = net.architecture
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise ValueError("batch must have shape (batch, length)")
    if x.shape[1] != arch.input_length:
        raise ValueError(
            f"batch length {x.shape[1]} does not match input_length {arch.input_length}"
        )
    params = layer_views(arch, net.theta)
    acts = x[:, None, :]
    conv_caches = []
    for i, spec in enumerate(arch.conv_layers):
        pre = _conv_forward(acts, params[i]["w"]) + params[i]["b"][None, :, None]
        conv_caches.append({"input": acts, "pre": pre})
        acts = np.maximum(pre, 0.0) if spec.activation == RELU else pre
    feat = acts.mean(axis=2)
    n_conv = len(arch.conv_layers)
    hidden_pre = feat @ params[n_conv]["w"] + params[n_conv]["b"]
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ params[n_conv + 1]["w"] + params[n_conv + 1]["b"]
    cache = {
        "theta": net.theta.copy(),
        "conv": conv_caches,
        "feat": feat,
        "hidden_pre": hidden_pre,
        "hidden": hidden,
        "logits": logits,
    }
    return logits, cache


def _cross_entropy(logits: np.ndarray, labels) -> Tuple[float, np.ndarray]:
    """Mean cross entropy of integer labels under softmax(logits), and that softmax."""
    n_rows, n_classes = logits.shape
    y = np.asarray(labels, dtype=float)
    valid = np.all((y >= 0) & (y < n_classes) & (y == np.floor(y)))
    if not (n_rows and y.shape == (n_rows,) and valid):
        raise ValueError(f"labels must be {n_rows} integers in 0..{n_classes - 1}")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return float(-(z - np.log(total))[np.arange(n_rows), y.astype(int)].mean()), e / total


def loss_sparse_ce(logits: np.ndarray, labels) -> float:
    """Mean cross entropy of integer labels under softmax(logits), max-stabilized."""
    return _cross_entropy(np.asarray(logits, dtype=float), labels)[0]


def backward(net: Network, cache: dict, labels) -> np.ndarray:
    """Gradient of loss_sparse_ce w.r.t. theta, as a vector of theta's layout.

    The batch's loss_sparse_ce comes from the same softmax and is recorded as
    cache["loss"]. The stale-cache check compares bits, so NaN parameters pass it.
    """
    if cache["theta"].tobytes() != net.theta.tobytes():
        raise ValueError("stale cache: forward was run with different parameters")
    arch = net.architecture
    params = layer_views(arch, net.theta)
    grad = np.zeros_like(net.theta)
    grads = layer_views(arch, grad)
    n_conv = len(arch.conv_layers)

    cache["loss"], dlogits = _cross_entropy(cache["logits"], labels)
    dlogits[np.arange(len(dlogits)), np.asarray(labels, dtype=int)] -= 1.0
    dlogits /= len(dlogits)

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
        relu = arch.conv_layers[i].activation == RELU
        dpre = dacts * (layer_cache["pre"] > 0) if relu else dacts
        kernel_size = arch.conv_layers[i].kernel_size
        grads[i]["w"][...] = _conv_weight_grad(layer_cache["input"], dpre, kernel_size)
        grads[i]["b"][...] = dpre.sum(axis=(0, 2))
        if i > 0:
            dacts = _conv_input_grad(params[i]["w"], dpre)
    return grad


# ---------------------------------------------------------------------------
# optimization


def _check_same_shape(what: str, first: np.ndarray, *others: np.ndarray) -> None:
    if any(np.shape(other) != np.shape(first) for other in others):
        raise ValueError(f"{what}: shape mismatch")


def init_adam_state(theta: np.ndarray, hyper: AdamHyper = AdamHyper()) -> AdamState:
    return AdamState(np.zeros_like(theta), np.zeros_like(theta), 0, hyper)


def adam_step(
    state: AdamState, theta: np.ndarray, grad: np.ndarray
) -> Tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameter vector."""
    _check_same_shape("adam_step", theta, grad, state.first_moment, state.second_moment)
    t = state.step_count + 1
    hyper = state.hyper
    b1, b2 = hyper.beta1, hyper.beta2
    m = b1 * state.first_moment + (1.0 - b1) * grad
    v = b2 * state.second_moment + (1.0 - b2) * grad * grad
    step = hyper.lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + hyper.epsilon)
    return AdamState(m, v, t, hyper), theta - step


def weight_distance(arch: Architecture, theta0: np.ndarray, theta1: np.ndarray) -> List[float]:
    """Per-layer Euclidean distance between two parameter vectors (taps and biases)."""
    _check_same_shape("weight_distance", theta0, theta1)
    layers = layer_views(arch, theta1 - theta0)
    return [math.sqrt(sum(float(np.sum(d * d)) for d in layer.values())) for layer in layers]


def train(
    net: Network,
    trainset: LabeledSet,
    epochs: int,
    batch_size: int,
    adam_hyper: AdamHyper = AdamHyper(),
    seed: int = 0,
) -> TrainingRecord:
    """Seeded shuffled mini-batch training; records loss and distance curves.

    final_accuracy is the training-set accuracy after the last epoch. Its
    logits come from forward() on consecutive batch_size slices of the set,
    so one mini-batch is the largest input any call sees. Conv and pooling
    rows do not depend on how many rows a call gets; OpenBLAS's dense
    products in the head do only while every slice has a multiple of 4 rows,
    as the defaults (900 rows in slices of 32, the last of 4) have. Other
    shapes can move a logit by one ulp against a whole-set forward(), which
    changes the accuracy only at an exact argmax tie.
    """
    if len(trainset) == 0:
        raise ValueError("trainset must be non-empty")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    x, y = trainset.inputs, trainset.labels
    rng = np.random.Generator(np.random.PCG64(seed))
    arch = net.architecture
    n_conv = len(arch.conv_layers)
    theta0 = net.theta.copy()
    curves = {"loss": np.empty(epochs), "distance": np.zeros((n_conv, epochs + 1))}
    state = init_adam_state(net.theta, adam_hyper)
    current = net
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(y.size)
        batch_losses = []
        for batch, start in enumerate(range(0, y.size, batch_size), 1):
            idx = perm[start : start + batch_size]
            _, cache = forward(current, x[idx])
            grad = backward(current, cache, y[idx])
            loss = cache["loss"]
            if not math.isfinite(loss):
                raise DivergenceError(f"loss is {loss} at epoch {epoch}, batch {batch}")
            batch_losses.append(loss)
            state, theta = adam_step(state, current.theta, grad)
            current = replace(current, theta=theta)
        curves["loss"][epoch - 1] = np.mean(batch_losses)
        # the dense-head distances are not recorded
        curves["distance"][:, epoch] = weight_distance(arch, theta0, current.theta)[:n_conv]
    starts = range(0, y.size, batch_size)
    logits = np.concatenate([forward(current, x[i : i + batch_size])[0] for i in starts])
    return TrainingRecord(curves, np.mean(np.argmax(logits, axis=1) == y))


# ---------------------------------------------------------------------------
# the three-network comparison


def default_dataset_spec() -> DatasetSpec:
    return DatasetSpec((3.0, 5.0, 10.0), 0.1, 300, 64.0, 1.0)


DEFAULT_DC_LEVELS = {0: 1.0, 1: 2.0, 2: 3.0}


def _comparison_architecture(activation: str, spec: DatasetSpec) -> Architecture:
    # Global average pooling feeds the head only channel means: the relu
    # variant's rectification DC and the injected per-class offsets pass
    # through strongly, while the plain linear variant is left with weak
    # window-leakage features. So it is the only head: a flatten head lets the
    # classifier read the raw waveform and every variant converges instantly,
    # erasing the between-variant differences this comparison exists to measure.
    return Architecture(
        conv_layers=(
            ConvLayerSpec(8, 5, activation),
            ConvLayerSpec(8, 5, activation),
        ),
        hidden_units=16,
        n_classes=spec.n_classes,
        input_length=int(round(spec.sample_rate * spec.duration)),
    )


# Variant name -> (conv activation, trains on the DC-augmented set). Row r of
# the (reps, 1 + 2 * len(VARIANTS)) seed matrix seeds repetition r: column 0
# its datasets, column 1 + i variant i's init, column 1 + len(VARIANTS) + i
# variant i's shuffles.
VARIANTS = {"relu": (RELU, False), "linear": (LINEAR, False), "linear_dc": (LINEAR, True)}
SEED_DERIVATION = "PCG64(seed) integer matrix (reps, 7): data, init x3, shuffle x3"


def _run_repetition(
    spec: DatasetSpec, spec_dc: DatasetSpec, epochs: int, batch_size: int, seed_row: np.ndarray
) -> Dict[str, TrainingRecord]:
    """Train every variant of one repetition from its row of the seed matrix.

    The plain dataset is shared by the variants without DC; the DC-augmented
    one reuses the same frequency draws with the per-class offsets added.
    """
    data_seed = int(seed_row[0])
    datasets = {False: sample_dataset(spec, data_seed), True: sample_dataset(spec_dc, data_seed)}
    records = {}
    for i, (name, (activation, use_dc)) in enumerate(VARIANTS.items()):
        net = init_network(_comparison_architecture(activation, spec), int(seed_row[1 + i]))
        shuffle_seed = int(seed_row[1 + len(VARIANTS) + i])
        records[name] = train(net, datasets[use_dc], epochs, batch_size, AdamHyper(), shuffle_seed)
    return records


def _worker_count(n_repetitions: int) -> int:
    """Processes run_comparison trains in: one per usable core and repetition; 1 without fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return min(n_repetitions, len(os.sched_getaffinity(0)))


def run_comparison(
    n_repetitions: int,
    base_seed: int,
    epochs: int = 50,
    batch_size: int = 32,
    dataset_spec: Optional[DatasetSpec] = None,
) -> ComparisonReport:
    """Train the VARIANTS over repeated seeded runs, one _run_repetition per row of seeds.

    Seeds for data, inits, and shuffles derive from one PCG64 stream over
    base_seed (see SEED_DERIVATION), so repetitions are independent and the
    whole report is reproducible. Every variant trains with AdamHyper() and
    the DC variant's offsets are DEFAULT_DC_LEVELS.

    Repetitions train in forked workers (see _worker_count), which start with
    this process's modules as they are; one worker trains here, unforked. The
    report stacks them in row order, so it does not depend on the worker count.
    """
    if n_repetitions < 1:
        raise ValueError("n_repetitions must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    spec = dataset_spec if dataset_spec is not None else default_dataset_spec()
    levels = dict(DEFAULT_DC_LEVELS)
    spec_dc = replace(spec, dc_map=levels)
    master = np.random.Generator(np.random.PCG64(base_seed))
    seeds = master.integers(0, 2**31 - 1, size=(n_repetitions, 1 + 2 * len(VARIANTS)))
    task = partial(_run_repetition, spec, spec_dc, epochs, batch_size)
    workers = _worker_count(n_repetitions)
    if workers == 1:
        reps = list(map(task, seeds))
    else:
        # imported here so that importing the package does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            reps = list(pool.map(task, seeds))
        finally:
            pool.shutdown(cancel_futures=True)  # a failed rep cancels those not yet started
    nets = {}
    for name in VARIANTS:
        records = [rep[name] for rep in reps]
        curves = {c: np.stack([r.curves[c] for r in records]) for c in records[0].curves}
        nets[name] = TrainingRecord(curves, np.array([r.final_accuracy for r in records]))
    architectures = {
        name: _comparison_architecture(activation, spec)
        for name, (activation, _) in VARIANTS.items()
    }
    return ComparisonReport(
        n_repetitions, epochs, batch_size, AdamHyper(), spec, levels, architectures, nets
    )


# ---------------------------------------------------------------------------
# zero-training classifier

# Per-sample DCs are computed over row slices of about this many samples
# (16 rows of 2048), so each conv temporary, the zero partner channel's
# padded input included, stays near 0.5 MB.
_DC_SLICE_SAMPLES = 2**15


def zero_train_eval(
    dataset: LabeledSet,
    kernel: Optional[Kernel] = None,
    seed: Optional[int] = None,
) -> ZeroTrainReport:
    """Evaluate dc_of(relu(conv(x, 2-tap kernel))) as a class feature.

    Exactly one of kernel / seed must be given; a seed draws the two taps
    uniformly from [-sqrt(1/2), sqrt(1/2)] like a fan-in-scaled random init.
    Class prototypes are the per-class mean DCs of this dataset and accuracy
    is nearest-prototype classification of the same samples; a kernel whose
    per-sample DCs are not finite raises ValueError, and classes that share a
    mean DC raise DegenerateInputError.

    A sample's DC is the row mean of relu of the causal 2-tap conv. It is
    computed over consecutive row slices of the dataset; with one input
    channel the conv of a row and its pairwise-summed mean do not depend on
    how many rows share the call, so the DCs equal a whole-set call bit for bit.
    """
    if (kernel is None) == (seed is None):
        raise ValueError("provide exactly one of kernel or seed")
    if kernel is not None:
        taps = np.asarray(kernel.taps, dtype=float)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        taps = _uniform(rng, 2, math.sqrt(0.5))
    if taps.shape != (2,):
        raise ValueError("zero-training kernel must have exactly 2 taps")
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    if dataset.frequencies is None:
        raise ValueError("dataset must carry per-sample frequencies")

    x = dataset.inputs
    rows = max(1, _DC_SLICE_SAMPLES // x.shape[1])
    dcs = np.empty(x.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        for start in range(0, x.shape[0], rows):
            conv = _conv_forward(x[start : start + rows, None, :], taps[None, None, :])[:, 0, :]
            dcs[start : start + rows] = np.maximum(conv, 0.0).mean(axis=1)
    if not np.isfinite(dcs).all():
        raise ValueError(f"kernel {taps.tolist()} overflows the per-sample DCs")
    labels, freqs = dataset.labels, dataset.frequencies

    classes = np.unique(labels)
    counts = np.array([int(np.sum(labels == c)) for c in classes])
    mean_freqs = np.array([freqs[labels == c].mean() for c in classes])
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        mean_dcs = np.array([dcs[labels == c].mean() for c in classes])
        std_dcs = np.array(
            [dcs[labels == c].std(ddof=1) if n > 1 else 0.0 for c, n in zip(classes, counts)]
        )
    if not (np.isfinite(mean_dcs).all() and np.isfinite(std_dcs).all()):
        raise ValueError(f"kernel {taps.tolist()} overflows the per-class DC mean or spread")
    if np.unique(mean_dcs).size < mean_dcs.size:
        raise DegenerateInputError(
            f"classes share a mean DC ({mean_dcs.tolist()}), so nearest-prototype "
            "accuracy would only measure the tie-break"
        )
    gains = fir_response(Kernel(taps), mean_freqs, dataset.sample_rate)
    predicted = classes[np.argmin(np.abs(dcs[:, None] - mean_dcs[None, :]), axis=1)]
    accuracy = float(np.mean(predicted == labels))
    return ZeroTrainReport(
        taps=taps,
        class_labels=classes,
        class_counts=counts,
        class_mean_freqs=mean_freqs,
        class_mean_dcs=mean_dcs,
        class_std_dcs=std_dcs,
        class_gains=gains,
        accuracy=accuracy,
        sample_dcs=dcs,
    )
