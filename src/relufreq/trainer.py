"""Trainable 1-D CNNs with manual gradients and Adam, plus the zero-training classifier.

A network's parameters are one float64 vector ``theta``: the conv layers in
order, then the hidden dense layer, then the output dense layer, each layer's
taps before its biases. Gradients and Adam moments are vectors of the same
layout; ``layer_views`` turns any of them into per-layer {"w", "b"} views.
All operations are pure functions of their inputs and seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from .convnets import Kernel, _causal, fir_response
from .errors import DegenerateInputError, DivergenceError
from .multitone import (
    DatasetSpec,
    LabeledSet,
    _generator,
    _sample_count,
    _size,
    _store_sizes,
    sample_dataset,
)

RELU = "relu"
LINEAR = "linear"


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
        layers = tuple(self.conv_layers)
        object.__setattr__(self, "conv_layers", layers)
        if not layers or not all(isinstance(layer, ConvLayerSpec) for layer in layers):
            raise ValueError(f"conv_layers must be one or more ConvLayerSpecs, got {layers!r}")
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


# The one Adam setting every network trains with (Kingma & Ba's defaults).
ADAM = {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int


@dataclass
class TrainingRecord:
    """Named per-epoch curves of one training run, its final accuracy and what it trained.

    curves["loss"] (E,) is the mean batch loss of epochs 1..E, and
    curves["distance"] (n_conv, E + 1) each conv layer's distance from its
    initial weights at epochs 0..E (0 at initialization). final_accuracy is
    the training-set accuracy after the last epoch, in batch_size slices.
    architecture is the trained network's. Records stacked over repetitions
    give every array, final_accuracy's () included, a leading (reps,) axis.
    """

    curves: Dict[str, np.ndarray]
    final_accuracy: np.ndarray
    architecture: Architecture

    @property
    def final_losses(self) -> np.ndarray:
        """Last-epoch loss per run, flat; empty when no epoch ran."""
        return self.curves["loss"][..., -1:].ravel()

    @property
    def final_conv_distances(self) -> np.ndarray:
        """L2 distance over all conv parameters after the last epoch."""
        return np.sqrt((self.curves["distance"][..., -1] ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# batched causal convolution


def _conv_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """x (B, C, L), w (O, C, K), bias b (O,) or none -> (B, O, L); causal zero padding keeps L.

    Summation-order contract, on which the byte-identity of the training
    artifacts rests: out[b, o, l] = (((t_0 + t_1) + ...) + t_{K-1}) + b[o],
    taps added in index order, where t_n = sum_c w[o, c, n] x[b, c, l - n]
    carries the bits of the matching entry of one stacked (K*O, C) @ (C, B*L)
    matmul (see _shifted_products). Taps that reach before the row start add
    an exact zero, which the bias add makes identical to adding nothing.
    The bits also assume that BLAS runs the same kernel for the per-tap
    product as for the stacked one; OpenBLAS picks its dgemm kernel by size.
    """
    out = _shifted_products(w.transpose(2, 0, 1), x.transpose(1, 0, 2), advance=False, bias=b)
    return out.transpose(1, 0, 2)


def _shifted_products(taps: np.ndarray, x: np.ndarray, advance: bool, bias=None) -> np.ndarray:
    """taps (K, R, I), x (I, B, L) -> (R, B, L) sum of the products p_n = taps[n] @ x, shifted.

    Each row is laid out with K-1 zeros before it, or after it when advance,
    so that tap n is one contiguous add: column l adds p_n[..., l - n], or
    p_n[..., l + n] when advance, in index order from tap 0. Each product has
    the bits of its rows of the stacked (K*R, I) @ (I, B*L) matmul. For an
    inner length of 1 numpy computes that matmul in its own slow loop as
    0.0 + w * x; a zero partner channel lets BLAS compute w * x + 0 * 0,
    which has the same bits in any summation order. A single-row product
    would go to gemv, which sums in another order than gemm, so single-row
    taps stay stacked; the other products of taps 1..K-1 share one buffer. A
    bias (R,) goes on each row after the last tap.
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
    if bias is not None:
        out += bias[:, None]
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
    rng = _generator("seed", seed)
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
        pre = _conv_forward(acts, params[i]["w"], params[i]["b"])
        conv_caches.append({"input": acts, "pre": pre})
        acts = np.maximum(pre, 0.0) if spec.activation == RELU else pre
    feat = acts.mean(axis=2)
    hidden_pre = feat @ params[-2]["w"] + params[-2]["b"]
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ params[-1]["w"] + params[-1]["b"]
    cache = dict(theta=net.theta.copy(), conv=conv_caches, feat=feat, hidden_pre=hidden_pre,
                 hidden=hidden, logits=logits)
    return logits, cache


def _labels(labels, n_rows: int, n_classes: int) -> np.ndarray:
    """labels as ints once they are n_rows >= 1 integers in 0..n_classes - 1, else ValueError."""
    y = np.asarray(labels, dtype=float)
    valid = np.all((y >= 0) & (y < n_classes) & (y == np.floor(y)))
    if not (n_rows and y.shape == (n_rows,) and valid):
        raise ValueError(f"labels must be {n_rows} integers in 0..{n_classes - 1}")
    return y.astype(int)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross entropy of checked int labels under softmax(logits), and that softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return float(-(z - np.log(total))[np.arange(len(y)), y].mean()), e / total


def loss_sparse_ce(logits: np.ndarray, labels) -> float:
    """Mean cross entropy of integer labels under softmax(logits), max-stabilized."""
    logits = np.asarray(logits, dtype=float)
    return _cross_entropy(logits, _labels(labels, *logits.shape))[0]


def backward(net: Network, cache: dict, labels) -> np.ndarray:
    """Gradient of loss_sparse_ce w.r.t. theta, as a vector of theta's layout.

    The batch's loss_sparse_ce comes from the same softmax and is recorded as
    cache["loss"]. The stale-cache check compares bits, so NaN parameters pass it.
    Both raise ValueError unless labels are one integer in 0..n_classes-1 per row.
    """
    if cache["theta"].tobytes() != net.theta.tobytes():
        raise ValueError("stale cache: forward was run with different parameters")
    y = _labels(labels, *cache["logits"].shape)
    arch = net.architecture
    grad = np.zeros_like(net.theta)
    cache["loss"] = _backward(arch, layer_views(arch, net.theta), layer_views(arch, grad), cache, y)
    return grad


def _backward(arch: Architecture, params: list, grads: list, cache: dict, y: np.ndarray) -> float:
    """backward's unchecked core: writes every entry of the grads views; returns the loss."""
    loss, dlogits = _cross_entropy(cache["logits"], y)
    dlogits[np.arange(len(dlogits)), y] -= 1.0
    dlogits /= len(dlogits)

    grads[-1]["w"][...] = cache["hidden"].T @ dlogits
    grads[-1]["b"][...] = dlogits.sum(axis=0)
    dhidden = dlogits @ params[-1]["w"].T
    dhidden_pre = dhidden * (cache["hidden_pre"] > 0)
    grads[-2]["w"][...] = cache["feat"].T @ dhidden_pre
    grads[-2]["b"][...] = dhidden_pre.sum(axis=0)
    dfeat = dhidden_pre @ params[-2]["w"].T

    out_shape = cache["conv"][-1]["pre"].shape
    dacts = np.broadcast_to(dfeat[:, :, None] / out_shape[2], out_shape)
    for i in reversed(range(len(arch.conv_layers))):
        layer_cache = cache["conv"][i]
        relu = arch.conv_layers[i].activation == RELU
        dpre = dacts * (layer_cache["pre"] > 0) if relu else dacts
        kernel_size = arch.conv_layers[i].kernel_size
        grads[i]["w"][...] = _conv_weight_grad(layer_cache["input"], dpre, kernel_size)
        grads[i]["b"][...] = dpre.sum(axis=(0, 2))
        if i > 0:
            dacts = _conv_input_grad(params[i]["w"], dpre)
    return loss


# ---------------------------------------------------------------------------
# optimization


def _check_same_shape(what: str, first: np.ndarray, *others: np.ndarray) -> None:
    if any(np.shape(other) != np.shape(first) for other in others):
        raise ValueError(f"{what}: shape mismatch")


def init_adam_state(theta: np.ndarray) -> AdamState:
    return AdamState(np.zeros_like(theta), np.zeros_like(theta), 0)


def adam_step(
    state: AdamState, theta: np.ndarray, grad: np.ndarray
) -> Tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update with the settings ADAM holds when it is called."""
    _check_same_shape("adam_step", theta, grad, state.first_moment, state.second_moment)
    m, v, theta = (np.array(a, float) for a in (state.first_moment, state.second_moment, theta))
    _adam_update(m, v, theta, grad, state.step_count + 1)
    return AdamState(m, v, state.step_count + 1), theta


def _adam_update(m: np.ndarray, v: np.ndarray, theta: np.ndarray, grad: np.ndarray, t: int) -> None:
    """adam_step's core: Adam's step t updates the moments m, v and theta in place."""
    b1, b2 = ADAM["beta1"], ADAM["beta2"]
    m[...] = b1 * m + (1.0 - b1) * grad
    v[...] = b2 * v + (1.0 - b2) * grad * grad
    theta -= ADAM["lr"] * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM["epsilon"])


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
    changes the accuracy only at an exact argmax tie. Labels are checked once,
    before any step, as backward() checks them; train leaves net.theta unchanged.
    """
    if len(trainset) == 0:
        raise ValueError("trainset must be non-empty")
    epochs = _size("epochs", epochs, 0)
    batch_size = _size("batch_size", batch_size, 1)
    arch = net.architecture
    x, y = trainset.inputs, _labels(trainset.labels, len(trainset), arch.n_classes)
    rng = _generator("seed", seed)
    n_conv = len(arch.conv_layers)
    theta0 = net.theta
    curves = {"loss": np.empty(epochs), "distance": np.zeros((n_conv, epochs + 1))}
    # each step: forward, then backward's and adam_step's cores on buffers made once
    current = replace(net, theta=np.array(theta0, dtype=float))
    grad, m, v = (np.zeros_like(current.theta) for _ in range(3))
    params, grads = layer_views(arch, current.theta), layer_views(arch, grad)
    starts = range(0, y.size, batch_size)
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(y.size)
        batch_losses = []
        for batch, start in enumerate(starts, 1):
            idx = perm[start : start + batch_size]
            _, cache = forward(current, x[idx])
            loss = _backward(arch, params, grads, cache, y[idx])
            if not math.isfinite(loss):
                raise DivergenceError(f"loss is {loss} at epoch {epoch}, batch {batch}")
            batch_losses.append(loss)
            _adam_update(m, v, current.theta, grad, (epoch - 1) * len(starts) + batch)
        curves["loss"][epoch - 1] = np.mean(batch_losses)
        # the dense-head distances are not recorded
        curves["distance"][:, epoch] = weight_distance(arch, theta0, current.theta)[:n_conv]
    logits = np.concatenate([forward(current, x[i : i + batch_size])[0] for i in starts])
    return TrainingRecord(curves, np.mean(np.argmax(logits, axis=1) == y), arch)


# ---------------------------------------------------------------------------
# the three-network comparison


def default_dataset_spec() -> DatasetSpec:
    return DatasetSpec((3.0, 5.0, 10.0), 0.1, 300, 64.0, 1.0)


DEFAULT_DC_LEVELS = {0: 1.0, 1: 2.0, 2: 3.0}
BATCH_SIZE = 32


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
        input_length=_sample_count(spec.sample_rate, spec.duration),
    )


# Variant name -> (conv activation, adds the class DC offsets). Row r of
# the (reps, 1 + 2 * len(VARIANTS)) seed matrix seeds repetition r: column 0
# its dataset, column 1 + i variant i's init, column 1 + len(VARIANTS) + i
# variant i's shuffles.
VARIANTS = {"relu": (RELU, False), "linear": (LINEAR, False), "linear_dc": (LINEAR, True)}
SEED_DERIVATION = "PCG64(seed) integer matrix (reps, 7): data, init x3, shuffle x3"


def _run_repetition(
    spec: DatasetSpec,
    offsets: np.ndarray,
    architectures: Dict[str, Architecture],
    epochs: int,
    seed_row: np.ndarray,
) -> Dict[str, TrainingRecord]:
    """Train every variant of one repetition from its row of the seed matrix.

    The variants share one drawn dataset; a DC variant trains on its rows
    plus offsets[label], the DC offset of each row's class.
    """
    plain = sample_dataset(spec, int(seed_row[0]))
    shifted = replace(plain, inputs=plain.inputs + offsets[plain.labels, None])
    records = {}
    for i, (name, (_, use_dc)) in enumerate(VARIANTS.items()):
        net = init_network(architectures[name], int(seed_row[1 + i]))
        shuffle_seed = int(seed_row[1 + len(VARIANTS) + i])
        records[name] = train(net, shifted if use_dc else plain, epochs, BATCH_SIZE, shuffle_seed)
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
    dataset_spec: Optional[DatasetSpec] = None,
) -> Dict[str, TrainingRecord]:
    """Train the VARIANTS over repeated seeded runs, one _run_repetition per row of seeds.

    Seeds for data, inits, and shuffles derive from one PCG64 stream over
    base_seed (see SEED_DERIVATION), so repetitions are independent and the
    result is reproducible. Every variant trains with the Adam settings ADAM
    in mini-batches of BATCH_SIZE.
    The DC variant adds the DEFAULT_DC_LEVELS of the spec's classes. A count
    that is not an integer at its minimum or above, a missing level or a spec
    the architectures reject raises ValueError before any work.

    Repetitions train in forked workers (see _worker_count), which start with
    this process's modules as they are; one worker trains here, unforked. Each
    variant's records are stacked in row order into one TrainingRecord, so the
    returned {variant: TrainingRecord} does not depend on the worker count.
    """
    n_repetitions = _size("n_repetitions", n_repetitions, 1)
    master = _generator("base_seed", base_seed)
    epochs = _size("epochs", epochs, 0)
    spec = dataset_spec if dataset_spec is not None else default_dataset_spec()
    missing = [c for c in range(spec.n_classes) if c not in DEFAULT_DC_LEVELS]
    if missing:
        raise ValueError(f"DEFAULT_DC_LEVELS has no offset for classes {missing}")
    offsets = np.array([DEFAULT_DC_LEVELS[c] for c in range(spec.n_classes)])
    archs = {name: _comparison_architecture(act, spec) for name, (act, _) in VARIANTS.items()}
    seeds = master.integers(0, 2**31 - 1, size=(n_repetitions, 1 + 2 * len(VARIANTS)))
    task = partial(_run_repetition, spec, offsets, archs, epochs)
    workers = _worker_count(n_repetitions)
    if workers == 1:
        reps = list(map(task, seeds))
    else:
        # glibc mmaps a block above its mmap threshold, and freeing an mmapped block
        # raises that threshold to its size and the trim threshold to twice that:
        # one untouched 2 MiB block freed here spares the workers re-faulting temporaries.
        np.empty(1 << 18)
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
        accuracy = np.array([r.final_accuracy for r in records])
        nets[name] = TrainingRecord(curves, accuracy, records[0].architecture)
    return nets


# ---------------------------------------------------------------------------
# zero-training classifier


def zero_train_eval(
    dataset: LabeledSet,
    kernel: Optional[Kernel] = None,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, object]]:
    """Evaluate dc_of(relu(conv(x, 2-tap kernel))) as a class feature.

    Returns (taps, sample_dcs, results): the kernel's two taps, each sample's
    DC, and the dict zero-train writes to its manifest's results: accuracy,
    class_labels, class_mean_freqs_hz, class_mean_dcs, class_std_dcs and
    class_gains, the filter's gain at each class's mean frequency.

    Exactly one of kernel / seed must be given; a seed draws the two taps
    uniformly from [-sqrt(1/2), sqrt(1/2)] like a fan-in-scaled random init.
    Class prototypes are the per-class mean DCs of this dataset and accuracy
    is nearest-prototype classification of the same samples; a kernel whose
    per-sample DCs are not finite raises ValueError, and classes that share a
    mean DC raise DegenerateInputError.
    """
    if (kernel is None) == (seed is None):
        raise ValueError("provide exactly one of kernel or seed")
    if kernel is None:
        kernel = Kernel(_uniform(_generator("seed", seed), 2, math.sqrt(0.5)))
    taps = np.asarray(kernel.taps, dtype=float)
    if taps.shape != (2,):
        raise ValueError("zero-training kernel must have exactly 2 taps")
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    if dataset.frequencies is None:
        raise ValueError("dataset must carry per-sample frequencies")

    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        dcs = np.array([np.maximum(_causal(row, taps), 0.0).mean() for row in dataset.inputs])
    if not np.isfinite(dcs).all():
        raise ValueError(f"kernel {taps.tolist()} overflows the per-sample DCs")
    labels, freqs = dataset.labels, dataset.frequencies

    classes, counts = np.unique(labels, return_counts=True)
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
    predicted = classes[np.argmin(np.abs(dcs[:, None] - mean_dcs[None, :]), axis=1)]
    return taps, dcs, {
        "accuracy": float(np.mean(predicted == labels)),
        "class_labels": classes,
        "class_mean_freqs_hz": mean_freqs,
        "class_mean_dcs": mean_dcs,
        "class_std_dcs": std_dcs,
        "class_gains": fir_response(kernel, mean_freqs, dataset.sample_rate),
    }
