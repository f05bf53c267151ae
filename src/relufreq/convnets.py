"""Fixed-weight 1-D convolution stacks, FIR responses, and average pooling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .multitone import Signal, _check_rate, _size, _store_sizes
from .relu_taylor import relu

DIFFERENTIATOR = "differentiator"
MOVING_AVERAGE = "moving_average"


@dataclass(frozen=True)
class Kernel:
    """FIR taps w_0 .. w_M applied by causal convolution, held as a read-only copy."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.array(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("kernel taps must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(taps)):
            raise ValueError(f"kernel taps must be finite, got {taps}")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)


@dataclass(frozen=True)
class PrototypeStack:
    """Repeated conv + ReLU layers sharing one kernel, with optional pooling."""

    kind: str
    depth: int
    kernel: Kernel
    pool: Optional[Tuple[int, int]] = None  # (width, stride)

    def __post_init__(self) -> None:
        if self.kind not in (DIFFERENTIATOR, MOVING_AVERAGE):
            raise ValueError(f"unknown stack kind {self.kind!r}")
        _store_sizes(self, depth=1)
        if self.pool is not None:
            if not (isinstance(self.pool, (tuple, list)) and len(self.pool) == 2):
                raise ValueError(f"pool must be a (width, stride) pair, got {self.pool!r}")
            pool = tuple(_size(f"pool {n}", v, 1) for n, v in zip(("width", "stride"), self.pool))
            object.__setattr__(self, "pool", pool)


def make_prototype_stack(
    kind: str,
    depth: int = 8,
    avg_len: int = 8,
    pool: Optional[Tuple[int, int]] = None,
) -> PrototypeStack:
    """Differentiator stacks use taps [1, -1]; moving-average stacks 1/n * ones(n)."""
    if kind == MOVING_AVERAGE:
        avg_len = _size("avg_len", avg_len, 1)
        kernel = Kernel(np.ones(avg_len) / avg_len)
    else:  # DIFFERENTIATOR; PrototypeStack rejects any other kind
        kernel = Kernel(np.array([1.0, -1.0]))
    return PrototypeStack(kind, depth, kernel, pool)


def _causal(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal zero-padded convolution of one row; the output keeps the row's length."""
    return np.convolve(x, taps)[: x.size]


def conv1d(signal: Signal, kernel: Kernel) -> Signal:
    """Causal zero-padded convolution; output keeps the input length."""
    if kernel.taps.size > len(signal):
        raise ValueError("kernel longer than signal")
    return Signal(_causal(signal.samples, kernel.taps), signal.sample_rate)


def fir_response(kernel: Kernel, frequencies: Sequence[float], sample_rate: float) -> np.ndarray:
    """Gain of the kernel's frequency response at each frequency."""
    freqs = np.asarray(frequencies, dtype=float)
    _check_rate(sample_rate)
    if not np.all((freqs >= 0) & (freqs <= sample_rate / 2.0)):
        raise ValueError("frequencies must lie in [0, Nyquist]")
    n = np.arange(kernel.taps.size)
    # response at normalized frequency f/fs: sum_n w_n exp(-i 2 pi (f/fs) n)
    z = np.exp(-2j * math.pi * np.outer(freqs / sample_rate, n))
    return np.abs(z @ kernel.taps)


def avg_pool(signal: Signal, width: int, stride: int) -> Signal:
    """Windowed means with the given stride; the sample rate drops by the stride."""
    width, stride = _size("width", width, 1), _size("stride", stride, 1)
    n = len(signal)
    if width > n:
        raise ValueError("pool width longer than signal")
    windows = np.lib.stride_tricks.sliding_window_view(signal.samples, width)
    out = windows[::stride].mean(axis=1)
    return Signal(out, signal.sample_rate / stride)


def run_prototype(stack: PrototypeStack, input_signal: Signal) -> List[Signal]:
    """Apply conv -> ReLU (-> pool) depth times; returns each layer's output."""
    layers: List[Signal] = []
    current = input_signal
    for _ in range(stack.depth):
        current = relu(conv1d(current, stack.kernel))
        if stack.pool is not None:
            current = avg_pool(current, stack.pool[0], stack.pool[1])
        layers.append(current)
    return layers
