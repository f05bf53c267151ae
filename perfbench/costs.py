"""Operation counts and bytes moved of the trainer's layers, computed from shapes.

These are computed, not measured: a multiply-add counts as 2 flop, the
elementwise work (bias, relu, pooling, softmax) is not counted, and bytes
are the compulsory float64 traffic of each layer (inputs, parameters and
outputs read or written once). Backward computes the parameter gradient and
the input gradient of every layer, the first conv layer included, as
``trainer.backward`` does, so it costs twice the forward flops.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace
from typing import Dict, List

F64 = 8
BATCH = 32

# The train-compare networks: two causal conv layers of 8 filters x 5 taps on
# 64-sample inputs, global average pooling, a 16-unit hidden layer, 3 classes.
_CONV = SimpleNamespace(filters=8, kernel_size=5)
COMPARISON = SimpleNamespace(
    conv_layers=(_CONV, _CONV),
    hidden_units=16,
    n_classes=3,
    flatten_mode="global_average",
    input_length=64,
)


def _layer(name: str, macs: int, n_in: int, n_param: int, n_out: int) -> Dict[str, object]:
    return {
        "layer": name,
        "forward_flops": 2 * macs,
        "backward_flops": 4 * macs,
        "forward_bytes": F64 * (n_in + n_param + n_out),
        # reads input, output gradient and weights; writes both gradients
        "backward_bytes": F64 * (n_in + n_out + n_param + n_param + n_in),
    }


def layer_costs(arch, batch: int) -> List[Dict[str, object]]:
    """One row per conv layer, then one for the dense head, for ``batch`` inputs."""
    rows = []
    length = arch.input_length
    channels = 1
    for i, spec in enumerate(arch.conv_layers, start=1):
        o, k = spec.filters, spec.kernel_size
        rows.append(
            _layer(
                f"conv{i}",
                batch * length * o * channels * k,
                batch * channels * length,
                o * channels * k + o,
                batch * o * length,
            )
        )
        channels = o
    feat = channels * length if arch.flatten_mode == "flatten" else channels
    hidden, classes = arch.hidden_units, arch.n_classes
    rows.append(
        _layer(
            "head",
            batch * (feat * hidden + hidden * classes),
            batch * feat,
            feat * hidden + hidden + hidden * classes + classes,
            batch * classes,
        )
    )
    return rows


@lru_cache(maxsize=None)
def pass_flops(arch, batch: int) -> Dict[str, int]:
    """Total forward and backward flops of one pass over ``batch`` inputs."""
    rows = layer_costs(arch, batch)
    return {
        "forward": sum(r["forward_flops"] for r in rows),
        "backward": sum(r["backward_flops"] for r in rows),
    }
