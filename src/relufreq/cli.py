"""Command-line experiment runner emitting CSV artifacts and run manifests."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .convnets import (
    DIFFERENTIATOR,
    MOVING_AVERAGE,
    Kernel,
    fir_response,
    make_prototype_stack,
    run_prototype,
)
from .errors import ReluFreqError
from .multitone import DatasetSpec, ProbeSpec, _check_below_nyquist, sample_dataset
from .relu_taylor import PRESCALE, approximate_relu, relu
from .spectral import band_occupancy, energy_fraction_above, rrmse, spectrum
from .trainer import (
    ADAM,
    BATCH_SIZE,
    DEFAULT_DC_LEVELS,
    SEED_DERIVATION,
    TrainingRecord,
    default_dataset_spec,
    run_comparison,
    zero_train_eval,
)

PRNG_ID = "numpy PCG64; normals via Box-Muller over two uniform draws"
RRMSE_DEFINITION = "l2_norm(estimate - reference) / l2_norm(reference)"
DFT_NORMALIZATION = "DFT / N; unit bin-aligned cosine -> magnitude 0.5 at +/- f"
OCCUPANCY_THRESHOLD = 0.01

PROBE = ProbeSpec(f0=5.0, amplitudes=(1.0,) * 4, sample_rate=1024.0, duration=1.0)
HEART_PROBE = ProbeSpec(f0=1.2, amplitudes=(1.0, 0.5), sample_rate=64.0, duration=8.0)
HEART_STACK = make_prototype_stack(MOVING_AVERAGE, depth=3, avg_len=4, pool=(2, 2))

ZERO_TRAIN_SPEC = DatasetSpec(
    class_means=(3.0, 5.0, 10.0),
    freq_std=0.1,
    samples_per_class=100,
    sample_rate=64.0,
    duration=32.0,
)
DEFAULT_ZERO_KERNEL = (0.6, 0.4)
RESPONSE_POINTS = 257

# The least value of every integer flag, checked by run() before any subcommand
# runs. --avg-len is not here: it applies only to --kind avg, which checks it.
FLAG_MINIMUMS = {"--n": 1, "--harmonics": 1, "--terms": 1, "--depth": 1, "--reps": 1,
                 "--epochs": 0, "--seed": 0}


@dataclass
class Artifacts:
    """What a file-writing subcommand produced, handed to ``_write_artifacts``.

    ``tables`` maps CSV names to (header, columns), where the columns are
    equal-length 1-D arrays or sequences, one per header name; ``json_files``
    maps JSON names to payloads; ``summary`` is printed once everything is written.
    """

    config: Dict[str, object]
    results: Dict[str, object]
    tables: Dict[str, Tuple[Sequence[str], Sequence[Sequence]]]
    json_files: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    summary: Optional[str] = None


# one %-format per column dtype kind; stdout prints floats with the same "%.17g"
_COLUMN_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}


def emit_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """UTF-8 comma-separated table of equal-length 1-D columns, one per header name.

    Floats are written with 17 significant digits, integers in decimal and
    strings verbatim; any other dtype (bool, complex, object, ...) raises
    ValueError, as do a column count that differs from the header, a column
    that is not 1-D and columns of unequal length.
    """
    arrays = [np.asarray(column) for column in columns]
    if len(arrays) != len(header):
        raise ValueError(f"{len(arrays)} columns for {len(header)} header names")
    if any(a.ndim != 1 for a in arrays) or len({a.shape for a in arrays}) > 1:
        raise ValueError("columns must be 1-D and of equal length")
    formats = [_COLUMN_FORMATS.get(a.dtype.kind) for a in arrays]
    if None in formats:
        raise ValueError(f"no CSV format for column dtypes {[str(a.dtype) for a in arrays]}")
    line = ",".join(formats) + "\n"
    cells = [a.tolist() for a in arrays]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*cells))


def _json_default(value):
    """numpy arrays and scalars as lists and numbers, dataclasses field by field."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else asdict(value)


def _render_json(payload) -> str:
    """Sorted-key JSON text; a non-finite number raises ValueError instead of writing NaN."""
    text = json.dumps(payload, default=_json_default, indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_manifest(path: str, text: str) -> None:
    """Write a manifest's text as ``_render_json`` rendered it."""
    _write_text(path, text)


def _write_artifacts(out_dir: str, command: str, artifacts: Artifacts) -> None:
    """Write every table and JSON file, then a manifest listing exactly those files.

    Every float column is checked and the JSON files and the manifest are
    rendered before any file is written, so a non-finite value in a table or
    a result fails with ValueError and nothing is written.
    """
    for name, (header, columns) in artifacts.tables.items():
        for label, column in zip(header, columns):
            column = np.asarray(column)
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                raise ValueError(f"{name} column {label!r} holds a non-finite value")
    texts = {name: _render_json(payload) for name, payload in artifacts.json_files.items()}
    written = [*artifacts.tables, *texts]
    manifest_text = _render_json(
        {
            "command": command,
            "full_config": artifacts.config,
            "seed": artifacts.seed,
            "tool_version": __version__,
            "output_files": written,
            "results": artifacts.results,
        }
    )
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, columns) in artifacts.tables.items():
        emit_csv(os.path.join(out_dir, name), header, columns)
    for name, text in texts.items():
        _write_text(os.path.join(out_dir, name), text)
    emit_manifest(os.path.join(out_dir, "manifest.json"), manifest_text)


def _parse_kernel(text: str):
    try:
        taps = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kernel {text!r}: {exc}") from None
    if len(taps) != 2:
        raise argparse.ArgumentTypeError("kernel must be two comma-separated taps")
    return taps


# ---------------------------------------------------------------------------
# subcommands


def _cmd_coeffs(args) -> None:
    from .relu_taylor import sqrt_taylor_coefficients

    for c in sqrt_taylor_coefficients(args.n):
        print("%.17g" % c)


def _cmd_approx(args) -> Artifacts:
    # the top harmonic first, so an aliased count fails before any per-harmonic allocation
    _check_below_nyquist(np.array([args.f0 * args.harmonics]), args.fs)
    probe = ProbeSpec(args.f0, (1.0,) * args.harmonics, args.fs, args.duration)
    x = probe.signal()
    y_relu = relu(x)
    approx, report = approximate_relu(probe.tones, probe.sample_rate, probe.duration, args.terms)
    err = rrmse(y_relu, approx)
    freqs, x_mag = spectrum(x).one_sided()
    _, relu_mag = spectrum(y_relu).one_sided()
    _, approx_mag = spectrum(approx).one_sided()
    return Artifacts(
        config={
            "probe": probe,
            "taylor": {"n_terms": args.terms},
            "prescale": PRESCALE,
            "rrmse_definition": RRMSE_DEFINITION,
            "dft_normalization": DFT_NORMALIZATION,
        },
        results={"rrmse": err, **report},
        tables={
            "approx_time.csv": (
                ["t", "x", "relu_x", "approx"],
                [x.times, x.samples, y_relu.samples, approx.samples],
            ),
            "approx_spectrum.csv": (
                ["f", "x_mag", "relu_mag", "approx_mag"],
                [freqs, x_mag, relu_mag, approx_mag],
            ),
        },
        json_files={"convergence.json": report},
        summary=f"rrmse {err:.17g}",
    )


def _cmd_proto(args) -> Artifacts:
    kind = DIFFERENTIATOR if args.kind == "dif" else MOVING_AVERAGE
    stack = make_prototype_stack(kind, depth=args.depth, avg_len=args.avg_len)
    probe = replace(PROBE, sample_rate=args.fs)
    x = probe.signal()
    layers = run_prototype(stack, x)

    signals = [x] + layers
    spectra = [spectrum(sig) for sig in signals]
    freqs, _ = spectra[0].one_sided()
    columns = [sp.one_sided()[1] for sp in spectra]
    occupancies = [band_occupancy(sp, OCCUPANCY_THRESHOLD) for sp in spectra]
    results: Dict[str, object] = {"occupancy_per_layer": occupancies}
    if kind == MOVING_AVERAGE:
        first_null = probe.sample_rate / stack.kernel.taps.size
        results["first_null_hz"] = first_null
        results["energy_above_first_null_per_layer"] = [
            energy_fraction_above(sp, first_null) for sp in spectra
        ]
    return Artifacts(
        config={
            "probe": probe,
            "stack": stack,
            "occupancy_threshold": OCCUPANCY_THRESHOLD,
            "dft_normalization": DFT_NORMALIZATION,
        },
        results=results,
        tables={
            "layer_spectra.csv": (
                ["f"] + [f"layer_{i}" for i in range(len(signals))],
                [freqs, *columns],
            ),
            "occupancy.csv": (["layer", "occupancy"], [np.arange(len(signals)), occupancies]),
        },
    )


def _cmd_heart_demo(args) -> Artifacts:
    probe = replace(HEART_PROBE, f0=args.hr)
    x = probe.signal()
    layers = run_prototype(HEART_STACK, x)
    freqs, mags = zip(*(spectrum(sig).one_sided() for sig in [x] + layers))
    layer = np.repeat(np.arange(len(freqs)), [f.size for f in freqs])
    return Artifacts(
        config={"probe": probe, "stack": HEART_STACK, "dft_normalization": DFT_NORMALIZATION},
        results={"layer_sample_rates_hz": [sig.sample_rate for sig in [x] + layers]},
        tables={
            "heart_spectra.csv": (
                ["layer", "f", "magnitude"],
                [layer, np.concatenate(freqs), np.concatenate(mags)],
            )
        },
    )


def _quartiles(stacked: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Median, 25th and 75th percentile over the repetitions (axis 0) of a stacked curve."""
    q25, q75 = (np.quantile(stacked, q, axis=0) for q in (0.25, 0.75))
    return np.median(stacked, axis=0), q25, q75


def _curve_table(
    nets: Dict[str, TrainingRecord], epochs: int, curve: str
) -> Tuple[List[str], List[np.ndarray]]:
    """Long-format (header, columns) of one named curve: epoch, net, [layer], median, q25, q75.

    A curve's epoch axis is last and ends at epoch E, so it starts at E + 1 -
    its length: 1 for the loss, 0 (initialization) for the distance. A middle
    (per-layer) axis becomes a 0-based layer column; rows run net, layer, epoch.
    """
    parts = []
    for name, net in nets.items():
        stats = _quartiles(net.curves[curve])
        shape = stats[0].shape
        # row-major cell indices: the layer axes, then the epoch axis
        *layers, epoch = np.indices(shape).reshape(len(shape), -1)
        epoch += epochs + 1 - shape[-1]
        names = np.repeat(name, epoch.size)
        parts.append([epoch, names, *layers, *(stat.ravel() for stat in stats)])
    columns = [np.concatenate(column) for column in zip(*parts)]
    return ["epoch", "net", *["layer"] * (len(columns) - 5), "median", "q25", "q75"], columns


def _cmd_train_compare(args) -> Artifacts:
    spec = default_dataset_spec()
    nets = run_comparison(args.reps, args.seed, epochs=args.epochs, dataset_spec=spec)
    results: Dict[str, object] = {}
    for name, net in nets.items():
        results[name] = {
            "median_final_conv_distance": float(np.median(net.final_conv_distances)),
            "median_final_accuracy": float(np.median(net.final_accuracy)),
        }
        if net.final_losses.size:  # no loss exists when no epoch ran
            results[name]["median_final_loss"] = float(np.median(net.final_losses))
    return Artifacts(
        config={
            "repetitions": args.reps,
            "epochs": args.epochs,
            "batch_size": BATCH_SIZE,
            "adam": ADAM,
            "architectures": {name: net.architecture for name, net in nets.items()},
            "dataset": spec,
            "dc_levels": DEFAULT_DC_LEVELS,
            "networks": list(nets),
            "seed_derivation": SEED_DERIVATION,
            "prng": PRNG_ID,
        },
        results=results,
        tables={
            name: _curve_table(nets, args.epochs, curve)
            for name, curve in (("loss_curves.csv", "loss"), ("distance_curves.csv", "distance"))
        },
        seed=args.seed,
    )


def _cmd_zero_train(args) -> Artifacts:
    seed = args.seed if args.seed is not None else 0
    dataset_seed = seed + 1
    dataset = sample_dataset(ZERO_TRAIN_SPEC, dataset_seed)
    if args.seed is not None:
        kernel, kernel_source = None, "random"
    elif args.kernel is not None:
        kernel, kernel_source = Kernel(np.array(args.kernel)), "explicit"
    else:
        kernel, kernel_source = Kernel(np.array(DEFAULT_ZERO_KERNEL)), "default"
    taps, sample_dcs, results = zero_train_eval(dataset, kernel, args.seed)

    fs = ZERO_TRAIN_SPEC.sample_rate
    grid = np.linspace(0.0, fs / 2.0, RESPONSE_POINTS)
    gains = fir_response(Kernel(taps), grid, fs)
    return Artifacts(
        config={
            "kernel_taps": taps,
            "kernel_source": kernel_source,
            "kernel_seed": seed if kernel_source == "random" else None,
            "dataset_seed": dataset_seed,
            "dataset": ZERO_TRAIN_SPEC,
            "response_grid_points": RESPONSE_POINTS,
            "classifier": "nearest-class-mean of the per-sample DC",
            "prng": PRNG_ID,
        },
        results=results,
        tables={
            "response.csv": (["f", "b"], [grid, gains]),
            "dc_by_class.csv": (
                ["f_i", "dc", "class"],
                [dataset.frequencies, sample_dcs, dataset.labels],
            ),
        },
        seed=seed,
        summary=f"accuracy {results['accuracy']:.17g}",
    )


# ---------------------------------------------------------------------------
# dispatcher


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="relufreq",
        description="Frequency-domain experiments on the ReLU activation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", help="print square-root series coefficients")
    p.add_argument("--n", type=int, required=True, help="number of coefficients")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("approx", help="series approximation of relu on a harmonic probe")
    p.add_argument("--f0", type=float, default=PROBE.f0)
    p.add_argument("--harmonics", type=int, default=len(PROBE.amplitudes))
    p.add_argument("--fs", type=float, default=PROBE.sample_rate)
    p.add_argument("--duration", type=float, default=PROBE.duration)
    p.add_argument("--terms", type=int, default=50)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("proto", help="run a fixed-kernel conv/relu stack on the probe")
    p.add_argument("--kind", choices=["dif", "avg"], required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--avg-len", type=int, default=8, dest="avg_len")
    p.add_argument("--fs", type=float, default=PROBE.sample_rate)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_proto)

    p = sub.add_parser("heart-demo", help="two-tone heart probe through a pooled stack")
    p.add_argument("--hr", type=float, default=HEART_PROBE.f0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_heart_demo)

    p = sub.add_parser("train-compare", help="relu vs linear vs linear+DC training runs")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_train_compare)

    p = sub.add_parser("zero-train", help="untrained 2-tap DC classifier evaluation")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--kernel", type=_parse_kernel, default=None, metavar="W0,W1")
    group.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_zero_train)

    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag, low in FLAG_MINIMUMS.items():
            value = getattr(args, flag[2:], None)
            if value is not None and value < low:
                raise ValueError(f"{flag} must be >= {low}, got {value}")
        artifacts = args.func(args)
        if artifacts is not None:
            _write_artifacts(args.out, args.subcommand, artifacts)
            if artifacts.summary is not None:
                print(artifacts.summary)
        return 0
    except (ReluFreqError, ValueError, OSError, MemoryError, OverflowError) as exc:
        # numpy raises a private MemoryError subclass; print the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
