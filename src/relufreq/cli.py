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
from .relu_taylor import TaylorConfig, approximate_relu, relu
from .spectral import band_occupancy, energy_fraction_above, rrmse, spectrum
from .trainer import ComparisonReport, run_comparison, zero_train_eval

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


@dataclass
class RunManifest:
    """Reproducibility envelope written next to every command's outputs."""

    command: str
    full_config: Dict[str, object]
    seed: int
    tool_version: str
    output_files: List[str]
    results: Dict[str, object] = field(default_factory=dict)


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


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# one %-format per column dtype kind; "%.17g" % v equals format(v, ".17g") as _fmt prints it
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


def _render_json(payload) -> str:
    """Sorted-key JSON text; a non-finite number raises ValueError instead of writing NaN."""
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_manifest(path: str, manifest: RunManifest) -> None:
    """Sorted-key JSON of the manifest; dataclasses in it are written field by field."""
    _write_text(path, _render_json(asdict(manifest)))


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
    manifest = RunManifest(
        command, artifacts.config, artifacts.seed, __version__, written, artifacts.results
    )
    _render_json(asdict(manifest))
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, columns) in artifacts.tables.items():
        emit_csv(os.path.join(out_dir, name), header, columns)
    for name, text in texts.items():
        _write_text(os.path.join(out_dir, name), text)
    emit_manifest(os.path.join(out_dir, "manifest.json"), manifest)


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

    if args.n < 1:
        raise ValueError("--n must be >= 1")
    for c in sqrt_taylor_coefficients(args.n):
        print(_fmt(c))


def _cmd_approx(args) -> Artifacts:
    # the top harmonic first, so an aliased count fails before any per-harmonic allocation
    _check_below_nyquist(np.array([args.f0 * args.harmonics]), args.fs)
    probe = ProbeSpec(args.f0, (1.0,) * args.harmonics, args.fs, args.duration)
    x = probe.signal()
    y_relu = relu(x)
    cfg = TaylorConfig(args.terms, args.prescale)
    approx, report = approximate_relu(probe.tones, probe.sample_rate, probe.duration, cfg)
    err = rrmse(y_relu, approx)
    freqs, x_mag = spectrum(x).one_sided()
    _, relu_mag = spectrum(y_relu).one_sided()
    _, approx_mag = spectrum(approx).one_sided()
    convergence = {
        "max_abs_g": report.max_abs_fluctuation,
        "fraction_violating": report.fraction_violating,
        "valid": report.valid,
    }
    return Artifacts(
        config={
            "probe": probe,
            "taylor": cfg,
            "rrmse_definition": RRMSE_DEFINITION,
            "dft_normalization": DFT_NORMALIZATION,
        },
        results={"rrmse": err, **convergence},
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
        json_files={"convergence.json": convergence},
        summary=f"rrmse {_fmt(err)}",
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


def _curve_table(report: ComparisonReport, curve: str) -> Tuple[List[str], List[np.ndarray]]:
    """Long-format (header, columns) of one named curve: epoch, net, [layer], median, q25, q75.

    A curve's epoch axis is last and ends at epoch E, so it starts at E + 1 -
    its length: 1 for the loss, 0 (initialization) for the distance. A middle
    (per-layer) axis becomes a 0-based layer column; rows run net, layer, epoch.
    """
    parts = []
    for name, net in report.nets.items():
        stats = _quartiles(net.curves[curve])
        shape = stats[0].shape
        # row-major cell indices: the layer axes, then the epoch axis
        *layers, epoch = np.indices(shape).reshape(len(shape), -1)
        epoch += report.epochs + 1 - shape[-1]
        names = np.repeat(name, epoch.size)
        parts.append([epoch, names, *layers, *(stat.ravel() for stat in stats)])
    columns = [np.concatenate(column) for column in zip(*parts)]
    return ["epoch", "net", *["layer"] * (len(columns) - 5), "median", "q25", "q75"], columns


def _cmd_train_compare(args) -> Artifacts:
    report = run_comparison(args.reps, args.seed, epochs=args.epochs)
    results: Dict[str, object] = {}
    for name, net in report.nets.items():
        results[name] = {
            "median_final_conv_distance": float(np.median(net.final_conv_distances)),
            "median_final_accuracy": float(np.median(net.final_accuracies)),
        }
        if net.final_losses.size:  # no loss exists when no epoch ran
            results[name]["median_final_loss"] = float(np.median(net.final_losses))
    return Artifacts(
        config={
            "repetitions": report.n_repetitions,
            "epochs": report.epochs,
            "batch_size": report.batch_size,
            "adam": report.adam_hyper,
            "architectures": report.architectures,
            "dataset": report.dataset_spec,
            "dc_levels": report.dc_levels,
            "networks": list(report.nets),
            "seed_derivation": "PCG64(seed) integer matrix (reps, 7): data, init x3, shuffle x3",
            "prng": PRNG_ID,
        },
        results=results,
        tables={
            name: _curve_table(report, curve)
            for name, curve in (("loss_curves.csv", "loss"), ("distance_curves.csv", "distance"))
        },
        seed=args.seed,
    )


def _cmd_zero_train(args) -> Artifacts:
    seed = args.seed if args.seed is not None else 0
    dataset_seed = seed + 1
    dataset = sample_dataset(ZERO_TRAIN_SPEC, dataset_seed)
    if args.seed is not None:
        report = zero_train_eval(dataset, seed=args.seed)
        kernel_source = "random"
    else:
        taps = args.kernel if args.kernel is not None else DEFAULT_ZERO_KERNEL
        report = zero_train_eval(dataset, kernel=Kernel(np.array(taps)))
        kernel_source = "explicit" if args.kernel is not None else "default"

    fs = ZERO_TRAIN_SPEC.sample_rate
    grid = np.linspace(0.0, fs / 2.0, RESPONSE_POINTS)
    response = fir_response(Kernel(report.taps), grid, fs)
    return Artifacts(
        config={
            "kernel_taps": report.taps,
            "kernel_source": kernel_source,
            "kernel_seed": seed if kernel_source == "random" else None,
            "dataset_seed": dataset_seed,
            "dataset": ZERO_TRAIN_SPEC,
            "response_grid_points": RESPONSE_POINTS,
            "classifier": "nearest-class-mean of the per-sample DC",
            "prng": PRNG_ID,
        },
        results={
            "accuracy": report.accuracy,
            "class_labels": report.class_labels,
            "class_mean_freqs_hz": report.class_mean_freqs,
            "class_mean_dcs": report.class_mean_dcs,
            "class_std_dcs": report.class_std_dcs,
            "class_gains": report.class_gains,
        },
        tables={
            "response.csv": (["f", "b"], [response.frequencies, response.gains]),
            "dc_by_class.csv": (
                ["f_i", "dc", "class"],
                [dataset.frequencies, report.sample_dcs, dataset.labels],
            ),
        },
        seed=seed,
        summary=f"accuracy {_fmt(report.accuracy)}",
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
    p.add_argument("--prescale", type=float, default=1e-4)
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
