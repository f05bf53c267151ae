import argparse
import concurrent.futures
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relufreq
from relufreq import cli, trainer
from relufreq.cli import _curve_table, emit_csv, emit_manifest, run
from relufreq.multitone import DatasetSpec, ProbeSpec, sample_dataset
from relufreq.spectral import spectrum
from relufreq.trainer import Architecture, ConvLayerSpec, default_dataset_spec, run_comparison


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEmitCsv:
    def test_literal_format(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(str(path), ["t", "x"], [[0], [1.0]])
        assert read(path) == b"t,x\n0,1\n"

    def test_empty_rows_keep_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(str(path), ["a", "b", "c"], [[], [], []])
        assert read(path) == b"a,b,c\n"

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50))
        path = tmp_path / "rt.csv"
        emit_csv(str(path), ["v"], [values])
        lines = read(path).decode().strip().split("\n")[1:]
        recovered = [float(line) for line in lines]
        assert all(a == b for a, b in zip(recovered, values))

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(str(tmp_path / "bad.csv"), ["a", "b"], [[1.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["a", "b"], [[1.0]]),
            (["a"], [[1.0], [2.0]]),
            (["a"], [np.zeros((2, 2))]),
            (["a"], [np.float64(1.0)]),
            (["a"], [np.array([True, False])]),
            (["a"], [np.array([1j])]),
            (["a"], [np.array([1.0, "x"], dtype=object)]),
            (["a"], [np.array([b"x"])]),
        ],
        ids=["too-few", "too-many", "2-D", "0-D", "bool", "complex", "object", "bytes"],
    )
    def test_malformed_columns_rejected(self, header, columns, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            emit_csv(str(path), header, columns)
        assert not path.exists()


def format_cell(value) -> str:
    """One cell as the CLI's former per-cell formatter wrote it."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def per_cell_csv(header, columns):
    """The CSV bytes of one ``format_cell`` call per cell: the reference for ``emit_csv``."""
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(float).max])
        .view(np.uint64)
        .tolist()
    ),
)
CELLS = {
    "float": st.lists(FLOAT_BITS).map(lambda bits: np.array(bits, np.uint64).view(np.float64)),
    "int": st.lists(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, np.int64)),
    # numpy drops trailing NULs from its strings, so none are drawn
    "str": st.lists(st.text(st.characters(blacklist_characters="\x00,\n", codec="utf-8"))),
}


@st.composite
def column_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    columns = [draw(CELLS[kind]) for kind in kinds]
    rows = min(len(column) for column in columns)
    return [f"c{i}" for i in range(len(kinds))], [column[:rows] for column in columns]


@settings(max_examples=200, deadline=None)
@given(column_tables())
def test_emit_csv_equals_a_per_cell_format(table):
    """Float bit patterns (zeros, subnormals, the largest finite), int64 and str columns."""
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        emit_csv(str(path), header, columns)
        assert read(path) == per_cell_csv(header, columns)


class TestEmitManifest:
    def test_byte_identical_for_same_config(self, tmp_path):
        manifest = {
            "command": "demo",
            "full_config": {"alpha": 1e-4, "ids": [1, 2, 3]},
            "seed": 7,
            "tool_version": "0.1.0",
            "output_files": ["a.csv"],
            "results": {"value": 0.5},
        }
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        emit_manifest(str(p1), cli._render_json(manifest))
        emit_manifest(str(p2), cli._render_json(manifest))
        assert read(p1) == read(p2)

    def test_seed_echoed_and_keys_sorted(self, tmp_path):
        manifest = {
            "command": "demo",
            "full_config": {"z": 1, "a": 2},
            "seed": 42,
            "tool_version": "0.1.0",
            "output_files": [],
            "results": {},
        }
        path = tmp_path / "m.json"
        emit_manifest(str(path), cli._render_json(manifest))
        payload = json.loads(read(path))
        assert payload["seed"] == 42
        text = read(path).decode()
        assert text.index('"a"') < text.index('"z"')


class TestDispatcher:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["coeffs", "--n", "4", "--bogus"]) == 2
        capsys.readouterr()

    def test_runtime_failure_exits_1_with_error_name(self, tmp_path, capsys):
        code = run(["approx", "--terms", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["heart-demo", "--hr", "nan"],
            ["approx", "--f0", "nan"],
            ["approx", "--fs", "inf"],
            ["zero-train", "--kernel", "nan,1"],
            ["train-compare", "--reps", "1", "--epochs", "-1"],
            # a rate that is not > 0 is invalid, not an aliasing tone
            ["approx", "--fs=-1"],
            ["approx", "--fs=0"],
            ["proto", "--kind", "avg", "--fs=-1"],
            ["proto", "--kind", "dif", "--fs=0"],
            # a duration too short for one sample at the rate
            ["approx", "--duration", "1e-9"],
            # the flag and the value given, not the empty amplitude tuple it makes
            ["approx", "--harmonics", "-1"],
            # named before any synthesis, as --harmonics is
            ["approx", "--terms", "0"],
        ],
    )
    def test_invalid_input_exits_1_and_writes_no_csv(self, argv, tmp_path, capsys):
        out = tmp_path / "nf"
        assert run(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: ValueError" in captured.err
        if any(arg.startswith("--fs") for arg in argv):
            assert "sample_rate" in captured.err
        if "--duration" in argv:
            assert "duration 1e-09 s at sample_rate 1024.0 Hz" in captured.err
        if "--harmonics" in argv:
            assert "--harmonics must be >= 1, got -1" in captured.err
        if "--terms" in argv:
            assert "--terms must be >= 1, got 0" in captured.err
        assert captured.out == ""
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, name",
        [
            # every class mean DC is 0: the accuracy would be a tie-break
            (["zero-train", "--kernel", "0,0"], "DegenerateInputError"),
            # 1e18 eight-byte values exceed the address space, so these fail
            # at once without touching memory
            (["coeffs", "--n", str(10**18)], "MemoryError"),
            (["approx", "--terms", str(10**18)], "MemoryError"),
            (["approx", "--fs", "1e18"], "MemoryError"),
            # u peaks at 7, so the series' terms overflow from about 366 terms
            (["approx", "--terms", "400"], "DivergenceError"),
            # the per-sample DCs overflow to inf or nan: not a tie between classes
            (["zero-train", "--kernel", "1e308,1e308"], "ValueError"),
            (["zero-train", "--kernel", "1e308,-1e308"], "ValueError"),
            (["zero-train", "--kernel", "1.7e308,0.1"], "ValueError"),
            # too many harmonics for a float: raised before anything is allocated
            (["approx", "--harmonics", str(10**309)], "OverflowError"),
            # the top harmonic is checked before one value per harmonic is built
            (["approx", "--harmonics", str(10**17)], "AliasingError"),
            # a fluctuation phase 2*pi*(f_i + f_j)*t overflows; the series did not diverge
            (["approx", "--f0=5e306", "--fs=1.7e308", "--duration=1e-307"], "ValueError"),
            # finite per-sample DCs whose per-class spread overflows
            (["zero-train", "--kernel=0,1e300"], "ValueError"),
        ],
    )
    def test_failure_exits_1_with_public_error_name(
        self, argv, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name}: ")
        assert captured.out == ""
        assert not list(tmp_path.rglob("*.csv"))

    def test_non_finite_result_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "rrmse", lambda reference, estimate: math.nan)
        out = tmp_path / "nan"
        assert run(["approx", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError: ")
        assert not out.exists()

    def test_non_finite_table_cell_exits_1_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        spectrum = cli.spectrum

        def nan_spectrum(signal):
            sp = spectrum(signal)
            sp.bins[3] = math.nan
            return sp

        monkeypatch.setattr(cli, "spectrum", nan_spectrum)
        out = tmp_path / "nan"
        assert run(["heart-demo", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: heart_spectra.csv column 'magnitude' ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--harmonics", "1", "--fs", "64"],
            ["proto", "--kind", "avg", "--depth", "2"],
            ["heart-demo"],
            ["train-compare", "--reps", "1", "--epochs", "1"],
            ["zero-train"],
        ],
    )
    def test_manifest_lists_exactly_the_written_files(self, argv, tmp_path, capsys):
        out = tmp_path / "files"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        listed = json.loads(read(out / "manifest.json"))["output_files"]
        assert sorted(listed + ["manifest.json"]) == sorted(p.name for p in out.iterdir())


# one cheap invocation of every subcommand that writes a manifest
MANIFEST_INVOCATIONS = {
    "approx": ["approx", "--harmonics", "1", "--fs", "64"],
    "proto": ["proto", "--kind", "avg", "--depth", "2"],
    "heart-demo": ["heart-demo"],
    "train-compare": ["train-compare", "--reps", "1", "--epochs", "0"],
    "zero-train": ["zero-train"],
}


def test_manifest_invocations_cover_every_writing_subcommand():
    (subparsers,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == set(MANIFEST_INVOCATIONS) | PRINT_ONLY


@pytest.mark.parametrize("command", MANIFEST_INVOCATIONS)
def test_manifest_has_exactly_the_six_keys(command, tmp_path, capsys):
    """The manifest schema: no key missing or added, and the package's own version."""
    assert run(MANIFEST_INVOCATIONS[command] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads(read(tmp_path / "manifest.json"))
    keys = ["command", "full_config", "output_files", "results", "seed", "tool_version"]
    assert sorted(manifest) == keys
    assert manifest["command"] == command
    assert manifest["tool_version"] == relufreq.__version__


def _fail_on_constant(name):
    raise AssertionError(f"manifest holds {name}")


# subcommands that only print, and take no --out
PRINT_ONLY = {"coeffs"}


def run_checked(argv):
    """Run argv into a fresh directory and check what any flag values must give.

    run() raises nothing and returns 0, 1 or 2; exit 1 prints one
    ``error: <Name>: `` line; a failed run writes no CSV, and a successful one
    only finite CSV cells and a manifest without NaN or Infinity, or for a
    PRINT_ONLY subcommand only finite numbers on stdout. Returns the exit code
    and stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        printed = Path(tmp) / "stdout.txt"
        err = io.StringIO()
        out_flag = [] if argv[0] in PRINT_ONLY else ["--out", str(out)]
        # stdout goes to a file, so a long printout holds no memory here
        with open(printed, "w") as stdout:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = run(argv + out_flag)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert re.match(r"error: [A-Z]\w*: ", err.getvalue())
        if code != 0:
            assert not list(Path(tmp).rglob("*.csv"))
            return code, err.getvalue()
        if argv[0] in PRINT_ONLY:
            with open(printed) as lines:
                assert all(math.isfinite(float(line)) for line in lines)
            return code, err.getvalue()
        json.loads(read(out / "manifest.json"), parse_constant=_fail_on_constant)
        for csv in out.glob("*.csv"):
            header, *rows = read(csv).decode().strip().split("\n")
            # every column but train-compare's network names holds numbers
            numeric = [i for i, name in enumerate(header.split(",")) if name != "net"]
            assert all(math.isfinite(float(row.split(",")[i])) for row in rows for i in numeric)
        return code, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 6))
@example(terms=300, harmonics=4)  # finite samples whose squares overflow in a plain norm
@example(terms=400, harmonics=4)  # the partial sum overflows
def test_approx_exits_0_with_finite_outputs_or_1_with_no_csv(terms, harmonics):
    code, err = run_checked(["approx", "--terms", str(terms), "--harmonics", str(harmonics)])
    # the series overflowing is the one failure here; a ValueError would mean
    # a non-finite result got as far as the manifest's JSON guard
    assert code == 0 or err.startswith("error: DivergenceError: ")


# Edge floats for the probe flags. Every huge value is at least 1e18, so a
# sample count from it fails at once instead of allocating.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0, math.nan, math.inf, -math.inf]
    + [1e18, 1e19, 1e300, sys.float_info.max, -sys.float_info.max]
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(EDGE_FLOATS, st.floats(-1.0, 50.0)),
    st.one_of(EDGE_FLOATS, st.floats(-1e5, 1e5), st.floats(40.0, 4096.0)),
    st.one_of(EDGE_FLOATS, st.floats(-0.5, 4.0)),
    st.integers(1, 50),
)
def test_approx_float_flags_exit_0_1_or_2_with_finite_csvs(f0, fs, duration, terms):
    # a sample count in [1e5, 1e18] could really be allocated; smaller ones
    # are cheap and larger ones fail at once
    count = fs * duration
    assume(not (math.isfinite(count) and 1e5 <= round(count) <= 1e18))
    argv = ["approx", f"--f0={f0!r}", f"--fs={fs!r}", f"--duration={duration!r}"]
    code, _ = run_checked(argv + [f"--terms={terms}"])
    assert code != 2  # every flag is a repr float or an int, so parsing never fails


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["dif", "avg"]),
    st.integers(0, 16),
    st.integers(-2, 64),
    # proto's probe lasts 1 s: at most 1e5 samples, or a count that cannot be allocated
    st.one_of(EDGE_FLOATS, st.floats(-1e5, 1e5), st.floats(40.0, 4096.0)),
)
@example(kind="avg", depth=16, avg_len=64, fs=1e5)
@example(kind="dif", depth=16, avg_len=-2, fs=41.0)
def test_proto_flags_exit_0_1_or_2_with_finite_csvs(kind, depth, avg_len, fs):
    argv = ["proto", f"--kind={kind}", f"--depth={depth}", f"--avg-len={avg_len}"]
    run_checked(argv + [f"--fs={fs!r}"])


@settings(max_examples=30, deadline=None)
@given(st.one_of(EDGE_FLOATS, st.floats(-100.0, 100.0)))
@example(hr=1e-300)
def test_heart_demo_flags_exit_0_1_or_2_with_finite_csvs(hr):
    run_checked(["heart-demo", f"--hr={hr!r}"])


@settings(max_examples=60, deadline=None)
@given(*[st.one_of(EDGE_FLOATS, st.floats(-10.0, 10.0))] * 2)
@example(w0=0.0, w1=1e300)  # finite per-sample DCs whose per-class spread overflows
def test_zero_train_kernel_exits_0_1_or_2_with_finite_csvs(w0, w1):
    run_checked(["zero-train", f"--kernel={w0!r},{w1!r}"])


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(-10, 10**5), st.sampled_from([0, -1, 10**18, 10**20])))
@example(n=10**5)
def test_coeffs_n_exits_0_or_1_within_a_few_mb(n):
    """Counts up to 1e5 print; 0, negative and unallocatable counts exit 1 at once."""
    cli._build_parser()  # built once per process; not part of the invocation
    tracemalloc.start()
    try:
        code, err = run_checked(["coeffs", f"--n={n}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == (0 if 1 <= n <= 10**5 else 1)
    # numpy counts an allocation the system refused as traced memory
    assert peak < 4 * 2**20 or err.startswith("error: MemoryError: Unable to allocate")


SEEDS = st.one_of(st.integers(-(2**63), 2**64), st.sampled_from([-1, 0, 2**31 - 1, 2**63]))


def assert_seed_outcome(seed, code, err):
    """A seed >= 0 runs; a negative one exits 1 with a message that names the flag."""
    if seed < 0:
        assert code == 1 and err.startswith("error: ValueError: --seed ")
    else:
        assert code == 0


@settings(max_examples=30, deadline=None)
@given(SEEDS)
@example(seed=-1)
def test_zero_train_seed_exits_0_or_names_the_flag(seed):
    assert_seed_outcome(seed, *run_checked(["zero-train", f"--seed={seed}"]))


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.integers(1, 2), st.integers(0, 2))
@example(seed=-1, reps=1, epochs=0)
def test_train_compare_seed_exits_0_or_names_the_flag(seed, reps, epochs):
    argv = ["train-compare", f"--seed={seed}", f"--reps={reps}", f"--epochs={epochs}"]
    assert_seed_outcome(seed, *run_checked(argv))


class TestCoeffs:
    def test_prints_table_values(self, capsys):
        assert run(["coeffs", "--n", "8"]) == 0
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert values == [
            1.0,
            0.5,
            -0.125,
            0.0625,
            -0.0390625,
            0.02734375,
            -0.0205078125,
            0.01611328125,
        ]


class TestApprox:
    def test_writes_artifacts_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run(["approx", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("rrmse ")
        for name in (
            "approx_time.csv",
            "approx_spectrum.csv",
            "convergence.json",
            "manifest.json",
        ):
            assert (out / name).exists()
        convergence = json.loads(read(out / "convergence.json"))
        assert convergence["max_abs_g"] == pytest.approx(7.0, abs=1e-9)
        assert convergence["fraction_violating"] > 0.0
        assert convergence["valid"] is False
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "approx"
        assert manifest["full_config"]["taylor"] == {"n_terms": 50}
        assert manifest["full_config"]["prescale"] == 1e-4
        assert manifest["full_config"]["rrmse_definition"]
        assert manifest["results"]["rrmse"] == float(printed.split()[1])
        time_lines = read(out / "approx_time.csv").decode().strip().split("\n")
        assert time_lines[0] == "t,x,relu_x,approx"
        assert len(time_lines) == 1025

    def test_approximate_relu_returns_what_approx_records(self, tmp_path, capsys):
        """The report of approx's probe is convergence.json and its keys of the results."""
        assert run(["approx", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads(read(tmp_path / "manifest.json"))
        probe = ProbeSpec(**manifest["full_config"]["probe"])
        n_terms = manifest["full_config"]["taylor"]["n_terms"]
        _, report = relufreq.approximate_relu(
            probe.tones, probe.sample_rate, probe.duration, n_terms
        )
        assert report == json.loads(read(tmp_path / "convergence.json"))
        assert report == {key: manifest["results"][key] for key in report}
        assert set(manifest["results"]) == {"rrmse", *report}

    def test_overflowing_sample_count_names_the_fields(self, tmp_path, capsys):
        """duration * sample_rate = inf once raised numpy's raw OverflowError."""
        assert run(["approx", "--fs", "1e200", "--duration", "1e200", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: ValueError: duration * sample_rate must be finite, got 1e+200 * 1e+200\n"
        )
        assert not list(tmp_path.iterdir())

    def test_small_config_spectrum_columns(self, tmp_path):
        out = tmp_path / "b"
        assert (
            run(
                [
                    "approx",
                    "--f0",
                    "2",
                    "--harmonics",
                    "1",
                    "--fs",
                    "64",
                    "--terms",
                    "10",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = read(out / "approx_spectrum.csv").decode().strip().split("\n")
        assert lines[0] == "f,x_mag,relu_mag,approx_mag"
        assert len(lines) == 1 + 33  # bins 0..N/2 for N=64

    def test_aliased_harmonic_count_allocates_nothing_per_harmonic(self, tmp_path, capsys):
        cli._build_parser()  # built once per process; not part of the invocation
        tracemalloc.start()
        try:
            code = run(["approx", "--harmonics", "100000", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: AliasingError: ")
        assert peak < 2**20


class TestProto:
    def test_dif_outputs(self, tmp_path):
        out = tmp_path / "dif"
        assert run(["proto", "--kind", "dif", "--out", str(out)]) == 0
        spectra = read(out / "layer_spectra.csv").decode().strip().split("\n")
        assert spectra[0] == "f," + ",".join(f"layer_{i}" for i in range(9))
        occupancy = read(out / "occupancy.csv").decode().strip().split("\n")
        assert occupancy[0] == "layer,occupancy"
        assert len(occupancy) == 10
        manifest = json.loads(read(out / "manifest.json"))
        occ = manifest["results"]["occupancy_per_layer"]
        assert occ[-1] > 5.0 * occ[0]

    def test_avg_reports_energy_above_null(self, tmp_path):
        out = tmp_path / "avg"
        assert run(["proto", "--kind", "avg", "--depth", "4", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["full_config"]["stack"]["kind"] == "moving_average"
        fractions = manifest["results"]["energy_above_first_null_per_layer"]
        assert fractions[-1] < 0.05

    def test_kind_required(self, capsys):
        assert run(["proto"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fs", ["1e308", "2e18", "9.223372036854775808e18"])
    def test_a_grid_too_large_for_an_array_names_duration_and_rate(self, fs, tmp_path, capsys):
        """numpy's unnamed size errors once exited here; np.arange(2**63) returned an empty grid."""
        assert run(["proto", "--kind", "avg", "--fs", fs, "--out", str(tmp_path)]) == 1
        message = f"duration 1.0 s at sample_rate {float(fs)} Hz has too many samples"
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not list(tmp_path.iterdir())


class TestHeartDemo:
    def test_writes_long_format_spectra(self, tmp_path):
        out = tmp_path / "h"
        assert run(["heart-demo", "--out", str(out)]) == 0
        lines = read(out / "heart_spectra.csv").decode().strip().split("\n")
        assert lines[0] == "layer,f,magnitude"
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["results"]["layer_sample_rates_hz"] == [64.0, 32.0, 16.0, 8.0]
        # heart tones survive every pooled layer's Nyquist
        assert manifest["full_config"]["probe"]["f0"] == 1.2


def csv_columns(path):
    """Header name -> float column of a written CSV (17 digits read back exactly)."""
    header, *rows = read(path).decode().strip().split("\n")
    cells = np.array([[float(v) for v in row.split(",")] for row in rows])
    return dict(zip(header.split(","), cells.T))


@pytest.mark.parametrize(
    "argv",
    [
        ["approx"],
        ["approx", "--harmonics", "1", "--fs", "2048"],
        ["proto", "--kind", "dif"],
        ["proto", "--kind", "avg"],
        ["heart-demo", "--hr", "2.0"],
    ],
)
def test_manifest_probe_and_stack_rebuild_what_ran(argv, tmp_path, monkeypatch, capsys):
    """ProbeSpec(**probe) gives the written input bit for bit; stack is the stack that ran."""
    stacks = []
    run_prototype = cli.run_prototype

    def recording_run_prototype(stack, x):
        stacks.append(stack)
        return run_prototype(stack, x)

    monkeypatch.setattr(cli, "run_prototype", recording_run_prototype)
    assert run(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = json.loads(read(tmp_path / "manifest.json"))["full_config"]
    x = ProbeSpec(**config["probe"]).signal()
    if argv[0] == "approx":
        assert config["taylor"] == {"n_terms": 50}
        written, expected = csv_columns(tmp_path / "approx_time.csv")["x"], x.samples
    else:
        (stack,) = stacks
        assert config["stack"] == {
            "kind": stack.kind,
            "depth": stack.depth,
            "kernel": {"taps": stack.kernel.taps.tolist()},
            "pool": None if stack.pool is None else list(stack.pool),
        }
        expected = spectrum(x).one_sided()[1]
        if argv[0] == "proto":
            written = csv_columns(tmp_path / "layer_spectra.csv")["layer_0"]
        else:
            table = csv_columns(tmp_path / "heart_spectra.csv")
            written = table["magnitude"][table["layer"] == 0]
    assert written.tobytes() == expected.tobytes()


class TestTrainCompare:
    def test_small_run_outputs(self, tmp_path):
        out = tmp_path / "tc"
        assert (
            run(
                [
                    "train-compare",
                    "--reps",
                    "1",
                    "--epochs",
                    "2",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        loss = read(out / "loss_curves.csv").decode().strip().split("\n")
        assert loss[0] == "epoch,net,median,q25,q75"
        assert len(loss) == 1 + 3 * 2
        dist = read(out / "distance_curves.csv").decode().strip().split("\n")
        assert dist[0] == "epoch,net,layer,median,q25,q75"
        assert len(dist) == 1 + 3 * 2 * 3
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 3
        assert manifest["full_config"]["adam"]["lr"] == 1e-3
        assert manifest["full_config"]["adam"]["epsilon"] == 1e-8
        assert set(manifest["results"]) == {"relu", "linear", "linear_dc"}

    def test_manifest_round_trips_to_what_trained(self, tmp_path, monkeypatch):
        """The CLI records what it passed; every init, train call and trained set must match it."""
        trained, calls, trainsets = [], [], []
        init_network, train = trainer.init_network, trainer.train

        def recording_init(arch, seed):
            trained.append(arch)
            return init_network(arch, seed)

        def recording_train(net, trainset, epochs, batch_size, seed=0):
            calls.append({"epochs": epochs, "batch_size": batch_size})
            trainsets.append(trainset)
            return train(net, trainset, epochs, batch_size, seed)

        # one worker, so that the calls are recorded in this process
        monkeypatch.setattr(trainer, "_worker_count", lambda n: 1)
        monkeypatch.setattr(trainer, "init_network", recording_init)
        monkeypatch.setattr(trainer, "train", recording_train)
        out = tmp_path / "rt"
        assert run(["train-compare", "--reps", "2", "--epochs", "1", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        config = manifest["full_config"]
        assert config["repetitions"] == 2
        assert len(trained) == 2 * len(config["networks"])
        recorded = {"epochs": config["epochs"], "batch_size": config["batch_size"]}
        assert calls == [recorded] * len(trained)
        rebuilt = []
        for name in config["networks"]:
            fields = dict(config["architectures"][name])
            layers = tuple(ConvLayerSpec(**layer) for layer in fields.pop("conv_layers"))
            rebuilt.append(Architecture(conv_layers=layers, **fields))
        assert trained == rebuilt * 2
        keys = {"conv_layers", "hidden_units", "n_classes", "input_length"}
        assert all(set(config["architectures"][name]) == keys for name in config["networks"])
        assert DatasetSpec(**config["dataset"]) == default_dataset_spec()
        assert config["adam"] == {"lr": 0.001, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-08}
        assert config["dc_levels"] == {"0": 1.0, "1": 2.0, "2": 3.0}
        # every trained set, rebuilt from the manifest alone, bit for bit
        derivation = "PCG64(seed) integer matrix (reps, 7): data, init x3, shuffle x3"
        assert config["seed_derivation"] == derivation
        master = np.random.Generator(np.random.PCG64(manifest["seed"]))
        data_seeds = master.integers(0, 2**31 - 1, (config["repetitions"], 7))[:, 0]
        assert len(trainsets) == len(trained)
        trainsets = iter(trainsets)
        for data_seed in data_seeds:
            plain = sample_dataset(DatasetSpec(**config["dataset"]), int(data_seed))
            offsets = np.array([config["dc_levels"][str(label)] for label in plain.labels])
            for name in config["networks"]:
                want = plain.inputs + offsets[:, None] if name == "linear_dc" else plain.inputs
                got = next(trainsets)
                assert got.inputs.tobytes() == want.tobytes()
                assert np.array_equal(got.labels, plain.labels)

    def test_divergence_exits_1_with_error_name(self, tmp_path, diverging_train, capsys):
        out = tmp_path / "dv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train-compare", "--reps", "1", "--epochs", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: DivergenceError" in err
        assert "epoch 1, batch 2" in err
        assert not list(out.glob("*.csv"))

    def test_divergence_in_a_worker_exits_1_and_leaves_no_process(
        self, tmp_path, diverging_train, monkeypatch, capsys
    ):
        """The forked workers inherit the patched ADAM; the parent reports their error."""
        monkeypatch.setattr(trainer, "_worker_count", lambda n: min(n, 2))
        out = tmp_path / "dvw"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train-compare", "--reps", "2", "--epochs", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: DivergenceError" in err
        assert "epoch 1, batch 2" in err
        assert not list(out.glob("*.csv"))
        assert multiprocessing.active_children() == []

    def test_zero_epochs_report_no_final_loss(self, tmp_path):
        out = tmp_path / "e0"
        assert run(["train-compare", "--reps", "1", "--epochs", "0", "--out", str(out)]) == 0
        results = json.loads(read(out / "manifest.json"))["results"]
        for entry in results.values():
            assert "median_final_loss" not in entry
            assert set(entry) == {"median_final_accuracy", "median_final_conv_distance"}


class TestZeroTrain:
    def test_default_kernel_outputs(self, tmp_path, capsys):
        out = tmp_path / "z"
        assert run(["zero-train", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("accuracy ")
        response = read(out / "response.csv").decode().strip().split("\n")
        assert response[0] == "f,b"
        assert len(response) == 1 + 257
        by_class = read(out / "dc_by_class.csv").decode().strip().split("\n")
        assert by_class[0] == "f_i,dc,class"
        assert len(by_class) == 1 + 300
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["full_config"]["kernel_taps"] == [0.6, 0.4]
        assert manifest["results"]["accuracy"] == 1.0

    def test_seeded_kernel(self, tmp_path):
        out = tmp_path / "zs"
        assert run(["zero-train", "--seed", "5", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["seed"] == 5
        assert manifest["full_config"]["kernel_source"] == "random"
        taps = manifest["full_config"]["kernel_taps"]
        assert all(abs(t) <= math.sqrt(0.5) for t in taps)

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"]], ids=["default", "seed3"])
    def test_zero_train_eval_returns_what_zero_train_records(self, flags, tmp_path, capsys):
        """zero_train_eval's results, on the recorded dataset and kernel, are the manifest's."""
        assert run(["zero-train", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads(read(tmp_path / "manifest.json"))
        config = manifest["full_config"]
        dataset = sample_dataset(DatasetSpec(**config["dataset"]), config["dataset_seed"])
        kernel = relufreq.Kernel(np.array(config["kernel_taps"]))
        _, _, results = relufreq.zero_train_eval(dataset, kernel=kernel)
        assert reference_jsonable(results) == manifest["results"]

    def test_kernel_and_seed_are_exclusive(self, capsys):
        assert run(["zero-train", "--kernel", "0.6,0.4", "--seed", "1"]) == 2
        capsys.readouterr()

    def test_bad_kernel_string_exits_2(self, capsys):
        assert run(["zero-train", "--kernel", "0.6"]) == 2
        capsys.readouterr()

    def test_no_parsed_state_leaks_between_runs(self, tmp_path, capsys):
        assert run(["zero-train", "--kernel", "0.5,0.5", "--out", str(tmp_path / "k")]) == 0
        assert run(["zero-train", "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        config = json.loads(read(tmp_path / "d" / "manifest.json"))["full_config"]
        assert config["kernel_source"] == "default"
        assert config["kernel_taps"] == [0.6, 0.4]


@pytest.fixture
def diverging_train(monkeypatch):
    """Adam at lr=1e305, so every training loss leaves the float range at epoch 1, batch 2."""
    monkeypatch.setitem(trainer.ADAM, "lr", 1e305)


def test_importing_the_cli_loads_no_process_pool():
    """The worker-pool modules load when run_comparison forks, not with the package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, relufreq.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def subparsers():
    """{subcommand: its parser} of the CLI's cached parser."""
    actions = cli._build_parser()._actions
    (action,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coeffs"], "--n"),
        (["approx"], "--harmonics"),
        (["approx"], "--terms"),
        (["proto", "--kind", "dif"], "--depth"),
        (["train-compare"], "--reps"),
        (["train-compare"], "--epochs"),
        (["train-compare"], "--seed"),
        (["zero-train"], "--seed"),
    ],
)
def test_a_flag_below_its_minimum_exits_1_before_any_work(
    argv, flag, tmp_path, monkeypatch, capsys
):
    """run() checks FLAG_MINIMUMS before the subcommand starts, so nothing is drawn or forked."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started for an invalid flag")

    monkeypatch.setitem(subparsers()[argv[0]]._defaults, "func", no_work)
    monkeypatch.setattr(trainer, "sample_dataset", no_work)
    monkeypatch.setattr(cli, "sample_dataset", no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.chdir(tmp_path)
    low = cli.FLAG_MINIMUMS[flag]
    out = [] if argv[0] == "coeffs" else ["--out", str(tmp_path / "bad")]
    assert run([*argv, flag, str(low - 1), *out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: {flag} must be >= {low}, got {low - 1}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_every_integer_flag_has_a_minimum():
    """A new count flag cannot skip run()'s check.

    --avg-len is the one exception: it applies only to --kind avg, so
    make_prototype_stack checks it, and proto --kind dif ignores any value.
    """
    int_flags = {
        action.option_strings[0]: action.dest
        for parser in subparsers().values()
        for action in parser._actions
        if action.type is int
    }
    assert set(int_flags) - set(cli.FLAG_MINIMUMS) == {"--avg-len"}
    # run() reads each value under the flag's name without its dashes
    assert all(int_flags.get(flag) == flag[2:] for flag in cli.FLAG_MINIMUMS)


def test_avg_len_is_checked_only_for_the_moving_average(tmp_path, capsys):
    assert run(["proto", "--kind", "dif", "--avg-len", "-2", "--out", str(tmp_path / "d")]) == 0
    assert run(["proto", "--kind", "avg", "--avg-len", "-2", "--out", str(tmp_path / "a")]) == 1
    assert "avg_len must be an integer >= 1, got -2" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1])
def test_curve_tables_equal_a_per_cell_loop_over_the_records(seed, sequential_repetitions):
    """Each row's median and quartiles equal numpy's on that cell's per-repetition values."""
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 12, 64.0, 1.0)  # batches of 32 and 4 rows
    epochs = 2
    nets = run_comparison(3, seed, epochs=epochs, dataset_spec=spec)
    reps = sequential_repetitions(3, seed, epochs, spec)
    by_net = {name: [rep[name] for rep in reps] for name in nets}

    def cell(values):
        return (np.median(values), np.quantile(values, 0.25), np.quantile(values, 0.75))

    loss_rows, dist_rows = [], []
    for name, recs in by_net.items():
        assert len(recs) == 3
        for epoch in range(1, epochs + 1):
            values = [r.curves["loss"][epoch - 1] for r in recs]
            loss_rows.append((epoch, name, *cell(values)))
        for layer in range(2):
            for epoch in range(0, epochs + 1):
                values = [r.curves["distance"][layer, epoch] for r in recs]
                dist_rows.append((epoch, name, layer, *cell(values)))
        net = nets[name]
        assert net.final_losses.tolist() == [r.curves["loss"][-1] for r in recs]
        assert net.final_conv_distances.tolist() == [
            math.sqrt(sum(d * d for d in r.curves["distance"][:, -1])) for r in recs
        ]

    def as_rows(table):
        header, columns = table
        return header, list(zip(*(np.asarray(column).tolist() for column in columns)))

    assert as_rows(_curve_table(nets, epochs, "loss")) == (
        ["epoch", "net", "median", "q25", "q75"],
        loss_rows,
    )
    assert as_rows(_curve_table(nets, epochs, "distance")) == (
        ["epoch", "net", "layer", "median", "q25", "q75"],
        dist_rows,
    )
    assert {row[0] for row in loss_rows} == {1, 2}
    assert {row[0] for row in dist_rows} == {0, 1, 2}


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


DIGEST_INVOCATIONS = {
    "train-compare-seed0": ["train-compare", "--reps", "2", "--epochs", "2", "--seed", "0"],
    "train-compare-seed1": ["train-compare", "--reps", "2", "--epochs", "2", "--seed", "1"],
    "zero-train-seed0": ["zero-train", "--seed", "0"],
    "approx": ["approx"],
    "proto-dif": ["proto", "--kind", "dif"],
    "proto-avg": ["proto", "--kind", "avg"],
    "heart-demo": ["heart-demo"],
}


def test_every_traced_name_resolves_to_a_package_function(monkeypatch):
    """perfbench's --trace 1 spans wrap each TRACED "<module>.<function>" of relufreq."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its own directory
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    assert bench.TRACED
    for name in bench.TRACED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"relufreq.{module}"), function, None)), name


@pytest.mark.parametrize("argv", DIGEST_INVOCATIONS.values(), ids=list(DIGEST_INVOCATIONS))
def test_artifacts_match_recorded_digests(argv, tmp_path, capsys):
    """Every CSV, and the manifest results, hash to the digests recorded from the seed sources."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[" ".join(argv)]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    results = json.dumps(manifest["results"], sort_keys=True).encode()
    digests = {"manifest.results": hashlib.sha256(results).hexdigest()}
    for name in manifest["output_files"]:
        if name.endswith(".csv"):
            digests[name] = hashlib.sha256(read(tmp_path / name)).hexdigest()
    assert digests == recorded


def reference_jsonable(value):
    """The manifest serializer's former explicit type dispatch: the reference for _render_json."""
    if is_dataclass(value):
        return reference_jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


@pytest.mark.parametrize(
    "argv",
    [
        *DIGEST_INVOCATIONS.values(),
        ["zero-train", "--kernel", "1,-1"],
        ["train-compare", "--reps", "2", "--epochs", "0"],
    ],
    ids=[*DIGEST_INVOCATIONS, "zero-train-kernel", "train-compare-epochs0"],
)
def test_manifest_json_equals_the_reference_serializer(argv, tmp_path, monkeypatch, capsys):
    """The full manifest text, full_config included, as the explicit dispatch renders it.

    The manifest and every JSON file go through _render_json exactly once.
    """
    rendered = []
    render = cli._render_json

    def recording_render(payload):
        rendered.append(payload)
        return render(payload)

    monkeypatch.setattr(cli, "_render_json", recording_render)
    assert run(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (manifest,) = [payload for payload in rendered if "output_files" in payload]
    json_files = [name for name in manifest["output_files"] if name.endswith(".json")]
    assert len(rendered) == 1 + len(json_files)
    reference = reference_jsonable(manifest)
    text = json.dumps(reference, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert read(tmp_path / "manifest.json").decode("utf-8") == text


def test_every_export_is_named_in_the_readme():
    """Each public name of the package (modules and __version__ aside) appears in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    exports = [
        name
        for name, value in vars(relufreq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert "approximate_relu" in exports
    assert [name for name in exports if not re.search(rf"`{name}\b", readme)] == []
