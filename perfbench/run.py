"""relufreq benchmark: closed-loop in-process CLI invocations, timed from outside.

Run from the root of a relufreq checkout:

    python3 perfbench/run.py --workload train_compare --seed 0 --seconds 40 --trace 0

It imports ``relufreq.cli`` from ``./src`` and calls ``relufreq.cli.run(argv)``
one invocation after another, checking every artifact each invocation
writes (see check.py). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and reports per-layer
metrics from spans recorded around each public relufreq function. Lines
before the last describe the environment and every metric with its unit and
sample count; the last line is one JSON object with the metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import costs  # noqa: E402
import stats  # noqa: E402
from check import ArtifactChecker, key_of, load_digests  # noqa: E402
from spans import Tracer, totals  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, model_steps  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 11
# One BLAS thread: on the trainer's small gemms two threads gave the same wall
# time on a 2-core machine and twice the CPU time, spent spinning. Outputs do
# not depend on it.
BLAS_THREADS = "1"

# Public functions traced in --trace 1 runs, by "<module>.<function>".
TRACED = (
    "cli.run",
    "cli.emit_csv",
    "cli.emit_manifest",
    "trainer.run_comparison",
    "trainer.init_network",
    "trainer.train",
    "trainer.forward",
    "trainer.backward",
    "trainer.loss_sparse_ce",
    "trainer.adam_step",
    "trainer.weight_distance",
    "trainer.zero_train_eval",
    "multitone.sample_dataset",
    "multitone.synthesize",
    "spectral.spectrum",
    "relu_taylor.approximate_relu",
    "convnets.run_prototype",
    "convnets.fir_response",
)
GEMM_PASSES = {"trainer.forward": "forward", "trainer.backward": "backward"}


# ---------------------------------------------------------------------------
# set-up and environment


def import_relufreq(src: str):
    """Import relufreq and its CLI from ``src``; None, with a message, if that fails."""
    if not os.path.isfile(os.path.join(src, "relufreq", "cli.py")):
        print(f"perfbench: no relufreq sources under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, src)
    import relufreq
    import relufreq.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(relufreq.__file__)) != os.path.join(src, "relufreq"):
        print(f"perfbench: relufreq imported from {relufreq.__file__}, not {src}", file=sys.stderr)
        return None
    return relufreq


class SetupSampler:
    """Times fresh interpreters importing relufreq.cli, spread over a run.

    Set-up time follows the machine's load from moment to moment, so its
    samples are taken between units across the whole run rather than in one
    burst. No timeout is passed to the child: with one, the wait polls in
    sleeps of up to 50 ms, which would quantize the measurement.
    """

    def __init__(self, src: str, count: int):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.count = count
        self.samples: List[float] = []
        self.failed = 0

    def take(self, fraction: float) -> None:
        """Take samples until ``fraction`` of them have been taken."""
        while len(self.samples) + self.failed < min(self.count, math.ceil(fraction * self.count)):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", "import relufreq.cli"],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            elapsed = time.perf_counter() - t0
            if proc.returncode == 0:
                self.samples.append(elapsed)
            else:
                self.failed += 1


def _queried_blas_threads(np) -> Optional[int]:
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_effective": _queried_blas_threads(np),
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Unit:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steps: int = 0
    invocations: List[float] = field(default_factory=list)


class Runner:
    def __init__(self, cli, workload: Workload, seed: int, out_root: str, checker: ArtifactChecker):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_root = out_root
        self.checker = checker
        self.attempted = 0
        self.failures: List[str] = []
        self.csv_bytes = 0

    def invoke(self, argv: List[str], slot: int, tracer: Optional[Tracer] = None):
        out = os.path.join(self.out_root, str(slot))
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        first_span = len(tracer.spans) if tracer else 0
        with redirect_stdout(sink), redirect_stderr(sink):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.cli.run(argv + ["--out", out])
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                code = "uncaught exception"
            t1, c1 = time.perf_counter(), time.process_time()
        self.attempted += 1
        problem = self.checker.check(argv, out, code)
        if problem is not None:
            self.failures.append(f"{key_of(argv)}: {problem}; output: {sink.getvalue()[-300:]!r}")
        if tracer is not None:
            tracer.request += 1
            for span in tracer.spans[first_span:]:
                if span.name == "cli.emit_csv" and os.path.isfile(span.detail):
                    self.csv_bytes += os.path.getsize(span.detail)
        return t1 - t0, c1 - c0

    def unit(self, argvs: List[List[str]], tracer: Optional[Tracer] = None) -> Unit:
        unit = Unit()
        for slot, argv in enumerate(argvs):
            wall, cpu = self.invoke(argv, slot, tracer)
            unit.wall_s += wall
            unit.cpu_s += cpu
            unit.steps += model_steps(argv)
            unit.invocations.append(wall)
        return unit


def run_loop(runner: Runner, seconds: float, traced=None, between=None) -> Dict[bool, List[Unit]]:
    """Repeat units until the next one would overrun ``seconds``.

    With ``traced`` (a function running one unit under tracing), untraced and
    traced units alternate and at least one of each runs. ``between`` is
    called after each unit with the fraction of ``seconds`` used so far.
    """
    units: Dict[bool, List[Unit]] = {False: [], True: []}
    spent: List[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        argvs = runner.workload.unit_at(runner.seed, index)
        t0 = time.perf_counter()
        if traced is not None and index % 2 == 1:
            units[True].append(traced(argvs))
        else:
            units[False].append(runner.unit(argvs))
        spent.append(time.perf_counter() - t0)
        index += 1
        if between is not None:
            between((time.perf_counter() - start) / seconds)
        if traced is not None and index < 2:
            continue
        if time.perf_counter() - start + stats.median(spent) > seconds:
            return units


# ---------------------------------------------------------------------------
# metrics


def end_to_end(units: List[Unit], setup: List[float]) -> Dict[str, tuple]:
    """name -> (value, unit, sample count, how it was summarised)."""
    n = len(units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (stats.median(setup), "s", len(setup), "median fresh-interpreter import"),
        "wall_s": (stats.median([u.wall_s for u in units]), "s", n, "median unit wall time"),
        "cpu_s": (stats.median([u.cpu_s for u in units]), "s", n, "median unit user+system CPU"),
        "peak_rss_mb": (rss_mb, "MB", 1, "benchmark process peak resident set"),
    }


def reported_only(units: List[Unit], attempted: int, failed: int) -> Dict[str, tuple]:
    """End-to-end metrics printed for reading but not gated in BENCHMARK.json."""
    out = {"failed_ops": (failed / attempted, "fraction", attempted, "failed / attempted")}
    steps = sum(u.steps for u in units)
    if steps:
        wall = sum(u.wall_s for u in units)
        out["model_steps_per_s"] = (steps / wall, "1/s", len(units), "steps from flags / wall")
    latencies = [t for u in units for t in u.invocations]
    if stats.supported(len(latencies), 90):
        for q in (50, 90):
            value = stats.percentile(latencies, q)
            out[f"invocation_s_p{q}"] = (value, "s", len(latencies), "per-invocation latency")
    return out


def per_layer(
    tracer: Tracer, traced: List[Unit], untraced: List[Unit], csv_bytes: int
) -> Dict[str, tuple]:
    """Per traced unit: calls and self time of every traced function, and derived counts."""
    n = len(traced)
    rows = totals(tracer.spans)
    out = {}
    for name in TRACED:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / n, "count", n, "per unit")
        out[f"{name}.self_s"] = (row["self_s"] / n, "s", n, "per unit")
    for name, pass_name in GEMM_PASSES.items():
        flops = sum(
            costs.pass_flops(*span.detail)[pass_name] for span in tracer.spans if span.name == name
        )
        self_s = rows.get(name, {}).get("self_s", 0.0)
        rate = flops / self_s / 1e9 if self_s else 0.0
        out[f"{name}.flops"] = (flops / n, "flop", n, "per unit, computed from shapes")
        out[f"{name}.gflop_s"] = (rate, "GFLOP/s", n, "computed flops / self time")
    out["cli.emit_csv.bytes"] = (csv_bytes / n, "B", n, "per unit")
    out["trace_overhead_s"] = (
        stats.median([u.wall_s for u in traced]) - stats.median([u.wall_s for u in untraced]),
        "s",
        min(len(traced), len(untraced)),
        "median traced unit wall - median untraced unit wall",
    )
    return out


def describe(metrics: Dict[str, tuple]) -> None:
    for name, (value, unit, count, how) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count}; {how})")


def print_costs() -> None:
    for row in costs.layer_costs(costs.COMPARISON, costs.BATCH):
        print(
            f"computed {row['layer']} (B={costs.BATCH}): "
            f"forward {row['forward_flops']} flop {row['forward_bytes']} B, "
            f"backward {row['backward_flops']} flop {row['backward_bytes']} B"
        )


def describe_spans(tracer: Tracer) -> None:
    """Self-time share and mean inclusive time per call of every traced layer."""
    rows = totals(tracer.spans)
    whole = sum(r["self_s"] for r in rows.values()) or 1.0
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"span {name}: {row['self_s'] / whole:.1%} of traced self time, "
            f"{row['total_s'] / row['calls'] * 1e3:.4g} ms inclusive per call"
        )


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    relufreq = import_relufreq(src)
    if relufreq is None:
        return 2
    from relufreq import cli, convnets, multitone, relu_taylor, spectral, trainer

    print("env " + json.dumps(environment(), sort_keys=True))
    print_costs()

    workload = WORKLOADS[args.workload]
    checker = ArtifactChecker(load_digests(DIGESTS), require_recorded=args.seed == DEFAULT_SEED)
    out_root = os.path.join(root, OUT_DIR, f"{workload.name}-{os.getpid()}")
    runner = Runner(cli, workload, args.seed, out_root, checker)
    try:
        runner.unit(workload.warmup(args.seed))
        if args.trace == 0:
            setup = SetupSampler(src, SETUP_SAMPLES)
            units = run_loop(runner, args.seconds, between=setup.take)[False]
            setup.take(1.0)
            runner.attempted += setup.count
            runner.failures += ["a fresh interpreter failed to import relufreq.cli"] * setup.failed
            gated = end_to_end(units, setup.samples)
            describe(gated)
            describe(reported_only(units, runner.attempted, len(runner.failures)))
        else:
            modules = {
                m.__name__.split(".")[1]: m
                for m in (cli, convnets, multitone, relu_taylor, spectral, trainer)
            }
            targets = {
                name: getattr(modules[mod], fn) for name in TRACED for mod, fn in [name.split(".")]
            }
            tracer = Tracer(
                {
                    "trainer.forward": lambda net, batch: (net.architecture, len(batch)),
                    "trainer.backward": lambda net, cache, labels: (net.architecture, len(labels)),
                    "cli.emit_csv": lambda path, *rest: path,
                }
            )

            def traced(argvs):
                with tracer.installed(targets, [relufreq, *modules.values()]):
                    return runner.unit(argvs, tracer)

            units = run_loop(runner, args.seconds, traced)
            gated = per_layer(tracer, units[True], units[False], runner.csv_bytes)
            describe(gated)
            describe_spans(tracer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, OUT_DIR))

    failed = len(runner.failures)
    for line in runner.failures[:10]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
