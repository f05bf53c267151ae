"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import costs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from check import ArtifactChecker, fingerprint, key_of, load_digests  # noqa: E402
from spans import Span, Tracer, covered, self_times, totals  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, model_steps  # noqa: E402


def _span(name, start, end, parent):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    rows = totals(spans)
    assert rows["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert rows["a.inner"]["self_s"] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("c", 1.0, 4.0, 0), _span("c", 3.0, 5.0, 0)]
    assert self_times(spans)[0] == 6.0
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_tracer_records_nesting_and_restores_every_alias():
    mod = types.ModuleType("fake")
    other = types.ModuleType("fake_caller")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    other.inner = inner  # a second module that imported the same function
    tracer = Tracer({"inner": lambda x: x})
    with tracer.installed({"inner": inner, "outer": outer}, [mod, other]):
        assert other.inner is not inner
        assert mod.outer(3) == 8
    assert mod.inner is inner and other.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.detail) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, 3)]
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert own[0] + own[1] == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule


def test_percentile_interpolates():
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert stats.percentile(list(range(101)), 90) == 90.0
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert not stats.supported(99, 90)
    assert stats.supported(100, 90)
    assert not stats.supported(999, 99)
    assert stats.supported(1000, 99)


def test_invocation_percentiles_only_with_a_hundred_invocations():
    few = [run.Unit(1.0, 1.0, 0, [0.01] * 99)]
    many = [run.Unit(1.0, 1.0, 0, [0.01] * 100)]
    assert "invocation_s_p90" not in run.reported_only(few, 99, 0)
    assert "invocation_s_p50" not in run.reported_only(few, 99, 0)
    out = run.reported_only(many, 100, 1)
    assert out["invocation_s_p50"][2] == 100
    assert out["invocation_s_p90"][0] == pytest.approx(0.01)
    assert out["failed_ops"][0] == 0.01
    assert "model_steps_per_s" not in out


def test_model_steps_come_from_flags():
    argv = WORKLOADS["train_compare"].unit_at(DEFAULT_SEED, 0)[0]
    assert model_steps(argv) == 2 * 3 * 50 * 29
    assert model_steps(["approx"]) == 0
    units = [run.Unit(2.0, 2.0, 8700, [2.0]), run.Unit(2.0, 2.0, 8700, [2.0])]
    assert run.reported_only(units, 2, 0)["model_steps_per_s"][0] == 8700 / 2.0


# ---------------------------------------------------------------------------
# artifact checks


def _artifact(tmp_path, rows="0,1.5\n1,2.5\n"):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "data.csv").write_text("f,value\n" + rows)
    manifest = {"output_files": ["data.csv"], "results": {"x": 1.0}, "full_config": {}}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def test_digest_check_fails_on_corrupted_artifact(tmp_path):
    out = _artifact(tmp_path)
    checker = ArtifactChecker({"cmd": fingerprint(str(out))}, require_recorded=True)
    assert checker.check(["cmd"], str(out), 0) is None
    (out / "data.csv").write_text("f,value\n0,1.5\n1,2.6\n")
    problem = ArtifactChecker(checker.recorded, True).check(["cmd"], str(out), 0)
    assert problem == "data.csv differ from the recorded digest"


def test_check_compares_repeats_within_a_run(tmp_path):
    out = _artifact(tmp_path)
    checker = ArtifactChecker({}, require_recorded=False)
    assert checker.check(["cmd"], str(out), 0) is None
    _artifact(tmp_path, rows="0,1.5\n")
    assert checker.check(["cmd"], str(out), 0) == "data.csv differ from the earlier run"
    assert ArtifactChecker({}, True).check(["cmd"], str(out), 0) == (
        "no digest recorded for this invocation"
    )


def test_check_rejects_exit_code_nonfinite_and_missing_files(tmp_path):
    checker = ArtifactChecker({}, require_recorded=False)
    out = _artifact(tmp_path)
    assert checker.check(["cmd"], str(out), 1) == "exit code 1"
    _artifact(tmp_path, rows="0,nan\n")
    assert "NaN or infinite" in checker.check(["a"], str(out), 0)
    _artifact(tmp_path, rows="0,-inf\n")
    assert "NaN or infinite" in checker.check(["b"], str(out), 0)
    (out / "data.csv").unlink()
    assert "missing" in checker.check(["c"], str(out), 0)
    (out / "manifest.json").write_text("{not json")
    assert "unreadable" in checker.check(["d"], str(out), 0)


def test_every_default_seed_invocation_has_a_digest():
    digests = load_digests(run.DIGESTS)
    for workload in WORKLOADS.values():
        argvs = list(workload.warmup(DEFAULT_SEED))
        for index in range(2 * workload.cycle):
            argvs.extend(workload.unit_at(DEFAULT_SEED, index))
        for argv in argvs:
            assert key_of(argv) in digests, argv


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, "src", "relufreq")), reason="no sources")
def test_recorded_digests_match_the_program(tmp_path):
    relufreq = run.import_relufreq(os.path.join(ROOT, "src"))
    assert relufreq is not None
    checker = ArtifactChecker(load_digests(run.DIGESTS), require_recorded=True)
    for argv in (["heart-demo"], ["zero-train", "--seed", "1"]):
        out = str(tmp_path / argv[0])
        code = relufreq.cli.run(argv + ["--out", out])
        assert checker.check(argv, out, code) is None


# ---------------------------------------------------------------------------
# computed costs and the metric contract


def test_costs_from_shapes():
    conv1, conv2, head = costs.layer_costs(costs.COMPARISON, 32)
    assert conv1["forward_flops"] == 2 * 32 * 64 * 8 * 1 * 5
    assert conv2["forward_flops"] == 2 * 32 * 64 * 8 * 8 * 5
    assert head["forward_flops"] == 2 * 32 * (8 * 16 + 16 * 3)
    assert conv2["forward_bytes"] == 8 * (32 * 8 * 64 + 8 * 8 * 5 + 8 + 32 * 8 * 64)
    for row in (conv1, conv2, head):
        assert row["backward_flops"] == 2 * row["forward_flops"]


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, "src", "relufreq")), reason="no sources")
def test_cost_shapes_match_the_trained_networks():
    relufreq = run.import_relufreq(os.path.join(ROOT, "src"))
    trainer = relufreq.trainer
    arch = trainer._comparison_architecture(trainer.RELU, trainer.default_dataset_spec())
    assert costs.layer_costs(arch, 32) == costs.layer_costs(costs.COMPARISON, 32)


def test_benchmark_json_matches_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    unit = run.Unit(1.0, 1.0, 0, [1.0])
    e2e = run.end_to_end([unit], [0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in e2e.items()}
    layers = run.per_layer(Tracer(), [unit], [unit], 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[1] for k, v in layers.items()}
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
