"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from relufreq import (
    Kernel,
    MultiTone,
    band_occupancy,
    dc_model,
    dc_of,
    energy_fraction_above,
    fluctuation_from_samples,
    harmonic_stack,
    init_network,
    mean_power,
    power_fluctuation,
    relu,
    sample_dataset,
    spectrum,
    sqrt1p_series,
    sqrt_taylor_coefficients,
    synthesize,
    zero_train_eval,
)
from relufreq.cli import run
from relufreq.multitone import DatasetSpec
from relufreq.relu_taylor import approximate_relu
from relufreq.convnets import make_prototype_stack, run_prototype
from relufreq.trainer import (
    Architecture,
    ConvLayerSpec,
    backward,
    forward,
    layer_views,
    loss_sparse_ce,
    run_comparison,
)

PROBE = harmonic_stack(5.0, [1.0, 1.0, 1.0, 1.0])


def report(number: int, detail: str) -> None:
    print(f"CRITERION {number}: PASS - {detail}")


def fail(number: int, detail: str) -> None:
    pytest.fail(f"CRITERION {number}: FAIL - {detail}")


def test_c01_coefficient_table(capsys):
    t0 = time.perf_counter()
    coeffs = sqrt_taylor_coefficients(8)
    elapsed = time.perf_counter() - t0
    assert run(["coeffs", "--n", "8"]) == 0
    emitted = [float(line) for line in capsys.readouterr().out.split()]
    printed = [1.0, 0.5, -0.125, 0.0625, -0.039, 0.027, -0.02, 0.016]
    decimals = [3, 3, 3, 4, 3, 3, 2, 3]
    for got, target, nd in zip(emitted, printed, decimals):
        if abs(got - target) > 0.5 * 10.0 ** (-nd):
            fail(1, f"coefficient {got} vs printed {target}")
    assert np.array_equal(coeffs, emitted)
    if elapsed >= 1e-3:
        fail(1, f"computation took {elapsed * 1e3:.3f} ms")
    report(1, f"8 printed values matched; computed in {elapsed * 1e6:.0f} us")


def test_c02_algebraic_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    fs, duration = 256.0, 1.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        freqs = rng.choice(np.arange(1, 101), size=n, replace=False)
        amps = rng.uniform(0.2, 2.0, size=n)
        tones = MultiTone(freqs, amps)
        a = mean_power(tones)
        x = synthesize(tones, fs, duration)
        closed = power_fluctuation(tones, fs, duration)
        assert np.max(np.abs(x.samples**2 - a * (1.0 + closed.samples))) < 1e-9
        sampled = fluctuation_from_samples(x, a)
        assert np.max(np.abs(closed.samples - sampled.samples)) < 1e-10
        y = relu(x)
        assert np.array_equal(relu(y).samples, y.samples)
        assert np.array_equal(y.samples, (x.samples + np.abs(x.samples)) / 2.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"100 random multi-tones passed all identities in {elapsed:.2f} s")


def test_c03_taylor_convergence_points():
    u = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    err = np.abs(sqrt1p_series(u, 50) - np.sqrt(1.0 + u))
    if err.max() >= 1e-3:
        fail(3, f"max error {err.max():.2e}")
    report(3, f"50-term sum within {err.max():.2e} of sqrt(1+u) at all 5 points")


def test_c04_approximation_experiment(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "approx"
    assert run(["approx", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    printed = capsys.readouterr().out
    err = float(printed.split()[1])
    assert elapsed < 10.0
    if abs(err - 0.69) <= 0.15:
        report(4, f"primary target met: rrmse {err:.3f} in 0.69 +/- 0.15")
        return
    # fallback (a): the convergence report must expose the divergent region
    convergence = json.loads((out / "convergence.json").read_text())
    if abs(convergence["max_abs_g"] - 7.0) > 1e-6:
        fail(4, f"max_abs_g {convergence['max_abs_g']} not 7 +/- 1e-6")
    if not convergence["fraction_violating"] > 0.0:
        fail(4, "fraction_violating not positive")
    # fallback (b): median pointwise error non-increasing in the term count
    fs, duration = 1024.0, 1.0
    x = synthesize(PROBE, fs, duration)
    target = relu(x)
    fluct = power_fluctuation(PROBE, fs, duration)
    inside = np.abs(fluct.samples) < 0.99
    medians = []
    for terms in (5, 10, 25, 50):
        approx, _ = approximate_relu(PROBE, fs, duration, terms)
        medians.append(
            float(np.median(np.abs(approx.samples - target.samples)[inside]))
        )
    if any(b > a for a, b in zip(medians, medians[1:])):
        fail(4, f"median errors not monotone: {medians}")
    report(
        4,
        "fallback met: rrmse %.3e outside band, max_abs_g=7, medians %s"
        % (err, ["%.2e" % m for m in medians]),
    )


def test_c05_dc_law():
    f0, fs = 5.0, 1024.0
    expected_ratio = math.sqrt(2.0) * math.pi / 4.0
    for amplitude in (0.5, 1.0, 2.0):
        tone = MultiTone([f0], [amplitude])
        measured = dc_of(relu(synthesize(tone, fs, 1.0)))
        if abs(measured - amplitude / math.pi) > 0.01 * (amplitude / math.pi):
            fail(5, f"dc {measured} vs {amplitude / math.pi} at a={amplitude}")
        ratio = dc_model([amplitude], [1.0]) / measured
        if abs(ratio - expected_ratio) > 0.005:
            fail(5, f"model/measured {ratio} vs {expected_ratio}")
    report(5, f"dc = a/pi within 1% and model ratio {expected_ratio:.4f} +/- 0.005")


def test_c06_bandwidth_dichotomy():
    t0 = time.perf_counter()
    x = synthesize(PROBE, 1024.0, 1.0)
    input_occupancy = band_occupancy(spectrum(x), 0.01)

    dif = make_prototype_stack("differentiator", depth=8)
    dif_layers = run_prototype(dif, x)
    final_occupancy = band_occupancy(spectrum(dif_layers[-1]), 0.01)
    if final_occupancy < 5.0 * input_occupancy:
        fail(6, f"occupancy {final_occupancy} < 5 x {input_occupancy}")

    avg = make_prototype_stack("moving_average", depth=8, avg_len=8)
    avg_layers = run_prototype(avg, x)
    high_fraction = energy_fraction_above(spectrum(avg_layers[-1]), 1024.0 / 8.0)
    if high_fraction >= 0.05:
        fail(6, f"energy above first null {high_fraction} >= 5%")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        6,
        f"dif occupancy {final_occupancy:.3f} = {final_occupancy / input_occupancy:.0f}x input; "
        f"avg high-band energy {high_fraction:.2e} < 5% ({elapsed:.2f} s)",
    )


def test_c07_gradient_correctness():
    t0 = time.perf_counter()
    arch = Architecture(
        (ConvLayerSpec(3, 3, "relu"), ConvLayerSpec(2, 3, "relu")),
        hidden_units=5,
        n_classes=3,
        input_length=16,
    )
    worst = 0.0
    for seed in (0, 1, 2):
        for batch_seed in (10, 11, 12):
            rng = np.random.default_rng(batch_seed)
            net = init_network(arch, seed)
            # evaluate at a generic point: biases off zero so no
            # pre-activation sits exactly on the relu kink
            for layer in layer_views(arch, net.theta):
                layer["b"][...] += rng.random(layer["b"].shape) * 0.2 - 0.1
            x = rng.random((6, 16)) * 2.0 - 1.0
            labels = rng.integers(0, 3, 6)
            _, cache = forward(net, x)
            grads = layer_views(arch, backward(net, cache, labels))
            step = 1e-5
            for li, layer in enumerate(layer_views(arch, net.theta)):
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
    elapsed = time.perf_counter() - t0
    if worst >= 1e-4:
        fail(7, f"max relative error {worst:.2e}")
    assert elapsed < 30.0
    report(7, f"max relative error {worst:.2e} over 3 seeds x 3 batches ({elapsed:.1f} s)")


def one_sided_sign_test(successes: int, trials: int) -> float:
    """P(X >= successes) for X ~ Binomial(trials, 1/2)."""
    return sum(math.comb(trials, k) for k in range(successes, trials + 1)) / 2.0**trials


def test_c08_training_comparison_directions():
    t0 = time.perf_counter()
    reps = 20
    nets = run_comparison(reps, base_seed=0, epochs=50)
    elapsed = time.perf_counter() - t0
    checks = [
        (
            "final loss linear_dc < linear",
            nets["linear_dc"].final_losses,
            nets["linear"].final_losses,
        ),
        (
            "final conv distance relu < linear",
            nets["relu"].final_conv_distances,
            nets["linear"].final_conv_distances,
        ),
        (
            "final conv distance linear_dc < linear",
            nets["linear_dc"].final_conv_distances,
            nets["linear"].final_conv_distances,
        ),
    ]
    details = []
    for label, smaller, larger in checks:
        if not np.median(smaller) < np.median(larger):
            fail(8, f"{label}: medians {np.median(smaller)} vs {np.median(larger)}")
        informative = smaller != larger
        wins = int(np.sum(smaller[informative] < larger[informative]))
        p = one_sided_sign_test(wins, int(informative.sum()))
        if p >= 0.05:
            fail(8, f"{label}: sign test p={p:.3f} with {wins}/{informative.sum()}")
        details.append(f"{label}: {wins}/{informative.sum()} (p={p:.1e})")
    assert elapsed < 900.0
    report(8, "; ".join(details) + f"; {elapsed:.0f} s")


def test_c09_zero_training_classifier():
    t0 = time.perf_counter()
    spec = DatasetSpec((3.0, 5.0, 10.0), 0.1, 100, 64.0, 32.0)
    test_set = sample_dataset(spec, seed=1)
    _, _, result = zero_train_eval(test_set, kernel=Kernel(np.array([0.6, 0.4])))
    d = result["class_mean_dcs"]
    if not (d[0] > d[1] > d[2]):
        fail(9, f"class mean DCs not strictly ordered: {d}")
    _, counts = np.unique(test_set.labels, return_counts=True)
    ses = result["class_std_dcs"] / np.sqrt(counts)
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(d[i] - d[j])
            if gap <= 5.0 * math.hypot(ses[i], ses[j]):
                fail(9, f"classes {i},{j} separated by only {gap / math.hypot(ses[i], ses[j]):.1f} se")
    if result["accuracy"] != 1.0:
        fail(9, f"accuracy {result['accuracy']} != 100%")
    good = 0
    for seed in range(100):
        _, _, r = zero_train_eval(test_set, seed=seed)
        if r["accuracy"] >= 0.9:
            good += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        9,
        f"DCs ordered, separations > 5 se, accuracy 100%; random 2-tap inits "
        f"with >= 90% accuracy: {good}/100 (reported, not gated; {elapsed:.1f} s)",
    )


def test_c10_cli_determinism(tmp_path):
    cases = [
        ["coeffs", "--n", "12"],
        ["approx"],
        ["proto", "--kind", "dif"],
        ["proto", "--kind", "avg"],
        ["heart-demo"],
        ["train-compare", "--reps", "2", "--epochs", "2"],
        ["zero-train"],
    ]
    import io
    from contextlib import redirect_stdout

    for case in cases:
        outputs = []
        for attempt in range(2):
            out_dir = tmp_path / f"{case[0]}_{attempt}"
            argv = list(case)
            if case[0] != "coeffs":
                argv += ["--out", str(out_dir)]
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert run(argv) == 0
            files = {}
            if case[0] != "coeffs":
                for path in sorted(Path(out_dir).iterdir()):
                    files[path.name] = path.read_bytes()
            files["__stdout__"] = buffer.getvalue().encode()
            outputs.append(files)
        if outputs[0].keys() != outputs[1].keys():
            fail(10, f"{case}: differing file sets")
        for name in outputs[0]:
            if outputs[0][name] != outputs[1][name]:
                fail(10, f"{case}: {name} differs between runs")
    report(10, f"{len(cases)} subcommands byte-identical across repeated runs")
