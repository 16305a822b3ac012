"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Golden values (steps-to-threshold, loss margins, CSV bytes)
were produced by the deterministic experiment runs in this repository and
are frozen below.
"""

import dataclasses
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from optlab import (
    MomentConfig,
    MomentState,
    Optimizer,
    ParamTensor,
    ScheduleSpec,
    Toggles,
    default_config,
    gradient_centralize,
    lookahead_sync,
    lr_factor,
    pnm_update,
)
from optlab.benchmark import parse_config, run_benchmark
from optlab.problems import BlobsMLPProblem, RosenbrockProblem, philox
from optlab.transforms import ClipConfig

from conftest import adaptive_gradient_clip, host_class_note
from oracles import (
    adamw_scalar_trajectory,
    finite_diff_grad,
    mean_all_but_first,
    pnm_scalar,
    row_norms,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

# golden values fixed by the build-time oracle runs (seeded, deterministic)
GOLDEN_ADAMW_ROSENBROCK_STEPS = 4824  # first step with f <= f0 / 1e4
GOLDEN_DEEP_MLP_ADAMW_MEDIAN = 0.8921  # stuck near-constant high loss
GOLDEN_DEEP_MLP_RANGER_MEDIAN = 0.3744


def report(n, name, ok, detail=""):
    print(f"\nACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def scalar(x, name="x"):
    return ParamTensor(name, (1,), [x])


def test_criterion_01_adamw_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    theta0 = 0.8
    grads = [float(g) for g in rng.uniform(-3, 3, size=100)]

    opt = Optimizer.adamw([scalar(theta0)], eta=1e-3, weight_decay=1e-4)
    trajectory = [opt.step([scalar(g)])[0].values[0] for g in grads]
    expected = adamw_scalar_trajectory(theta0, grads, eta=1e-3, weight_decay=1e-4)

    err = max(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(trajectory, expected))
    elapsed = time.perf_counter() - start
    report(
        1, "adamw oracle equivalence",
        err < 1e-12 and elapsed < 1.0,
        f"(max rel err {err:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_02_ranger21_reduction_to_adamw():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        theta0 = float(rng.uniform(-2, 2))
        grads = [float(g) for g in rng.uniform(-3, 3, size=100)]

        reduced = Optimizer(
            [scalar(theta0)],
            default_config(1e-3, t_max=200, toggles=Toggles.none()),
            preset="ranger21",
        )
        reference = Optimizer.adamw([scalar(theta0)], eta=1e-3)
        for g in grads:
            a = reduced.step([scalar(g)])[0].values[0]
            b = reference.step([scalar(g)])[0].values[0]
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    elapsed = time.perf_counter() - start
    report(
        2, "ranger21 reduces to adamw",
        worst < 1e-12 and elapsed < 1.0,
        f"(max rel err {worst:.2e} over 10 seeds x 100 steps, {elapsed:.2f}s)",
    )


def test_criterion_03_schedule_conformance():
    start = time.perf_counter()
    spec = ScheduleSpec(eta=1e-3, t_max=10000, t_warmup=2200, t_warmdown=2800)
    beta2 = 0.999
    points = {1: 5e-4, 2000: 1.0, 5000: 1.0, 8600: 0.5, 10000: 0.0}
    point_ok = all(abs(lr_factor(t, spec, beta2) - v) <= 1e-15 for t, v in points.items())

    curve = [lr_factor(t, spec, beta2) for t in range(1, 10001)]
    rise_end = curve.index(1.0)
    fall_start_t = spec.t_max - spec.t_warmdown
    shape_ok = (
        all(b > a for a, b in zip(curve[:rise_end], curve[1 : rise_end + 1]))
        and all(c == 1.0 for c in curve[rise_end:fall_start_t])
        and all(b < a for a, b in zip(curve[fall_start_t:], curve[fall_start_t + 1 :]))
    )
    linear_ok = True
    for seg in (curve[: rise_end + 1], curve[rise_end:fall_start_t], curve[fall_start_t - 1 :]):
        for a, b, c in zip(seg, seg[1:], seg[2:]):
            if abs(a - 2 * b + c) > 1e-15:
                linear_ok = False
    elapsed = time.perf_counter() - start
    report(
        3, "schedule conformance",
        point_ok and shape_ok and linear_ok and elapsed < 1.0,
        f"(points={point_ok} shape={shape_ok} linear={linear_ok}, {elapsed:.2f}s)",
    )


def test_criterion_04_transform_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    cfg = ClipConfig()
    checked = 0
    ok = True
    for _ in range(1000):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(s) for s in rng.integers(1, 5, size=rank))
        n = int(np.prod(shape))
        g = ParamTensor("g", shape, 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n))
        theta = ParamTensor("g", shape, 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n))

        clipped = adaptive_gradient_clip(g.array, theta.array, cfg)
        limits = np.maximum(row_norms(theta.array), cfg.eps)
        if not np.all(row_norms(clipped) / limits <= cfg.tau * (1 + 1e-12)):
            ok = False
        rows = g.array.reshape(shape[0], -1) if rank > 1 else g.values[:, None]
        rows_out = (
            clipped.reshape(shape[0], -1) if rank > 1 else clipped[:, None]
        )
        for r_in, r_out in zip(rows, rows_out):
            n1, n2 = np.linalg.norm(r_in), np.linalg.norm(r_out)
            if n1 > 0 and n2 > 0 and abs(np.dot(r_in, r_out) / (n1 * n2) - 1.0) > 1e-12:
                ok = False
        twice = adaptive_gradient_clip(clipped, theta.array, cfg)
        if not np.allclose(twice, clipped, rtol=1e-15, atol=0):
            ok = False

        centered = gradient_centralize(g.array)
        if rank >= 2:
            scale = max(1.0, float(np.max(np.abs(g.values))))
            if np.any(np.abs(mean_all_but_first(centered)) > 1e-12 * scale):
                ok = False
            again = gradient_centralize(centered)
            if not np.allclose(again, centered, rtol=1e-13, atol=1e-13 * scale):
                ok = False
        elif not np.array_equal(centered, g.values):
            ok = False
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        4, "transform invariant suite",
        ok and checked == 1000 and elapsed < 10.0,
        f"({checked} tensors, {elapsed:.1f}s)",
    )


def test_criterion_05_pnm_scalar_conformance():
    start = time.perf_counter()
    u, _, _ = pnm_update(MomentState.zeros(1), scalar(1.0).values, 1, MomentConfig())
    u_example = u[0]
    hand = 3.61 / (math.sqrt(4.42) * (1.0 + 1e-8))
    example_ok = abs(u_example - hand) < 1e-9

    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        grads = [float(g) for g in rng.uniform(-5, 5, size=50)]
        expected_us, expected_vhats = pnm_scalar(grads)
        state = MomentState.zeros(1)
        for t, g in enumerate(grads, start=1):
            u, v_hat, state = pnm_update(state, scalar(g).values, t, MomentConfig())
            worst = max(worst, abs(u[0] - expected_us[t - 1]) / max(abs(expected_us[t - 1]), 1e-300))
            worst = max(worst, abs(v_hat[0] - expected_vhats[t - 1]) / max(expected_vhats[t - 1], 1e-300))
    elapsed = time.perf_counter() - start
    report(
        5, "pnm scalar conformance",
        example_ok and worst < 1e-12 and elapsed < 1.0,
        f"(u={u_example:.6f} vs hand {hand:.6f}, max rel err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_06_gradient_correctness():
    start = time.perf_counter()
    problems = [
        ("rosenbrock", RosenbrockProblem(), 0.5),
        ("quadratic-ish blobs 2-layer", BlobsMLPProblem(
            data_seed=6, n=16, d=4, classes=3, separation=3.0, hidden=(6,), batch_size=16
        ), 0.2),
        ("8-layer mlp", BlobsMLPProblem(
            data_seed=6, n=12, d=4, classes=3, separation=3.0, hidden=(6,) * 7, batch_size=12
        ), 0.2),
    ]
    from optlab.problems import QuadraticProblem

    problems.insert(1, ("quadratic", QuadraticProblem(spectrum=(1.0, 30.0, 900.0), start=(1.0, -1.0, 0.5)), 0.5))

    ok = True
    for idx, (name, problem, spread) in enumerate(problems):
        rng = philox((606, idx))
        base = problem.init_params(philox((606, idx, 1)))
        for _ in range(20):
            params = [
                p.with_values(p.values + spread * rng.standard_normal(p.size))
                for p in base
            ]
            _, grads = problem.evaluate(params)

            def f(ps):
                return problem.evaluate(ps)[0]

            fd = finite_diff_grad(f, params)
            for g, g_fd in zip(grads, fd):
                if not np.allclose(g.values, g_fd.values, rtol=1e-5, atol=1e-8):
                    ok = False
    elapsed = time.perf_counter() - start
    report(6, "gradient correctness", ok and elapsed < 30.0, f"({elapsed:.1f}s)")


def _rosenbrock_run(preset, t_max=20000, eta=3e-3, **overrides):
    problem = RosenbrockProblem()
    params = problem.init_params(None)
    f0 = problem.evaluate(params)[0]
    target = f0 / 1e4
    if preset == "adamw":
        opt = Optimizer.adamw(params, eta=eta)
    else:
        opt = Optimizer.ranger21(params, eta=eta, t_max=t_max, **overrides)
    hit = None
    best = f0
    for t in range(1, t_max + 1):
        _, grads = problem.evaluate(opt.params)
        opt.step(grads)
        f = problem.evaluate(opt.params)[0]
        best = min(best, f)
        if hit is None and f <= target:
            hit = t
    return hit, best, f0


def test_criterion_07_rosenbrock_convergence_proxy():
    start = time.perf_counter()
    adamw_hit, adamw_best, f0 = _rosenbrock_run("adamw")
    ranger_hit, ranger_best, _ = _rosenbrock_run("ranger21")
    elapsed = time.perf_counter() - start
    adamw_ok = adamw_hit == GOLDEN_ADAMW_ROSENBROCK_STEPS and adamw_best <= f0 / 1e4
    ranger_ok = ranger_hit is not None and ranger_best <= f0 / 1e4
    golden_note = (
        "" if adamw_hit == GOLDEN_ADAMW_ROSENBROCK_STEPS
        else f"; adamw hit is not the golden {GOLDEN_ADAMW_ROSENBROCK_STEPS}, {host_class_note()}"
    )
    report(
        7, "rosenbrock convergence proxy",
        adamw_ok and ranger_ok and elapsed < 10.0,
        f"(adamw hit={adamw_hit} best={adamw_best:.2e}; "
        f"ranger21 hit={ranger_hit} best={ranger_best:.2e}, reduction {f0 / ranger_best:.1f}x; "
        f"{elapsed:.1f}s{golden_note})",
    )


def test_rosenbrock_without_pnm_meets_criterion_7_target():
    """Criterion 7's run with only positive-negative momentum off reaches the
    1e4x reduction. With any other single component off it does not, so the
    miss comes from PNM's two-buffer momentum as arXiv 2103.17182 defines it."""
    hit, best, f0 = _rosenbrock_run("ranger21", toggles=Toggles(pnm=False))
    assert hit == 10344, f"hit at step {hit}, pinned 10344; {host_class_note()}"
    assert best <= f0 / 1e4


def _train_blobs(preset, seed, blobs, hidden, steps, batch_size, eta=3e-3):
    problem = BlobsMLPProblem(**blobs, hidden=hidden, batch_size=batch_size)
    params = problem.init_params(philox((seed, 0)))
    batch_rng = philox((seed, 1))
    if preset == "adamw":
        opt = Optimizer.adamw(params, eta=eta)
    else:
        opt = Optimizer.ranger21(params, eta=eta, t_max=steps)
    for _ in range(steps):
        batch = problem.sample_batch(batch_rng)
        _, grads = problem.evaluate(opt.params, batch)
        opt.step(grads)
    return problem.metrics(opt.params)


def test_criterion_08_classification_proxy():
    start = time.perf_counter()
    blobs = {"n": 2000, "d": 20, "classes": 4, "separation": 10.0}
    results = {}
    for preset in ("adamw", "ranger21"):
        accs = [
            _train_blobs(preset, seed, blobs, hidden=(32,), steps=2000, batch_size=128)[1]
            for seed in range(5)
        ]
        results[preset] = accs
    elapsed = time.perf_counter() - start
    ok = all(a >= 0.95 for accs in results.values() for a in accs)
    report(
        8, "classification proxy",
        ok and elapsed < 60.0,
        f"(adamw min {min(results['adamw']):.3f}, "
        f"ranger21 min {min(results['ranger21']):.3f}, {elapsed:.1f}s)",
    )


def test_criterion_09_deep_unnormalized_proxy():
    start = time.perf_counter()
    blobs = {"n": 2000, "d": 20, "classes": 4, "separation": 8.0}
    hidden = (16,) * 15
    medians = {}
    for preset in ("adamw", "ranger21"):
        losses = [
            _train_blobs(preset, seed, blobs, hidden=hidden, steps=1500, batch_size=128)[0]
            for seed in range(5)
        ]
        medians[preset] = statistics.median(losses)
    elapsed = time.perf_counter() - start
    margin = medians["adamw"] - medians["ranger21"]
    golden_margin = GOLDEN_DEEP_MLP_ADAMW_MEDIAN - GOLDEN_DEEP_MLP_RANGER_MEDIAN
    ok = (
        medians["ranger21"] < medians["adamw"]
        and abs(margin - golden_margin) < 0.1
        and elapsed < 120.0
    )
    report(
        9, "deep unnormalized proxy",
        ok,
        f"(median loss adamw {medians['adamw']:.4f} vs ranger21 "
        f"{medians['ranger21']:.4f}, margin {margin:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    for name in ("rosenbrock", "blobs_mlp", "deep_mlp", "schedule_curve"):
        config = parse_config((CONFIGS / f"{name}.json").read_text())
        result = run_benchmark(config)
        from optlab.benchmark import emit_csv

        fresh = tmp_path / f"{name}.csv"
        emit_csv(result.records, fresh)
        golden = (CONFIGS / "golden" / f"{name}.csv").read_bytes()
        same = fresh.read_bytes() == golden
        ok = ok and same
        details.append(f"{name}={'ok' if same else 'MISMATCH'}")

    # parallelism independence: rerun one config in a subprocess with a
    # different BLAS/OpenMP thread count
    env = dict(os.environ, OMP_NUM_THREADS="3", OPENBLAS_NUM_THREADS="3")
    out = tmp_path / "threads"
    proc = subprocess.run(
        [sys.executable, "-m", "optlab.cli", "run", str(CONFIGS / "blobs_mlp.json"),
         "--out", str(out), "--quiet"],
        env=env, cwd=REPO, capture_output=True, text=True,
    )
    threads_same = (
        proc.returncode == 0
        and (out / "records.csv").read_bytes() == (CONFIGS / "golden" / "blobs_mlp.csv").read_bytes()
    )
    ok = ok and threads_same
    details.append(f"threads={'ok' if threads_same else 'MISMATCH'}")
    elapsed = time.perf_counter() - start
    if not ok:
        details.append(host_class_note())
    report(10, "determinism", ok and elapsed < 60.0, f"({', '.join(details)}, {elapsed:.1f}s)")


def test_host_class_note_names_this_host_and_the_goldens():
    """The golden tests' failure messages name the host class: numpy's SIMD
    features, the OpenBLAS core and its thread count, beside the goldens'."""
    note = host_class_note()
    assert re.fullmatch(
        r"host class: numpy SIMD [^;]+; OpenBLAS [^;]+; \S+ BLAS threads; "
        r"goldens recorded on: numpy SIMD [^;]+; OpenBLAS \S+", note
    ), note


def test_criterion_11_lookahead_conformance():
    start = time.perf_counter()
    params, slow = lookahead_sync(scalar(1.0).values, np.array([0.0]), t=5, k=5, beta_la=0.5)
    example_ok = params[0] == 0.5 and slow[0] == 0.5
    params, slow = lookahead_sync(scalar(1.0).values, np.array([0.25]), t=5, k=5, beta_la=0.0)
    endpoint_ok = params[0] == 1.0 and slow[0] == 1.0

    rng = np.random.default_rng(1111)
    grads = [float(g) for g in rng.uniform(-2, 2, size=40)]

    def run(k):
        toggles = dataclasses.replace(Toggles(), lookahead=False)
        opt = Optimizer.ranger21(
            [scalar(0.9)], eta=3e-3, t_max=40, k_lookahead=k, toggles=toggles
        )
        for g in grads:
            opt.step([scalar(g)])
        return opt.params[0].values[0]

    independent_ok = len({run(k) for k in (2, 3, 5, 11, 40)}) == 1
    elapsed = time.perf_counter() - start
    report(
        11, "lookahead conformance",
        example_ok and endpoint_ok and independent_ok and elapsed < 1.0,
        f"(example={example_ok} endpoint={endpoint_ok} k-independent={independent_ok}, {elapsed:.2f}s)",
    )
