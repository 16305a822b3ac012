"""optlab benchmark: bench-run throughput, step latency and checkpoint cost.

Run from the repository root:

    python3 perfbench/run.py --workload deep_mlp --seed 0 --seconds 20 --trace 0

It drives optlab's public API the way a user does and times each call from
outside: ``parse_config`` -> ``run_benchmark`` -> ``emit_csv`` (what
``bench run`` does), a training loop of ``sample_batch`` / ``evaluate`` /
``Optimizer.step``, and ``Optimizer.save`` / ``Optimizer.load``. The process
is single-threaded, with BLAS limited to one thread through the environment
of this process only; nothing system-wide is pinned, dropped or tuned.

Workloads (``--workload``):

* ``rosenbrock``: ``configs/rosenbrock.json`` and ``configs/schedule_curve.json``.
  One 2-element tensor, so a step is almost all fixed per-call overhead.
* ``deep_mlp``: ``configs/deep_mlp.json``, a 16-layer MLP of 32 small tensors.
* ``wide_mlp``: ``perfbench/wide_mlp.json``, a blobs MLP of 6 large tensors
  (83,460 elements) where evaluate is about half of a step.

``--seed 0`` runs the configs as shipped, and their ``records.csv`` must be
byte-identical to the golden CSV beside the config. Any other seed replaces
the config seed (and the dataset seed, or the Rosenbrock start point) with
values derived from it; its ``records.csv`` digest is printed, must repeat
within the run, and the timed training steps must reproduce its records.

With ``--trace 0`` the last line reports the end-to-end metrics. Set-up
time, the step p50s and the checkpoint p50 are scaled to a reference host
speed (see ``measure``); the line before it also gives them unscaled, with
the step p90 and the highest percentile with ten samples beyond it. With
``--trace 1`` one bench run is repeated under ``tracing.Tracer`` and the last
line reports the per-layer metrics listed in ``perfbench/layers.json``,
unscaled. The line before the result describes the machine, the sample
counts and the record digests.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()  # setup time includes the imports below

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

WORKLOADS = {
    "rosenbrock": ("configs/rosenbrock.json", "configs/schedule_curve.json"),
    "deep_mlp": ("configs/deep_mlp.json",),
    "wide_mlp": ("perfbench/wide_mlp.json",),
}
DEFAULT_SEED = 0

# Shares of --seconds for each kind of work. Each kind also has a minimum
# count that it completes even when its share has run out.
BENCH_RUN_SHARE = 0.40
STEP_SHARE = 0.45
CHECKPOINT_SHARE = 0.15

SETUP_PROBES = 5
# Reference speed: timings are scaled as if the reference loop took this long.
REFERENCE_NS = 500_000
REFERENCE_CALLS = 20
# Loop timings within this many seconds of a unit of work set its scale.
REFERENCE_WINDOW_S = 1.0
REFERENCE_SEED = 20210626
MIN_STEP_SAMPLES = 500
STEP_CHUNK_S = 0.25
# Steps at the start of each chunk that are run but not timed.
CHUNK_WARMUP_STEPS = 1
CHECKPOINT_WARM_STEPS = 5
MIN_CHECKPOINT_ROUNDS = 10
RESUME_STEPS = 2
TRACE_CHECKPOINT_ROUNDS = 2
PROBE_TIMEOUT_S = 60


class Mismatch(Exception):
    """An output of the program differs from its reference."""


@dataclass
class Case:
    """One run configuration of a workload, as parsed for this seed."""

    name: str
    config: object
    golden: bytes | None


@dataclass
class Checks:
    """Counts attempted and failed units of checked work, and keeps each
    config's first records.csv digest and records to check later runs by."""

    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    references: dict[str, dict] = field(default_factory=dict)

    def attempt(self, label: str, fn, *args):
        """Run fn; an exception or a Mismatch counts as one failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - any failure of the code under test is counted
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None


# -- inputs ------------------------------------------------------------------


def seeded_config(blob: dict, seed: int) -> str:
    """The config text for this workload seed; seed 0 leaves it as shipped."""
    if seed != DEFAULT_SEED:
        blob = json.loads(json.dumps(blob))
        blob["seed"] = seed
        problem = blob["problem"]
        if problem["name"] == "blobs_mlp":
            problem["data_seed"] = seed
        else:
            rng = np.random.Generator(np.random.Philox(seed))
            x1, x2 = rng.uniform(-0.5, 0.5, size=2)
            problem["start"] = [-1.5 + float(x1), 2.0 + float(x2)]
    return json.dumps(blob)


def load_cases(workload: str, seed: int) -> list[Case]:
    cases = []
    for rel in WORKLOADS[workload]:
        path = ROOT / rel
        text = seeded_config(json.loads(path.read_text()), seed)
        golden = None
        if seed == DEFAULT_SEED:
            golden = (path.parent / "golden" / f"{path.stem}.csv").read_bytes()
        cases.append(Case(path.stem, bm.parse_config(text), golden))
    return cases


def new_optimizer(config, spec):
    """A fresh optimizer and batch generator, seeded as ``run_benchmark`` does."""
    params = config.problem.init_params(philox((config.seed, 0)))
    return Optimizer(params, spec.config, preset=spec.preset), philox((config.seed, 1))


def setup(workload: str, seed: int) -> list[Case]:
    """Config parse, dataset and problem build, and optimizer construction."""
    cases = load_cases(workload, seed)
    for case in cases:
        for spec in case.config.optimizers:
            new_optimizer(case.config, spec)
    return cases


# -- phase 1: bench run ------------------------------------------------------


def bench_run(checks: Checks, case: Case, workdir: Path) -> tuple[int, float]:
    """One ``run_benchmark`` + ``emit_csv`` of a config, timed and checked."""
    path = workdir / f"{case.name}.csv"
    t0 = time.perf_counter()
    result = bm.run_benchmark(case.config)
    bm.emit_csv(result.records, path)
    seconds = time.perf_counter() - t0

    diverged = [s.optimizer for s in result.summaries if s.diverged]
    if diverged:
        raise Mismatch(f"{case.name}: unexpected divergence of {diverged}")
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if case.golden is not None and data != case.golden:
        raise Mismatch(f"{case.name}: records.csv differs from its golden CSV")
    first = checks.digests.setdefault(case.name, digest)
    if digest != first:
        raise Mismatch(f"{case.name}: records.csv digest {digest} != {first} of the first run")
    checks.references.setdefault(case.name, {(r.optimizer, r.step): r for r in result.records})
    return sum(s.steps_completed for s in result.summaries), seconds


def bench_run_all(checks: Checks, cases: list[Case], workdir: Path) -> float | None:
    """Runs every config once; steps per second over all of them."""
    steps, seconds = 0, 0.0
    for case in cases:
        out = checks.attempt(f"bench run {case.name}", bench_run, checks, case, workdir)
        if out is None:
            return None
        steps += out[0]
        seconds += out[1]
    return steps / seconds


# -- step latency ---------------------------------------------------------------


class StepSampler:
    """Times the training steps of one preset, a chunk at a time.

    Steps continue one pass of the config from a fresh optimizer; when the
    pass reaches t_max the next step starts a new pass. In the first pass
    the records at cadence steps must equal the bench run's records.
    """

    def __init__(self, checks: Checks, case: Case, spec) -> None:
        self.checks = checks
        self.case = case
        self.spec = spec
        self.opt = None
        self.batch_rng = None
        self.passes = 0
        config = case.config
        self.record_steps = set(range(config.cadence, config.t_max + 1, config.cadence))
        self.record_steps.add(config.t_max)

    def chunk(self, seconds: float) -> list[int]:
        """Steps for about `seconds`; the ns each timed step took."""
        config = self.case.config
        problem = config.problem
        reference = self.checks.references.get(self.case.name)
        if reference is None:
            raise Mismatch(f"{self.case.name}: no bench-run records to check against")
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        times = []
        done = 0
        while done <= CHUNK_WARMUP_STEPS or time.perf_counter_ns() < deadline:
            if self.opt is None or self.opt.t == config.t_max:
                self.opt, self.batch_rng = new_optimizer(config, self.spec)
                self.passes += 1
            opt = self.opt
            t = opt.t + 1
            captured = []
            checked = self.passes == 1 and t in self.record_steps
            observer = captured.append if checked else None
            t0 = time.perf_counter_ns()
            batch = problem.sample_batch(self.batch_rng)
            loss, grads = problem.evaluate(opt.params, batch)
            opt.step(grads, observer=observer)
            elapsed = time.perf_counter_ns() - t0
            done += 1
            if done > CHUNK_WARMUP_STEPS:
                times.append(elapsed)
            if not math.isfinite(loss):
                raise Mismatch(f"{self.spec.label}: non-finite loss at step {t}")
            if observer is not None:
                self._check_record(t, captured[0], reference)
        return times

    def _check_record(self, t: int, diag, reference: dict) -> None:
        full_loss, accuracy = self.case.config.problem.metrics(self.opt.params)
        record = bm.RunRecord(
            run=next(iter(reference.values())).run,
            optimizer=self.spec.label,
            step=t,
            eta_t=diag.eta_t,
            loss=full_loss,
            accuracy=accuracy,
            clip_ratio=diag.clip_ratio,
            mean_vhat=diag.mean_vhat,
            decay_norm=diag.decay_norm,
        )
        if record != reference.get((self.spec.label, t)):
            raise Mismatch(f"{self.spec.label}: step {t} record differs from the bench run")


# -- checkpoint round trips -------------------------------------------------------


@dataclass
class CheckpointSlot:
    """A live optimizer for one preset, replaced by its reload every round."""

    case: Case
    spec: object
    workdir: Path
    opt: object = None
    batch_rng: object = None
    saves: int = 0

    def advance(self, opts) -> None:
        problem = self.case.config.problem
        batch = problem.sample_batch(self.batch_rng)
        for opt in opts:
            _, grads = problem.evaluate(opt.params, batch)
            opt.step(grads)

    def round_trip(self) -> tuple[int, int]:
        """One save + load, in ns, and the checkpoint size in bytes.

        The reload must reproduce ``to_checkpoint()`` exactly, and stepping
        it must match stepping the optimizer it was saved from, bit for bit.
        Each save goes to a new file, deleted after the load: rewriting one
        file would time the file system's flush of the truncated old copy.
        """
        if self.opt is None or self.opt.t + RESUME_STEPS > self.case.config.t_max:
            self.opt, self.batch_rng = new_optimizer(self.case.config, self.spec)
            for _ in range(CHECKPOINT_WARM_STEPS):
                self.advance([self.opt])
        before = self.opt.to_checkpoint()
        self.saves += 1
        path = self.workdir / f"checkpoint-{self.spec.label}-{self.saves}.json"
        t0 = time.perf_counter_ns()
        self.opt.save(path)
        loaded = Optimizer.load(path)
        elapsed = time.perf_counter_ns() - t0
        size = path.stat().st_size
        path.unlink()
        if loaded.to_checkpoint() != before:
            raise Mismatch(f"{self.spec.label}: reloaded checkpoint differs from the saved state")
        for _ in range(RESUME_STEPS):
            self.advance([self.opt, loaded])
        if loaded.to_checkpoint() != self.opt.to_checkpoint():
            raise Mismatch(f"{self.spec.label}: resumed steps differ from uninterrupted steps")
        self.opt = loaded
        return elapsed, size


# -- reporting ----------------------------------------------------------------


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_info() -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            name = f"L{level}" if kind == "Unified" else f"L{level} {(kind or '').lower()}"
            caches[name] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "system_tuning": "none: no CPU pinning, cache dropping or frequency tuning; "
        "BLAS threads are limited in this process's environment only",
    }


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def tail_percentiles(samples: list[int]) -> dict[str, float]:
    """p90 and the highest whole percentile (up to p99) with at least ten
    samples beyond it, in microseconds."""
    top = min(99, math.floor(100 * (1 - 10 / len(samples))))
    return {f"p{q}": percentile(samples, q) / 1e3 for q in sorted({90, top})}


def emit(checks: Checks, metrics: dict, units: dict, info: dict) -> None:
    info = {
        **info,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / max(checks.attempted, 1),
        "records_sha256": checks.digests,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0 and checks.attempted > 0,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed if checks.attempted else 1,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


# -- the two kinds of run ------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, imports included."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class ReferenceLoop:
    """Fixed numpy and Python work, none of it optlab's, timed between units
    of measured work to track how fast the host runs at that moment."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.Philox(REFERENCE_SEED))
        self.x = rng.standard_normal((128, 32))
        self.weights = [rng.standard_normal((32, 32)) / 6.0 for _ in range(8)]
        self.v = rng.standard_normal(1 << 16)
        self.samples: list[tuple[float, float]] = []

    def _once(self) -> float:
        a = self.x
        for w in self.weights:
            a = np.tanh(a @ w)
        total = sum(float(row.max()) for row in a[:64])
        return total + float((self.v * 0.999 + 0.001).sum())

    def sample(self) -> None:
        """Times REFERENCE_CALLS loops and keeps (when, median ns)."""
        times = []
        for _ in range(REFERENCE_CALLS):
            t0 = time.perf_counter_ns()
            self._once()
            times.append(time.perf_counter_ns() - t0)
        self.samples.append((time.perf_counter(), statistics.median(times)))

    def timed(self, fn, *args):
        """fn(*args) and the (start, end) it ran in; samples the loop after."""
        if not self.samples:
            self.sample()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.sample()
        return out, (t0, t1)

    def factor(self, span: tuple[float, float]) -> float:
        """REFERENCE_NS over the loop's median time near `span`."""
        near = [
            ns for when, ns in self.samples
            if span[0] - REFERENCE_WINDOW_S <= when <= span[1] + REFERENCE_WINDOW_S
        ]
        return REFERENCE_NS / statistics.median(near)


def measure(args, checks: Checks, workdir: Path) -> tuple[dict, dict]:
    """End-to-end metrics.

    A shared host's speed drifts by tens of percent over tens of seconds.
    So bench runs, step chunks and checkpoint round trips are interleaved
    over the whole run, and the set-up, step p50 and checkpoint timings are
    scaled to reference speed by the ``ReferenceLoop`` timings taken around
    them. The unscaled figures are reported beside the metrics.
    """
    cases = setup(args.workload, args.seed)
    ref = ReferenceLoop()
    presets = [spec.preset for spec in cases[0].config.optimizers]
    raw = {key: [] for key in ("setup_s", "steps_per_s", "checkpoint_ns", *presets)}
    units = []  # (key, values, span) of every unit of timed work

    def record(key: str, values, span) -> None:
        raw[key].extend(values)
        units.append((key, values, span))

    for _ in range(SETUP_PROBES):
        seconds, span = ref.timed(
            checks.attempt, "setup probe", probe_setup, args.workload, args.seed
        )
        if seconds is not None:
            record("setup_s", [seconds], span)

    primary = cases[0]
    samplers = [StepSampler(checks, primary, spec) for spec in primary.config.optimizers]
    slot_cycle = itertools.cycle(
        [CheckpointSlot(primary, spec, workdir) for spec in primary.config.optimizers]
    )

    def bench() -> None:
        rate, span = ref.timed(bench_run_all, checks, cases, workdir)
        if rate is not None:
            record("steps_per_s", [rate], span)

    def steps() -> None:
        # Presets short of their minimum sample count go first.
        short = [s for s in samplers if len(raw[s.spec.preset]) < MIN_STEP_SAMPLES]
        for sampler in short or samplers:
            times, span = ref.timed(
                checks.attempt, f"steps {sampler.spec.label}", sampler.chunk, STEP_CHUNK_S
            )
            if times is not None:
                record(sampler.spec.preset, times, span)

    def checkpoint_rounds() -> list[int]:
        times = []
        deadline = time.perf_counter() + STEP_CHUNK_S
        while not times or time.perf_counter() < deadline:
            slot = next(slot_cycle)
            out = checks.attempt(f"checkpoint {slot.spec.label}", slot.round_trip)
            if out is None:
                break
            times.append(out[0])
        return times

    def checkpoint() -> None:
        times, span = ref.timed(checkpoint_rounds)
        record("checkpoint_ns", times, span)

    # (work, share of --seconds, minimum count reached). The bench run goes
    # first because step chunks check against its records.
    activities = [
        (bench, BENCH_RUN_SHARE, lambda: len(raw["steps_per_s"]) >= 1),
        (steps, STEP_SHARE, lambda: all(len(raw[p]) >= MIN_STEP_SAMPLES for p in presets)),
        (checkpoint, CHECKPOINT_SHARE, lambda: len(raw["checkpoint_ns"]) >= MIN_CHECKPOINT_ROUNDS),
    ]
    # Each kind of work runs until it has its minimum count and its share of
    # --seconds; the one furthest behind its share goes next.
    spent = [0.0] * len(activities)
    while checks.failed == 0:
        todo = [
            i for i, (_, share, counted) in enumerate(activities)
            if not (counted() and spent[i] >= share * args.seconds)
        ]
        if not todo:
            break
        i = min(todo, key=lambda i: spent[i] / activities[i][1])
        t0 = time.perf_counter()
        activities[i][0]()
        spent[i] += time.perf_counter() - t0

    def summarize(values: dict) -> dict:
        out = {}
        if values["setup_s"]:
            out["setup_s"] = statistics.median(values["setup_s"])
        if values["steps_per_s"]:
            out["steps_per_s"] = statistics.median(values["steps_per_s"])
        for preset in presets:
            if values[preset]:
                out[f"step_us_p50.{preset}"] = percentile(values[preset], 50) / 1e3
        if values["checkpoint_ns"]:
            out["checkpoint_ms_p50"] = statistics.median(values["checkpoint_ns"]) / 1e6
        return out

    scaled = {key: [] for key in raw}
    for key, values, span in units:
        # A bench run can last tens of seconds, too long for the loop
        # timings at its ends to stand for it, so its rate is not scaled.
        factor = 1.0 if key == "steps_per_s" else ref.factor(span)
        scaled[key].extend(v * factor for v in values)
    metrics = summarize(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["pass_ratio"] = 1.0 - checks.failed / max(checks.attempted, 1)
    counts = {
        "setup_probes": len(raw["setup_s"]),
        "bench_runs": len(raw["steps_per_s"]),
        "step_samples": {p: len(raw[p]) for p in presets},
        "checkpoint_rounds": len(raw["checkpoint_ns"]),
        "seconds": {"bench_run": spent[0], "steps": spent[1], "checkpoint": spent[2]},
        "reference_loop_us": {
            "median": statistics.median(ns for _, ns in ref.samples) / 1e3,
            "min": min(ns for _, ns in ref.samples) / 1e3,
            "max": max(ns for _, ns in ref.samples) / 1e3,
            "samples": len(ref.samples),
        },
        "unscaled": summarize(raw),
        # Step latency tails, unscaled. They are set by host stalls, and
        # their run-to-run spread is too wide for an end-to-end bound.
        "step_tail_us": {p: tail_percentiles(raw[p]) for p in presets if raw[p]},
    }
    return metrics, counts


def measure_traced(args, checks: Checks, workdir: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one traced bench run and a few traced
    checkpoint round trips; the same bench run untraced gives the overhead."""
    cases = load_cases(args.workload, args.seed)
    problem_cls = type(cases[0].config.problem)

    t0 = time.perf_counter()
    plain = bench_run_all(checks, cases, workdir)
    untraced_s = time.perf_counter() - t0

    run_tracer = tracing.Tracer()
    with run_tracer.installed(problem_cls):
        cases = load_cases(args.workload, args.seed)
        t0 = time.perf_counter()
        traced = bench_run_all(checks, cases, workdir)
        traced_s = time.perf_counter() - t0

    ckpt_tracer = tracing.Tracer()
    slots = [CheckpointSlot(cases[0], spec, workdir) for spec in cases[0].config.optimizers]
    sizes = []
    with ckpt_tracer.installed(problem_cls):
        for _ in range(TRACE_CHECKPOINT_ROUNDS):
            for slot in slots:
                out = checks.attempt(f"checkpoint {slot.spec.label}", slot.round_trip)
                if out is not None:
                    sizes.append(out[1])

    metrics = {}
    if plain is None or traced is None or not sizes:
        return metrics, {}
    table = tracing.SpanTable(run_tracer)
    for preset in LAYERS["presets"]:
        for name, value in tracing.step_metrics(table, preset).items():
            metrics[f"{name}.{preset}"] = value
    metrics.update(tracing.run_metrics(table))
    metrics.update(tracing.checkpoint_metrics(tracing.SpanTable(ckpt_tracer)))
    metrics["engine.checkpoint_bytes"] = float(max(sizes))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    counts = {
        "spans": len(run_tracer.start) + len(ckpt_tracer.start),
        "constructs_per_step_at_seed_commit":
            LAYERS["seed_constructs_per_step"].get(args.workload, {}),
    }
    return metrics, counts


def units_for(trace: bool) -> dict[str, str]:
    if not trace:
        units = {"setup_s": "s", "steps_per_s": "1/s", "checkpoint_ms_p50": "ms",
                 "peak_rss_mb": "MB", "pass_ratio": "ratio"}
        for preset in LAYERS["presets"]:
            units[f"step_us_p50.{preset}"] = "us"
        return units
    units = {}
    for entry in LAYERS["metrics"]:
        if entry["per_preset"]:
            for preset in LAYERS["presets"]:
                units[f"{entry['name']}.{preset}"] = entry["unit"]
        else:
            units[entry["name"]] = entry["unit"]
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.perf_counter() - T_START)
        return 0

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        run = measure_traced if args.trace else measure
        metrics, counts = run(args, checks, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = units_for(bool(args.trace))
    missing = sorted(set(units) - set(metrics))
    if missing and checks.failed == 0:
        checks.failed += 1
        print(f"FAILED: metrics not measured: {missing}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "samples": counts,
    }
    emit(checks, metrics, units, info)
    return 0


def _import_optlab() -> None:
    """Imports optlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "optlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(
            f"error: run from the root of an optlab checkout ({SRC / 'optlab'} not found)"
        )
    sys.path.insert(0, str(SRC))
    import optlab

    if Path(optlab.__file__).resolve().parent != (SRC / "optlab").resolve():
        sys.exit(f"error: imported optlab from {optlab.__file__}, not from {SRC}")


if __name__ == "__main__":
    _import_optlab()
    import numpy as np
    from optlab import benchmark as bm
    from optlab.engine import Optimizer
    from optlab.problems import philox

    import tracing

    LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
    sys.exit(main())
