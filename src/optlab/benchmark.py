"""Deterministic optimizer-vs-optimizer benchmark runs.

A run configuration is a JSON document (schema_version 1):

    {
      "schema_version": 1,
      "seed": 42,
      "t_max": 2000,
      "cadence": 50,
      "loss_threshold": 0.5,            # optional
      "out": "results",                  # optional
      "problem": {"name": "rosenbrock", "start": [-1.5, 2.0]},
      "optimizers": [
        {"preset": "adamw", "eta": 3e-3},
        {"preset": "ranger21", "eta": 3e-3, "toggles": {"lookahead": false}}
      ]
    }

Every optimizer run rebuilds the problem from the same seed, so initial
parameters and minibatch draws are identical across optimizers. Runs execute
one after another. Identical configs produce byte-identical CSV at a fixed
BLAS thread count; matrix products may round differently when that count
changes, so across thread counts only some problems (the shipped blobs MLP,
for one) are known to stay byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .engine import (
    Optimizer,
    Ranger21Config,
    StepDiag,
    Toggles,
    adamw_config,
)
from .moments import MomentConfig
from .problems import (
    BlobsMLPProblem,
    QuadraticProblem,
    RosenbrockProblem,
    make_blobs,
    philox,
)
from .schedule import ScheduleSpec
from .tensor import NonFiniteError
from .transforms import ClipConfig

SCHEMA_VERSION = 1

CSV_HEADER = "run,optimizer,step,eta_t,loss,accuracy,clip_ratio,mean_vhat,decay_norm"


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# -- strict typed readers ------------------------------------------------------


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _get_int(mapping: dict, key: str, path: str, default=None, minimum=None):
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _check_float(value, where: str, minimum=None, exclusive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    if minimum is not None:
        if exclusive and not value > minimum:
            raise ConfigError(f"{where}: must be > {minimum}, got {value}")
        if not exclusive and not value >= minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _get_float(mapping: dict, key: str, path: str, default=None, minimum=None, exclusive=False):
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    return _check_float(mapping[key], f"{path}.{key}", minimum, exclusive)


def _get_floats(
    mapping: dict, key: str, path: str, default=None, length=None, minimum=None, exclusive=False
):
    """A non-empty list of finite numbers, of ``length`` entries when given."""
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}.{key}: expected a non-empty list of numbers, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}.{key}: expected {length} numbers, got {len(value)}")
    return tuple(
        _check_float(x, f"{path}.{key}[{i}]", minimum, exclusive) for i, x in enumerate(value)
    )


def _get_str(mapping: dict, key: str, path: str, default=None, choices=None):
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _get_bool(mapping: dict, key: str, path: str, default):
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {value!r}")
    return value


# -- resolved configuration -----------------------------------------------------


@dataclass
class OptimizerSpec:
    label: str
    preset: str
    config: Ranger21Config


@dataclass
class RunConfig:
    seed: int
    t_max: int
    cadence: int
    problem: object
    problem_name: str
    optimizers: list[OptimizerSpec]
    out: str | None = None
    loss_threshold: float | None = None
    warnings: list[str] = field(default_factory=list)


def _parse_problem(blob):
    if not isinstance(blob, dict):
        raise ConfigError("problem: expected an object")
    name = _get_str(blob, "name", "problem", default=...)
    if name == "rosenbrock":
        _check_keys(blob, {"name", "start"}, "problem")
        start = _get_floats(blob, "start", "problem", default=(-1.5, 2.0), length=2)
        return RosenbrockProblem(start=start)
    if name == "quadratic":
        _check_keys(blob, {"name", "spectrum", "start"}, "problem")
        spectrum = _get_floats(
            blob, "spectrum", "problem", default=..., minimum=0.0, exclusive=True
        )
        start = _get_floats(
            blob, "start", "problem", default=(1.0,) * len(spectrum), length=len(spectrum)
        )
        return QuadraticProblem(spectrum=spectrum, start=start)
    if name == "blobs_mlp":
        _check_keys(
            blob,
            {
                "name", "n", "d", "classes", "separation", "data_seed",
                "batch_size", "hidden", "activation", "smoothing",
            },
            "problem",
        )
        n = _get_int(blob, "n", "problem", default=..., minimum=1)
        d = _get_int(blob, "d", "problem", default=..., minimum=1)
        classes = _get_int(blob, "classes", "problem", default=..., minimum=2)
        batch_size = _get_int(blob, "batch_size", "problem", default=..., minimum=1)
        separation = _get_float(blob, "separation", "problem", default=10.0, minimum=0.0)
        data_seed = _get_int(blob, "data_seed", "problem", default=0)
        hidden = blob.get("hidden", [32])
        if not isinstance(hidden, list) or any(
            isinstance(w, bool) or not isinstance(w, int) or w < 1 for w in hidden
        ):
            raise ConfigError("problem.hidden: expected a list of positive integers")
        activation = _get_str(
            blob, "activation", "problem", default="tanh", choices={"tanh", "relu"}
        )
        smoothing = _get_float(blob, "smoothing", "problem", default=0.1, minimum=0.0)
        if smoothing >= 1.0:
            raise ConfigError(f"problem.smoothing: must be < 1, got {smoothing}")
        dataset = make_blobs(data_seed, n, d, classes, separation)
        return BlobsMLPProblem(
            dataset=dataset,
            hidden=tuple(hidden),
            batch_size=batch_size,
            activation=activation,
            alpha=smoothing,
        )
    raise ConfigError(f"problem.name: unknown problem {name!r}")


_ADAMW_KEYS = {"preset", "label", "eta", "weight_decay", "beta1", "beta2", "eps"}
_RANGER_KEYS = _ADAMW_KEYS | {
    "beta0", "tau", "eps_clipping", "k_lookahead", "beta_lookahead",
    "t_warmup", "t_warmdown", "toggles",
}
_TOGGLE_KEYS = {f.name for f in fields(Toggles)}


def _parse_optimizer(blob, index: int, t_max: int) -> OptimizerSpec:
    path = f"optimizers[{index}]"
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: expected an object")
    preset = _get_str(blob, "preset", path, default=..., choices={"adamw", "ranger21"})
    label = _get_str(blob, "label", path, default=preset)
    eta = _get_float(blob, "eta", path, default=3e-3, minimum=0.0, exclusive=True)
    weight_decay = _get_float(blob, "weight_decay", path, default=1e-4, minimum=0.0)
    beta1 = _get_float(blob, "beta1", path, default=0.9, minimum=0.0)
    beta2 = _get_float(blob, "beta2", path, default=0.999, minimum=0.0)
    eps = _get_float(blob, "eps", path, default=1e-8, minimum=0.0, exclusive=True)
    for key, value in (("beta1", beta1), ("beta2", beta2)):
        if value >= 1.0:
            raise ConfigError(f"{path}.{key}: must be in [0, 1), got {value}")

    if preset == "adamw":
        _check_keys(blob, _ADAMW_KEYS, path)
        config = adamw_config(eta, t_max, weight_decay, beta1, beta2, eps)
        return OptimizerSpec(label=label, preset=preset, config=config)

    _check_keys(blob, _RANGER_KEYS, path)
    beta0 = _get_float(blob, "beta0", path, default=0.9, minimum=0.0)
    if beta0 >= 1.0:
        raise ConfigError(f"{path}.beta0: must be in [0, 1), got {beta0}")
    tau = _get_float(blob, "tau", path, default=1e-2, minimum=0.0, exclusive=True)
    eps_clipping = _get_float(blob, "eps_clipping", path, default=1e-3, minimum=0.0, exclusive=True)
    k_lookahead = _get_int(blob, "k_lookahead", path, default=5, minimum=1)
    beta_lookahead = _get_float(blob, "beta_lookahead", path, default=0.5, minimum=0.0)
    if beta_lookahead >= 1.0:
        raise ConfigError(f"{path}.beta_lookahead: must be in [0, 1), got {beta_lookahead}")
    t_warmup = _get_int(blob, "t_warmup", path, default=None, minimum=1)
    t_warmdown = _get_int(blob, "t_warmdown", path, default=None, minimum=1)
    toggles_blob = blob.get("toggles", {})
    if not isinstance(toggles_blob, dict):
        raise ConfigError(f"{path}.toggles: expected an object")
    _check_keys(toggles_blob, _TOGGLE_KEYS, f"{path}.toggles")
    toggles = Toggles(
        **{k: _get_bool(toggles_blob, k, f"{path}.toggles", True) for k in _TOGGLE_KEYS}
    )
    try:
        schedule = ScheduleSpec(eta=eta, t_max=t_max, t_warmup=t_warmup, t_warmdown=t_warmdown)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    config = Ranger21Config(
        schedule=schedule,
        moments=MomentConfig(beta0=beta0, beta1=beta1, beta2=beta2, eps=eps),
        weight_decay=weight_decay,
        clip=ClipConfig(tau=tau, eps=eps_clipping),
        k_lookahead=k_lookahead,
        beta_lookahead=beta_lookahead,
        toggles=toggles,
    )
    return OptimizerSpec(label=label, preset=preset, config=config)


def parse_config(text: str) -> RunConfig:
    """Parse and fully resolve a run configuration, or raise ConfigError."""
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(blob, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(
        blob,
        {
            "schema_version", "seed", "t_max", "cadence", "loss_threshold",
            "out", "problem", "optimizers",
        },
        "top level",
    )
    version = _get_int(blob, "schema_version", "top level", default=...)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    seed = _get_int(blob, "seed", "top level", default=0)
    t_max = _get_int(blob, "t_max", "top level", default=..., minimum=1)
    cadence = _get_int(blob, "cadence", "top level", default=1, minimum=1)
    loss_threshold = _get_float(blob, "loss_threshold", "top level", default=None)
    out = _get_str(blob, "out", "top level", default=None)

    if "problem" not in blob:
        raise ConfigError("top level: missing required key 'problem'")
    problem = _parse_problem(blob["problem"])

    specs_blob = blob.get("optimizers")
    if not isinstance(specs_blob, list) or not specs_blob:
        raise ConfigError("optimizers: expected a non-empty list")
    optimizers = [_parse_optimizer(spec, i, t_max) for i, spec in enumerate(specs_blob)]
    labels = [spec.label for spec in optimizers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"optimizers: labels must be unique, got {labels}")

    warnings = []
    for spec in optimizers:
        sched = spec.config.schedule
        if spec.preset == "ranger21" and sched.phases_overlap:
            warnings.append(
                f"optimizer {spec.label!r}: warm-up ({sched.t_warmup}) plus "
                f"warm-down ({sched.t_warmdown}) exceed t_max ({sched.t_max}); "
                "there will be no flat phase"
            )

    return RunConfig(
        seed=seed,
        t_max=t_max,
        cadence=cadence,
        problem=problem,
        problem_name=problem.name,
        optimizers=optimizers,
        out=out,
        loss_threshold=loss_threshold,
        warnings=warnings,
    )


# -- execution -------------------------------------------------------------------


@dataclass
class RunRecord:
    run: str
    optimizer: str
    step: int
    eta_t: float
    loss: float
    accuracy: float | None
    clip_ratio: float
    mean_vhat: float
    decay_norm: float


@dataclass
class RunSummary:
    optimizer: str
    diverged: bool
    steps_completed: int
    final_loss: float | None
    best_loss: float | None
    final_accuracy: float | None
    steps_to_threshold: int | None


@dataclass
class BenchmarkResult:
    run_id: str
    records: list[RunRecord]
    summaries: list[RunSummary]

    @property
    def all_diverged(self) -> bool:
        return all(s.diverged for s in self.summaries)


def run_benchmark(config: RunConfig) -> BenchmarkResult:
    """Run every optimizer spec on the shared seeded problem."""
    run_id = f"{config.problem_name}-s{config.seed}"
    record_steps = set(range(config.cadence, config.t_max + 1, config.cadence))
    record_steps.add(config.t_max)

    records: list[RunRecord] = []
    summaries: list[RunSummary] = []
    for spec in config.optimizers:
        problem = config.problem
        init_rng = philox((config.seed, 0))
        batch_rng = philox((config.seed, 1))
        params = problem.init_params(init_rng)
        opt = Optimizer(params, spec.config, preset=spec.preset)

        run_records: list[RunRecord] = []
        diverged = False
        steps_completed = 0
        for t in range(1, config.t_max + 1):
            batch = problem.sample_batch(batch_rng)
            captured: list[StepDiag] = []
            observer = captured.append if t in record_steps else None
            try:
                # a diverging run legitimately produces inf/nan on its way
                # out; let them propagate silently and catch the rejection
                with np.errstate(all="ignore"):
                    loss, grads = problem.evaluate(opt.params, batch)
                    if not math.isfinite(loss):
                        diverged = True
                        break
                    opt.step(grads, observer=observer)
            except NonFiniteError:
                diverged = True
                break
            steps_completed = t
            if t in record_steps:
                full_loss, accuracy = problem.metrics(opt.params)
                if not math.isfinite(full_loss):
                    diverged = True
                    break
                diag = captured[0]
                run_records.append(
                    RunRecord(
                        run=run_id,
                        optimizer=spec.label,
                        step=t,
                        eta_t=diag.eta_t,
                        loss=full_loss,
                        accuracy=accuracy,
                        clip_ratio=diag.clip_ratio,
                        mean_vhat=diag.mean_vhat,
                        decay_norm=diag.decay_norm,
                    )
                )

        losses = [r.loss for r in run_records]
        steps_to_threshold = None
        if config.loss_threshold is not None:
            for r in run_records:
                if r.loss <= config.loss_threshold:
                    steps_to_threshold = r.step
                    break
        summaries.append(
            RunSummary(
                optimizer=spec.label,
                diverged=diverged,
                steps_completed=steps_completed,
                final_loss=losses[-1] if losses else None,
                best_loss=min(losses) if losses else None,
                final_accuracy=run_records[-1].accuracy if run_records else None,
                steps_to_threshold=steps_to_threshold,
            )
        )
        records.extend(run_records)

    return BenchmarkResult(run_id=run_id, records=records, summaries=summaries)


# -- CSV ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(records: list[RunRecord], path: str | Path) -> None:
    """Write records sorted by (optimizer, step); floats use shortest
    round-trip decimal form, so identical records give identical bytes."""
    rows = sorted(records, key=lambda r: (r.optimizer, r.step))
    lines = [CSV_HEADER]
    for r in rows:
        accuracy = "" if r.accuracy is None else _fmt(r.accuracy)
        lines.append(
            f"{r.run},{r.optimizer},{r.step},{_fmt(r.eta_t)},{_fmt(r.loss)},"
            f"{accuracy},{_fmt(r.clip_ratio)},{_fmt(r.mean_vhat)},{_fmt(r.decay_norm)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_records(path: str | Path) -> list[RunRecord]:
    """Inverse of emit_csv: reproduces the emitted records exactly."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    records = []
    for line in lines[1:]:
        run, optimizer, step, eta_t, loss, accuracy, clip_ratio, mean_vhat, decay_norm = (
            line.split(",")
        )
        records.append(
            RunRecord(
                run=run,
                optimizer=optimizer,
                step=int(step),
                eta_t=float(eta_t),
                loss=float(loss),
                accuracy=None if accuracy == "" else float(accuracy),
                clip_ratio=float(clip_ratio),
                mean_vhat=float(mean_vhat),
                decay_norm=float(decay_norm),
            )
        )
    return records


def summary_text(result: BenchmarkResult) -> str:
    lines = [f"run {result.run_id}"]
    for s in result.summaries:
        parts = [f"  {s.optimizer}:"]
        if s.diverged:
            parts.append(f"DIVERGED after {s.steps_completed} steps")
        if s.final_loss is not None:
            parts.append(f"final loss {s.final_loss:.6g}")
            parts.append(f"best {s.best_loss:.6g}")
        if s.final_accuracy is not None:
            parts.append(f"accuracy {s.final_accuracy:.4f}")
        if s.steps_to_threshold is not None:
            parts.append(f"reached threshold at step {s.steps_to_threshold}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
