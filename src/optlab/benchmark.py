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

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (
    Optimizer,
    Ranger21Config,
    StepDiag,
    Toggles,
    adamw_config,
    checked_value,
    default_config,
)
from .problems import (
    BlobsMLPProblem,
    QuadraticProblem,
    RosenbrockProblem,
    make_blobs,
    philox,
)
from .tensor import NonFiniteError

SCHEMA_VERSION = 1

CSV_HEADER = "run,optimizer,step,eta_t,loss,accuracy,clip_ratio,mean_vhat,decay_norm"


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# -- strict typed readers ------------------------------------------------------


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _typed(kind: str, value, where: str):
    """``engine.checked_value``, raising ConfigError."""
    try:
        return checked_value(kind, value, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _get_int(mapping: dict, key: str, path: str, default=None, minimum=None):
    if key not in mapping:
        if default is ...:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    value = _typed("int", mapping[key], f"{path}.{key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _check_float(value, where: str, minimum=None, exclusive=False) -> float:
    value = _typed("float", value, where)
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
        data_seed = _get_int(blob, "data_seed", "problem", default=0, minimum=0)
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
        try:
            return BlobsMLPProblem(
                dataset=make_blobs(data_seed, n, d, classes, separation),
                hidden=tuple(hidden),
                batch_size=batch_size,
                activation=activation,
                alpha=smoothing,
            )
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from exc
    raise ConfigError(f"problem.name: unknown problem {name!r}")


# bench key -> the path of the config field it sets: a field of the config, or a
# field of one of its parts; "toggles" holds one key per ``Toggles`` field
_ADAMW_KEYS = {
    "eta": ("schedule", "eta"),
    "weight_decay": ("weight_decay",),
    "beta1": ("moments", "beta1"),
    "beta2": ("moments", "beta2"),
    "eps": ("moments", "eps"),
}
_RANGER_KEYS = {
    **_ADAMW_KEYS,
    "beta0": ("moments", "beta0"),
    "tau": ("clip", "tau"),
    "eps_clipping": ("clip", "eps"),
    "k_lookahead": ("k_lookahead",),
    "beta_lookahead": ("beta_lookahead",),
    "t_warmup": ("schedule", "t_warmup"),
    "t_warmdown": ("schedule", "t_warmdown"),
    "toggles": ("toggles",),
}


def _with_field(obj, path: tuple[str, ...], value, where: str):
    """``obj`` with the field at ``path`` set to ``value``, which must fit the
    field's annotation and then the ranges of the dataclass that holds it."""
    name, *rest = path
    if rest:
        part = _with_field(getattr(obj, name), rest, value, where)
        return dataclasses.replace(obj, **{name: part})
    value = _typed(obj.__dataclass_fields__[name].type, value, where)
    try:
        return dataclasses.replace(obj, **{name: value})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_optimizer(blob, index: int, t_max: int) -> OptimizerSpec:
    """The preset's default config with each key of ``blob`` applied in turn."""
    path = f"optimizers[{index}]"
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: expected an object")
    preset = _get_str(blob, "preset", path, default=..., choices={"adamw", "ranger21"})
    label = _get_str(blob, "label", path, default=preset)
    keys = _ADAMW_KEYS if preset == "adamw" else _RANGER_KEYS
    make = adamw_config if preset == "adamw" else default_config
    config = make(3e-3, t_max)  # eta is the one setting the config classes give no default
    _check_keys(blob, {"preset", "label", *keys}, path)
    for key, value in blob.items():
        if key == "toggles":
            if not isinstance(value, dict):
                raise ConfigError(f"{path}.toggles: expected an object")
            _check_keys(value, Toggles.__dataclass_fields__.keys(), f"{path}.toggles")
            for name, flag in value.items():
                config = _with_field(config, (*keys[key], name), flag, f"{path}.toggles.{name}")
        elif key in keys:
            config = _with_field(config, keys[key], value, f"{path}.{key}")
    return OptimizerSpec(label=label, preset=preset, config=config)


def parse_config(text: str) -> RunConfig:
    """Parse and fully resolve a run configuration, or raise ConfigError."""
    try:
        blob = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
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
    seed = _get_int(blob, "seed", "top level", default=0, minimum=0)
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
        sched, toggles = spec.config.schedule, spec.config.toggles
        if toggles.warmup and toggles.warmdown and sched.phases_overlap:
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
