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

Each problem key sets the problem's field of its name (``smoothing`` sets
``alpha``), and each optimizer key one field of its config, so the problem
and the config parts state every default, kind and range; an optimizer's keys
are gathered by the part they set and each part is built once. A fault is
renamed to the key that set the field (``problem.hidden[0]``,
``optimizers[0].eps_clipping``). Top-level keys are read with the same rule,
``fields.checked_value``.

Every optimizer run rebuilds the problem from the same seed, so initial
parameters and minibatch draws are identical across optimizers. Runs execute
one after another. Identical configs produce byte-identical CSV for one
numpy SIMD level, one OpenBLAS kernel set and one BLAS thread count. numpy's
SIMD level moves ``np.exp``, ``np.log`` and ``np.tanh``, so the MLP problems'
losses; OpenBLAS's kernel set moves gemm and ``ddot``; the thread count
moves ``ddot`` over more than about 8,000 values, which OpenBLAS splits
across threads. The one ``ddot`` is ``SpanRuns.squared_norms``, the decay's
squared norms and the ``decay_norm`` column's, so across thread counts only
problems whose tensors are all smaller (the shipped configs) are known to
stay byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (
    PRESETS,
    Optimizer,
    Ranger21Config,
    StepDiag,
    Toggles,
)
from .fields import built, checked_value, field_kinds
from .problems import BlobsMLPProblem, QuadraticProblem, RosenbrockProblem, philox
from .tensor import NonFiniteError

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# -- typed readers: each raises ValueError naming the field ------------------


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"{path}: unknown key {key!r}")


def _get(mapping: dict, key: str, path: str, kind: str, default=..., **bounds):
    """``mapping[key]`` checked as ``kind`` and against ``bounds`` (see
    ``fields.checked_value``), or ``default`` when the key is absent; a ``...``
    default makes it required."""
    if key not in mapping:
        if default is ...:
            raise ValueError(f"{path}: missing required key {key!r}")
        return default
    return checked_value(kind, mapping[key], f"{path}.{key}", **bounds)


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
    optimizers: list[OptimizerSpec]
    out: str | None = None
    loss_threshold: float | None = None
    warnings: list[str] = field(default_factory=list)


# each problem by its bench name; its bench keys are its init fields, named as
# they are but for these
_PROBLEMS = {cls.name: cls for cls in (RosenbrockProblem, QuadraticProblem, BlobsMLPProblem)}
_PROBLEM_KEYS = {"alpha": "smoothing"}


def _parse_problem(blob):
    """The problem ``blob`` names, built once from its keys; the problem checks
    them, and its faults are renamed to the keys."""
    if not isinstance(blob, dict):
        raise ValueError("problem: expected an object")
    name = _get(blob, "name", "problem", "str")
    if name not in _PROBLEMS:
        raise ValueError(f"problem.name: unknown problem {name!r}")
    cls = _PROBLEMS[name]
    fields = {_PROBLEM_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls) if f.init}
    _check_keys(blob, {"name", *fields}, "problem")
    if cls is QuadraticProblem:  # start defaults to ones, one per spectrum entry
        spectrum = blob.get("spectrum")
        blob = {"start": [1.0] * (len(spectrum) if isinstance(spectrum, list) else 0), **blob}
    kwargs = {}
    for key, f in fields.items():
        if key in blob:
            kwargs[f.name] = blob[key]
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"problem: missing required key {key!r}")
    return built(cls, lambda field: f"problem.{_PROBLEM_KEYS.get(field, field)}", **kwargs)


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
# a config field's path -> the bench key that sets it, and each part's class by field
_KEY_OF = {path: key for key, path in _RANGER_KEYS.items()}
_PARTS = {name: kind for name, kind, _ in field_kinds(Ranger21Config) if isinstance(kind, type)}


def _parse_optimizer(blob, index: int, t_max: int) -> OptimizerSpec:
    """The preset's default config with the keys of ``blob`` set: the keys are
    gathered by the part they set, and each part, then the config, built once."""
    path = f"optimizers[{index}]"
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected an object")
    preset = _get(blob, "preset", path, "str")
    if preset not in PRESETS:
        raise ValueError(f"{path}.preset: expected one of {list(PRESETS)}, got {preset!r}")
    label = _get(blob, "label", path, "str", preset)
    if any(c in ',"\r\n' for c in label):  # a records.csv cell, written unquoted
        raise ValueError(f"{path}.label: must not hold ',', '\"', CR or LF, got {label!r}")
    keys = _ADAMW_KEYS if preset == "adamw" else _RANGER_KEYS
    _check_keys(blob, {"preset", "label", *keys}, path)
    # eta is the one setting the config classes give no default
    parts = {"schedule": {"eta": 3e-3, "t_max": t_max}}
    kwargs = {"toggles": Toggles.none()} if preset == "adamw" else {}
    for key, value in blob.items():
        if key == "toggles":
            if not isinstance(value, dict):
                raise ValueError(f"{path}.toggles: expected an object")
            _check_keys(value, Toggles.__dataclass_fields__.keys(), f"{path}.toggles")
            parts["toggles"] = value
        elif key in keys:
            *part, name = keys[key]
            (parts.setdefault(part[0], {}) if part else kwargs)[name] = value
    for part, values in parts.items():
        rename = lambda field, part=part: f"{path}.{_KEY_OF.get((part, field), f'{part}.{field}')}"
        kwargs[part] = built(_PARTS[part], rename, **values)
    config = built(Ranger21Config, f"{path}.{{}}".format, **kwargs)
    return OptimizerSpec(label=label, preset=preset, config=config)


def parse_config(text: str) -> RunConfig:
    """Parse and fully resolve a run configuration, or raise ConfigError."""
    try:
        blob = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ConfigError(f"not valid JSON: {exc}") from exc
    try:
        return _resolved(blob)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolved(blob) -> RunConfig:
    if not isinstance(blob, dict):
        raise ValueError("top level: expected an object")
    _check_keys(
        blob,
        {
            "schema_version", "seed", "t_max", "cadence", "loss_threshold",
            "out", "problem", "optimizers",
        },
        "top level",
    )
    version = _get(blob, "schema_version", "top level", "int")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    seed = _get(blob, "seed", "top level", "int", 0, ge=0)
    t_max = _get(blob, "t_max", "top level", "int", ge=1)
    cadence = _get(blob, "cadence", "top level", "int", 1, ge=1)
    loss_threshold = _get(blob, "loss_threshold", "top level", "float", None)
    out = _get(blob, "out", "top level", "str", None)

    if "problem" not in blob:
        raise ValueError("top level: missing required key 'problem'")
    problem = _parse_problem(blob["problem"])

    specs_blob = blob.get("optimizers")
    if not isinstance(specs_blob, list) or not specs_blob:
        raise ValueError("optimizers: expected a non-empty list")
    optimizers = [_parse_optimizer(spec, i, t_max) for i, spec in enumerate(specs_blob)]
    labels = [spec.label for spec in optimizers]
    if len(set(labels)) != len(labels):
        raise ValueError(f"optimizers: labels must be unique, got {labels}")

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


# a diverging run legitimately produces inf/nan on its way out; let them
# propagate silently, from the batch draw to the full-data loss
@np.errstate(all="ignore")
def _run_one(config: RunConfig, spec: OptimizerSpec, run_id: str) -> tuple[list, int, bool]:
    """One optimizer's run: its records, the steps it completed and whether it
    diverged, which it does at the first step t with a non-finite batch loss or
    a rejected step (t - 1 completed) or a non-finite full-data loss (t)."""
    problem = config.problem
    batch_rng = philox((config.seed, 1))
    opt = Optimizer(problem.init_params(philox((config.seed, 0))), spec.config, spec.preset)
    records: list[RunRecord] = []
    for t in range(1, config.t_max + 1):
        record = t % config.cadence == 0 or t == config.t_max
        captured: list[StepDiag] = []
        try:
            loss, grads = problem.evaluate(opt.params, problem.sample_batch(batch_rng))
            if not math.isfinite(loss):
                return records, t - 1, True
            opt.step(grads, observer=captured.append if record else None)
        except NonFiniteError:
            return records, t - 1, True
        if record:
            full_loss, accuracy = problem.metrics(opt.params)
            if not math.isfinite(full_loss):
                return records, t, True
            diag = captured[0]
            records.append(
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
    return records, config.t_max, False


def run_benchmark(config: RunConfig) -> BenchmarkResult:
    """Run every optimizer spec on the shared seeded problem."""
    run_id = f"{config.problem.name}-s{config.seed}"

    records: list[RunRecord] = []
    summaries: list[RunSummary] = []
    for spec in config.optimizers:
        run_records, steps_completed, diverged = _run_one(config, spec, run_id)
        losses = [r.loss for r in run_records]
        threshold = config.loss_threshold
        hits = [r.step for r in run_records if threshold is not None and r.loss <= threshold]
        summaries.append(
            RunSummary(
                optimizer=spec.label,
                diverged=diverged,
                steps_completed=steps_completed,
                final_loss=losses[-1] if losses else None,
                best_loss=min(losses) if losses else None,
                final_accuracy=run_records[-1].accuracy if run_records else None,
                steps_to_threshold=hits[0] if hits else None,
            )
        )
        records.extend(run_records)

    return BenchmarkResult(run_id=run_id, records=records, summaries=summaries)


# -- CSV ---------------------------------------------------------------------------


_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRecord))
CSV_HEADER = ",".join(_COLUMNS)
_row = operator.attrgetter(*_COLUMNS)  # a record's cells, without astuple's deep copies


def _cell(x) -> str:
    return repr(float(x)) if isinstance(x, float) else "" if x is None else str(x)


def emit_csv(records: list[RunRecord], path: str | Path) -> None:
    """Write one column per ``RunRecord`` field, records sorted by (optimizer,
    step); floats use shortest round-trip decimal form, so identical records
    give identical bytes."""
    rows = sorted(records, key=lambda r: (r.optimizer, r.step))
    lines = [CSV_HEADER, *(",".join(map(_cell, _row(r))) for r in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
