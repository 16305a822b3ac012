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
    checked_call,
    checked_value,
    default_config,
)
from .problems import (
    ACTIVATIONS,
    BlobsMLPProblem,
    QuadraticProblem,
    RosenbrockProblem,
    philox,
)
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
    ``engine.checked_value``), or ``default`` when the key is absent; a ``...``
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


# the largest extent numpy can give an array axis
_MAX_EXTENT = int(np.iinfo(np.intp).max)


def _check_fits(rows: int, cols: int, row_key: str, col_key: str, what: str) -> None:
    """A rows x cols float64 array must fit one numpy array; the error, ``what`` of
    the two extents, names the key of the larger one (the row key on a tie)."""
    nbytes = 8 * rows * cols
    if nbytes > _MAX_EXTENT:
        raise ValueError(
            f"{row_key if rows >= cols else col_key}: {what.format(rows, cols)} {nbytes}"
            f" bytes, more than one array can hold ({_MAX_EXTENT})"
        )


def _parse_problem(blob):
    if not isinstance(blob, dict):
        raise ValueError("problem: expected an object")
    name = _get(blob, "name", "problem", "str")
    if name == "rosenbrock":
        _check_keys(blob, {"name", "start"}, "problem")
        start = _get(blob, "start", "problem", "tuple[float, ...]", RosenbrockProblem.start)
        if len(start) != 2:
            raise ValueError(f"problem.start: expected 2 numbers, got {len(start)}")
        return RosenbrockProblem(start=start)
    if name == "quadratic":
        _check_keys(blob, {"name", "spectrum", "start"}, "problem")
        spectrum = _get(blob, "spectrum", "problem", "tuple[float, ...]", gt=0.0)
        if not spectrum:
            raise ValueError("problem.spectrum: expected a non-empty list")
        start = _get(blob, "start", "problem", "tuple[float, ...]", (1.0,) * len(spectrum))
        if len(start) != len(spectrum):
            raise ValueError(f"problem.start: expected {len(spectrum)} numbers, got {len(start)}")
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
        n = _get(blob, "n", "problem", "int", ge=1)
        d = _get(blob, "d", "problem", "int", ge=1)
        classes = _get(blob, "classes", "problem", "int", ge=2)
        batch_size = _get(blob, "batch_size", "problem", "int", ge=1, le=_MAX_EXTENT)
        separation = _get(blob, "separation", "problem", "float", 10.0, ge=0.0)
        data_seed = _get(blob, "data_seed", "problem", "int", 0, ge=0)
        hidden = _get(blob, "hidden", "problem", "tuple[int, ...]", (32,), ge=1, le=_MAX_EXTENT)
        activation = _get(blob, "activation", "problem", "str", BlobsMLPProblem.activation)
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"problem.activation: expected one of {sorted(ACTIVATIONS)}, got {activation!r}"
            )
        smoothing = _get(
            blob, "smoothing", "problem", "float", BlobsMLPProblem.alpha, ge=0.0, lt=1.0
        )
        keys = [f"problem.hidden[{i}]" for i in range(len(hidden))]
        keys, widths = ["problem.d", *keys, "problem.classes"], [d, *hidden, classes]
        for i in range(len(widths) - 1):  # each weight is fan_out x fan_in
            _check_fits(widths[i + 1], widths[i], keys[i + 1], keys[i], "a {}x{} weight needs")
        problem = checked_call(
            "problem",
            BlobsMLPProblem,
            blobs=(data_seed, n, d, classes, separation),
            hidden=hidden,
            batch_size=batch_size,
            activation=activation,
            alpha=smoothing,
        )
        # the n x d inputs, drawn on first use, must fit one array too; checked
        # after the weights and n >= classes, so their messages come first
        _check_fits(n, d, "problem.n", "problem.d", "{}x{} inputs need")
        return problem
    raise ValueError(f"problem.name: unknown problem {name!r}")


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
    value = checked_value(obj.__dataclass_fields__[name].type, value, where)
    return checked_call(where, dataclasses.replace, obj, **{name: value})


def _parse_optimizer(blob, index: int, t_max: int) -> OptimizerSpec:
    """The preset's default config with each key of ``blob`` applied in turn."""
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
    toggles = Toggles.none() if preset == "adamw" else Toggles()
    # eta is the one setting the config classes give no default
    config = default_config(3e-3, t_max, toggles=toggles)
    _check_keys(blob, {"preset", "label", *keys}, path)
    for key, value in blob.items():
        if key == "toggles":
            if not isinstance(value, dict):
                raise ValueError(f"{path}.toggles: expected an object")
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
