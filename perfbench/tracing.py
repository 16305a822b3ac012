"""Span tracing for the benchmark's traced run.

``Tracer.installed`` patches, for the duration of a ``with`` block, the
names that optlab resolves at call time: the functions ``optlab.engine``
calls through its module globals, ``ParamTensor.__init__``, the
``Optimizer`` methods, the problem class's methods and the
``optlab.benchmark`` entry points. Nothing in ``src/`` changes; the
originals are put back on exit.

Spans live in memory as flat integer arrays (one row per call: name, preset
tag, root, parent, start, end and two counters). ``SpanTable`` reduces them
to per-layer figures once the traced work is over. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Spans whose parent is this one (or that have no parent) are roots: every
# span below them inherits their name as its root, which is how work done
# for a training step is told apart from work done for cadence metrics.
_ROOT_PARENT = "benchmark.run_benchmark"


def _unit_counts(args, factors):
    return int(np.count_nonzero(factors < 1.0)), factors.size


def _lookahead_synced(args, result):
    t, k = args[2], args[3]
    return int(t % k == 0), 0


def _nbytes(n_arrays):
    # Bytes an elementwise kernel reads and writes, computed from array sizes:
    # n_arrays float64 arrays of the gradient's element count.
    def measure(args, result):
        return n_arrays * 8 * args[1].size, 0

    return measure


def _decay_bytes(args, result):
    theta, _, _, cfg = args
    # reads theta (and v_hat for the stable rescale), writes d
    return (3 if cfg.stable else 2) * 8 * theta.size, 0


class Tracer:
    """Records one span per call of every patched name while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self._name_ids: dict[str, int] = {}
        self._tag = 0
        self._stack: list[int] = []
        self.name = array("i")
        self.tag = array("i")
        self.root = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.a = array("q")
        self.b = array("q")
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self._tag = self.tags.index(tag)

    # -- recording ---------------------------------------------------------

    def _enter(self, name_id: int, root_parent_id: int) -> int:
        i = len(self.start)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = name_id if self.name[parent] == root_parent_id else self.root[parent]
        else:
            parent = -1
            root = name_id
        self.name.append(name_id)
        self.tag.append(self._tag)
        self.root.append(root)
        self.parent.append(parent)
        self.end.append(0)
        self.a.append(0)
        self.b.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _wrap(self, name: str, fn, measure=None):
        name_id = self._name_id(name)
        root_parent_id = self._name_id(_ROOT_PARENT)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._enter(name_id, root_parent_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter_ns()
                tracer._stack.pop()
            if measure is not None:
                tracer.a[i], tracer.b[i] = measure(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_call(self, owner, attr: str, name: str, measure=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, measure)))
        else:
            self._patch(owner, attr, self._wrap(name, raw, measure))

    def install(self, problem_cls) -> None:
        from optlab import benchmark, engine, tensor

        calls = [
            (benchmark, "parse_config", "benchmark.parse_config", None),
            (benchmark, "run_benchmark", _ROOT_PARENT, None),
            (benchmark, "emit_csv", "benchmark.emit_csv", None),
            (engine, "lr_factor", "schedule.lr_factor", None),
            (engine, "unit_scale_factors", "transforms.unit_scale_factors", _unit_counts),
            (engine, "scale_units", "transforms.scale_units", None),
            (engine, "gradient_centralize", "transforms.gradient_centralize", None),
            (engine, "pnm_update", "moments.pnm_update", _nbytes(10)),
            (engine, "adam_update", "moments.adam_update", _nbytes(7)),
            (engine, "combined_decay", "moments.combined_decay", _decay_bytes),
            (engine, "lookahead_sync", "engine.lookahead_sync", _lookahead_synced),
            (tensor.ParamTensor, "__init__", "tensor.construct",
             lambda args, result: (args[0].values.nbytes, 0)),
            (engine.Optimizer, "step", "engine.step", None),
            (engine.Optimizer, "save", "engine.save", None),
            (engine.Optimizer, "load", "engine.load", None),
            (problem_cls, "sample_batch", "problems.sample_batch", None),
            (problem_cls, "evaluate", "problems.evaluate", None),
            (problem_cls, "metrics", "problems.metrics", None),
        ]
        try:
            for owner, attr, name, measure in calls:
                self._patch_call(owner, attr, name, measure)
            # Every span is tagged with the preset of the optimizer built
            # last; bench runs build one optimizer per spec, in order.
            init = engine.Optimizer.__init__
            tracer = self

            def tagging_init(opt, *args, **kwargs):
                init(opt, *args, **kwargs)
                tracer._set_tag(opt.preset)

            self._patch(engine.Optimizer, "__init__", tagging_init)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, problem_cls):
        self.install(problem_cls)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------------

    def column(self, field: str) -> np.ndarray:
        buf = getattr(self, field)
        return np.frombuffer(buf, dtype=np.int64 if buf.typecode == "q" else np.int32).copy()


# Spans that make up one training step: sample, evaluate and Optimizer.step.
STEP_ROOTS = ("problems.sample_batch", "problems.evaluate", "engine.step")


class SpanTable:
    """Recorded spans as columns, with each span's self time."""

    def __init__(self, tracer: Tracer) -> None:
        self._name_ids = {n: i for i, n in enumerate(tracer.names)}
        self._tag_ids = {t: i for i, t in enumerate(tracer.tags)}
        self.name = tracer.column("name")
        self.tag = tracer.column("tag")
        self.root = tracer.column("root")
        self.dur = tracer.column("end") - tracer.column("start")
        self.a = tracer.column("a")
        self.b = tracer.column("b")
        parent = tracer.column("parent")
        has_parent = parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child

    def _ids(self, names) -> list[int]:
        return [self._name_ids[n] for n in names if n in self._name_ids]

    def select(self, *names: str, tag: str | None = None, roots=None) -> np.ndarray:
        mask = np.isin(self.name, self._ids(names))
        if tag is not None:
            mask &= self.tag == self._tag_ids.get(tag, -1)
        if roots is not None:
            mask &= np.isin(self.root, self._ids(roots))
        return mask


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def step_metrics(table: SpanTable, preset: str) -> dict[str, float]:
    """Per-step layer figures for the training steps of one preset.

    ``*_us_per_step`` are self times summed over the preset's steps and
    divided by its step count; ``problems.*`` are self time per call.
    """
    steps = table.select("engine.step", tag=preset)
    n = int(steps.sum())

    def self_us(*names: str) -> float:
        return _ratio(table.self_ns[table.select(*names, tag=preset)].sum(), n) / 1e3

    def per_call(name: str) -> float:
        mask = table.select(name, tag=preset)
        return _ratio(table.self_ns[mask].sum(), mask.sum())

    constructs = table.select("tensor.construct", tag=preset, roots=STEP_ROOTS)
    clip = table.select("transforms.unit_scale_factors", tag=preset)
    moments = table.select(
        "moments.pnm_update", "moments.adam_update", "moments.combined_decay", tag=preset
    )
    lookahead = table.select("engine.lookahead_sync", tag=preset)
    return {
        "tensor.constructs_per_step": _ratio(constructs.sum(), n),
        "tensor.construct_us_per_step": _ratio(table.dur[constructs].sum(), n) / 1e3,
        "tensor.bytes_copied_per_step": _ratio(table.a[constructs].sum(), n),
        "engine.step_us": _ratio(table.dur[steps].sum(), n) / 1e3,
        "engine.step_self_us": self_us("engine.step"),
        "engine.lookahead_us_per_step": self_us("engine.lookahead_sync"),
        "engine.lookahead_syncs": _ratio(table.a[lookahead].sum(), n),
        "transforms.clip_us_per_step": self_us(
            "transforms.unit_scale_factors", "transforms.scale_units"
        ),
        "transforms.clip_hit_ratio": _ratio(table.a[clip].sum(), table.b[clip].sum()),
        "transforms.centralize_us_per_step": self_us("transforms.gradient_centralize"),
        "moments.update_us_per_step": self_us("moments.pnm_update", "moments.adam_update"),
        "moments.decay_us_per_step": self_us("moments.combined_decay"),
        "moments.bytes_per_step": _ratio(table.a[moments].sum(), n),
        "schedule.lr_factor_us_per_step": self_us("schedule.lr_factor"),
        "problems.evaluate_us": per_call("problems.evaluate") / 1e3,
        "problems.sample_batch_us": per_call("problems.sample_batch") / 1e3,
        "problems.metrics_ms": per_call("problems.metrics") / 1e6,
    }


def run_metrics(table: SpanTable) -> dict[str, float]:
    """Bench-run figures: config parse and CSV emit per call, and the self
    time of ``run_benchmark``'s own loop per training step."""

    def mean_ms(name: str) -> float:
        mask = table.select(name)
        return _ratio(table.dur[mask].sum(), mask.sum()) / 1e6

    steps = int(table.select("engine.step").sum())
    loop = table.self_ns[table.select("benchmark.run_benchmark")].sum()
    return {
        "benchmark.parse_config_ms": mean_ms("benchmark.parse_config"),
        "benchmark.emit_csv_ms": mean_ms("benchmark.emit_csv"),
        "benchmark.loop_self_us_per_step": _ratio(loop, steps) / 1e3,
    }


def checkpoint_metrics(table: SpanTable) -> dict[str, float]:
    """Median wall time of one ``save`` and one ``load``."""
    return {
        "engine.save_ms": float(np.median(table.dur[table.select("engine.save")])) / 1e6,
        "engine.load_ms": float(np.median(table.dur[table.select("engine.load")])) / 1e6,
    }
