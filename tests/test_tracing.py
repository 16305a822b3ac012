"""The benchmark's span tracer still sees every name it patches.

``perfbench/tracing.py`` wraps the functions ``optlab.engine`` resolves
through its module globals at call time. A refactor that calls a component
some other way would silently drop its spans from ``--trace 1``; this test
catches that.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from optlab import Optimizer, OptimizerState, ParamTensor, benchmark
from optlab.problems import BlobsMLPProblem, RosenbrockProblem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "t_max": 12,
    "cadence": 4,
    "problem": {"name": "rosenbrock"},
    "optimizers": [{"preset": "adamw"}, {"preset": "ranger21"}],
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_records_spans(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(RosenbrockProblem):
        config = benchmark.parse_config(json.dumps(CONFIG))
        result = benchmark.run_benchmark(config)
        benchmark.emit_csv(result.records, tmp_path / "records.csv")
        opt = Optimizer.adamw(RosenbrockProblem().init_params(None))
        opt.save(tmp_path / "ckpt.json")
        Optimizer.load(tmp_path / "ckpt.json")

    table = tracing.SpanTable(tracer)
    recorded = {tracer.names[i] for i in np.unique(table.name)}
    assert recorded == set(tracer.names)

    # the step builds no ParamTensor: it returns read-only views of one buffer
    steps = int(table.select("engine.step").sum())
    constructs = int(table.select("tensor.construct", roots=["engine.step"]).sum())
    assert steps == 2 * CONFIG["t_max"]
    assert constructs == 0
    params = [ParamTensor("w", (2, 2), [1.0, 2.0, 3.0, 4.0]), ParamTensor("b", (2,), [0.5, -0.5])]
    returned = Optimizer.adamw(params).step([p.with_values(np.ones(p.size)) for p in params])
    base = returned[0].values.base
    assert base is not None and base.size == 6
    for p in returned:
        assert p.values.base is base and not p.values.flags.writeable


def test_mlp_step_clips_centralizes_and_decays_once():
    # widths 3, 4, 4, 3, 2: weights of unit width 3 ("w0", "w3") and 4 ("w1",
    # "w2") after the biases, yet one call of each stage per step clips and
    # centralizes them all
    problem = {
        "name": "blobs_mlp", "n": 40, "d": 3, "classes": 2, "batch_size": 8, "hidden": [4, 4, 3],
    }
    config = {**CONFIG, "problem": problem}
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(BlobsMLPProblem):
        parsed = benchmark.parse_config(json.dumps(config))
        benchmark.run_benchmark(parsed)
    state = OptimizerState.initial(parsed.problem.init_params(np.random.default_rng(0)))
    assert state.runs.size - state.units.size == 4 + 4 + 3 + 2
    assert state.units.runs == ((0, 6, 3), (18, 7, 4))

    table = tracing.SpanTable(tracer)
    for preset, clips in (("adamw", 0), ("ranger21", 1)):
        steps = int(table.select("engine.step", tag=preset).sum())
        assert steps == CONFIG["t_max"]
        for name, per_step in (
            ("transforms.unit_scale_factors", clips),
            ("transforms.scale_units", clips),
            ("transforms.gradient_centralize", clips),
            ("moments.combined_decay", 1),
        ):
            assert int(table.select(name, tag=preset).sum()) == per_step * steps, (preset, name)
