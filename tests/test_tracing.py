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

from optlab import Optimizer, ParamTensor, benchmark
from optlab.problems import RosenbrockProblem

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
