"""Fuzz the readers of JSON input: whole bench configs (a rosenbrock, a
quadratic and a blobs_mlp base) and checkpoints (the v4 fixture with its
document line mutated, or 8 bytes of its raw section overwritten). A mutated
input must either be rejected with a ConfigError or ValueError whose message
starts with the path of a field, or parse to a config whose numbers are all
finite (and, for a checkpoint, a state whose values are all finite); never a
TypeError, KeyError or AttributeError. A key ``save`` never writes, added to
any object of a checkpoint's document, is refused naming that object.

The checkpoint writer is checked against the format's definition: for any
param names, shapes and step count, the file ``Optimizer.save`` writes is
``opt.to_checkpoint()``, whose first line is ``json.dumps`` of the document and
which holds each buffer's bytes at its offset; it loads back to the same
bytes, and saves again to the same bytes.

Parsing a ``blobs_mlp`` config allocates nothing in proportion to its sizes
``n``, ``d`` and ``hidden`` (the data is drawn on first use), so any size
the fuzzer picks is safe to parse."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optlab import Optimizer, ParamTensor, Toggles
from optlab.benchmark import ConfigError, parse_config

from oracles import state_as_v3, v4_as_v3

FIXTURES = Path(__file__).parent / "fixtures"
CHECKPOINT = (FIXTURES / "checkpoint_v4.ckpt").read_bytes()
CHECKPOINT_LINE, CHECKPOINT_SECTION = CHECKPOINT.split(b"\n", 1)

ADAMW = {
    "preset": "adamw", "label": "a", "eta": 3e-3, "weight_decay": 1e-4,
    "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
}
RANGER = {
    **ADAMW, "preset": "ranger21", "label": "r", "beta0": 0.9, "tau": 1e-2,
    "eps_clipping": 1e-3, "k_lookahead": 5, "beta_lookahead": 0.5, "t_warmup": 10,
    "t_warmdown": 12, "toggles": {f.name: True for f in dataclasses.fields(Toggles)},
}
BENCH = {
    "schema_version": 1, "seed": 0, "t_max": 50, "cadence": 10,
    "problem": {"name": "rosenbrock"}, "optimizers": [ADAMW, RANGER],
}
BENCH_BASES = {
    "rosenbrock": {
        **BENCH, "loss_threshold": 0.5, "out": "results",
        "problem": {"name": "rosenbrock", "start": [-1.5, 2.0]},
    },
    "quadratic": {
        **BENCH, "problem": {"name": "quadratic", "spectrum": [1.0, 10.0], "start": [1.0, -1.0]},
    },
    "blobs_mlp": {
        **BENCH, "problem": {
            "name": "blobs_mlp", "n": 40, "d": 3, "classes": 2, "separation": 4.0,
            "data_seed": 1, "batch_size": 8, "hidden": [4, 4], "activation": "tanh",
            "smoothing": 0.1,
        },
    },
}

# a field path: a name (or "top level"), then any run of .name, [index] or ['key']
FIELD_PATH = re.compile(r"^(top level|\w+)(\.\w+|\[\d+\]|\['[^']*'\])*: ")

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, (*prefix, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from paths(child, (*prefix, i))


def mutated(blob, path, op, value):
    """A copy of ``blob`` with the node at ``path`` deleted, given an extra key
    or entry, or replaced by ``value`` (the root, or a leaf, is never deleted or
    added to: it is replaced)."""
    root = {"blob": copy.deepcopy(blob)}
    parent, key = root, "blob"
    for step in path:
        parent, key = parent[key], step
    node = parent[key]
    if op == "delete" and path:
        del parent[key]
    elif op == "add" and isinstance(node, dict):
        node["extra"] = value
    elif op == "add" and isinstance(node, list):
        node.append(value)
    else:
        parent[key] = value
    return root["blob"]


def mutations(blob, within=()):
    """One mutation of ``blob`` at or below the node at path ``within``."""
    candidates = [p for p in paths(blob) if p[: len(within)] == within]
    return st.tuples(
        st.sampled_from(candidates),
        st.sampled_from(["replace", "delete", "add"]),
        values,
    ).map(lambda m: mutated(blob, *m))


def assert_finite_numbers(node):
    """Every float in a config, walked through its nested parts and lists, is finite."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            assert_finite_numbers(getattr(node, f.name))
    elif isinstance(node, (list, tuple)):
        for entry in node:
            assert_finite_numbers(entry)
    elif isinstance(node, float):
        assert math.isfinite(node)


def assert_names_field(message):
    assert FIELD_PATH.match(message), message


@settings(max_examples=300, deadline=None)
@given(blob=mutations(BENCH, within=("optimizers",)))
def test_mutated_bench_optimizers(blob):
    try:
        config = parse_config(json.dumps(blob))
    except ConfigError as exc:
        assert_names_field(str(exc))
        assert str(exc).startswith("optimizers")
        return
    for spec in config.optimizers:
        assert_finite_numbers(spec.config)


@pytest.mark.parametrize("base", sorted(BENCH_BASES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_bench_config(base, data):
    blob = data.draw(mutations(BENCH_BASES[base]))
    try:
        config = parse_config(json.dumps(blob))
    except ConfigError as exc:
        assert_names_field(str(exc))
        return
    assert_finite_numbers(config)


def check_loads_or_names_field(data):
    try:
        opt = Optimizer.from_checkpoint(data)
    except ValueError as exc:
        assert_names_field(str(exc))
        return
    assert_finite_numbers(opt.config)
    state = opt.state
    for buf in (state.flat_theta, state.flat_slow, *dataclasses.astuple(state.flat_moments)):
        assert np.isfinite(buf).all()


@settings(max_examples=300, deadline=None)
@given(doc=mutations(json.loads(CHECKPOINT_LINE)))
def test_mutated_checkpoint_document(doc):
    check_loads_or_names_field(json.dumps(doc).encode("ascii") + b"\n" + CHECKPOINT_SECTION)


@settings(max_examples=300, deadline=None)
@given(
    value=st.integers(0, len(CHECKPOINT_SECTION) // 8 - 1),
    raw=st.sampled_from([math.nan, math.inf, -math.inf]).map(
        lambda x: np.array([x], dtype="<f8").tobytes()
    ) | st.binary(min_size=8, max_size=8),
)
def test_overwritten_checkpoint_section(value, raw):
    section = bytearray(CHECKPOINT_SECTION)
    section[8 * value : 8 * value + 8] = raw
    check_loads_or_names_field(CHECKPOINT_LINE + b"\n" + section)


def json_at(node, path):
    for step in path:
        node = node[step]
    return node


def object_name(path):
    """The name a load gives the object at ``path`` in a checkpoint document."""
    where = str(path[0]) if path else "checkpoint"
    for parent, step in zip(path, path[1:]):
        if type(step) is int or parent in ("moments", "slow"):
            where += f"[{step!r}]"
        else:
            where += f".{step}"
    return where


CHECKPOINT_DOC = json.loads(CHECKPOINT_LINE)


@settings(max_examples=200, deadline=None)
@given(
    path=st.sampled_from(
        [p for p in paths(CHECKPOINT_DOC) if isinstance(json_at(CHECKPOINT_DOC, p), dict)]
    ),
    key=st.text(max_size=6),
    value=values,
)
def test_checkpoint_object_with_a_key_save_never_writes_refused(path, key, value):
    doc = copy.deepcopy(CHECKPOINT_DOC)
    target = json_at(doc, path)
    assume(key not in target)
    target[key] = value
    with pytest.raises(ValueError) as excinfo:
        Optimizer.from_checkpoint(json.dumps(doc).encode("ascii") + b"\n" + CHECKPOINT_SECTION)
    assert str(excinfo.value) == f"{object_name(path)}: unexpected key {key!r}"


# any name a param may have: non-ASCII, quotes, backslashes, control
# characters and lone surrogates, each of which json.dumps escapes
names = st.text(
    st.characters(exclude_categories=()) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\ud800"]),
    min_size=1,
)


@st.composite
def stepped_optimizers(draw):
    """An optimizer of either preset over 1-4 params, after 0-7 steps."""
    param_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    shapes = [draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)) for _ in param_names]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = [
        ParamTensor(name, shape, rng.standard_normal(math.prod(shape)))
        for name, shape in zip(param_names, shapes)
    ]
    if draw(st.sampled_from(["adamw", "ranger21"])) == "adamw":
        opt = Optimizer.adamw(params)
    else:
        opt = Optimizer.ranger21(params, eta=3e-3, t_max=10)
    for _ in range(draw(st.integers(0, 7))):
        opt.step([p.with_values(rng.standard_normal(p.size)) for p in params])
    return opt


@settings(max_examples=150, deadline=None)
@given(opt=stepped_optimizers())
def test_saved_bytes_are_the_checkpoint(opt, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "checkpoint.ckpt"
    again = tmp_path_factory.getbasetemp() / "again.ckpt"
    opt.save(path)
    data = opt.to_checkpoint()
    assert path.read_bytes() == data
    assert v4_as_v3(data) == state_as_v3(opt)
    loaded = Optimizer.load(path)
    assert loaded.to_checkpoint() == data
    loaded.save(again)
    assert again.read_bytes() == data
