"""Source hygiene that a linter would check: the public names resolve, no
module of the package or of its tests imports a name it never uses, the
package imports only the modules listed here, ``engine.py`` none of those the
checkpoint format uses, the component modules none of the modules that build
on them, it reads every private helper it defines, the package or the
benchmark reads every public function and class it defines, and no generated
``==`` compares an array, and no dataclass ``__post_init__`` states a range
its fields' bounds should."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import optlab

PACKAGE = Path(optlab.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in optlab.__all__ if not hasattr(optlab, name)]
    assert not missing
    assert len(set(optlab.__all__)) == len(optlab.__all__)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation in the module: of arguments, returns and fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = [a for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            found = [node.returns, *(a.annotation for a in args)]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        yield from (a for a in found if a is not None)


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in quoted annotations."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def used_names(tree: ast.Module) -> set[str]:
    """``read_names`` and the names the module's ``__all__`` lists (a package
    ``__init__`` re-exports them)."""
    used = read_names(tree)
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path", [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def private_definitions(tree: ast.Module):
    """Each module-level statement that binds a private name (``_x``, not a
    dunder), with that name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        others = set().union(*(used_names(t) for m, t in trees.items() if m != module))
        for node, name in private_definitions(tree):
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if name not in others | used_names(rest):
                unused.append(f"{module}: {name}")
    assert not unused, f"defined but never read: {unused}"


def public_definitions(tree: ast.Module):
    """Each module-level function or class whose name is public."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def attribute_reads(tree: ast.Module) -> set[str]:
    """``read_names`` and every attribute the module reads, as in ``bm.run``."""
    return read_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_public_definition_is_read_outside_the_tests():
    """A public function or class that only tests read is library code kept
    for its tests: some package module or benchmark script must read it, other
    than by its own definition. Listing a name in ``__all__`` does not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [attribute_reads(ast.parse(p.read_text())) for p in PERFBENCH.glob("*.py")]
    unread = []
    for module, tree in trees.items():
        others = set().union(*bench, *(attribute_reads(t) for m, t in trees.items() if m != module))
        for node in public_definitions(tree):
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in others | attribute_reads(rest):
                unread.append(f"{module}: {node.name}")
    assert not unread, f"defined but read only by tests: {unread}"


def unnamed_encodings(tree: ast.Module):
    """The line of each ``read_text``, ``write_text`` and text-mode ``open``
    call that does not name its ``encoding``; a mode that is not a literal
    counts as text."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg: k.value for k in node.keywords}
        if name == "open":
            mode = keywords.get("mode", node.args[1] if len(node.args) > 1 else None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
        elif name not in ("read_text", "write_text"):
            continue
        if "encoding" not in keywords:
            yield node.lineno


def test_every_text_read_and_write_names_its_encoding():
    unnamed = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in unnamed_encodings(ast.parse(path.read_text()))
    ]
    assert not unnamed, f"text I/O with the locale's encoding: {unnamed}"


BLAS_REDUCTIONS = {"dot", "vecdot", "inner"}


def test_one_blas_reduction_in_the_package():
    """BLAS decides the bits of a dot product (its kernel by CPU, its split
    by thread count), so the package makes one such call, in
    ``SpanRuns.squared_norms`` in ``moments.py``, and every squared norm goes
    through it: no module calls ``dot``, ``vecdot`` or ``inner`` elsewhere."""
    calls = [
        f"{path.name}:{node.lineno} {node.func.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in BLAS_REDUCTIONS
    ]
    assert [call.split(":")[0] for call in calls] == ["moments.py"], calls


def test_array_fields_are_left_out_of_generated_eq():
    """A generated ``==`` over an array field raises (an array's truth value is
    ambiguous), and so does ``hash``, so each dataclass of the package with a
    field annotated ``np.ndarray`` is ``eq=False`` (``==`` is identity) or the
    field carries ``compare=False``."""
    compared = {}
    for info in pkgutil.iter_modules(optlab.__path__):
        module = importlib.import_module(f"optlab.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__ and cls.__dataclass_params__.eq):
                continue
            arrays = [f.name for f in dataclasses.fields(cls)
                      if "np.ndarray" in str(f.type) and f.compare]
            if arrays:
                compared[cls.__name__] = arrays
    assert not compared, f"array fields a generated == compares: {compared}"


# The modules the package imports: the standard library's and numpy. Every process
# that imports the package pays for them, so a new one is an edit to this list
PACKAGE_IMPORTS = {
    "__future__", "argparse", "dataclasses", "functools", "itertools",
    "json", "math", "operator", "os", "pathlib", "sys", "typing", "numpy",
}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level module of every absolute import in the module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_package_imports_are_the_listed_modules():
    found = set().union(*(imported_modules(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")))
    assert found == PACKAGE_IMPORTS


def test_engine_imports_none_of_the_checkpoint_formats_modules():
    """The checkpoint format is ``checkpoint.py``'s: ``engine.py`` holds the config,
    the state and the step, and imports none of the modules a format reads or
    writes with."""
    found = imported_modules(ast.parse((PACKAGE / "engine.py").read_text()))
    assert not found & {"json", "base64", "binascii", "os", "pathlib"}, found


# The component modules: pure array maths, which may import one another but
# none of the modules that build on them
COMPONENTS = ("transforms.py", "moments.py", "schedule.py")
ABOVE_COMPONENTS = {"tensor", "engine", "problems", "benchmark", "checkpoint", "cli"}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports: ``from .x import``, ``from . import x``
    and ``optlab.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("optlab"):
            found.update(
                [node.module.split(".")[1]] if "." in node.module else [a.name for a in node.names]
            )
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("optlab."))
    return {name.split(".")[0] for name in found}


@pytest.mark.parametrize("module", COMPONENTS)
def test_components_import_nothing_above_them(module):
    found = package_imports(ast.parse((PACKAGE / module).read_text()))
    assert not found & ABOVE_COMPONENTS, f"{module} imports {sorted(found & ABOVE_COMPONENTS)}"


def test_package_imports_sees_every_import_form():
    tree = ast.parse("from . import engine\nfrom .tensor import ParamTensor\nimport optlab.cli\n"
                     "from optlab import problems\nfrom optlab.moments import SpanRuns\n")
    assert package_imports(tree) == {"engine", "tensor", "cli", "problems", "moments"}


def is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def is_field(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"


def is_number(node: ast.expr) -> bool:
    node = node.operand if isinstance(node, ast.UnaryOp) else node
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def stated_ranges(tree: ast.Module):
    """Each comparison in a dataclass ``__post_init__`` between a field,
    ``self.<name>``, and a number: a range that belongs on the field, as its
    bounds, where ``check_fields`` checks it. Comparisons of two fields stay."""
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and any(map(is_dataclass_decorator, cls.decorator_list))):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                for node in ast.walk(method):
                    operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
                    if any(map(is_field, operands)) and any(map(is_number, operands)):
                        yield f"{cls.name}:{node.lineno}"


def test_no_range_is_stated_in_a_post_init():
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in stated_ranges(ast.parse(path.read_text()))
    ]
    assert not found, f"ranges stated in __post_init__, not on their fields: {found}"
