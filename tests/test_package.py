import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import datransport

# checks that the tests read and no command runs; they live in tests/theory.py
TEST_ONLY = ["path_cost", "MongeReport", "check_generalized_monge", "reciprocal_pair_cost",
             "XTwistCase", "XTwistReport", "check_xtwist", "monotone_rearrangement",
             "measure_to_csv", "measure_from_csv", "NonIncreasingTimesError"]

# (module, name) imported and never read.  The benchmark's tracer wraps
# ``datransport.scenarios.extract_plan`` by name, so that binding must exist
UNREAD_IMPORTS = {("scenarios", "extract_plan")}

# (module, function or Class.method) that src/ defines, never reads and does
# not export, each with the reason it stays
UNREAD_DEFINITIONS = {
    ("__init__", "__getattr__"): "PEP 562: Python calls it for a name the package lacks",
    ("__init__", "__dir__"): "PEP 562: dir(datransport) calls it",
    ("reference_oracle", "entropic_objective"): "reference code the tests compare against",
}


def test_public_names():
    names = datransport.__all__
    assert [name for name in names if not hasattr(datransport, name)] == []
    assert len(set(names)) == len(names)
    assert [name for name in TEST_ONLY if name in names or hasattr(datransport, name)] == []


def _src_trees() -> dict:
    """Each module of the package, parsed, by name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(datransport.__file__).parent.glob("*.py")}


def _exported(tree) -> set[str]:
    """The names a module's ``__all__`` lists."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _unread_imports(tree) -> set[str]:
    """Names a module imports and never reads; ``__all__`` counts as a read."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - _exported(tree)


def _definitions(tree):
    """A module's functions, and its classes' methods as ``Class.method``.

    Dunder methods are left out: Python calls them through its protocols.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_no_unread_imports():
    # an import nobody reads is dead code that still costs its import time
    found = {(module, name) for module, tree in _src_trees().items()
             for name in _unread_imports(tree)}
    assert found == UNREAD_IMPORTS


def test_no_test_only_definitions():
    # a function or method that only the tests call belongs with them, in
    # tests/helpers.py.  A name counts as read wherever src/ reads it, as a
    # name or as any object's attribute, or lists it in an ``__all__``
    trees = _src_trees()
    read = set()
    for tree in trees.values():
        read |= _exported(tree)
        read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))}
    found = {(module, name) for module, tree in trees.items() for name in _definitions(tree)
             if name.rsplit(".", 1)[-1] not in read}
    assert found == set(UNREAD_DEFINITIONS)


def test_cli_import_loads_no_oracle_or_feasibility():
    # both modules load on first use of one of their names: the package and
    # its CLI import without them, and the package still exports their names
    code = ("import sys, datransport.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('datransport.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(datransport.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    loaded = ast.literal_eval(out.stdout)
    assert "datransport.scenarios" in loaded and "datransport.plans" in loaded
    assert not {"datransport.reference_oracle", "datransport.feasibility"} & set(loaded)
    assert datransport.dense_sinkhorn.__module__ == "datransport.reference_oracle"
    assert datransport.check_da_feasibility.__module__ == "datransport.feasibility"


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each (module, attribute path) of its TARGETS;
    # a name the package moved or lost shows there only as "names not found"
    # in a full traced benchmark run
    tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(tracing.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    missing = []
    for module_name, attr_path, _ in targets:
        owner = importlib.import_module(module_name)
        try:
            for part in attr_path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{attr_path}")
    assert targets and missing == []
