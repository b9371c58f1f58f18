import ast
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


def test_public_names():
    names = datransport.__all__
    assert [name for name in names if not hasattr(datransport, name)] == []
    assert len(set(names)) == len(names)
    assert [name for name in TEST_ONLY if name in names or hasattr(datransport, name)] == []


def _unread_imports(source: str) -> set[str]:
    """Names a module imports and never reads; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_no_unread_imports():
    # an import nobody reads is dead code that still costs its import time
    found = {(path.stem, name)
             for path in Path(datransport.__file__).parent.glob("*.py")
             for name in _unread_imports(path.read_text(encoding="utf-8"))}
    assert found == UNREAD_IMPORTS


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
