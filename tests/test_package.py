import ast
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
