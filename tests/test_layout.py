"""Two layout rules: src/ keeps only what src/ calls, and the tests keep their references in one module."""
import ast
from pathlib import Path

import cmtheta

SRC = Path(cmtheta.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unreferenced(paths, kept):
    """(file, line, name) of each top-level function or class in paths, not in kept, named by no other top-level statement."""
    bodies = [(path, node) for path in paths for node in ast.parse(path.read_text()).body]
    named = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for _, node in bodies]
    return [
        (path.name, node.lineno, node.name)
        for i, (path, node) in enumerate(bodies)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in kept
        and not any(node.name in names for k, names in enumerate(named) if k != i)
    ]


def test_src_keeps_only_what_src_calls_or_exports():
    assert unreferenced(sorted(SRC.glob("*.py")), kept=cmtheta.__all__) == []


def test_tests_import_no_test_module_and_every_reference():
    test_files = sorted(TESTS.glob("test_*.py"))
    test_modules = {path.stem for path in test_files}
    crossings, imported = [], set()
    for path in test_files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
                if node.module == "reference":
                    imported.update(alias.name for alias in node.names)
            else:
                continue
            crossings += [(path.name, node.lineno, m) for m in modules if m.split(".")[0] in test_modules]
    assert crossings == []
    # a reference no test imports is dead, unless another reference calls it
    assert unreferenced([TESTS / "reference.py"], kept=imported) == []
