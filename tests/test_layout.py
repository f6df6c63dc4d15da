"""Layout rules: src/ keeps only what src/ calls, the tests keep their references in one module, and
`import cmtheta` loads only the layers the CM context is built from, as do the `theta` and `action` commands."""
import ast
import json
import os
import subprocess
import sys
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
    # the import system calls __getattr__ for a missing package attribute, and dir() calls __dir__ (PEP 562)
    kept = {*cmtheta.__all__, "__getattr__", "__dir__"}
    assert unreferenced(sorted(SRC.glob("*.py")), kept=kept) == []


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


IMPORT_PROBE = """
import contextlib, io, json, sys
import cmtheta
cmtheta.build_context()
listed = dir(cmtheta)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cmtheta")
from cmtheta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["theta", "--at", "i", "--char", "0 0 0 0"]),
        main(["action", "--x", "1 2 2 0 0", "--p", "7", "--char", "1/7 0 0 2/7"]),
    ]
loaded_by_cli = sorted(m for m in sys.modules if m.split(".")[0] == "cmtheta")
try:
    cmtheta.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
values = {name: getattr(cmtheta, name) for name in cmtheta.__all__}
star = {}
exec("from cmtheta import *", star)
print(json.dumps({
    "optimize": sys.flags.optimize,
    "loaded": loaded,
    "codes": codes,
    "loaded_by_cli": loaded_by_cli,
    "listed": listed,
    "missing": missing,
    "homes": {name: value.__module__ for name, value in values.items()},
    "same": [name for name, value in values.items() if getattr(sys.modules[value.__module__], name) is value],
    "star": [name for name in cmtheta.__all__ if star.get(name) is values[name]],
    "namespace": sorted(vars(cmtheta)),
}))
"""


def test_import_loads_the_context_layers_and_resolves_the_rest_on_use():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["optimize"] == 1, "the probe ran without -O"
    layers = {"cmtheta.exact", "cmtheta.symplectic", "cmtheta.theta", "cmtheta.action", "cmtheta.cmfield"}
    assert facts["loaded"] == sorted({"cmtheta", *layers})  # read after dir(), so dir() loaded no lazy module
    # the parser, `theta` and `action` need no lazy layer: the CLI imports each in the subcommand that runs it
    assert facts["codes"] == [0, 0]
    assert facts["loaded_by_cli"] == sorted({"cmtheta", "cmtheta.cli", *layers})
    assert set(cmtheta.__all__) <= set(facts["listed"])
    assert facts["missing"] == "module 'cmtheta' has no attribute 'no_such_name'"
    assert facts["same"] == facts["star"] == cmtheta.__all__
    lazy = {name for name, home in facts["homes"].items() if home not in layers}
    assert {facts["homes"][name] for name in lazy} == {"cmtheta.modularity", "cmtheta.primgen", "cmtheta.harness"}
    assert not lazy & set(facts["namespace"])  # read through __getattr__ each time, never stored in the package
