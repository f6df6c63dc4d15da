"""Layout rules: src/ keeps only what src/ calls, the tests keep their references in one module, README names
only what the code has, and `import cmtheta` loads only the layers the CM context is built from, as do the
`theta` and `action` commands."""
import ast
import builtins
import re
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


def code_names(text):
    """Each backticked span of text that is a dotted Python name once its call parentheses are dropped, as its parts."""
    spans = (re.sub(r"\([^()]*\)", "", span) for span in re.findall(r"`([^`\n]+)`", text))
    return [span.lstrip(".").split(".") for span in spans if re.fullmatch(r"\.?[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span)]


def known_names(paths):
    """The module names of paths, every name they define, import, bind or read, and their one-word strings."""
    names = {path.stem for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            words = [getattr(node, field, None) for field in ("id", "attr", "name", "arg", "asname", "module")]
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                words.append(node.value)  # a status, a suite or a subcommand
            names.update(part for word in words if isinstance(word, str) for part in word.split("."))
    return names


def test_readme_names_only_what_the_code_has():
    # a renamed or deleted function, class, field or module left in README's prose is stale text
    known = known_names(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))) | set(dir(builtins))
    names = code_names((SRC.parents[1] / "README.md").read_text())
    assert len({".".join(parts) for parts in names}) > 100  # distinct names, not repeated spans
    assert [".".join(parts) for parts in names if not known.issuperset(parts)] == []
    assert code_names("`_Cut`, `act_phi(h, chi, p).canonical()`, `.coeffs`, `python -O`, `[r; s]`") == [
        ["_Cut"], ["act_phi", "canonical"], ["coeffs"],
    ]


def test_readme_stays_short():
    # README names entry points and says where the mechanism is stated; the derivations live in the docstrings
    text = (SRC.parents[1] / "README.md").read_text()
    assert len(text.split()) <= 1500
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    assert max(len(row.split()) for row in rows) <= 80


def test_import_loads_the_context_layers_and_resolves_the_rest_on_use(optimized):
    facts = optimized["imports"]  # taken under -O before anything imports a lazy layer
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
