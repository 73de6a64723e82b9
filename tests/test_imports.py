"""Every imported name in src/ and tests/ is used, and every function in
src/ has a caller outside the tests (no linter is installed)."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names a module imports and never references; `__all__` counts as a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport sys as system\n"
              "from a import b, c as d\n__all__ = ['b']\nprint(os)\n")
    assert unused_imports(source) == [(3, "system"), (4, "d")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported and never used:\n" + "\n".join(found)


def referenced_names(source):
    """Every variable or attribute name `source` mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def uncalled_functions(source, referenced):
    """Functions and methods `source` defines whose name is not in `referenced`.
    Dunders run implicitly, and `cmd_<name>` is looked up through `globals()`."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name not in referenced and not node.name.startswith("cmd_")
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def test_uncalled_functions_are_found():
    source = ("def used():\n    return helper()\ndef helper():\n    pass\n"
              "class A:\n    def __init__(self):\n        self.go()\n    def go(self):\n"
              "        pass\n    def spare(self):\n        pass\n"
              "def cmd_run(args):\n    pass\ndef unused():\n    pass\n")
    referenced = referenced_names(source)
    assert uncalled_functions(source, referenced) == [(1, "used"), (10, "spare"), (14, "unused")]
    assert uncalled_functions(source, referenced | {"used"}) == [(10, "spare"), (14, "unused")]


def test_every_function_has_a_caller_outside_the_tests():
    # No entry points that only tests call: perfbench counts as a caller.
    referenced = set().union(*(referenced_names(path.read_text())
                               for top in ("src", "perfbench")
                               for path in (ROOT / top).rglob("*.py")))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in uncalled_functions(path.read_text(), referenced)]
    assert not found, "defined and never referenced in src/ or perfbench/:\n" + "\n".join(found)


# Each file format has one owner in src/: the module that imports its parser.
FORMAT_OWNERS = {"csv": "eegsr/table.py", "configparser": "eegsr/ini.py"}


def imported_modules(source):
    """Top-level names of the modules `source` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_one_owner_per_file_format():
    src = ROOT / "src"
    importers = {module: sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                                if module in imported_modules(path.read_text()))
                 for module in FORMAT_OWNERS}
    assert importers == {module: [owner] for module, owner in FORMAT_OWNERS.items()}
