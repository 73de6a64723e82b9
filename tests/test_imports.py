"""Every imported name in src/ and tests/ is used (no linter is installed)."""
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
