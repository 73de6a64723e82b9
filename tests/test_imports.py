"""Every imported name in src/ and tests/ is used, every function in src/ has
a caller outside the tests, and so has every defaulted parameter (no linter
is installed); the autodiff primitives and layer operations raise nothing;
each file format has one owner, only `report` names the metric tables, one
function finds repeated rows, the autodiff makes only a binary op's second
operand a Tensor, only the command line refuses an absent input, and
importing the command line loads only known modules."""
import ast
import os
import subprocess
import sys
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


def defaulted_parameters(source):
    """(line, function, parameter, position) of every parameter with a default
    that `source` defines; position counts the arguments a call passes (after
    `self` or `cls` in a method) and is None for a keyword-only parameter.
    Dunders run implicitly and are skipped, as in `uncalled_functions`."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                bound = in_class and not static
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    for i in range(len(positional) - len(args.defaults), len(positional)):
                        found.append((node.lineno, node.name, positional[i].arg, i - bound))
                    found.extend((node.lineno, node.name, arg.arg, None)
                                 for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                                 if default is not None)
                visit(node.body, False)

    visit(ast.parse(source).body, False)
    return found


def passed_arguments(source, into):
    """Add to `into[name]` the positions and keywords each call of `name` in
    `source` passes; a call with *args or **kwargs adds `all`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            passed = into.setdefault(name, set())
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed.add(all)
            else:
                passed.update(range(len(node.args)))
                passed.update(k.arg for k in node.keywords)
    return into


def unpassed_parameters(source, passed):
    """Defaulted parameters of `source` that no call in `passed` sets."""
    return [(line, f"{name}({param})") for line, name, param, position
            in defaulted_parameters(source)
            if not {all, param, position} & passed.get(name, set())]


def test_unpassed_parameters_are_found():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "class A:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=1, z=2):\n        pass\n"
              "    @staticmethod\n    def s(w=0):\n        pass\n"
              "def g(v=0):\n    pass\n"
              "f(0, 5, d=1)\nA().m(4)\nA.s(1)\ng(*[])\n")
    passed = passed_arguments(source, {})
    assert unpassed_parameters(source, passed) == [(1, "f(c)"), (6, "m(z)")]
    assert unpassed_parameters(source, {}) == [(1, "f(b)"), (1, "f(c)"), (1, "f(d)"),
                                               (6, "m(y)"), (6, "m(z)"), (9, "s(w)"),
                                               (11, "g(v)")]


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A default that only tests override is a setting with one value in use:
    make it a constant. Limits: calls resolve by name, so a parameter that a
    wrapper forwards unchanged counts as passed; dataclass fields and other
    constructor parameters are not covered."""
    passed = {}
    for top in ("src", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            passed_arguments(path.read_text(), passed)
    found = [f"{path.relative_to(ROOT)}:{line}: {param}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, param in unpassed_parameters(path.read_text(), passed)]
    assert not found, "defaulted and never passed in src/ or perfbench/:\n" + "\n".join(found)


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


THREAD_MODULES = {"concurrent", "threading", "multiprocessing"}


def test_one_owner_of_threads():
    """Only the kernel-rows pool runs threads, and `tensor._row_pool` imports
    them when it makes the pool, so a command that never needs it loads none."""
    src = ROOT / "src"
    importers = sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                       if THREAD_MODULES & imported_modules(path.read_text()))
    assert importers == ["eegsr/nn/tensor.py"]
    tree = ast.parse((src / importers[0]).read_text())
    assert THREAD_MODULES & imported_modules(ast.unparse(tree)) == {"concurrent"}
    pool = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_row_pool"]
    inside = {id(node) for fn in pool for node in ast.walk(fn)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and "concurrent" in imported_modules(ast.unparse(node))]
    assert imports and all(id(node) in inside for node in imports)


def functions_referencing(name):
    """`file:function` of every src/ function, nested ones included, that names `name`."""
    src = ROOT / "src"
    return [f"{path.relative_to(src)}:{fn.name}" for path in sorted(src.rglob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef) and name in referenced_names(ast.unparse(fn))]


def test_only_saving_finds_repeated_rows():
    """`archive.save_epoch_set` finds a set's repeated rows by their bytes; a
    loaded set carries them as its index, so no other function hashes rows."""
    assert functions_referencing("distinct_rows") == ["eegsr/archive.py:save_epoch_set"]


def test_only_the_training_steps_apply_adam():
    """A training step is one function that owns its loss and gradients:
    `adam_step` is applied by the generator and critic steps and the
    classifier loop, and by nothing else."""
    assert functions_referencing("adam_step") == [
        "eegsr/gan.py:generator_step", "eegsr/gan.py:critic_step",
        "eegsr/psd.py:train_classifier"]


def test_one_coercion_point_in_the_autodiff():
    """A primitive takes Tensors: only a binary op's second operand may be a
    constant, which `tensor._coerce` makes a Tensor, and nothing else coerces."""
    src = ROOT / "src"
    assert [path for path in src.rglob("*.py") if "as_tensor" in path.read_text()] == []
    assert functions_referencing("_coerce") == [
        f"eegsr/nn/tensor.py:{op}" for op in ("add", "sub", "mul", "div", "matmul")]


def test_only_report_names_the_metric_tables():
    """`report.TABLES` names each metric table and the commands loop over it,
    so no other module holds a string that names a table or its files."""
    from eegsr.report import TABLES

    names = {name for name, *_ in TABLES}
    src = ROOT / "src"
    found = [f"{path.relative_to(src)}:{node.lineno}: {node.value!r}"
             for path in sorted(src.rglob("*.py")) if path != src / "eegsr" / "report.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and Path(node.value).stem in names]
    assert not found, "metric table named outside report.TABLES:\n" + "\n".join(found)


# The raw binary format's one owner: the only module that calls numpy's file
# I/O or reads a file into an array.
BINARY_OWNER = "eegsr/nn/serialize.py"


def test_one_owner_of_the_binary_format():
    src = ROOT / "src"
    callers = sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                     if {"fromfile", "tofile", "readinto"} & referenced_names(path.read_text()))
    assert callers == [BINARY_OWNER]


def raised_name(node):
    """Name of the exception a `raise` statement raises; None for a bare `raise`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None))


def raises_outside(source, allowed=(), kind=None):
    """Lines of the `raise` statements in `source` outside the functions named
    in `allowed`; given `kind`, only those raising the exception of that name."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and id(node) not in inside
                  and kind in (None, raised_name(node)))


def test_raises_outside_are_found():
    source = ("def grad():\n    raise ValueError\n"
              "def f():\n    def g():\n        raise TypeError\n    raise KeyError\n")
    assert raises_outside(source, ("grad",)) == [5, 6]
    assert raises_outside(source) == [2, 5, 6]
    assert raises_outside(source, kind="KeyError") == [6]
    assert raises_outside("raise errors.KeyError('x')\nraise\n", kind="KeyError") == [1]


def test_layer_operations_and_primitives_check_nothing():
    """A value is checked once, where it enters: a stack by `LayerSpec` and
    `infer_shapes`, a batch by `Model.forward`, training segments by
    `gan.check_pair`, a gradient's output by `grad`. Behind those entries
    the layer operations, losses and autodiff primitives check nothing."""
    nn = ROOT / "src" / "eegsr" / "nn"
    found = [f"{name}:{line}" for name, allowed in (("functional.py", ()), ("tensor.py", ("grad",)))
             for line in raises_outside((nn / name).read_text(), allowed)]
    assert not found, "re-checks behind the entry points:\n" + "\n".join(found)


# Functions that take only values an entry check has already checked (config
# load, an artifact reader, a record's __post_init__), by file under src/eegsr/.
CHECKED_AT_ENTRY = {
    "data.py": ("split_dataset", "downsample_set"),
    "bicubic.py": ("interpolation_weights",),
    "psd.py": ("train_classifier",),
    "report.py": ("write_sr_csv", "write_class_csv", "sr_markdown", "class_markdown"),
    "nn/layers.py": ("set_parameters",),
}


def test_functions_behind_the_entry_checks_check_nothing():
    """Data is checked where it enters: ratios, window and scale at config
    load, archives and models by their readers, metric records by their
    dataclasses. The functions they feed raise nothing of their own."""
    found = []
    for name, functions in CHECKED_AT_ENTRY.items():
        source = (ROOT / "src" / "eegsr" / name).read_text()
        inside = set(raises_outside(source)) - set(raises_outside(source, functions))
        found += [f"{name}:{line}" for line in sorted(inside)]
    assert not found, "re-checks behind the entry points:\n" + "\n".join(found)


def test_only_the_command_line_refuses_an_absent_input():
    """Whether an input exists is checked once, where its path enters: the
    command line raises ArtifactError, and each reader behind it only reads."""
    src = ROOT / "src"
    found = [f"{path.relative_to(src)}:{line}" for path in sorted(src.rglob("*.py"))
             if path != src / "eegsr" / "cli.py"
             for line in raises_outside(path.read_text(), kind="ArtifactError")]
    assert not found, "ArtifactError raised outside the command line:\n" + "\n".join(found)


# Top-level modules that `import eegsr.cli` adds to a fresh interpreter: every
# command pays for loading them before it starts work.
CLI_MODULES = {
    "__future__", "_ast", "_blake2", "_compat_pickle", "_contextvars", "_csv", "_ctypes",
    "_datetime", "_hashlib", "_json", "_opcode", "_pickle", "argparse", "ast", "configparser",
    "contextvars", "copy", "csv", "ctypes", "dataclasses", "datetime", "dis", "eegsr",
    "gettext", "hashlib", "importlib", "inspect", "json", "linecache", "numbers", "numpy",
    "opcode", "pickle", "platform", "textwrap", "token", "tokenize",
}


def test_the_command_line_loads_only_known_modules():
    code = ("import sys; before = set(sys.modules); import eegsr.cli; "
            "print(*{name.split('.')[0] for name in set(sys.modules) - before})")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    new = sorted(set(proc.stdout.split()) - CLI_MODULES)
    assert not new, f"importing eegsr.cli loads modules outside CLI_MODULES: {new}"
