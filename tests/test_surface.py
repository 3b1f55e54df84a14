"""Surface guard: every top-level function and class of ``src/fraclap``, and
every non-dunder method, must be reached from the library itself, from the
benchmark harness or from the acceptance criteria. A name that only unit
tests reach is library surface that production runs never use. Likewise
every dataclass field must be read there: a field that is written and never
read is a value the program computes for nobody.

"Reached" is lexical: the name appears as an identifier (a name, an
attribute, an imported name) or as a string constant (the harness wraps
functions by name) in some file other than ``fraclap/__init__.py``. The
definition itself does not count. A field is "read" when its name appears
as an attribute load or a string constant in those files; passing it to a
constructor by keyword is a write.

Every default of a parameter or a dataclass field must be taken: some call
in those files, matched by the callee's name, leaves the parameter out and
passes no ``*args`` or ``**kwargs``. A default that only tests take is a
second path that production runs never use.

The modules form layers, and a module imports only from layers below its
own (``LAYERS``): a decision that two layers need lives in the lower one.

Importing the CLI loads no module that only some runs use (``LAZY``):
every call pays its import time.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fraclap"

# the package's import layers, lowest first; __init__ re-exports the layers
# below cli
LAYERS = ({"errors"}, {"spectral"}, {"operators", "coefficient"},
          {"solver", "certificate"}, {"cli", "__init__"})


# modules that only some runs use, imported where they are used: the
# solver's worker pool
LAZY = ("concurrent.futures",)


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _parameter_defaults(fn, callee, method):
    a = fn.args
    positional = (a.posonlyargs + a.args)[1 if method else 0:]
    first = len(positional) - len(a.defaults)
    for pos in range(first, len(positional)):
        yield callee, positional[pos].arg, pos
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _defaults(tree):
    """(callee, parameter, position) of every defaulted parameter of a
    top-level function, a method or a dataclass constructor; position is the
    index among the arguments a caller may pass positionally (None for a
    keyword-only one)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _parameter_defaults(node, node.name, method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    yield from _parameter_defaults(item, callee, method=True)
            if any(map(_is_dataclass, node.decorator_list)):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                for pos, item in enumerate(fields):
                    if item.value is not None:
                        yield node.name, item.target.id, pos


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _leaves_out(call, param, pos):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return False
    return pos is None or len(call.args) <= pos


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules_and_users():
    modules = sorted(PACKAGE.glob("*.py"))
    users = ([p for p in modules if p.name != "__init__.py"]
             + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    return modules, users


def unreached_names():
    modules, users = _modules_and_users()
    reached = set()
    for path in users:
        reached.update(_identifiers(_parse(path)))
    return [f"{path.name}:{name}" for path in modules
            for name in _definitions(_parse(path))
            if name not in reached]


def unread_fields():
    modules, users = _modules_and_users()
    read = set()
    for path in users:
        read.update(_reads(_parse(path)))
    return [f"{path.name}:{cls}.{name}" for path in modules
            for cls, name in _fields(_parse(path)) if name not in read]


def untaken_defaults():
    modules, users = _modules_and_users()
    calls = {}
    for path in users:
        for name, call in _calls(_parse(path)):
            calls.setdefault(name, []).append(call)
    return [f"{path.name}:{callee}({param}=)" for path in modules
            for callee, param, pos in _defaults(_parse(path))
            if not any(_leaves_out(c, param, pos) for c in calls.get(callee, ()))]


def _relative_imports(tree):
    """The package modules a module imports from: ``from .spectral import x``
    gives spectral, ``from . import certificate`` gives certificate."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def layer_violations():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in layer:
            out.append(f"{path.stem} has no layer")
            continue
        for imported in _relative_imports(_parse(path)):
            if not layer.get(imported, len(LAYERS)) < layer[path.stem]:
                out.append(f"{path.stem} imports {imported}")
    return out


def test_every_library_name_has_a_production_or_acceptance_caller():
    assert unreached_names() == []


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_every_default_is_taken():
    assert untaken_defaults() == []


def test_modules_import_only_from_lower_layers():
    assert layer_violations() == []


def test_cli_import_loads_no_lazy_module():
    # a fresh interpreter: this one has imported the test suite's modules
    code = ("import sys; import fraclap.cli; "
            f"print(sorted(m for m in {LAZY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src",
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
