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
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fraclap"

# the Duhamel right side evaluated directly: the tests compare the solver
# against it, and it is the reference map for a backward-error check of a
# solver's fixed point
EXEMPT = {"duhamel_step"}


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
            if name not in reached and name not in EXEMPT]


def unread_fields():
    modules, users = _modules_and_users()
    read = set()
    for path in users:
        read.update(_reads(_parse(path)))
    return [f"{path.name}:{cls}.{name}" for path in modules
            for cls, name in _fields(_parse(path)) if name not in read]


def test_every_library_name_has_a_production_or_acceptance_caller():
    assert unreached_names() == []


def test_every_dataclass_field_is_read():
    assert unread_fields() == []
