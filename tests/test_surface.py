"""Surface guard: every top-level function and class of ``src/fraclap``, and
every non-dunder method, must be reached from the library itself, from the
benchmark harness or from the acceptance criteria. A name that only unit
tests reach is library surface that production runs never use.

"Reached" is lexical: the name appears as an identifier (a name, an
attribute, an imported name) or as a string constant (the harness wraps
functions by name) in some file other than ``fraclap/__init__.py``. The
definition itself does not count.
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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unreached_names():
    modules = sorted(PACKAGE.glob("*.py"))
    users = ([p for p in modules if p.name != "__init__.py"]
             + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    reached = set()
    for path in users:
        reached.update(_identifiers(_parse(path)))
    return [f"{path.name}:{name}" for path in modules
            for name in _definitions(_parse(path))
            if name not in reached and name not in EXEMPT]


def test_every_library_name_has_a_production_or_acceptance_caller():
    assert unreached_names() == []
