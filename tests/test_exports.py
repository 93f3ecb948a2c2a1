"""Every name that `farfield/__init__.py` exports has a reader, so public
API that nothing uses cannot pile up.

A reader is code in src/farfield (the package's `__init__` aside), in
demos/ or in perfbench/ that names the exported name outside its own
definition: an identifier, an attribute or an import. In perfbench a
string "module.name" counts too, since the tracer wraps and reports
farfield functions by that name. Tests do not count. The public codecs
need no reader: they are how a caller stores models, spaces and specs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "farfield"
INIT = PACKAGE / "__init__.py"
PERFBENCH = ROOT / "perfbench"
PLACES = (PACKAGE, ROOT / "demos", PERFBENCH)
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
TRACED = re.compile(r"(?:%s)\.(\w+)" % "|".join(MODULES))
CODECS = {"model_to_json", "model_from_json", "space_to_json",
          "space_from_json", "spec_to_dict"}


def exported():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def read_names(path):
    """The names that the file reads outside their own definitions."""
    traced = PERFBENCH in path.parents
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if traced and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            match = TRACED.fullmatch(node.value)
            name = match and match.group(1)
        if name and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_has_a_reader():
    names = exported()
    assert CODECS <= names
    read = set().union(*(read_names(path) for place in PLACES
                         for path in place.rglob("*.py") if path != INIT))
    unread = sorted(names - read - CODECS)
    assert not unread, f"exported, but read nowhere: {unread}"
