"""Every backticked `module.name` reference to a farfield module, in the
package docstrings and in README.md, names something that exists, so a
rename cannot leave a stale one behind. `farfield.module.name` counts
too, and anything after the name inside the backticks (a call's
arguments) is ignored; `module.py` is a file name, not a reference.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "farfield"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REFERENCE = re.compile(r"`(?:farfield\.)?(%s)\.(?!py\b)([A-Za-z_][\w.]*)[^`]*`"
                       % "|".join(MODULES))


def docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def resolves(module, name) -> bool:
    obj = importlib.import_module(f"farfield.{module}")
    for part in name.rstrip(".").split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("path", [ROOT / "README.md",
                                  *sorted(PACKAGE.glob("*.py"))],
                         ids=lambda path: path.name)
def test_backticked_module_references_resolve(path):
    texts = ([path.read_text(encoding="utf-8")] if path.suffix == ".md"
             else docstrings(path))
    refs = {ref for text in texts for ref in REFERENCE.findall(text)}
    stale = sorted(f"{module}.{name}" for module, name in refs
                   if not resolves(module, name))
    assert not stale, f"{path.name} names what does not exist: {stale}"
