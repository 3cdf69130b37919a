"""Every function, class and upper-case module constant defined in
``src/paracheck`` is named somewhere in the package besides its definition
(by word match, so a re-export, a call, a docstring or a table entry counts).

A definition no part of the package names has no job there; delete it, or,
when a tool outside the package reads it, list it in READ_OUTSIDE_SRC with
the file that reads it.  Dunder methods are called by Python itself and are
not scanned.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "paracheck"

# name -> the file outside src/ that reads it
READ_OUTSIDE_SRC = {
    "mul_table": "perfbench/tracer.py",
    "save_manifest": "perfbench/workloads.py",
}


def definitions(tree: ast.Module) -> list[str]:
    """Names of the functions and classes (methods and nested ones included)
    and of the upper-case module-level constants a module defines."""
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unnamed() -> set[str]:
    """Defined names that no text of the package names besides their definitions."""
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    defined = Counter(n for text in texts for n in definitions(ast.parse(text)))
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    return {n for n, count in defined.items() if words[n] <= count}


def test_every_definition_is_named_in_src():
    assert unnamed() == set(READ_OUTSIDE_SRC)


def test_each_outside_reader_names_its_entry():
    for name, reader in READ_OUTSIDE_SRC.items():
        assert re.search(rf"\b{name}\b", (ROOT / reader).read_text()), (name, reader)
