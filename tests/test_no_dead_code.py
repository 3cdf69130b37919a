"""Every function, class and upper-case module constant defined in
``src/paracheck`` is named somewhere in the package besides its definition
(by word match, so a re-export, a call, a docstring or a table entry counts).

A definition no part of the package names has no job there; delete it, or,
when a tool outside the package reads it, list it in READ_OUTSIDE_SRC with
the file that reads it.  Dunder methods are called by Python itself and are
not scanned.

Every parameter of a ``def`` in the package, ``self`` included, is read in
its body: a parameter nothing reads is one more thing every caller passes
for no effect, and a method that does not read ``self`` is a function.

Every field of a dataclass or NamedTuple and every property defined in the
package is read as an attribute (``x.name``) somewhere in it: a field only
tests read is state the engine builds for them alone.  The match is by
attribute name, whatever the object; exception attributes are not scanned.
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

# (function, parameter) -> why it is not read: eval_expr calls every unary function of JetSpace as
# fn(jets, points), the points naming a domain error of ln, sqrt or reciprocal
UNREAD_PARAMETERS = {(fn, "points"): "eval_expr's one call form" for fn in ("exp", "sin", "cos")}


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


def unread_parameters() -> set[tuple[str, str]]:
    """(function, parameter) of every parameter that no name in its def's
    body reads, nested defs included."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {(node.name, p) for p in params if p not in read}
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == set(UNREAD_PARAMETERS)


def _decorator_name(node: ast.expr) -> str:
    """dataclass for @dataclass, @dataclass(...) and @dataclasses.dataclass; likewise any name."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def fields_and_properties(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of every dataclass or NamedTuple field and every property,
    cached_property or ``name = property(...)`` the module's classes define."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        record = ("dataclass" in map(_decorator_name, cls.decorator_list)
                  or "NamedTuple" in map(_decorator_name, cls.bases))
        for node in cls.body:
            if record and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.add((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and {"property", "cached_property"} & set(
                    map(_decorator_name, node.decorator_list)):
                found.add((cls.name, node.name))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and _decorator_name(node.value) == "property":
                found |= {(cls.name, t.id) for t in node.targets if isinstance(t, ast.Name)}
    return found


def unread_fields() -> set[tuple[str, str]]:
    """Fields and properties whose name is never read as an attribute in the package."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return {(cls, name) for tree in trees for cls, name in fields_and_properties(tree) if name not in read}


def test_every_field_and_property_is_read_in_src():
    assert unread_fields() == set()
