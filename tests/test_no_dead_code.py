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
package is read as an attribute (``x.name``) on an object of its class
somewhere in it: a field only tests read is state the engine builds for them
alone.  The receiver's class comes from a small static typing of the package
(:class:`_Types`), so a read of another class's field of the same name does
not count, and neither does a read on a receiver it cannot type (an
argparse namespace's ``args.points``).  Exception attributes are not scanned.

Every other method a class of the package defines, dunders aside, is read
the same way, as an attribute on an object of its class or on the class
itself (``JetSpace.get``): a method only tests call is code the engine keeps
for them alone.  A method the package reaches only by a computed name is
listed in REACHED_BY_NAME with how it is reached, and one a tool outside
the package reads in READ_OUTSIDE_SRC.
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

# (class, method) -> how the package reaches it with no attribute read naming it
REACHED_BY_NAME = {("JetSpace", fn): "eval_expr's getattr(space, node.func)" for fn in ("exp", "ln", "sin", "cos")}


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
    """(class, name) of every dataclass or NamedTuple field and every property
    or cached_property, decorated or ``name = property(...)``, the module's
    classes define."""
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
                    and _decorator_name(node.value) in ("property", "cached_property"):
                found |= {(cls.name, t.id) for t in node.targets if isinstance(t, ast.Name)}
    return found


def _annotation(node: ast.expr | None, aliases: dict) -> frozenset | tuple | None:
    """The type an annotation names: a frozenset of class names (``A | B``
    and a module alias like ``ScalarExpr = Num | Var`` give several), or
    ("of", T) for a container of T (``list[T]``, ``dict[K, T]``, ``tuple[T, ...]``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return aliases.get(name, frozenset({name}))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [_annotation(s, aliases) for s in (node.left, node.right)]
        sides = [s for s in sides if s != frozenset({"None"})]
        return frozenset().union(*sides) if all(isinstance(s, frozenset) for s in sides) else None
    if isinstance(node, ast.Subscript):
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        args = [a for a in args if not (isinstance(a, ast.Constant) and a.value is Ellipsis)]
        inner = _annotation(args[-1], aliases)
        return ("of", inner) if inner else None
    return None


class _Types:
    """A small static typing of ``src/paracheck``, enough to tell which class
    an attribute is read on.  A name is typed by its annotation; an
    unannotated parameter (a lambda's ``ctx``) by the one annotation the
    package gives that name elsewhere; ``self`` by its class; a class's
    own name by that class; a local by
    what it is assigned, iterated over or bound to in a comprehension.  An
    expression ``e.a`` takes the annotation of field or property ``a`` of
    e's class, or the type of the value an ``__init__`` assigns to
    ``self.a``, else the one annotation the package gives the name ``a``
    (``data.A``, an unannotated property, is an ndarray); a call of
    a class, its class; a call of a function or method, its return
    annotation; a subscript or an iteration of a container, its items."""

    def __init__(self, trees: list[ast.Module]):
        self.aliases = {}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp) \
                        and isinstance(node.value.op, ast.BitOr):
                    self.aliases[node.targets[0].id] = _annotation(node.value, {})
        self.classes = {n.name: n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        self.returns, named = {}, {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = self.ann(node.returns)
                    for arg in (*node.args.args, *node.args.kwonlyargs):
                        if arg.annotation:
                            named.setdefault(arg.arg, set()).add(self.ann(arg.annotation))
        self.conventional = {name: ts.pop() for name, ts in named.items() if len(ts) == 1 and None not in ts}
        self.attrs = {name: {} for name in self.classes}
        for name, cls in self.classes.items():
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    self.attrs[name][node.target.id] = self.ann(node.annotation)
                elif isinstance(node, ast.FunctionDef):
                    self.attrs[name][node.name] = self.ann(node.returns)
        for name, cls in self.classes.items():
            for init in (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"):
                env = self.bind(init, name, {})
                for node in ast.walk(init):
                    for target in getattr(node, "targets", []):
                        if isinstance(target, ast.Attribute) and getattr(target.value, "id", "") == "self":
                            self.attrs[name].setdefault(target.attr, self.of(node.value, env))
        self.module_env = {}
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    self.module_env.setdefault(node.targets[0].id, self.of(node.value, {}))

    def ann(self, node):
        return _annotation(node, self.aliases)

    def of(self, e: ast.expr, env: dict):
        """The type of expression ``e`` under ``env``, None when unknown."""
        if isinstance(e, ast.Name):
            return env.get(e.id, frozenset({e.id}) if e.id in self.classes else None)
        if isinstance(e, ast.Attribute):
            t = self.of(e.value, env)
            if isinstance(t, frozenset):
                found = [self.attrs[c][e.attr] for c in t if self.attrs.get(c, {}).get(e.attr)]
                if found:
                    return found[0] if len(found) == 1 else frozenset().union(*found)
            return self.conventional.get(e.attr)
        if isinstance(e, ast.Call):
            f = e.func
            if isinstance(f, ast.Name):
                return frozenset({f.id}) if f.id in self.classes else self.returns.get(f.id)
            if isinstance(f, ast.Attribute):
                t = self.of(f.value, env)
                if isinstance(t, tuple) and f.attr in ("items", "values"):
                    return ("of", ("items", t[1])) if f.attr == "items" else t
                if isinstance(t, frozenset) and t & set(self.classes):
                    return self.of(ast.Attribute(f.value, f.attr, ast.Load()), env)
                if isinstance(f.value, ast.Name) and f.value.id not in env:          # a module: hl.evaluate_bundle
                    return frozenset({f.attr}) if f.attr in self.classes else self.returns.get(f.attr)
            return None
        if isinstance(e, ast.Subscript):
            t = self.of(e.value, env)
            return t[1] if isinstance(t, tuple) and t[0] == "of" else None
        if isinstance(e, (ast.Dict, ast.List)):
            items = {self.of(v, env) for v in (e.values if isinstance(e, ast.Dict) else e.elts)}
            return ("of", items.pop()) if len(items) == 1 and None not in items else None
        if isinstance(e, (ast.BoolOp, ast.IfExp)):
            ts = {self.of(v, env) for v in (e.values if isinstance(e, ast.BoolOp) else (e.body, e.orelse))}
            return ts.pop() if len(ts) == 1 else None
        if isinstance(e, ast.NamedExpr):
            return self.of(e.value, env)
        return None

    def assign(self, target: ast.expr, t, env: dict):
        if isinstance(target, ast.Name) and t is not None:
            env[target.id] = t
        elif isinstance(target, ast.Tuple) and isinstance(t, tuple) and t[0] == "items":
            self.assign(target.elts[-1], t[1], env)

    def bind(self, scope, cls: str | None, outer: dict) -> dict:
        """The names of ``scope`` (a def or lambda) with their types."""
        env = dict(outer)
        a = scope.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if arg.arg == "self" and cls:
                env["self"] = frozenset({cls})
            elif (t := self.ann(arg.annotation) if getattr(arg, "annotation", None) else
                    self.conventional.get(arg.arg)):
                env[arg.arg] = t
        if a.vararg and a.vararg.annotation:
            env[a.vararg.arg] = ("of", self.ann(a.vararg.annotation))
        nodes = [n for b in (scope.body if isinstance(scope.body, list) else [scope.body]) for n in ast.walk(b)]
        for _ in range(2):          # a comprehension binds its names after the element that reads them
            for n in nodes:
                if isinstance(n, ast.Assign):
                    for target in n.targets:
                        if isinstance(target, ast.Tuple) and isinstance(n.value, ast.Tuple):
                            for tt, vv in zip(target.elts, n.value.elts):
                                self.assign(tt, self.of(vv, env), env)
                        else:
                            self.assign(target, self.of(n.value, env), env)
                elif isinstance(n, ast.NamedExpr):
                    self.assign(n.target, self.of(n.value, env), env)
                elif isinstance(n, (ast.For, ast.comprehension)):
                    t = self.of(n.iter, env)
                    self.assign(n.target, t[1] if isinstance(t, tuple) and t[0] == "of" else None, env)
        return env

    def reads(self, tree: ast.Module) -> set[tuple[tuple[str, str], tuple[str, str] | None]]:
        """((class, attribute), reader) of every attribute read on a receiver
        of a known class, the reader being the (class, method) whose body holds
        the read, or None outside every method's body."""
        found = set()

        def visit(node, cls, env, reader):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name, env, None)
                elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                    inner = self.bind(child, cls, env)
                    here = reader or ((cls, child.name) if cls and isinstance(child, ast.FunctionDef) else None)
                    for n in ast.walk(child):
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                            t = self.of(n.value, inner)
                            found.update(((c, n.attr), here) for c in (t if isinstance(t, frozenset) else ()))
                    visit(child, cls if isinstance(child, ast.Lambda) else None, inner, here)
                else:
                    visit(child, cls, env, reader)

        visit(tree, None, self.module_env, None)
        return found


def _methods(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of every method the module's classes define, dunders
    and properties aside."""
    return {(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
            and not {"property", "cached_property"} & set(map(_decorator_name, node.decorator_list))}


def _readers() -> tuple[list[ast.Module], dict]:
    """The package's modules, and the readers of each (class, attribute) read in them."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    types, readers = _Types(trees), {}
    for tree in trees:
        for member, reader in types.reads(tree):
            readers.setdefault(member, set()).add(reader)
    return trees, readers


def unread_members(defined) -> set[tuple[str, str]]:
    """The (class, name) pairs ``defined`` lists in the package's modules, of
    fields, properties or methods, that nothing live reads as an attribute on
    an object of their class (or of a union holding it) or on the class
    itself.  A read is live outside every member's body, and in the body of a
    member read live itself, or of one REACHED_BY_NAME or READ_OUTSIDE_SRC
    lists: so a method only an unread method calls is unread too."""
    trees, readers = _readers()
    members = {m for tree in trees for m in (*fields_and_properties(tree), *_methods(tree))}
    unread = set()
    while more := {m for m in members - unread - set(REACHED_BY_NAME) if m[1] not in READ_OUTSIDE_SRC
                   and readers.get(m, set()) <= unread | {m}}:
        unread |= more
    return unread & {m for tree in trees for m in defined(tree)}


def test_every_field_and_property_is_read_in_src():
    assert unread_members(fields_and_properties) == set()


def test_every_method_is_read_in_src():
    assert unread_members(_methods) == set()


def test_each_method_reached_by_name_is_read_by_no_attribute():
    trees, readers = _readers()
    methods = set().union(*map(_methods, trees))
    assert {m for m in REACHED_BY_NAME if m in methods and m not in readers} == set(REACHED_BY_NAME)
