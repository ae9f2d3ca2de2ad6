"""Every function, class, method, module-level name, ``__slots__`` entry
and class attribute the package defines is used outside the tests: read
somewhere in ``src/``, ``demos/`` or ``benchmarks/``.

A reference is a name or an attribute that is read, an imported name or
its alias, or a string constant that is a whole identifier or dotted name,
each part counted (the benchmark tracer names what it wraps that way).  A
slot counts only attributes read by its name, so a field that is only ever
written is dead; so does a class attribute, a name an assignment in a class
body binds, annotated or not, which takes in dataclass and NamedTuple
fields: a field that is only constructed is dead.  A word in a message or
a docstring is prose, not a reference.  A definition does not reference
itself.  Dunders are exempt, and so are the ``cmd_*`` functions:
``cli.main`` dispatches to them by name.  Code that only tests call belongs
in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "staffing_minimax"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "benchmarks"]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _assigned(node: ast.stmt) -> list:
    """The names a module- or class-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def definitions(tree: ast.Module) -> list:
    """Module-level functions, classes and assigned names, the classes'
    methods, and their __slots__ entries and assigned class attributes
    (annotated fields too) as "." + the name, none of them dunders, as
    (name, node)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        found += [(name, node) for name in _assigned(node)]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found.append((item.name, item))
                elif "__slots__" in _assigned(item):
                    found += [("." + slot.value, item)
                              for slot in ast.walk(item.value)
                              if isinstance(slot, ast.Constant)]
                else:
                    found += [("." + name, item) for name in _assigned(item)]
    return [(name, node) for name, node in found
            if not (name.lstrip(".").startswith("__")
                    and name.endswith("__") or name.startswith("cmd_"))]


def references(tree: ast.AST) -> Counter:
    """Every name the code reads, by any of the four routes, counted; an
    attribute read counts under "." + its name too."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            refs[node.attr] += 1
            refs["." + node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.update(alias.name.split("."))
                if alias.asname:
                    refs[alias.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            refs.update(node.value.split("."))
    return refs


def unreferenced(modules: dict, users: list) -> list:
    """Names defined in `modules` (path -> source, each also among the
    sources in `users`) that no code in `users` outside their own
    definition refers to, as "module: name"."""
    refs = Counter()
    for source in users:
        refs += references(ast.parse(source))
    return sorted(f"{Path(path).stem}: {name}"
                  for path, source in modules.items()
                  for name, node in definitions(ast.parse(source))
                  if refs[name] <= references(node)[name])


def _python_files(roots):
    return [p for root in roots for p in sorted(root.rglob("*.py"))]


def test_guard_sees_code_only_tests_use():
    module = ("class A:\n"
              "    def used(self): return helper()\n"
              "    def unused(self): pass\n"
              "    def __repr__(self): return 'A'\n"
              "def helper(): return A\n"
              "def named_in_string(): pass\n"
              "def named_in_prose(): pass\n"
              "def cmd_go(): pass\n"
              "def orphan(): return orphan()\n")
    user = ("from m import A as B\nB().used()\n"
            "TABLE = ['m.named_in_string']\n"
            "raise ValueError('no named_in_prose here')\n")
    assert unreferenced({"m.py": module}, [module, user]) == [
        "m: named_in_prose", "m: orphan", "m: unused"]


def test_guard_sees_constants_and_slots_only_written():
    module = ("USED = 1\n"
              "UNUSED: int = 2\n"
              "WRITTEN = 3\n"
              "__version__ = '1'\n"
              "class Node:\n"
              "    __slots__ = ('read', 'written', 'bumped')\n"
              "    def __init__(self):\n"
              "        self.read = self.written = USED\n"
              "        self.bumped = 0\n"
              "    def step(self):\n"
              "        self.bumped += 1\n"
              "        return self.read\n")
    user = ("from m import Node\n"
            "import m\n"
            "m.WRITTEN = 4\n"
            "Node().step()\n"
            "written = 'written'\n")
    assert unreferenced({"m.py": module}, [module, user]) == [
        "m: .bumped", "m: .written", "m: UNUSED", "m: WRITTEN"]


def test_guard_sees_class_attributes_only_written():
    module = ("class Policy:\n"
              "    label = 'policy'\n"
              "    limit = 3\n"
              "    tag: str = 'annotated'\n"
              "    __hash__ = None\n"
              "    def __init__(self):\n"
              "        self.label = 'written'\n"
              "    def step(self):\n"
              "        return self.limit\n"
              "def local_label():\n"
              "    label = Policy()\n"
              "    return label\n")
    user = ("from m import Policy, local_label\n"
            "Policy().step()\n"
            "local_label()\n"
            "NAMES = ['label']\n")
    assert unreferenced({"m.py": module}, [module, user]) == [
        "m: .label", "m: .tag"]


def test_guard_sees_annotated_fields_only_written():
    # A keyword argument, a local of the field's name and a string constant
    # construct or name the field; only an attribute read uses it.
    module = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass\n"
              "class Built:\n"
              "    model: int\n"
              "    theta: int\n"
              "    extra: int = 0\n"
              "class Pair(NamedTuple):\n"
              "    left: float\n"
              "    right: float\n"
              "def build():\n"
              "    right = 2.0\n"
              "    return Built(1, theta=2), Pair(1.0, right)\n")
    user = ("from m import build\n"
            "built, pair = build()\n"
            "print(built.model, built.extra, pair.left)\n"
            "NAMES = ['theta']\n")
    assert unreferenced({"m.py": module}, [module, user]) == [
        "m: .right", "m: .theta"]


def test_src_defines_nothing_only_tests_use():
    modules = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text() for p in _python_files(USERS)]
    assert unreferenced(modules, users) == []
