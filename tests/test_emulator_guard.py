"""The emulator's day tree rests on three premises that no code may break.

``Emulator.step`` serves a day from its block's prefix tree whenever the
running upper bounds repeat a prefix already played.  That is exact only
while an emulator's ``realized`` block holds exactly the hires its steps
played, and while the hires of the ``Decision`` a step returns (one object
shared by every emulator that reaches the same prefix) are never written.
So:

- nothing in the package assigns into an ``Emulator``'s ``realized``
  block, under that name or a private one such as ``_realized``, outside
  ``Emulator.step`` and the ``Emulator.realized`` read that allocates the
  block and fills in the days the tree served;
- no consumer of ``Emulator.step`` (or of a method that hands its
  decision or hires on) writes into the returned hires in place;
- only ``emulator._block`` builds a ``DayTree`` or day tables, so every
  emulator of a block finds the one tree in its memo.

A fourth rule keeps one way to drive the emulator: an ``Emulator`` is built
only where a policy sets up its run (``LpEmulatorPolicy.__init__``,
``MiscoverageWrapper.__init__``) or opens a release epoch
(``ReleasePolicy._open_epoch``), and is then stepped once a day.  An
emulator built on every day would replay the run from day 1 each time.

All four are checked on the source with the standard library's ``ast``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "staffing_minimax"

# ndarray methods that write into their array.
MUTATORS = {"fill", "put", "sort", "itemset", "resize", "setfield",
            "partition", "byteswap"}


def _base(node):
    """The expression a chain of subscripts indexes into."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _text(node) -> str:
    return ast.unparse(_base(node))


def _functions(tree):
    """(qualified name, class name or None, function node) of every
    function and method, nested ones included."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, cls, child))
                visit(child, prefix + child.name + ".", cls)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return out


def _calls(node, name):
    return any(isinstance(sub, ast.Call) and name in (
        getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
        for sub in ast.walk(node))


def _writes(fn, is_target):
    """Nodes in `fn` that write in place into an array `is_target` accepts:
    a subscript store or augmented assignment, a mutating method, an
    ``out=`` argument, ``np.copyto`` and a flags change."""
    found = []
    for sub in ast.walk(fn):
        targets = []
        if isinstance(sub, (ast.Assign, ast.Delete)):
            targets = sub.targets
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        for tgt in targets:
            if isinstance(tgt, ast.Subscript) and is_target(_base(tgt)):
                found.append(sub)
            elif isinstance(sub, ast.AugAssign) and is_target(tgt):
                found.append(sub)
            elif (isinstance(tgt, ast.Attribute)
                  and isinstance(tgt.value, ast.Attribute)
                  and tgt.value.attr == "flags"
                  and is_target(tgt.value.value)):
                found.append(sub)
        if isinstance(sub, ast.Call):
            func = sub.func
            if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                    and is_target(func.value)):
                found.append(sub)
            if any(kw.arg == "out" and is_target(kw.value)
                   for kw in sub.keywords):
                found.append(sub)
            if (getattr(func, "attr", getattr(func, "id", None)) == "copyto"
                    and sub.args and is_target(sub.args[0])):
                found.append(sub)
    return found


def _is_realized_attr(node) -> bool:
    """``x.realized``, or a private spelling such as ``x._realized``."""
    return (isinstance(node, ast.Attribute)
            and node.attr.lstrip("_") == "realized")


def realized_writes(sources: dict) -> list:
    """(function, line) of every write into a ``realized`` array (or a
    private ``_realized`` one) of a class that is or builds an
    ``Emulator``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        holders = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and (node.name == "Emulator" or _calls(node, "Emulator"))}
        for qual, cls, fn in _functions(tree):
            # Local names bound to some object's `realized` array, read from
            # it or assigned along with it (`a = self._realized = ...`).
            aliases = {tgt.id for sub in ast.walk(fn)
                       if isinstance(sub, ast.Assign)
                       and (_is_realized_attr(sub.value)
                            or any(map(_is_realized_attr, sub.targets)))
                       for tgt in sub.targets if isinstance(tgt, ast.Name)}

            def is_realized(node, in_place=False):
                if isinstance(node, ast.Name):
                    return node.id in aliases
                if _is_realized_attr(node):
                    # `x.realized += ...` rebinds a plain number unless
                    # the class holds an emulator's array.
                    return not in_place or cls in holders
                return False

            writes = [w for w in _writes(fn, is_realized)
                      if not (isinstance(w, ast.AugAssign)
                              and not isinstance(w.target, ast.Subscript)
                              and not is_realized(w.target, True))]
            found += [(f"{module}.{qual}", w.lineno) for w in writes]
    return sorted(found)


def hires_writes(sources: dict) -> tuple:
    """(step consumers found, in-place writes into the hires they got).

    A step call is ``.step(...)`` on an expression bound to an
    ``Emulator(...)`` (or an alias of one), or a call of a method that
    returns such a step's decision under its own name (``latest``).  The
    hires are a decision's ``.hires``, a name bound to them or to the first
    name a decision unpacks to, or a call of a method that returns them
    (``observe``).
    """
    trees = {m: ast.parse(s) for m, s in sources.items()}
    holders = set()
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Assign) and _calls(sub.value, "Emulator"):
                holders |= {_text(t) for t in sub.targets}
    forwarders: dict = {}      # method name -> "decision" or "hires"
    consumers, found = set(), []
    changed = True
    while changed:
        changed = False
        consumers.clear()
        found.clear()
        for module, tree in trees.items():
            for qual, _, fn in _functions(tree):
                local = set(holders)
                for sub in ast.walk(fn):
                    if (isinstance(sub, ast.Assign)
                            and _text(sub.value) in holders):
                        local |= {_text(t) for t in sub.targets}

                def called(node, kind):
                    if not isinstance(node, ast.Call) or not isinstance(
                            node.func, ast.Attribute):
                        return False
                    return ((kind == "decision" and node.func.attr == "step"
                             and _text(node.func.value) in local)
                            or forwarders.get(node.func.attr) == kind)

                assigns = [sub for sub in ast.walk(fn)
                           if isinstance(sub, ast.Assign)]
                decisions = {tgt.id for sub in assigns
                             if called(sub.value, "decision")
                             for tgt in sub.targets
                             if isinstance(tgt, ast.Name)}

                def is_decision(node):
                    return called(node, "decision") or (
                        isinstance(node, ast.Name) and node.id in decisions)

                def is_hires(node):
                    return (called(node, "hires")
                            or (isinstance(node, ast.Name)
                                and node.id in names)
                            or (isinstance(node, ast.Attribute)
                                and node.attr == "hires"
                                and is_decision(node.value)))

                names: set = set()
                for sub in assigns:
                    for tgt in sub.targets:
                        if isinstance(tgt, ast.Name) and is_hires(sub.value):
                            names.add(tgt.id)
                        elif (isinstance(tgt, ast.Tuple) and tgt.elts
                              and isinstance(tgt.elts[0], ast.Name)
                              and is_decision(sub.value)):
                            names.add(tgt.elts[0].id)
                if not any(called(sub, kind) for sub in ast.walk(fn)
                           for kind in ("decision", "hires")):
                    continue
                consumers.add(f"{module}.{qual}")
                for sub in ast.walk(fn):
                    # `.step` calls are matched by their receiver
                    if (not isinstance(sub, ast.Return) or sub.value is None
                            or fn.name in forwarders or fn.name == "step"):
                        continue
                    kind = ("decision" if is_decision(sub.value)
                            else "hires" if is_hires(sub.value) else None)
                    if kind is not None:
                        forwarders[fn.name] = kind
                        changed = True
                found += [(f"{module}.{qual}", w.lineno)
                          for w in _writes(fn, is_hires)]
    return consumers, found


def builders(sources: dict, names) -> list:
    """(function, line) of every call of one of `names`, named by the
    outermost function around it ("<module>" outside any)."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {}
        for qual, _, fn in _functions(tree):     # outer ones come first
            for sub in ast.walk(fn):
                owner.setdefault(id(sub), qual)
        found += [(f"{module}.{owner.get(id(sub), '<module>')}", sub.lineno)
                  for sub in ast.walk(tree) if isinstance(sub, ast.Call)
                  and getattr(sub.func, "id", getattr(sub.func, "attr", None))
                  in names]
    return sorted(found)


def block_builders(sources: dict) -> list:
    """Every call that makes a DayTree or day tables (see `builders`)."""
    return builders(sources, ("DayTree", "_build_day_tables"))


def emulator_builders(sources: dict) -> list:
    """Every call that makes an Emulator (see `builders`)."""
    return builders(sources, ("Emulator",))


def _package_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))}


def test_guard_sees_writes():
    source = (
        "class Emulator:\n"
        "    def __init__(self):\n        self.realized = zeros(3)\n"
        "    def step(self, b):\n        self.realized[0] = b\n"
        "        return self.realized[:, 0]\n"
        "class Runner:\n"
        "    def __init__(self):\n        self.emulator = Emulator()\n"
        "        self.realized = self.emulator.realized\n"
        "    def observe(self, b):\n"
        "        hires = self.emulator.step(b).hires\n"
        "        self.realized[:, 1] += 1\n"
        "        return hires\n"
        "    def fix(self):\n        r = self.emulator.realized\n"
        "        r.fill(0)\n        self.realized += 1\n"
        "class Other:\n    def count(self, x):\n        self.realized += x\n"
        "def use(runner, b):\n"
        "    em = Emulator()\n    h = em.step(b).hires\n    h[0] = 2\n"
        "    g = runner.observe(b)\n    g *= 2\n"
        "    np.maximum(g, 0, out=g)\n    h.flags.writeable = True\n"
        "    return em.step(b)\n"
        # The hires reached through a whole decision.
        "def decide(runner, b):\n"
        "    em = Emulator()\n    d = em.step(b)\n    d.hires[0] = 2\n"
        "    e = runner.latest(b)\n    e.hires.fill(0)\n"
        "    h, r = em.step(b)\n    h += 1\n"
        "    em.step(b).hires.sort()\n"
        "    d.hires.flags.writeable = True\n"
        "    return d.releases.sum()\n"
        "class Keeper:\n"
        "    def __init__(self):\n        self.emulator = Emulator()\n"
        "    def latest(self, b):\n        d = self.emulator.step(b)\n"
        "        return d\n")
    assert realized_writes({"m": source}) == [
        ("m.Emulator.step", 5), ("m.Runner.fix", 17), ("m.Runner.fix", 18),
        ("m.Runner.observe", 13)]
    consumers, writes = hires_writes({"m": source})
    assert consumers == {"m.Runner.observe", "m.use", "m.decide",
                         "m.Keeper.latest"}
    assert sorted(line for _, line in writes) == [25, 27, 28, 29, 34, 36,
                                                  38, 39, 40]


def test_guard_sees_writes_into_a_private_block():
    # The block under a private name, reached directly, through an alias
    # or through a chained assignment, is the same block.
    source = (
        "class Emulator:\n"
        "    def __init__(self):\n        self._realized = None\n"
        "    @property\n    def realized(self):\n"
        "        block = self._realized = zeros(3)\n"
        "        block[:, 0] = 1\n        return block\n"
        "    def step(self, b):\n        self.realized[:, 1] = b\n"
        "    def reset(self):\n        self._realized[:, 0] = 0\n"
        "    def undo(self):\n        r = self._realized\n"
        "        r *= 0\n        r.fill(0)\n"
        "    def count(self):\n        self.realized_cum[0] = 1\n")
    assert realized_writes({"m": source}) == [
        ("m.Emulator.realized", 7), ("m.Emulator.reset", 12),
        ("m.Emulator.step", 10), ("m.Emulator.undo", 15),
        ("m.Emulator.undo", 16)]


def test_only_emulator_step_and_its_fill_write_realized():
    found = realized_writes(_package_sources())
    assert sorted({where for where, _ in found}) == [
        "emulator.Emulator.realized", "emulator.Emulator.step"]


def test_no_consumer_writes_into_step_hires():
    consumers, found = hires_writes(_package_sources())
    # Every emulating policy consumes the step.
    assert consumers >= {"policies.LpEmulatorPolicy.step",
                         "policies.MiscoverageWrapper.step",
                         "policies.ReleasePolicy.step"}
    assert found == []


def test_guard_sees_block_builders():
    source = (
        "def _block(c, a):\n"
        "    def build():\n        return DayTree(_build_day_tables(c, a))\n"
        "    return build()\n"
        "class Emulator:\n"
        "    def __init__(self, c, a):\n"
        "        self.tree = keep(DayTree(()))\n"
        "tables = emulator._build_day_tables(c, a)\n")
    assert block_builders({"m": source}) == [
        ("m.<module>", 8), ("m.Emulator.__init__", 7), ("m._block", 3),
        ("m._block", 3)]


def test_only_block_builds_day_trees_and_tables():
    assert {where for where, _ in block_builders(_package_sources())} == {
        "emulator._block"}


def test_guard_sees_emulator_builders():
    # A step that builds an emulator each day, and a helper that builds one
    # to replay a run, are named by the function that holds the call.
    source = (
        "class Wrapper:\n"
        "    def __init__(self, c):\n"
        "        self.emulator = Emulator(c, a, 1.0)\n"
        "    def step(self, obs):\n"
        "        em = emulator.Emulator(self.c, self.a, 1.0)\n"
        "        return em.step(obs.hi)\n"
        "def replay(c, bounds):\n"
        "    em = Emulator(c, a, 1.0)\n"
        "    return [em.step(b) for b in bounds]\n")
    assert emulator_builders({"m": source}) == [
        ("m.Wrapper.__init__", 3), ("m.Wrapper.step", 5), ("m.replay", 8)]


def test_emulators_are_built_where_runs_and_epochs_open():
    assert [where for where, _ in emulator_builders(_package_sources())] == [
        "policies.LpEmulatorPolicy.__init__",
        "policies.MiscoverageWrapper.__init__",
        "policies.ReleasePolicy._open_epoch"]
