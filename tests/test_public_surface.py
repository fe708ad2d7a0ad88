"""Every public name of the package has a reader in the package itself.

A name in a module's ``__all__`` must be read somewhere in
``src/qubitbench``, by a reader that resolves to the module defining it: a
bare name in that module, a name bound by ``from .module import name``, or
``alias.name`` where ``alias`` is bound to that module by ``from . import
module as alias``.  A same-named attribute of any other object is not a
read, nor is the package ``__init__`` re-exporting the name.

Reads count only from live code: module-level statements, and the bodies of
top-level functions and classes that are themselves read from live code.
Two more kinds of root have readers the syntax tree cannot show: the suite
runners, which ``run_suite`` looks up as ``globals()[f"run_{suite}"]``, and
the benchmark tracer's ``TARGETS``, which wrap a function by module and
attribute name; this test reads that file and never edits it.  A helper
that only tests call belongs with the tests.

Two more rules hold state to what is read: every field of a package
dataclass has an attribute read of its name in live package code, and no
module of the package or of the tests imports a name it never reads.  The
reverse of the first rule also holds: a module of the package reads another
one's names, by ``from .module import name`` or by ``alias.name``, only when
they are in that module's ``__all__``.  A last rule keeps one way from a
subsystem to its frame: inside the package,
only ``frames.frame_from_isometry`` and the algebra suite's abstract-qubit
family, which builds the plain and the deliberately broken 2x2 frames,
call ``EncodedQubitFrame``.
"""

import ast
from pathlib import Path

import pytest

from qubitbench.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qubitbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# "all" names no runner of its own
DISPATCHED = {("suites", f"run_{suite}") for suite in SUITE_NAMES if suite != "all"}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def top_level_definitions(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def imported_bindings(tree, modules):
    """Local names bound by relative imports of package modules: a dict to
    (module, name) for imported names, and one to module for module aliases."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None and alias.name in modules:
                aliases[local] = alias.name
            elif node.module in modules:
                names[local] = (node.module, alias.name)
    return names, aliases


def module_reads(module, tree, modules):
    """(context, (module, name)) for every read of a package name in this
    module; context is the enclosing top-level definition as (module, name),
    or None at module level."""
    defined = top_level_definitions(tree)
    names, aliases = imported_bindings(tree, modules)
    for stmt in tree.body:
        context = None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            context = (module, stmt.name)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    yield context, names[node.id]
                elif node.id in defined and (module, node.id) != context:
                    yield context, (module, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                yield context, (aliases[node.value.id], node.attr)


def live_names(trees, roots):
    """(module, name) pairs reachable from module-level code and roots."""
    reads = [read for module, tree in trees.items()
             for read in module_reads(module, tree, set(trees))]
    live = set(roots) | {target for context, target in reads if context is None}
    while True:
        grown = live | {target for context, target in reads if context in live}
        if grown == live:
            return live
        live = grown


def traced_targets():
    """(module, attribute) of every entry of the tracer's TARGETS."""
    for node in parse(ROOT / "benchmarks" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts}
    raise AssertionError("benchmarks/tracer.py defines no TARGETS")


def unread_public_names(modules, roots):
    """Public names of the given modules with no live reader in them, as
    "module.name", given the (module, name) roots."""
    trees = {path.stem: parse(path) for path in modules}
    live = live_names(trees, roots)
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in public_names(tree) if (module, name) not in live)


def test_every_public_name_has_a_reader_in_the_package():
    assert unread_public_names(MODULES, DISPATCHED | traced_targets()) == []


@pytest.mark.parametrize("sources, unread", [
    ({"helper": '__all__ = ["used", "unused"]\n'
                "def used():\n    return 1\n"
                "def unused():\n    return used()\n"
                "VALUE = used()\n"}, ["helper.unused"]),
    ({"helper": '__all__ = ["CONSTANT", "Record"]\n'
                "CONSTANT = 3\nclass Record:\n    size = CONSTANT\n"},
     ["helper.CONSTANT", "helper.Record"]),
    ({"helper": '__all__ = ["traced", "inner"]\n'
                "def inner():\n    return 1\n"
                "def traced():\n    return inner()\n"}, []),
    ({"helper": '__all__ = ["shared", "aliased"]\n'
                "def shared():\n    return 1\n"
                "def aliased():\n    return 2\n",
      "user": "from . import helper as h\nfrom .helper import shared\n"
              "VALUE = shared() + h.aliased()\n"}, []),
    ({"helper": '__all__ = ["size"]\n'
                "def size():\n    return 1\n",
      "user": "import numpy as np\nsize = 2\nVALUE = np.ones(3).size + size\n"},
     ["helper.size"]),
], ids=["dead_caller", "read_only_by_dead_class", "traced_root",
        "imported_and_aliased", "same_named_attribute_or_variable"])
def test_a_public_name_without_a_reader_is_reported(sources, unread, tmp_path):
    modules = []
    for name, source in sources.items():
        modules.append(tmp_path / f"{name}.py")
        modules[-1].write_text(source)
    assert unread_public_names(modules, {("helper", "traced")}) == unread


def private_cross_module_reads(modules):
    """"module.name (read by reader)" for every name that one of the given
    modules reads from another of them and that is not in its __all__."""
    trees = {path.stem: parse(path) for path in modules}
    public = {module: set(public_names(tree)) for module, tree in trees.items()}
    out = set()
    for reader, tree in trees.items():
        _, aliases = imported_bindings(tree, set(trees))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                read = [(node.module, alias.name) for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                read = [(aliases[node.value.id], node.attr)]
            else:
                continue
            out.update(f"{module}.{name} (read by {reader})" for module, name in read
                       if name not in public[module])
    return sorted(out)


def test_cross_module_reads_name_public_names():
    assert private_cross_module_reads(sorted(PACKAGE.glob("*.py"))) == []


def test_a_private_cross_module_read_is_reported(tmp_path):
    (tmp_path / "helper.py").write_text(
        '__all__ = ["shared"]\n'
        "def shared():\n    return 1\n"
        "def hidden():\n    return 2\n"
        "def _private():\n    return 3\n")
    (tmp_path / "user.py").write_text(
        "import numpy as np\nfrom . import helper as h\nfrom .helper import shared, hidden\n"
        "VALUE = shared() + hidden() + h.shared() + h._private() + np.hidden\n")
    assert private_cross_module_reads([tmp_path / "helper.py", tmp_path / "user.py"]) == [
        "helper._private (read by user)", "helper.hidden (read by user)"]


def dataclass_fields(tree):
    """(class, field) for every annotated field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def unread_fields(modules, roots):
    """Dataclass fields, as "module.Class.field", whose name no attribute
    read in live code of the given modules carries."""
    trees = {path.stem: parse(path) for path in modules}
    live = live_names(trees, roots)
    read = {node.attr for module, tree in trees.items() for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            or (module, stmt.name) in live
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{cls}.{field}" for module, tree in trees.items()
                  for cls, field in dataclass_fields(tree) if field not in read)


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields(MODULES, DISPATCHED | traced_targets()) == []


def test_a_field_read_only_in_dead_code_is_reported(tmp_path):
    (tmp_path / "helper.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Record:\n    kept: int\n    dropped: int = 0\n"
        "def traced():\n    return Record(1).kept\n"
        "def dead(r):\n    return r.dropped\n")
    assert unread_fields([tmp_path / "helper.py"], {("helper", "traced")}) == [
        "helper.Record.dropped"]


def unread_imports(path):
    """Names the module at path imports but never reads; a name listed in
    its __all__ counts as read."""
    tree = parse(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set(public_names(tree)) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", [*sorted(PACKAGE.glob("*.py")),
                                  *sorted((ROOT / "tests").glob("*.py"))],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path) == []


def test_an_unread_import_is_reported(tmp_path):
    path = tmp_path / "helper.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "from math import pi, tau\n__all__ = ['tau']\nVALUE = os.sep\n")
    assert unread_imports(path) == ["pi (line 3)"]


# The one frame builder, and the family that builds the abstract and the
# deliberately broken 2x2 frames with no isometry behind them
FRAME_CONSTRUCTORS = ("frames.frame_from_isometry", "suites._algebra_abstract_qubit")


def frame_constructions(modules):
    """"module.definition" of the top-level definition around each
    EncodedQubitFrame(...) call in the given modules, sorted; a call at
    module level is "module.<module>"."""
    out = []
    for path in modules:
        for stmt in parse(path).body:
            context = getattr(stmt, "name", "<module>")
            out += [f"{path.stem}.{context}" for node in ast.walk(stmt)
                    if isinstance(node, ast.Call) and "EncodedQubitFrame" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return sorted(out)


def test_only_the_frame_builder_constructs_frames():
    assert [c for c in frame_constructions(MODULES) if c not in FRAME_CONSTRUCTORS] == []


def test_a_frame_built_by_hand_is_reported(tmp_path):
    path = tmp_path / "helper.py"
    path.write_text("from . import frames as f\nfrom .frames import EncodedQubitFrame\n"
                    "def by_name(p):\n    return EncodedQubitFrame(p, p, p, p)\n"
                    "def by_alias(p):\n    return f.EncodedQubitFrame(p, p, p, p)\n"
                    "DEFAULT = EncodedQubitFrame(1, 1, 1, 1)\n")
    assert frame_constructions([path]) == ["helper.<module>", "helper.by_alias",
                                           "helper.by_name"]
