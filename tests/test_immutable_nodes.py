"""Nothing in ``src/rowlab`` changes a syntax node once it is made.

A node's fields and kept facts are plain slots (``syntax.Node``), so the
runtime does not stop a write; this scan of the source does.  It finds:

- a write to a node field: an assignment, augmented assignment or ``del``
  whose target is an attribute named like a field of some node class, or a
  ``setattr`` call.  The constructors that set the fields are generated by
  ``syntax._slotted`` and are not in the source.  The one ``setattr`` is
  ``syntax._keep``'s, and every ``_keep`` call names a fact slot;
- ``object.__setattr__``, the way past a frozen dataclass;
- a three-argument ``getattr`` of a private name, a fact read that would
  hide a missing slot;
- a node class that is a dataclass, and the part numbering of the memo
  that is now ``harness._Memo`` (``_part``, ``_part_ids``, ``_parts``),
  which cheap kept hashes replaced.

An attribute of an exception bound by ``except ... as e`` (``e.args``) is
no node field, and the scan leaves it alone."""

import ast
import dataclasses
from pathlib import Path

from rowlab.syntax import Node

SRC = Path(__file__).resolve().parent.parent / "src" / "rowlab"


def _node_classes() -> list[type]:
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return out


FIELDS = {f for cls in _node_classes() for f in cls._fields}
FACTS = {f for cls in _node_classes() for f in cls._facts}


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _exception_attributes(tree: ast.AST) -> set[int]:
    """The ids of the ``e.x`` attribute nodes inside each ``except ... as e``."""
    out = set()
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler) and handler.name:
            for stmt in handler.body:
                for n in ast.walk(stmt):
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                        if n.value.id == handler.name:
                            out.add(id(n))
    return out


def _write_targets(n: ast.AST) -> list[ast.Attribute]:
    """The attributes that ``n`` assigns or deletes (``x.f[k] = v`` writes
    into the value of ``x.f``, not ``x.f`` itself)."""
    if isinstance(n, (ast.Assign, ast.Delete)):
        targets = list(n.targets)
    elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
        targets = [n.target]
    else:
        return []
    out = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            out.append(target)
    return out


def _enclosing_functions(tree: ast.AST) -> dict[int, str]:
    """The id of each node inside a function -> the outermost function's name."""
    out = {}
    for top in ast.walk(tree):
        if isinstance(top, ast.FunctionDef):
            for n in ast.walk(top):
                out.setdefault(id(n), top.name)
    return out


def _findings() -> list[str]:
    found = []
    for name, tree in _modules():
        exempt = _exception_attributes(tree)
        inside = _enclosing_functions(tree)
        for n in ast.walk(tree):
            where = f"{name}:{getattr(n, 'lineno', '?')}"
            for target in _write_targets(n):
                if target.attr in FIELDS and id(target) not in exempt:
                    found.append(f"{where}: writes the node field {target.attr!r}")
            if isinstance(n, ast.Attribute) and n.attr == "__setattr__":
                found.append(f"{where}: __setattr__")
            if isinstance(n, ast.Attribute) and n.attr in ("_part", "_part_ids", "_parts"):
                found.append(f"{where}: part numbering {n.attr!r}")
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)):
                continue
            args = n.args
            literal = args[1].value if len(args) > 1 and isinstance(args[1], ast.Constant) else None
            if n.func.id == "getattr" and len(args) == 3 and str(literal).startswith("_"):
                found.append(f"{where}: getattr(..., {literal!r}, ...) reads a fact")
            if n.func.id == "setattr" and (name, inside.get(id(n))) != ("syntax.py", "_keep"):
                found.append(f"{where}: setattr outside syntax._keep")
            if n.func.id == "_keep" and literal not in FACTS:
                found.append(f"{where}: _keep fills {literal!r}, which is no fact slot")
    return found


def test_src_changes_no_node_after_it_is_made():
    assert _findings() == []


def test_the_scan_sees_the_writes_it_forbids(tmp_path, monkeypatch):
    bad = tmp_path / "rowlab"
    bad.mkdir()
    (bad / "bad.py").write_text(
        "def f(t, e):\n"
        "    t.body = t.body\n"
        "    t.dom, [*t.fn] = 1, 2\n"
        "    t.args += ()\n"
        "    t.annot[0] = t.cod.x = 1\n"
        "    del t.row\n"
        "    object.__setattr__(t, '_key', 1)\n"
        "    getattr(t, '_size', None)\n"
        "    setattr(t, 'var', 'x')\n"
        "    _keep(t, '_nothing', None)\n"
        "    keys._part(t)\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as e:\n"
        "        e.args = ()\n"
    )
    monkeypatch.setitem(globals(), "SRC", bad)
    found = _findings()
    lines = sorted(int(line.split(":")[1]) for line in found)
    assert lines == [2, 3, 3, 4, 6, 7, 8, 9, 10, 11], found


def test_no_node_class_is_a_dataclass():
    classes = _node_classes()
    assert len(classes) > 30
    assert not any(dataclasses.is_dataclass(cls) for cls in classes)
    assert {"_hash", "_key", "_keys", "_size", "_free", "_names", "_contractum"} == FACTS
