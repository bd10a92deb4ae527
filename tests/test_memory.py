"""Every rowlab entry point frees what it made by reference counting.

No nested function in ``src/`` reaches itself, so none holds itself in its
closure cells, and no stored error keeps the frames it was raised through:
a run leaves no reference cycle for the garbage collector to find, and a
check's ``_Memo``, with the terms that its memos and seen sets key by
themselves, dies when the check returns.  The garbage check sees only the
paths it runs; a static check covers every nested function in ``src/``.
"""

import ast
import gc
import weakref
from pathlib import Path

from rowlab import harness
from rowlab.cli import build_parser
from rowlab.config import PRESETS
from rowlab.dynamics import DynamicsError
from rowlab.infer import InferError
from rowlab.parser import ParseError
from rowlab.statics import StaticError
from rowlab.translate import TRANSLATIONS, TranslationError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
COUNT = 3  # generated inputs per (property, pair)
CALCULI = ("var-sub", "rec-sub", "rec-sub-full", "rec-row", "var-row1", "rec-row1")
USER_ERRORS = (ParseError, StaticError, InferError, TranslationError, DynamicsError)


def _commands() -> list:
    """Parsed arguments of every command on every corpus file: check and
    eval under each of ``CALCULI``, infer under the rank-1 ones, erase, and
    translate along every pair."""
    argvs = []
    for path in sorted(CORPUS.glob("*.row")):
        f = str(path)
        argvs.append(["erase", f])
        for cfg in CALCULI:
            argvs += [["check", "--calculus", cfg, f], ["eval", "--calculus", cfg, f]]
            if cfg.endswith("1"):
                argvs.append(["infer", "--calculus", cfg, f])
        for t in TRANSLATIONS.values():
            for source, target in t.pairs:
                argvs.append(["translate", "--from", source, "--to", target, f])
    parser = build_parser()  # argparse itself makes cycles: outside the run
    return [parser.parse_args(argv) for argv in argvs]


def _checks() -> None:
    for tid, t in TRANSLATIONS.items():
        for prop in t.properties:
            harness.run_property(prop, translation=tid, count=COUNT)
    for name in PRESETS:
        harness.run_property("subject-reduction", config=name, count=COUNT)
    harness.run_property("preorder-correspondence", config="var-rec-sub-full", count=COUNT)


def test_entry_points_leave_no_cyclic_garbage(monkeypatch, capsys):
    tables = []

    class Recorded(harness._Memo):
        def __init__(self):
            super().__init__()
            tables.append(weakref.ref(self))

    monkeypatch.setattr(harness, "_Memo", Recorded)
    commands = _commands()
    gc.collect()
    gc.disable()
    try:
        _checks()
        failed = 0
        for args in commands:
            try:
                args.fn(args)
            except USER_ERRORS:
                failed += 1
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert found == 0
    # every stepping check made a table, and each died when its check returned
    assert tables and all(ref() is None for ref in tables)
    assert 0 < failed < len(commands)  # both paths ran


# ---------------------------------------------------------------------------
# Closure cycles, found statically: a nested function that reaches itself
# through the names it uses, directly or through a sibling nested function,
# holds itself in its closure cells, a cycle that only the garbage collector
# frees.  ``src/`` has none: a walker that recurses is a plain function or a
# method, or keeps an explicit stack.

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body outside the bodies of nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _cyclic_closures(source: str) -> list[tuple[str, bool]]:
    """``(outer.inner, deleted)`` for each nested function of ``source`` that
    reaches itself, with whether ``outer`` deletes it in a ``finally``."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        own = list(_own_nodes(outer))
        nested = {n.name: n for n in own if isinstance(n, _FUNCTIONS)}
        uses = {
            name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & nested.keys()
            for name, fn in nested.items()
        }
        deleted = {
            target.id
            for node in own if isinstance(node, ast.Try)
            for stmt in node.finalbody if isinstance(stmt, ast.Delete)
            for target in stmt.targets if isinstance(target, ast.Name)
        }
        for name in nested:
            seen, stack = set(), list(uses[name])
            while stack:
                other = stack.pop()
                if other not in seen:
                    seen.add(other)
                    stack += uses[other]
            if name in seen:
                out.append((f"{outer.name}.{name}", name in deleted))
    return out


def test_no_nested_function_in_src_reaches_itself():
    found = {
        f"{path.stem}.{where}": deleted
        for path in sorted((ROOT / "src" / "rowlab").glob("*.py"))
        for where, deleted in _cyclic_closures(path.read_text())
    }
    assert found == {}


PLANTED = """
def parity(k):
    def even(n):
        return n == 0 or odd(n - 1)

    def odd(n):
        return n != 0 and even(n - 1)

    def count(n):
        return 0 if n == 0 else 1 + count(n - 1)

    try:
        return even(k), count(k)
    finally:
        del even
"""


def test_the_closure_check_finds_an_undeleted_cycle():
    # odd reaches itself through even, and count directly: neither is deleted
    assert dict(_cyclic_closures(PLANTED)) == {
        "parity.even": True, "parity.odd": False, "parity.count": False
    }
