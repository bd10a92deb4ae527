"""Every rowlab entry point frees what it made by reference counting.

No recursive walker outlives its call holding itself, and no stored error
keeps the frames it was raised through, so a run leaves no reference cycle
for the garbage collector to find, and a check's ``_Keys`` memo dies when
the check returns.
"""

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

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
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

    class Recorded(harness._Keys):
        def __init__(self):
            super().__init__()
            tables.append(weakref.ref(self))

    monkeypatch.setattr(harness, "_Keys", Recorded)
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
