"""Command-line frontend.

One command per process: parse, check, infer, evaluate, erase, translate
between calculi, or verify metatheory properties on generated terms.  Only
verify loads the term generator and the property checks, when it runs, so
the other commands start without them.

Exit codes: 0 success, 1 user error (parse, type, kind, rank, unknown
calculus, missing translation, an option out of range) or a generator that
found no term in its ten attempts ("generation budget exhausted"), 2 a
property failure, which always names a concrete counterexample: no check
gives up early.  A user error prints "rowlab: error: <message>".  Any
other exception is a defect in rowlab: it prints "rowlab: internal error:
<Type>: <message>", without a traceback, and exits 1 too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .config import PRESETS, GenError, UsageError, preset
from .dynamics import (
    DynamicsError,
    erase,
    reduction_trace,
    relations_for,
)
from .infer import InferError, infer
from .parser import ParseError, parse_file_str
from .pretty import show_scheme, show_term, show_type
from .statics import StaticError, type_check
from .translate import PROPERTIES, TranslationError, run_translation, translation_for


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise UsageError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _emit(args, payload: Callable[[], dict], text: str) -> None:
    """Print ``text``, or under ``--json`` the dict ``payload()`` builds: a
    payload that is not printed is not rendered."""
    print(json.dumps(payload(), indent=2) if args.json else text)


def _load(args):
    delta, gamma, term = parse_file_str(_read(args.file))
    return preset(args.calculus), delta, gamma, term


def _cmd_check(args) -> int:
    cfg, delta, gamma, term = _load(args)
    if cfg.rank1:
        scheme = infer(cfg, delta, gamma, term)
        shown = show_scheme(scheme)
    else:
        shown = show_type(type_check(cfg, delta, gamma, term).type)
    _emit(
        args, lambda: {"calculus": cfg.name, "term": show_term(term), "type": shown}, shown
    )
    return 0


def _cmd_infer(args) -> int:
    cfg, delta, gamma, term = _load(args)
    shown = show_scheme(infer(cfg, delta, gamma, term))
    _emit(
        args, lambda: {"calculus": cfg.name, "term": show_term(term), "scheme": shown}, shown
    )
    return 0


def _cmd_eval(args) -> int:
    if args.fuel < 0:
        raise UsageError(f"fuel must be at least 0, got {args.fuel}")
    cfg, delta, gamma, term = _load(args)
    if cfg.rank1:
        infer(cfg, delta, gamma, term)
    else:
        type_check(cfg, delta, gamma, term)
    # without --casts, a calculus with structural subtyping evaluates by erasure
    rels = relations_for(cfg, full_upcast=args.casts)
    subject = term if args.casts or not cfg.structural_subtyping else erase(term)
    result, steps = reduction_trace(subject, rels, args.fuel)
    shown = show_term(result)
    _emit(
        args,
        lambda: {
            "calculus": cfg.name, "term": show_term(term), "result": shown, "steps": steps
        },
        "".join(f"  {tag}\n" for tag in steps) + shown if args.trace else shown,
    )
    return 0


def _cmd_erase(args) -> int:
    _, _, term = parse_file_str(_read(args.file))
    shown = show_term(erase(term))
    _emit(args, lambda: {"term": show_term(term), "erased": shown}, shown)
    return 0


def _cmd_translate(args) -> int:
    t = translation_for(args.source, args.target)
    delta, gamma, term = parse_file_str(_read(args.file))
    deriv = type_check(preset(args.source), delta, gamma, term)
    shown = show_term(run_translation(t.tid, deriv))
    _emit(args, lambda: {
        "translation": t.tid, "from": args.source, "to": args.target, "term": shown,
        **({} if preset(args.target).rank1 else {"type": show_type(t.type_map(deriv.type))}),
    }, shown)
    return 0


def _cmd_verify(args) -> int:
    from .harness import CALCULUS_CHECKS, ROW_CHECKS, run_property

    for option, value, table in (
        ("--translation", args.translation, ROW_CHECKS),
        ("--calculus", args.calculus, CALCULUS_CHECKS),
    ):
        if value is not None and not table.keys() & set(args.properties):
            raise UsageError(f"{option} is used by none of {', '.join(args.properties)}")
    seed = args.seed
    if seed is None:
        text = os.environ.get("ROWLAB_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError(f"ROWLAB_SEED must be an integer, not {text!r}") from None
    reports = [
        run_property(
            prop, translation=args.translation, config=args.calculus, count=args.count,
            seed=seed, depth=args.depth, max_size=args.max_size,
        )
        for prop in args.properties
    ]
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.summary())
            for case_id, term, expected, got in r.failures[:10]:
                print(f"  {case_id}: {term}")
                print(f"    expected {expected}")
                print(f"    got      {got}")
    return 0 if all(r.passed for r in reports) else 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rowlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def with_common(p, calculus=True):
        if calculus:
            p.add_argument(
                "--calculus",
                required=True,
                metavar="ID",
                help=f"one of: {', '.join(sorted(PRESETS))}",
            )
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("file", help="source file (one term, optional -- env: headers)")

    p = sub.add_parser("check", help="type-check a term (infers in rank-1 calculi)")
    with_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("infer", help="print the principal type scheme")
    with_common(p)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="normalize a term")
    with_common(p)
    p.add_argument("--trace", action="store_true", help="print each step's rule")
    p.add_argument("--fuel", type=int, default=10_000, help="step budget")
    p.add_argument(
        "--casts",
        action="store_true",
        help="use structural cast rules instead of erasure semantics",
    )
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("erase", help="strip casts, annotations, and type operators")
    with_common(p, calculus=False)
    p.set_defaults(fn=_cmd_erase)

    p = sub.add_parser("translate", help="translate a term between calculi")
    p.add_argument("--from", dest="source", required=True, metavar="ID")
    p.add_argument("--to", dest="target", required=True, metavar="ID")
    with_common(p, calculus=False)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("verify", help="check properties on generated terms")
    p.add_argument(
        "--property",
        dest="properties",
        action="append",
        required=True,
        choices=PROPERTIES,
        help="repeatable",
    )
    p.add_argument("--translation", metavar="TID", help="registry row: check each pair")
    p.add_argument("--calculus", metavar="ID", help="calculus to check a property on")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="default ROWLAB_SEED or 0")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-size", type=int, default=8, dest="max_size")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(fn=_cmd_verify)

    return top


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        ParseError,
        StaticError,
        InferError,
        TranslationError,
        DynamicsError,
        GenError,
        UsageError,
        OSError,
    ) as e:
        if isinstance(e, OSError):  # a file that cannot be read: its path and why
            msg = f"{e.filename}: {e.strerror}" if e.filename else str(e)
        else:
            msg = e.args[0] if e.args else str(e)
        print(f"rowlab: error: {msg}", file=sys.stderr)
        return 1
    except RecursionError:
        print("rowlab: error: term nested too deeply", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"rowlab: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
