"""Pretty-printer for kinds, presences, rows, types, schemes and terms.

Inverse of the parser up to alpha-equivalence and row order: parse(show(x))
yields x back. Quantifier binders are always printed with explicit kinds.

Every class prints from one table, ``_LAYOUT``: each form gives the
precedence up to which it needs no parentheses and its pieces, text and
(part, precedence) pairs, the precedence on the part's own scale.  One
loop, ``_show``, lays the pieces out from an explicit stack, so a term or
type of any depth prints.  No printer calls an entry point by name, so a
traced or charged call of one is never an inner call of another.
"""

from __future__ import annotations

from typing import Any, Callable

from .syntax import (
    Absent,
    App,
    Arrow,
    Base,
    Case,
    ForallPres,
    ForallRow,
    Inject,
    KPre,
    KRow,
    KType,
    Kind,
    Lam,
    Let,
    Lit,
    PresAbs,
    PresApp,
    PresVar,
    Presence,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    RowAbs,
    RowApp,
    Term,
    Type,
    TypeScheme,
    TyVar,
    Upcast,
    Var,
    Variant,
)


def _binders(pairs) -> list:
    pieces = [p for name, kind in pairs for p in (f" {name}:", (kind, 0))]
    return ["forall", *pieces, ". "] if pieces else []


def _quantified(ty: ForallRow | ForallPres) -> tuple[int, list]:
    """A run of directly nested quantifiers, as one ``forall``."""
    pairs = []
    while type(ty) is ForallRow or type(ty) is ForallPres:
        pairs.append((ty.var, ty.kind if type(ty) is ForallRow else KPre()))
        ty = ty.body
    return 0, [*_binders(pairs), (ty, 0)]


def _row(row: Row) -> tuple[int, list]:
    pieces: list = []
    for label, pres, ty in row.entries:
        mark = [":"] if type(pres) is Present else ["^", (pres, 0), ":"]
        pieces += ["; " if pieces else "", label, *mark, (ty, 0)]
    if row.tail is not None:
        pieces += ["; " if pieces else "", row.tail]
    return 0, pieces


def _annotated(t: Inject | RecordLit, pieces: list) -> tuple[int, list]:
    if t.annot is None:
        return 5, pieces
    return 4, [*pieces, " : ", (t.annot, 0)]


def _sep(origin: str) -> str:
    return " @@ " if origin == "upcast" else " @ "


# Term precedences: 0 binders, case and let; 1 cast chains; 2 additive; 3
# application; 4 postfix (projection, type application); 5 atoms.  Type
# precedences: 0 quantifiers; 1 arrows; 2 atoms.
_LAYOUT: dict[type, Callable[[Any], tuple[int, list]]] = {
    KType: lambda k: (0, ["Type"]),
    KPre: lambda k: (0, ["Pre"]),
    KRow: lambda k: (0, ["Row!{" + ",".join(sorted(k.lacks)) + "}"]),
    Present: lambda p: (0, ["*"]),
    Absent: lambda p: (0, ["o"]),
    PresVar: lambda p: (0, [p.name]),
    Row: _row,
    TyVar: lambda t: (2, [t.name]),
    Base: lambda t: (2, [t.tag]),
    Arrow: lambda t: (1, [(t.dom, 2), " -> ", (t.cod, 1)]),
    Variant: lambda t: (2, ["[", (t.row, 0), "]"]),
    Record: lambda t: (2, ["{", (t.row, 0), "}"]),
    ForallRow: _quantified,
    ForallPres: _quantified,
    TypeScheme: lambda s: (0, [*_binders(s.quants), (s.body, 0)]),
    Var: lambda t: (5, [t.name]),
    # a negative number is parenthesized where it would read as a subtraction
    Lit: lambda t: (2 if t.value < 0 else 5, [str(t.value)]) if isinstance(t.value, int)
    else (5, ['"' + t.value.replace("\\", "\\\\").replace('"', '\\"') + '"']),
    Lam: lambda t: (0, [
        f"\\{t.var}", *([] if t.annot is None else [":", (t.annot, 0)]), ". ", (t.body, 0)
    ]),
    RowAbs: lambda t: (0, [f"/\\{t.var}:", (t.kind, 0), ". ", (t.body, 0)]),
    PresAbs: lambda t: (0, [f"/\\{t.var}. ", (t.body, 0)]),
    Let: lambda t: (0, [f"let {t.var} = ", (t.bound, 0), " in ", (t.body, 0)]),
    # a record scrutinee is parenthesized even bare: 6 is above every level
    Case: lambda t: (0, [
        "case ", (t.scrutinee, 6 if isinstance(t.scrutinee, RecordLit) else 1), " { ",
        *(p for i, (label, binder, body) in enumerate(t.branches)
          for p in (f"{'; ' if i else ''}{label} {binder} -> ", (body, 0))),
        " }",
    ]),
    Upcast: lambda t: (1, [(t.term, 1), " :> ", (t.target, 0)]),
    # a hand-built Prim of another arity than two prints as (op) a1 ... an
    Prim: lambda t: (2, [(t.args[0], 2), f" {t.op} ", (t.args[1], 3)]) if len(t.args) == 2
    else (3, [f"({t.op})", *(p for a in t.args for p in (" ", (a, 4)))]),
    App: lambda t: (3, [(t.fn, 3), " ", (t.arg, 4)]),
    Project: lambda t: (5, [(t.term, 4), f".{t.label}"]),
    RowApp: lambda t: (5, [(t.term, 4), f"{_sep(t.origin)}[", (t.row, 0), "]"]),
    PresApp: lambda t: (5, [(t.term, 4), _sep(t.origin), (t.presence, 0)]),
    Inject: lambda t: _annotated(t, [f"<{t.label} ", (t.payload, 4), ">"]),
    RecordLit: lambda t: _annotated(t, [
        "{",
        *(p for i, (label, sub) in enumerate(t.fields)
          for p in (f"{', ' if i else ''}{label} = ", (sub, 0))),
        "}",
    ]),
}


def _show(x, prec: int, family: Any, what: str) -> str:
    """``x``, of the class or union ``family``, at precedence ``prec``."""
    if not isinstance(x, family):
        raise TypeError(f"not a {what}: {x!r}")
    out: list[str] = []
    stack: list = [(x, prec)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        node, at = piece
        layout = _LAYOUT.get(type(node))
        if layout is None:
            raise TypeError(f"not a {what}: {node!r}")
        level, pieces = layout(node)
        stack += reversed(["(", *pieces, ")"] if at > level else pieces)
    return "".join(out)


def show_kind(kind: Kind) -> str:
    return _show(kind, 0, Kind, "kind")


def show_presence(pres: Presence) -> str:
    return _show(pres, 0, Presence, "presence")


def show_type(ty: Type, prec: int = 0) -> str:
    """The type's text at ``prec`` (0: quantifiers, 1: arrows, 2: atoms)."""
    return _show(ty, prec, Type, "type")


def show_scheme(scheme: TypeScheme) -> str:
    return _show(scheme, 0, TypeScheme, "scheme")


def show_term(term: Term, prec: int = 0) -> str:
    """The term's text at precedence ``prec`` (see ``_LAYOUT``)."""
    return _show(term, prec, Term, "term")
