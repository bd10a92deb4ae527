"""Pretty-printer for types, terms, kinds, and schemes.

Inverse of the parser up to alpha-equivalence and row order: parse(show(x))
yields x back. Quantifier binders are always printed with explicit kinds.

Terms print from one table, ``_LAYOUT``: each form gives the precedence up
to which it needs no parentheses and its pieces, text and (child,
precedence) pairs.  ``show_term`` lays the pieces out from an explicit
stack and joins the text once, so a term of any depth prints.  Types keep
their recursive printer, with the text kept on each type.
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


def show_kind(kind: Kind) -> str:
    if isinstance(kind, KType):
        return "Type"
    if isinstance(kind, KPre):
        return "Pre"
    if isinstance(kind, KRow):
        return "Row!{" + ",".join(sorted(kind.lacks)) + "}"
    raise TypeError(f"not a kind: {kind!r}")


def show_presence(pres: Presence) -> str:
    if isinstance(pres, Present):
        return "*"
    if isinstance(pres, Absent):
        return "o"
    if isinstance(pres, PresVar):
        return pres.name
    raise TypeError(f"not a presence: {pres!r}")


def show_row(row: Row) -> str:
    parts = []
    for label, pres, ty in row.entries:
        if isinstance(pres, Present):
            parts.append(f"{label}:{show_type(ty)}")
        else:
            parts.append(f"{label}^{show_presence(pres)}:{show_type(ty)}")
    if row.tail is not None:
        parts.append(row.tail)
    return "; ".join(parts)


# the highest prec each form prints at without parentheses
_PREC = {ForallRow: 0, ForallPres: 0, Arrow: 1}


def show_type(ty: Type, prec: int = 0) -> str:
    """The type's text at ``prec`` (0: quantifiers, 1: arrows, 2: atoms).
    Types are frozen, so the bare text is kept on the object (``_text``)."""
    out = getattr(ty, "_text", None)
    if out is None:
        if isinstance(ty, (ForallRow, ForallPres)):
            binders = []
            body: Type = ty
            while isinstance(body, (ForallRow, ForallPres)):
                kind = body.kind if isinstance(body, ForallRow) else KPre()
                binders.append(f"{body.var}:{show_kind(kind)}")
                body = body.body
            out = f"forall {' '.join(binders)}. {show_type(body)}"
        elif isinstance(ty, Arrow):
            out = f"{show_type(ty.dom, 2)} -> {show_type(ty.cod, 1)}"
        elif isinstance(ty, TyVar):
            out = ty.name
        elif isinstance(ty, Base):
            out = ty.tag
        elif isinstance(ty, Variant):
            out = f"[{show_row(ty.row)}]"
        elif isinstance(ty, Record):
            out = "{" + show_row(ty.row) + "}"
        else:
            raise TypeError(f"not a type: {ty!r}")
        object.__setattr__(ty, "_text", out)
    return f"({out})" if prec > _PREC.get(type(ty), 2) else out


def show_scheme(scheme: TypeScheme) -> str:
    if not scheme.quants:
        return show_type(scheme.body)
    binders = " ".join(f"{name}:{show_kind(kind)}" for name, kind in scheme.quants)
    return f"forall {binders}. {show_type(scheme.body)}"


def _annotated(t: Inject | RecordLit, pieces: list) -> tuple[int, list]:
    if t.annot is None:
        return 5, pieces
    return 4, [*pieces, f" : {show_type(t.annot)}"]


def _sep(origin: str) -> str:
    return " @@ " if origin == "upcast" else " @ "


# Precedences: 0 binders, case and let; 1 cast chains; 2 additive; 3
# application; 4 postfix (projection, type application); 5 atoms.
_LAYOUT: dict[type, Callable[[Any], tuple[int, list]]] = {
    Var: lambda t: (5, [t.name]),
    Lit: lambda t: (5, [
        str(t.value) if isinstance(t.value, int)
        else '"' + t.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    ]),
    Lam: lambda t: (0, [
        f"\\{t.var}{'' if t.annot is None else ':' + show_type(t.annot)}. ", (t.body, 0)
    ]),
    RowAbs: lambda t: (0, [f"/\\{t.var}:{show_kind(t.kind)}. ", (t.body, 0)]),
    PresAbs: lambda t: (0, [f"/\\{t.var}. ", (t.body, 0)]),
    Let: lambda t: (0, [f"let {t.var} = ", (t.bound, 0), " in ", (t.body, 0)]),
    # a record scrutinee is parenthesized even bare: 6 is above every level
    Case: lambda t: (0, [
        "case ", (t.scrutinee, 6 if isinstance(t.scrutinee, RecordLit) else 1), " { ",
        *(p for i, (label, binder, body) in enumerate(t.branches)
          for p in (f"{'; ' if i else ''}{label} {binder} -> ", (body, 0))),
        " }",
    ]),
    Upcast: lambda t: (1, [(t.term, 1), f" :> {show_type(t.target)}"]),
    Prim: lambda t: (2, [(t.args[0], 2), f" {t.op} ", (t.args[1], 3)]),
    App: lambda t: (3, [(t.fn, 3), " ", (t.arg, 4)]),
    Project: lambda t: (5, [(t.term, 4), f".{t.label}"]),
    RowApp: lambda t: (5, [(t.term, 4), f"{_sep(t.origin)}[{show_row(t.row)}]"]),
    PresApp: lambda t: (5, [(t.term, 4), _sep(t.origin) + show_presence(t.presence)]),
    Inject: lambda t: _annotated(t, [f"<{t.label} ", (t.payload, 4), ">"]),
    RecordLit: lambda t: _annotated(t, [
        "{",
        *(p for i, (label, sub) in enumerate(t.fields)
          for p in (f"{', ' if i else ''}{label} = ", (sub, 0))),
        "}",
    ]),
}


def show_term(term: Term, prec: int = 0) -> str:
    """The term's text at precedence ``prec`` (see ``_LAYOUT``)."""
    out: list[str] = []
    stack: list = [(term, prec)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        node, at = piece
        layout = _LAYOUT.get(type(node))
        if layout is None:
            raise TypeError(f"not a term: {node!r}")
        level, pieces = layout(node)
        stack += reversed(["(", *pieces, ")"] if at > level else pieces)
    return "".join(out)
