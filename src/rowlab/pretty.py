"""Pretty-printer for types, terms, kinds, and schemes.

Inverse of the parser up to alpha-equivalence and row order: parse(show(x))
yields x back. Quantifier binders are always printed with explicit kinds.
"""

from __future__ import annotations

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


def show_term(term: Term, prec: int = 0) -> str:
    # prec 0: binders/case/let, 1: upcast chains, 2: additive, 3: application,
    # 4: postfix (project, type application), 5: atoms
    if isinstance(term, Lam):
        annot = f":{show_type(term.annot)}" if term.annot is not None else ""
        out = f"\\{term.var}{annot}. {show_term(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, RowAbs):
        out = f"/\\{term.var}:{show_kind(term.kind)}. {show_term(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, PresAbs):
        out = f"/\\{term.var}. {show_term(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Let):
        out = f"let {term.var} = {show_term(term.bound)} in {show_term(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Case):
        scrut = show_term(term.scrutinee, 1)
        if isinstance(term.scrutinee, RecordLit):
            scrut = f"({scrut})"
        branches = "; ".join(
            f"{label} {binder} -> {show_term(body)}" for label, binder, body in term.branches
        )
        out = f"case {scrut} {{ {branches} }}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Upcast):
        out = f"{show_term(term.term, 1)} :> {show_type(term.target)}"
        return f"({out})" if prec > 1 else out
    if isinstance(term, Prim):
        left, right = term.args
        out = f"{show_term(left, 2)} {term.op} {show_term(right, 3)}"
        return f"({out})" if prec > 2 else out
    if isinstance(term, App):
        out = f"{show_term(term.fn, 3)} {show_term(term.arg, 4)}"
        return f"({out})" if prec > 3 else out
    if isinstance(term, Project):
        return f"{show_term(term.term, 4)}.{term.label}"
    if isinstance(term, RowApp):
        sep = "@@" if term.origin == "upcast" else "@"
        return f"{show_term(term.term, 4)} {sep} [{show_row(term.row)}]"
    if isinstance(term, PresApp):
        sep = "@@" if term.origin == "upcast" else "@"
        return f"{show_term(term.term, 4)} {sep} {show_presence(term.presence)}"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        if isinstance(term.value, int):
            return str(term.value)
        escaped = term.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(term, Inject):
        out = f"<{term.label} {show_term(term.payload, 4)}>"
        if term.annot is not None:
            out = f"{out} : {show_type(term.annot)}"
            return f"({out})" if prec > 4 else out
        return out
    if isinstance(term, RecordLit):
        fields = ", ".join(f"{label} = {show_term(sub)}" for label, sub in term.fields)
        out = "{" + fields + "}"
        if term.annot is not None:
            out = f"{out} : {show_type(term.annot)}"
            return f"({out})" if prec > 4 else out
        return out
    raise TypeError(f"not a term: {term!r}")
