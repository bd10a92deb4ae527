"""Encodings between the calculi, defined over typing derivations.

Each encoding consumes a derivation from its source configuration and emits
a term of its target configuration.  Cast-bearing sources compile their
casts three ways: re-tagging values (t1, t3), instantiating row or presence
quantifiers (t2, t4, t6), or applying coercion functions built from the
subtyping evidence (t5).  t7 simply erases casts; its typing story is weak
and goes through the scheme translation at the bottom of this module.

Binder naming is deterministic: term-level quantifiers introduced by a
translation count up left to right over the derivation (r0, r1, ... for
rows, p0, p1, ... for presence), while quantifiers inside translated type
annotations use a q prefix so they can never shadow a term-level binder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .config import CalculusConfig, preset
from .statics import Derivation, SubtypeEvidence, check_rank_limit
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
    Kind,
    Lam,
    Let,
    Lit,
    NameSupply,
    PresAbs,
    PresApp,
    Presence,
    PresVar,
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
    row_dom,
    subst_type_in_type,
    term_names,
    type_equal,
)


class TranslationError(Exception):
    pass


def _closed_entries(row: Row) -> list[tuple[str, Type]]:
    return sorted((label, ty) for label, _, ty in row.entries)


def _congruent(d: Derivation, go) -> Term | None:
    """Translate rules that all encodings treat homomorphically, or None."""
    t = d.term
    if d.rule == "TyVar":
        return t
    if d.rule == "TyApp":
        return App(go(d.premises[0]), go(d.premises[1]))
    if d.rule == "TyLit":
        return t
    if d.rule == "TyPrim":
        return Prim(t.op, tuple(go(p) for p in d.premises))
    if d.rule == "TyLet":
        return Let(t.var, go(d.premises[0]), go(d.premises[1]))
    return None


# ---------------------------------------------------------------------------
# t1: compile variant casts by case-and-reinject


def t1(deriv: Derivation) -> Term:
    supply = NameSupply(term_names(deriv.term) | set(deriv.gamma))

    def go(d: Derivation) -> Term:
        out = _congruent(d, go)
        if out is not None:
            return out
        t = d.term
        if d.rule == "TyLam":
            return Lam(t.var, t.annot, go(d.premises[0]))
        if d.rule == "TyInject":
            return Inject(t.label, go(d.premises[0]), t.annot)
        if d.rule == "TyCase":
            branches = tuple(
                (label, var, go(p))
                for (label, var, _), p in zip(t.branches, d.premises[1:])
            )
            return Case(go(d.premises[0]), branches)
        if d.rule == "TyUpcast":
            ev = d.evidence
            inner = go(d.premises[0])
            if ev.rule == "SRefl":
                return inner
            if ev.rule != "SVariant":
                raise TranslationError(f"unexpected evidence {ev.rule} for t1")
            branches = []
            for label, _ in _closed_entries(ev.lhs.row):
                x = supply.fresh("x")
                branches.append((label, x, Inject(label, Var(x), ev.rhs)))
            return Case(inner, tuple(branches))
        raise TranslationError(f"unexpected rule {d.rule} for t1")

    return go(deriv)


# ---------------------------------------------------------------------------
# t2: compile variant casts into row instantiation


def type_translate2(ty: Type, _counter=None) -> Type:
    counter = _counter if _counter is not None else itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(
            type_translate2(ty.dom, counter), type_translate2(ty.cod, counter)
        )
    if isinstance(ty, Variant):
        rho = f"q{next(counter)}"
        entries = tuple(
            (label, pres, type_translate2(a, counter))
            for label, pres, a in ty.row.entries
        )
        return ForallRow(rho, KRow(row_dom(ty.row)), Variant(Row(entries, rho)))
    raise TranslationError("type outside the t2 source calculus")


def t2(deriv: Derivation) -> Term:
    counter = itertools.count()

    def go(d: Derivation) -> Term:
        out = _congruent(d, go)
        if out is not None:
            return out
        t = d.term
        if d.rule == "TyLam":
            return Lam(t.var, type_translate2(t.annot), go(d.premises[0]))
        if d.rule == "TyInject":
            rho = f"r{next(counter)}"
            row = t.annot.row
            entries = tuple(
                (label, pres, type_translate2(a)) for label, pres, a in row.entries
            )
            ann = Variant(Row(entries, rho))
            return RowAbs(
                rho, KRow(row_dom(row)), Inject(t.label, go(d.premises[0]), ann)
            )
        if d.rule == "TyCase":
            scrut = RowApp(go(d.premises[0]), Row((), None), "source")
            branches = tuple(
                (label, var, go(p))
                for (label, var, _), p in zip(t.branches, d.premises[1:])
            )
            return Case(scrut, branches)
        if d.rule == "TyUpcast":
            ev = d.evidence
            if ev.rule == "SRefl":
                return go(d.premises[0])
            if ev.rule != "SVariant":
                raise TranslationError(f"unexpected evidence {ev.rule} for t2")
            rho = f"r{next(counter)}"
            have = row_dom(ev.lhs.row)
            extra = tuple(
                (label, Present(), type_translate2(a))
                for label, a in _closed_entries(ev.rhs.row)
                if label not in have
            )
            out = RowApp(go(d.premises[0]), Row(extra, rho), "upcast")
            return RowAbs(rho, KRow(row_dom(ev.rhs.row)), out)
        raise TranslationError(f"unexpected rule {d.rule} for t2")

    return go(deriv)


# ---------------------------------------------------------------------------
# t3: compile record casts by projecting field-wise


def t3(deriv: Derivation) -> Term:
    def go(d: Derivation) -> Term:
        out = _congruent(d, go)
        if out is not None:
            return out
        t = d.term
        if d.rule == "TyLam":
            return Lam(t.var, t.annot, go(d.premises[0]))
        if d.rule == "TyRecord":
            fields = tuple(
                (label, go(p)) for (label, _), p in zip(t.fields, d.premises)
            )
            return RecordLit(fields, None)
        if d.rule == "TyProject":
            return Project(go(d.premises[0]), t.label)
        if d.rule == "TyUpcast":
            ev = d.evidence
            inner = go(d.premises[0])
            if ev.rule == "SRefl":
                return inner
            if ev.rule != "SRecord":
                raise TranslationError(f"unexpected evidence {ev.rule} for t3")
            fields = tuple(
                (label, Project(inner, label))
                for label, _ in _closed_entries(ev.rhs.row)
            )
            return RecordLit(fields, None)
        raise TranslationError(f"unexpected rule {d.rule} for t3")

    return go(deriv)


# ---------------------------------------------------------------------------
# t4: compile record casts into presence instantiation


def type_translate4(ty: Type, _counter=None) -> Type:
    counter = _counter if _counter is not None else itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(
            type_translate4(ty.dom, counter), type_translate4(ty.cod, counter)
        )
    if isinstance(ty, Record):
        pairs = _closed_entries(ty.row)
        names = [f"q{next(counter)}" for _ in pairs]
        entries = tuple(
            (label, PresVar(name), type_translate4(a, counter))
            for (label, a), name in zip(pairs, names)
        )
        out: Type = Record(Row(entries, None))
        for name in reversed(names):
            out = ForallPres(name, out)
        return out
    raise TranslationError("type outside the t4 source calculus")


def t4(deriv: Derivation) -> Term:
    counter = itertools.count()

    def go(d: Derivation) -> Term:
        out = _congruent(d, go)
        if out is not None:
            return out
        t = d.term
        if d.rule == "TyLam":
            return Lam(t.var, type_translate4(t.annot), go(d.premises[0]))
        if d.rule == "TyRecord":
            row = d.type.row
            names = {label: f"p{next(counter)}" for label in sorted(row_dom(row))}
            ann_entries = tuple(
                (label, PresVar(names[label]), type_translate4(a))
                for label, a in _closed_entries(row)
            )
            fields = tuple(
                (label, go(p)) for (label, _), p in zip(t.fields, d.premises)
            )
            out: Term = RecordLit(fields, Record(Row(ann_entries, None)))
            for label in sorted(names, reverse=True):
                out = PresAbs(names[label], out)
            return out
        if d.rule == "TyProject":
            row = d.premises[0].type.row
            out = go(d.premises[0])
            for label, _ in _closed_entries(row):
                pres = Present() if label == t.label else Absent()
                out = PresApp(out, pres, "source")
            return Project(out, t.label)
        if d.rule == "TyUpcast":
            ev = d.evidence
            if ev.rule == "SRefl":
                return go(d.premises[0])
            if ev.rule != "SRecord":
                raise TranslationError(f"unexpected evidence {ev.rule} for t4")
            kept = row_dom(ev.rhs.row)
            names = {label: f"p{next(counter)}" for label in sorted(kept)}
            out = go(d.premises[0])
            for label, _ in _closed_entries(ev.lhs.row):
                pres = PresVar(names[label]) if label in kept else Absent()
                out = PresApp(out, pres, "upcast")
            for label in sorted(names, reverse=True):
                out = PresAbs(names[label], out)
            return out
        raise TranslationError(f"unexpected rule {d.rule} for t4")

    return go(deriv)


# ---------------------------------------------------------------------------
# t5: compile full-subtyping casts into coercion functions


def coerce(ev: SubtypeEvidence, supply: NameSupply) -> Term:
    """A function term of type lhs -> rhs derived from the evidence."""
    if ev.rule in ("FVar", "FBase", "SRefl"):
        x = supply.fresh("x")
        return Lam(x, ev.lhs, Var(x))
    if ev.rule == "FFun":
        dom_ev, cod_ev = ev.premises
        f = supply.fresh("f")
        x = supply.fresh("x")
        body = App(
            coerce(cod_ev, supply),
            App(Var(f), App(coerce(dom_ev, supply), Var(x))),
        )
        return Lam(f, ev.lhs, Lam(x, ev.rhs.dom, body))
    if ev.rule == "CoFun":
        (cod_ev,) = ev.premises
        f = supply.fresh("f")
        x = supply.fresh("x")
        body = App(coerce(cod_ev, supply), App(Var(f), Var(x)))
        return Lam(f, ev.lhs, Lam(x, ev.rhs.dom, body))
    if ev.rule == "FVariant":
        x = supply.fresh("x")
        branches = []
        for label, prem in ev.premises:
            y = supply.fresh("y")
            branches.append(
                (label, y, Inject(label, App(coerce(prem, supply), Var(y)), ev.rhs))
            )
        return Lam(x, ev.lhs, Case(Var(x), tuple(branches)))
    if ev.rule == "FRecord":
        x = supply.fresh("x")
        fields = tuple(
            (label, App(coerce(prem, supply), Project(Var(x), label)))
            for label, prem in ev.premises
        )
        return Lam(x, ev.lhs, RecordLit(fields, None))
    raise TranslationError(f"no coercion for evidence {ev.rule}")


def t5(deriv: Derivation) -> Term:
    supply = NameSupply(term_names(deriv.term) | set(deriv.gamma))

    def go(d: Derivation) -> Term:
        out = _congruent(d, go)
        if out is not None:
            return out
        t = d.term
        if d.rule == "TyLam":
            return Lam(t.var, t.annot, go(d.premises[0]))
        if d.rule == "TyInject":
            return Inject(t.label, go(d.premises[0]), t.annot)
        if d.rule == "TyCase":
            branches = tuple(
                (label, var, go(p))
                for (label, var, _), p in zip(t.branches, d.premises[1:])
            )
            return Case(go(d.premises[0]), branches)
        if d.rule == "TyRecord":
            fields = tuple(
                (label, go(p)) for (label, _), p in zip(t.fields, d.premises)
            )
            return RecordLit(fields, t.annot)
        if d.rule == "TyProject":
            return Project(go(d.premises[0]), t.label)
        if d.rule == "TyUpcast":
            return App(coerce(d.evidence, supply), go(d.premises[0]))
        raise TranslationError(f"unexpected rule {d.rule} for t5")

    return go(deriv)


# ---------------------------------------------------------------------------
# t6: compile covariant record casts by hoisted presence quantifiers


def pres_arity(ty: Type) -> int:
    """Quantifier prefix length of the hoisted translation of ``ty``."""
    if isinstance(ty, (TyVar, Base)):
        return 0
    if isinstance(ty, Arrow):
        return pres_arity(ty.cod)
    if isinstance(ty, Record):
        return len(ty.row.entries) + sum(
            pres_arity(a) for _, a in _closed_entries(ty.row)
        )
    raise TranslationError("type outside the t6 source calculus")


def pres_seq(p: Presence, ty: Type) -> list[Presence]:
    """Constant presence sequence covering the whole prefix of ``ty``."""
    return [p] * pres_arity(ty)


def type_translate6(ty: Type, _counter=None) -> Type:
    counter = _counter if _counter is not None else itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        names = [f"q{next(counter)}" for _ in range(pres_arity(ty.cod))]
        body: Type = Arrow(
            type_translate6(ty.dom, counter),
            inst_type(ty.cod, [PresVar(n) for n in names]),
        )
        for name in reversed(names):
            body = ForallPres(name, body)
        return body
    if isinstance(ty, Record):
        pairs = _closed_entries(ty.row)
        heads = [f"q{next(counter)}" for _ in pairs]
        blocks = [
            [f"q{next(counter)}" for _ in range(pres_arity(a))] for _, a in pairs
        ]
        row_entries = tuple(
            (label, PresVar(head), inst_type(a, [PresVar(n) for n in block]))
            for (label, a), head, block in zip(pairs, heads, blocks)
        )
        body = Record(Row(row_entries, None))
        for name in reversed(heads + [n for block in blocks for n in block]):
            body = ForallPres(name, body)
        return body
    raise TranslationError("type outside the t6 source calculus")


def inst_type(ty: Type, presences: list[Presence]) -> Type:
    """Peel the hoisted prefix of the translation and substitute into it."""
    translated = type_translate6(ty)
    for p in presences:
        if not isinstance(translated, ForallPres):
            raise TranslationError("presence sequence longer than prefix")
        translated = subst_type_in_type(translated.body, p, translated.var)
    if isinstance(translated, ForallPres):
        raise TranslationError("presence sequence shorter than prefix")
    return translated


def pres_seq_sub(ev: SubtypeEvidence, counter) -> tuple[list[str], list[Presence]]:
    """Binders covering the target prefix and arguments covering the source.

    Instantiating the translated source type with the arguments and then
    quantifying the binders lands exactly on the translated target type.
    """
    if ev.rule in ("FVar", "FBase"):
        return [], []
    if ev.rule == "CoFun":
        (cod_ev,) = ev.premises
        return pres_seq_sub(cod_ev, counter)
    if ev.rule == "FRecord":
        prems = dict(ev.premises)
        target = _closed_entries(ev.rhs.row)
        source = _closed_entries(ev.lhs.row)
        heads = {label: f"p{next(counter)}" for label, _ in target}
        deep_binders: list[str] = []
        deep_args: dict[str, list[Presence]] = {}
        for label, _ in target:
            sub_binders, sub_args = pres_seq_sub(prems[label], counter)
            deep_binders.extend(sub_binders)
            deep_args[label] = sub_args
        binders = [heads[label] for label, _ in target] + deep_binders
        args: list[Presence] = []
        for label, _ in source:
            args.append(PresVar(heads[label]) if label in heads else Absent())
        for label, a in source:
            if label in heads:
                args.extend(deep_args[label])
            else:
                args.extend(pres_seq(Absent(), a))
        return binders, args
    raise TranslationError(f"unexpected evidence {ev.rule} for t6")


def t6(deriv: Derivation) -> Term:
    counter = itertools.count()

    def apply_pres(term: Term, names: list[str]) -> Term:
        for name in names:
            term = PresApp(term, PresVar(name), "source")
        return term

    def quantify(term: Term, names: list[str]) -> Term:
        for name in reversed(names):
            term = PresAbs(name, term)
        return term

    def go(d: Derivation) -> Term:
        t = d.term
        if d.rule == "TyApp":
            names = [
                f"p{next(counter)}"
                for _ in range(pres_arity(d.premises[0].type.cod))
            ]
            fn = apply_pres(go(d.premises[0]), names)
            return quantify(App(fn, go(d.premises[1])), names)
        out = _congruent(d, go)
        if out is not None:
            return out
        if d.rule == "TyLam":
            names = [f"p{next(counter)}" for _ in range(pres_arity(d.type.cod))]
            body = apply_pres(go(d.premises[0]), names)
            return quantify(Lam(t.var, type_translate6(t.annot), body), names)
        if d.rule == "TyRecord":
            pairs = _closed_entries(d.type.row)
            heads = {label: f"p{next(counter)}" for label, _ in pairs}
            blocks = {
                label: [f"p{next(counter)}" for _ in range(pres_arity(a))]
                for label, a in pairs
            }
            ann = Record(
                Row(
                    tuple(
                        (
                            label,
                            PresVar(heads[label]),
                            inst_type(a, [PresVar(n) for n in blocks[label]]),
                        )
                        for label, a in pairs
                    ),
                    None,
                )
            )
            fields = tuple(
                (label, apply_pres(go(p), blocks[label]))
                for (label, _), p in zip(t.fields, d.premises)
            )
            names = [heads[label] for label, _ in pairs] + [
                n for label, _ in pairs for n in blocks[label]
            ]
            return quantify(RecordLit(fields, ann), names)
        if d.rule == "TyProject":
            row = d.premises[0].type.row
            names = [f"p{next(counter)}" for _ in range(pres_arity(d.type))]
            args: list[Presence] = []
            for label, _ in _closed_entries(row):
                args.append(Present() if label == t.label else Absent())
            for label, a in _closed_entries(row):
                if label == t.label:
                    args.extend(PresVar(n) for n in names)
                else:
                    args.extend(pres_seq(Absent(), a))
            out = go(d.premises[0])
            for p in args:
                out = PresApp(out, p, "source")
            return quantify(Project(out, t.label), names)
        if d.rule == "TyUpcast":
            binders, args = pres_seq_sub(d.evidence, counter)
            out = go(d.premises[0])
            for p in args:
                out = PresApp(out, p, "upcast")
            return quantify(out, binders)
        raise TranslationError(f"unexpected rule {d.rule} for t6")

    return go(deriv)


# ---------------------------------------------------------------------------
# t7: erase casts outright (rank-limited sources)


def t7(deriv: Derivation, config: CalculusConfig) -> Term:
    from .dynamics import erase
    from .statics import derivation_types

    for ty in derivation_types(deriv):
        if not check_rank_limit(config, ty):
            raise TranslationError(
                "derivation contains a type beyond the rank limit"
            )
    return erase(deriv.term)


def strip_upcasts(term: Term) -> Term:
    """Remove cast nodes but keep all other annotations intact."""
    if isinstance(term, (Var, Lit)):
        return term
    if isinstance(term, Upcast):
        return strip_upcasts(term.term)
    if isinstance(term, Lam):
        return Lam(term.var, term.annot, strip_upcasts(term.body))
    if isinstance(term, App):
        return App(strip_upcasts(term.fn), strip_upcasts(term.arg))
    if isinstance(term, Inject):
        return Inject(term.label, strip_upcasts(term.payload), term.annot)
    if isinstance(term, Case):
        return Case(
            strip_upcasts(term.scrutinee),
            tuple((l, x, strip_upcasts(b)) for l, x, b in term.branches),
        )
    if isinstance(term, RecordLit):
        return RecordLit(
            tuple((l, strip_upcasts(v)) for l, v in term.fields), term.annot
        )
    if isinstance(term, Project):
        return Project(strip_upcasts(term.term), term.label)
    if isinstance(term, Let):
        return Let(term.var, strip_upcasts(term.bound), strip_upcasts(term.body))
    if isinstance(term, Prim):
        return Prim(term.op, tuple(strip_upcasts(a) for a in term.args))
    raise TranslationError(f"unhandled term form {type(term).__name__}")


# ---------------------------------------------------------------------------
# Scheme translation giving erased record programs row-polymorphic types


def row_seq_a(ty: Type) -> int:
    """Prefix length of trans_a(ty)."""
    if isinstance(ty, (TyVar, Base)):
        return 0
    if isinstance(ty, Arrow):
        return row_seq_b(ty.dom) + row_seq_a(ty.cod)
    if isinstance(ty, Record):
        return sum(row_seq_a(a) for _, a in _closed_entries(ty.row))
    raise TranslationError("type outside the rank-2 record fragment")


def row_seq_b(ty: Type) -> int:
    """Prefix length of trans_b(ty)."""
    if isinstance(ty, (TyVar, Base)):
        return 0
    if isinstance(ty, Arrow):
        return row_seq_b(ty.cod)
    if isinstance(ty, Record):
        return 1 + sum(row_seq_b(a) for _, a in _closed_entries(ty.row))
    raise TranslationError("type outside the rank-2 record fragment")


def _fresh_rows(n: int, counter) -> list[str]:
    return [f"r{next(counter)}" for _ in range(n)]


def trans_a(ty: Type, _counter=None) -> TypeScheme:
    """Open up the records a consumer may widen, in argument positions.

    Function parameters go through trans_b, which gives every record an
    open tail; records in result positions keep closed heads.  The scheme
    quantifies all freshly created tails.
    """
    counter = _counter if _counter is not None else itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return TypeScheme((), ty)
    if isinstance(ty, Arrow):
        dom_names = _fresh_rows(row_seq_b(ty.dom), counter)
        cod_names = _fresh_rows(row_seq_a(ty.cod), counter)
        body = Arrow(
            trans_b_inst(ty.dom, dom_names), trans_a_inst(ty.cod, cod_names)
        )
        quants = tuple((n, _row_kind_in(body, n)) for n in dom_names + cod_names)
        return TypeScheme(quants, body)
    if isinstance(ty, Record):
        names: list[str] = []
        fields = []
        for label, a in _closed_entries(ty.row):
            block = _fresh_rows(row_seq_a(a), counter)
            names.extend(block)
            fields.append((label, Present(), trans_a_inst(a, block)))
        body = Record(Row(tuple(fields), None))
        quants = tuple((n, _row_kind_in(body, n)) for n in names)
        return TypeScheme(quants, body)
    raise TranslationError("type outside the rank-2 record fragment")


def trans_b(ty: Type, _counter=None) -> TypeScheme:
    """Open every record in ``ty`` with a fresh tail, domains untouched."""
    counter = _counter if _counter is not None else itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return TypeScheme((), ty)
    if isinstance(ty, Arrow):
        names = _fresh_rows(row_seq_b(ty.cod), counter)
        body = Arrow(ty.dom, trans_b_inst(ty.cod, names))
        quants = tuple((n, _row_kind_in(body, n)) for n in names)
        return TypeScheme(quants, body)
    if isinstance(ty, Record):
        tail = f"r{next(counter)}"
        names = [tail]
        fields = []
        for label, a in _closed_entries(ty.row):
            block = _fresh_rows(row_seq_b(a), counter)
            names.extend(block)
            fields.append((label, Present(), trans_b_inst(a, block)))
        body = Record(Row(tuple(fields), tail))
        quants = tuple((n, _row_kind_in(body, n)) for n in names)
        return TypeScheme(quants, body)
    raise TranslationError("type outside the rank-2 record fragment")


def _row_kind_in(body: Type, name: str) -> KRow:
    lacks = _tail_lacks(body, name)
    return KRow(lacks if lacks is not None else frozenset())


def _tail_lacks(ty: Type, name: str) -> frozenset[str] | None:
    if isinstance(ty, Arrow):
        hit = _tail_lacks(ty.dom, name)
        return hit if hit is not None else _tail_lacks(ty.cod, name)
    if isinstance(ty, (Record, Variant)):
        if ty.row.tail == name:
            return row_dom(ty.row)
        for _, _, a in ty.row.entries:
            hit = _tail_lacks(a, name)
            if hit is not None:
                return hit
        return None
    if isinstance(ty, (ForallRow, ForallPres)):
        return _tail_lacks(ty.body, name)
    return None


def _inst_scheme(scheme: TypeScheme, names: list[str]) -> Type:
    if len(scheme.quants) != len(names):
        raise TranslationError("row sequence does not cover the prefix")
    body = scheme.body
    for (old, _), new in zip(scheme.quants, names):
        body = subst_type_in_type(body, Row((), new), old)
    return body


def trans_a_inst(ty: Type, names: list[str]) -> Type:
    return _inst_scheme(trans_a(ty), names)


def trans_b_inst(ty: Type, names: list[str]) -> Type:
    return _inst_scheme(trans_b(ty), names)


def trans_b_inst_rows(ty: Type, rows: list[Row]) -> Type:
    """Instantiate trans_b(ty)'s prefix with concrete rows."""
    scheme = trans_b(ty)
    if len(scheme.quants) != len(rows):
        raise TranslationError("row sequence does not cover the prefix")
    body = scheme.body
    for (old, _), row in zip(scheme.quants, rows):
        body = subst_type_in_type(body, row, old)
    return body


# ---------------------------------------------------------------------------
# The weakening preorder on target types and its instantiation builder


def weak_sub(a, b) -> bool:
    """Syntactic weakening: open tails on the left may be dropped.

    Covers exactly five shapes: equal atoms, closed records pointwise, an
    open record against a closed one with the same labels, functions with
    equal domains, and quantifier prefixes matched positionally with equal
    kinds.
    """
    if isinstance(a, TypeScheme) or isinstance(b, TypeScheme):
        qa = a.quants if isinstance(a, TypeScheme) else ()
        qb = b.quants if isinstance(b, TypeScheme) else ()
        if len(qa) != len(qb):
            return False
        body_a = a.body if isinstance(a, TypeScheme) else a
        body_b = b.body if isinstance(b, TypeScheme) else b
        for (na, ka), (nb, kb) in zip(qa, qb):
            if ka != kb:
                return False
            body_a = _rename_binder(body_a, na, nb, ka)
        return _weak_sub_ty(body_a, body_b)
    return _weak_sub_ty(a, b)


def _rename_binder(ty: Type, old: str, new: str, kind: Kind) -> Type:
    if old == new:
        return ty
    if isinstance(kind, KRow):
        return subst_type_in_type(ty, Row((), new), old)
    if isinstance(kind, KPre):
        return subst_type_in_type(ty, PresVar(new), old)
    return _subst_tyvar(ty, old, TyVar(new))


def _subst_tyvar(ty: Type, old: str, rep: Type) -> Type:
    if isinstance(ty, TyVar):
        return rep if ty.name == old else ty
    if isinstance(ty, Base):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(_subst_tyvar(ty.dom, old, rep), _subst_tyvar(ty.cod, old, rep))
    if isinstance(ty, (Record, Variant)):
        row = Row(
            tuple((l, p, _subst_tyvar(a, old, rep)) for l, p, a in ty.row.entries),
            ty.row.tail,
        )
        return type(ty)(row)
    if isinstance(ty, ForallRow):
        return ForallRow(ty.var, ty.kind, _subst_tyvar(ty.body, old, rep))
    if isinstance(ty, ForallPres):
        return ForallPres(ty.var, _subst_tyvar(ty.body, old, rep))
    raise TranslationError(f"unhandled type form {type(ty).__name__}")


def _weak_sub_ty(a: Type, b: Type) -> bool:
    if isinstance(a, (TyVar, Base)):
        return a == b
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return type_equal(a.dom, b.dom) and _weak_sub_ty(a.cod, b.cod)
    if isinstance(a, Record) and isinstance(b, Record):
        if b.row.tail is not None:
            return type_equal(a, b)
        ea = {l: t for l, _, t in a.row.entries}
        eb = {l: t for l, _, t in b.row.entries}
        if set(ea) != set(eb):
            return False
        return all(_weak_sub_ty(ea[l], eb[l]) for l in ea)
    return False


def row_inst_for_sub(tau: Type, sup: Type) -> list[Row]:
    """Rows making trans_b_inst_rows(sup, rows) equal tau, given tau fits.

    Heads collect the fields dropped by the subtyping (keeping tau's tail
    when open), then deep sequences recurse through the matching labels.
    """
    if isinstance(tau, (TyVar, Base)):
        return []
    if isinstance(tau, Arrow) and isinstance(sup, Arrow):
        return row_inst_for_sub(tau.cod, sup.cod)
    if isinstance(tau, Record) and isinstance(sup, Record):
        sup_labels = row_dom(sup.row)
        extra = tuple(
            (label, Present(), ty)
            for label, ty in _closed_entries(tau.row)
            if label not in sup_labels
        )
        out = [Row(extra, tau.row.tail)]
        tau_fields = dict(_closed_entries(tau.row))
        for label, a in _closed_entries(sup.row):
            out.extend(row_inst_for_sub(tau_fields[label], a))
        return out
    raise TranslationError("shapes do not match for row instantiation")


# ---------------------------------------------------------------------------
# Matcher: can the inferred principal scheme be weakened below a goal?


def weak_sub_instance(principal: TypeScheme, goal: TypeScheme) -> bool:
    """True when some instance of ``principal`` weakens below ``goal``.

    Goal quantifiers are rigid; principal quantifiers become match
    variables.  Dropped row tails are permitted exactly where the
    weakening preorder would drop them.
    """
    body = principal.body
    flex: set[str] = set()
    for i, (name, kind) in enumerate(principal.quants):
        meta = f"?m{i}"
        flex.add(meta)
        body = _rename_binder(body, name, meta, kind)

    subst: dict[str, Type | Row] = {}

    def resolve(ty: Type) -> Type:
        while isinstance(ty, TyVar) and ty.name in subst:
            ty = subst[ty.name]
        return ty

    def row_parts(row: Row) -> tuple[dict[str, Type], str | None]:
        entries = {l: t for l, _, t in row.entries}
        tail = row.tail
        while tail is not None and tail in subst:
            rep = subst[tail]
            for l, _, t in rep.entries:
                entries[l] = t
            tail = rep.tail
        return entries, tail

    def unify(a: Type, b: Type) -> bool:
        a, b = resolve(a), resolve(b)
        if isinstance(a, TyVar) and a.name in flex:
            subst[a.name] = b
            return True
        if isinstance(a, (TyVar, Base)):
            return a == b
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return unify(a.dom, b.dom) and unify(a.cod, b.cod)
        if isinstance(a, Record) and isinstance(b, Record):
            ea, ta = row_parts(a.row)
            eb, tb = row_parts(b.row)
            if set(ea) != set(eb):
                missing = {l: eb[l] for l in set(eb) - set(ea)}
                if missing and ta in flex and not (set(ea) - set(eb)):
                    subst[ta] = Row(
                        tuple((l, Present(), t) for l, t in sorted(missing.items())),
                        tb,
                    )
                    return all(unify(ea[l], eb[l]) for l in ea)
                return False
            if ta in flex:
                subst[ta] = Row((), tb)
                return all(unify(ea[l], eb[l]) for l in ea)
            if ta != tb:
                return False
            return all(unify(ea[l], eb[l]) for l in ea)
        return False

    def match(a: Type, b: Type) -> bool:
        a, b = resolve(a), resolve(b)
        if isinstance(a, TyVar) and a.name in flex:
            subst[a.name] = b
            return True
        if isinstance(a, (TyVar, Base)):
            return a == b
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return unify(a.dom, b.dom) and match(a.cod, b.cod)
        if isinstance(a, Record) and isinstance(b, Record):
            ea, ta = row_parts(a.row)
            eb, tb = row_parts(b.row)
            if tb is not None:
                return unify(a, b)
            if set(ea) != set(eb):
                if ta in flex and not (set(ea) - set(eb)):
                    missing = {l: eb[l] for l in set(eb) - set(ea)}
                    subst[ta] = Row(
                        tuple((l, Present(), t) for l, t in sorted(missing.items())),
                        None,
                    )
                    return all(match(ea[l], eb[l]) for l in ea)
                return False
            # an open tail on the left simply dangles here
            return all(match(ea[l], eb[l]) for l in ea)
        return False

    return match(body, goal.body)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Translation:
    tid: str
    pairs: tuple[tuple[str, str], ...]
    term: Callable[[Derivation, CalculusConfig], Term]
    type_map: Callable[[Type], Type] | None


def _identity_type(ty: Type) -> Type:
    return ty


TRANSLATIONS: dict[str, Translation] = {
    t.tid: t
    for t in (
        Translation(
            "var-sub-to-var",
            (("var-sub", "var"),),
            lambda d, c: t1(d),
            _identity_type,
        ),
        Translation(
            "var-sub-to-row",
            (("var-sub", "var-row"),),
            lambda d, c: t2(d),
            type_translate2,
        ),
        Translation(
            "rec-sub-to-rec",
            (("rec-sub", "rec"),),
            lambda d, c: t3(d),
            _identity_type,
        ),
        Translation(
            "rec-sub-to-pre",
            (("rec-sub", "rec-pre"),),
            lambda d, c: t4(d),
            type_translate4,
        ),
        Translation(
            "full-sub-coerce",
            (("var-rec-sub-full", "var-rec"),),
            lambda d, c: t5(d),
            _identity_type,
        ),
        Translation(
            "rec-co-to-pre",
            (("rec-sub-co", "rec-pre"),),
            lambda d, c: t6(d),
            type_translate6,
        ),
        Translation(
            "erase-upcasts",
            (
                ("rec-sub-full-rank2", "rec-row1"),
                ("rec-sub-full-rank1", "rec-pre1"),
                ("var-sub-full-rank1", "var-row1"),
                ("var-sub-full-rank2", "var-pre1"),
            ),
            t7,
            None,
        ),
    )
}

PAIR_INDEX: dict[tuple[str, str], str] = {
    pair: t.tid for t in TRANSLATIONS.values() for pair in t.pairs
}


def translation_for(source: str, target: str) -> Translation:
    tid = PAIR_INDEX.get((source, target))
    if tid is None:
        known = ", ".join(f"{s}->{t}" for s, t in sorted(PAIR_INDEX))
        raise TranslationError(
            f"no translation from {source} to {target}; known pairs: {known}"
        )
    return TRANSLATIONS[tid]


def run_translation(tid: str, deriv: Derivation) -> Term:
    t = TRANSLATIONS[tid]
    source = preset(t.pairs[0][0])
    return t.term(deriv, source)
