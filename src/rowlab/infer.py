"""Hindley-Milner inference for the rank-1 calculi.

Works on bare terms: no annotations, no casts, no type abstractions or
applications.  Unification handles rows up to reordering and up to entries
whose presence solves to absent; row metavariables carry lacks sets that
binding must respect.  Generalization happens at let bindings and once more
at the top level; lambda-bound variables stay monomorphic.

Metavariable names start with '?' so they can never collide with source
names; skolem names used by the instance check start with '!'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import CalculusConfig
from .pretty import show_presence, show_term, show_type
from .statics import INT, PRIM_SIGS, STRING
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
    Presence,
    PresVar,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    Term,
    Type,
    TypeScheme,
    TyVar,
    Var,
    Variant,
    subst_type_in_type,
)


class InferError(Exception):
    pass


def _is_meta(name: str | None) -> bool:
    return name is not None and name.startswith("?")


@dataclass
class _State:
    subst: dict[str, object] = field(default_factory=dict)
    lacks: dict[str, frozenset[str]] = field(default_factory=dict)
    counter: itertools.count = field(default_factory=itertools.count)

    def fresh_type(self) -> TyVar:
        return TyVar(f"?a{next(self.counter)}")

    def fresh_pres(self) -> PresVar:
        return PresVar(f"?p{next(self.counter)}")

    def fresh_row_tail(self, lacks: frozenset[str]) -> str:
        name = f"?r{next(self.counter)}"
        self.lacks[name] = frozenset(lacks)
        return name


def _resolve_type(state: _State, ty: Type) -> Type:
    while isinstance(ty, TyVar) and ty.name in state.subst:
        ty = state.subst[ty.name]
    return ty


def _resolve_pres(state: _State, p: Presence) -> Presence:
    while isinstance(p, PresVar) and p.name in state.subst:
        p = state.subst[p.name]
    return p


def _expand_row(
    state: _State, row: Row
) -> tuple[dict[str, tuple[Presence, Type]], str | None]:
    """Entries reachable through the substitution; absent entries dropped."""
    entries: dict[str, tuple[Presence, Type]] = {}
    tail = row.tail
    pending = list(row.entries)
    while True:
        for label, pres, ty in pending:
            pres = _resolve_pres(state, pres)
            if isinstance(pres, Absent):
                continue
            entries[label] = (pres, ty)
        if tail is None or tail not in state.subst:
            return entries, tail
        rep = state.subst[tail]
        pending = list(rep.entries)
        tail = rep.tail


def _occurs(state: _State, name: str, obj) -> bool:
    if isinstance(obj, Row):
        entries, tail = _expand_row(state, obj)
        if tail == name:
            return True
        return any(_occurs(state, name, t) for _, t in entries.values())
    if isinstance(obj, PresVar):
        return _resolve_pres(state, obj) == PresVar(name)
    ty = _resolve_type(state, obj)
    if isinstance(ty, TyVar):
        return ty.name == name
    if isinstance(ty, Base):
        return False
    if isinstance(ty, Arrow):
        return _occurs(state, name, ty.dom) or _occurs(state, name, ty.cod)
    if isinstance(ty, (Record, Variant)):
        return _occurs(state, name, ty.row)
    return False


def unify_pres(state: _State, a: Presence, b: Presence) -> None:
    a, b = _resolve_pres(state, a), _resolve_pres(state, b)
    if a == b:
        return
    if isinstance(a, PresVar) and _is_meta(a.name):
        state.subst[a.name] = b
        return
    if isinstance(b, PresVar) and _is_meta(b.name):
        state.subst[b.name] = a
        return
    raise InferError(
        f"presence mismatch: {show_presence(a)} vs {show_presence(b)}"
    )


def _force_absent(state: _State, pres: Presence, reason: str) -> None:
    try:
        unify_pres(state, pres, Absent())
    except InferError:
        raise InferError(reason) from None


def _settle_extras(
    state: _State,
    extras: dict[str, tuple[Presence, Type]],
    tail: str | None,
) -> dict[str, tuple[Presence, Type]]:
    """Split one-sided entries: those the tail can absorb, the rest absent."""
    fits: dict[str, tuple[Presence, Type]] = {}
    for label, (pres, ty) in extras.items():
        if tail is None or not _is_meta(tail):
            _force_absent(
                state,
                pres,
                f"label {label} is present on one row but the other row "
                "cannot contain it",
            )
        elif label in state.lacks.get(tail, frozenset()):
            _force_absent(
                state,
                pres,
                f"label {label} is forbidden by the lacks constraint on {tail}",
            )
        else:
            fits[label] = (pres, ty)
    return fits


def unify_rows(state: _State, ra: Row, rb: Row) -> None:
    ea, ta = _expand_row(state, ra)
    eb, tb = _expand_row(state, rb)
    common = set(ea) & set(eb)
    extra_a = {l: ea[l] for l in ea if l not in eb}
    extra_b = {l: eb[l] for l in eb if l not in ea}

    if ta == tb:
        # identical tails absorb nothing new
        _settle_extras(state, extra_a, None)
        _settle_extras(state, extra_b, None)
    else:
        into_b = _settle_extras(state, extra_a, tb)
        into_a = _settle_extras(state, extra_b, ta)
        for label, (_, ty) in into_b.items():
            if _occurs(state, tb, ty):
                raise InferError(f"occurs check failed on row {tb}")
        for label, (_, ty) in into_a.items():
            if _occurs(state, ta, ty):
                raise InferError(f"occurs check failed on row {ta}")
        if _is_meta(ta) and _is_meta(tb):
            shared = state.fresh_row_tail(
                state.lacks[ta] | state.lacks[tb] | set(ea) | set(eb)
            )
            state.subst[ta] = Row(
                tuple((l, p, t) for l, (p, t) in sorted(into_a.items())), shared
            )
            state.subst[tb] = Row(
                tuple((l, p, t) for l, (p, t) in sorted(into_b.items())), shared
            )
        elif _is_meta(ta):
            state.subst[ta] = Row(
                tuple((l, p, t) for l, (p, t) in sorted(into_a.items())), tb
            )
        elif _is_meta(tb):
            state.subst[tb] = Row(
                tuple((l, p, t) for l, (p, t) in sorted(into_b.items())), ta
            )
        else:
            # two distinct rigid tails (or one rigid, one closed)
            raise InferError(
                f"row tails differ: {ta or 'closed'} vs {tb or 'closed'}"
            )
    for label in common:
        pa, tya = ea[label]
        pb, tyb = eb[label]
        unify_pres(state, pa, pb)
        unify_type(state, tya, tyb)


def unify_type(state: _State, a: Type, b: Type) -> None:
    a, b = _resolve_type(state, a), _resolve_type(state, b)
    if isinstance(a, TyVar) and isinstance(b, TyVar) and a.name == b.name:
        return
    if isinstance(a, TyVar) and _is_meta(a.name):
        if _occurs(state, a.name, b):
            raise InferError(f"occurs check failed on {a.name}")
        state.subst[a.name] = b
        return
    if isinstance(b, TyVar) and _is_meta(b.name):
        if _occurs(state, b.name, a):
            raise InferError(f"occurs check failed on {b.name}")
        state.subst[b.name] = a
        return
    if isinstance(a, Base) and isinstance(b, Base) and a.tag == b.tag:
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        unify_type(state, a.dom, b.dom)
        unify_type(state, a.cod, b.cod)
        return
    if isinstance(a, Record) and isinstance(b, Record):
        unify_rows(state, a.row, b.row)
        return
    if isinstance(a, Variant) and isinstance(b, Variant):
        unify_rows(state, a.row, b.row)
        return
    raise InferError(f"cannot unify {show_type(a)} with {show_type(b)}")


def zonk_type(state: _State, ty: Type) -> Type:
    ty = _resolve_type(state, ty)
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(zonk_type(state, ty.dom), zonk_type(state, ty.cod))
    if isinstance(ty, (Record, Variant)):
        return type(ty)(_zonk_row(state, ty.row))
    raise InferError(f"unexpected type form {type(ty).__name__}")


def _zonk_row(state: _State, row: Row) -> Row:
    # entries whose presence solved to absent are dropped: the row denotes
    # the same thing without them
    out: list[tuple[str, Presence, Type]] = []
    tail = row.tail
    pending = list(row.entries)
    while True:
        for label, pres, ty in pending:
            pres = _resolve_pres(state, pres)
            if isinstance(pres, Absent):
                continue
            out.append((label, pres, zonk_type(state, ty)))
        if tail is None or tail not in state.subst:
            return Row(tuple(out), tail)
        rep = state.subst[tail]
        pending = list(rep.entries)
        tail = rep.tail


def _meta_occurrences(ty: Type, seen: dict[str, Kind], lacks) -> None:
    """Collect metavariables with kinds in first-occurrence order."""
    if isinstance(ty, TyVar):
        if _is_meta(ty.name) and ty.name not in seen:
            seen[ty.name] = KType()
        return
    if isinstance(ty, Base):
        return
    if isinstance(ty, Arrow):
        _meta_occurrences(ty.dom, seen, lacks)
        _meta_occurrences(ty.cod, seen, lacks)
        return
    if isinstance(ty, (Record, Variant)):
        for _, pres, a in ty.row.entries:
            if isinstance(pres, PresVar) and _is_meta(pres.name):
                seen.setdefault(pres.name, KPre())
            _meta_occurrences(a, seen, lacks)
        tail = ty.row.tail
        if _is_meta(tail) and tail not in seen:
            seen[tail] = KRow(lacks.get(tail, frozenset()))
        return
    raise InferError(f"unexpected type form {type(ty).__name__}")


def _free_meta_names(ty: Type) -> set[str]:
    out: dict[str, Kind] = {}
    _meta_occurrences(ty, out, {})
    return set(out)


def _replace_tyvar(ty: Type, old: str, rep: Type) -> Type:
    if isinstance(ty, TyVar):
        return rep if ty.name == old else ty
    if isinstance(ty, Base):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(
            _replace_tyvar(ty.dom, old, rep), _replace_tyvar(ty.cod, old, rep)
        )
    if isinstance(ty, (Record, Variant)):
        return type(ty)(
            Row(
                tuple(
                    (l, p, _replace_tyvar(a, old, rep))
                    for l, p, a in ty.row.entries
                ),
                ty.row.tail,
            )
        )
    if isinstance(ty, ForallRow):
        return ForallRow(ty.var, ty.kind, _replace_tyvar(ty.body, old, rep))
    if isinstance(ty, ForallPres):
        return ForallPres(ty.var, _replace_tyvar(ty.body, old, rep))
    raise InferError(f"unexpected type form {type(ty).__name__}")


def _substitute_name(ty: Type, old: str, kind: Kind, new_name: str) -> Type:
    if isinstance(kind, KRow):
        return subst_type_in_type(ty, Row((), new_name), old)
    if isinstance(kind, KPre):
        return subst_type_in_type(ty, PresVar(new_name), old)
    return _replace_tyvar(ty, old, TyVar(new_name))


def instantiate(state: _State, scheme: TypeScheme) -> Type:
    body = scheme.body
    for name, kind in scheme.quants:
        if isinstance(kind, KRow):
            meta = state.fresh_row_tail(kind.lacks)
        elif isinstance(kind, KPre):
            meta = state.fresh_pres().name
        else:
            meta = state.fresh_type().name
        body = _substitute_name(body, name, kind, meta)
    return body


def _rigid_names(ty: Type) -> set[str]:
    out: set[str] = set()

    def walk(t: Type) -> None:
        if isinstance(t, TyVar):
            if not _is_meta(t.name):
                out.add(t.name)
            return
        if isinstance(t, Base):
            return
        if isinstance(t, Arrow):
            walk(t.dom)
            walk(t.cod)
            return
        if isinstance(t, (Record, Variant)):
            for _, pres, a in t.row.entries:
                if isinstance(pres, PresVar) and not _is_meta(pres.name):
                    out.add(pres.name)
                walk(a)
            if t.row.tail is not None and not _is_meta(t.row.tail):
                out.add(t.row.tail)
            return

    walk(ty)
    return out


def generalize(state: _State, env: dict[str, TypeScheme], ty: Type) -> TypeScheme:
    body = zonk_type(state, ty)
    env_metas: set[str] = set()
    for scheme in env.values():
        env_metas |= _free_meta_names(zonk_type(state, scheme.body))
    metas: dict[str, Kind] = {}
    _meta_occurrences(body, metas, state.lacks)
    taken = _rigid_names(body)
    counters = {"a": itertools.count(), "r": itertools.count(), "p": itertools.count()}
    quants: list[tuple[str, Kind]] = []
    for name, kind in metas.items():
        if name in env_metas:
            continue
        prefix = "r" if isinstance(kind, KRow) else "p" if isinstance(kind, KPre) else "a"
        while True:
            fresh = f"{prefix}{next(counters[prefix])}"
            if fresh not in taken:
                break
        body = _substitute_name(body, name, kind, fresh)
        quants.append((fresh, kind))
    return TypeScheme(tuple(quants), body)


def infer(
    config: CalculusConfig,
    delta: dict[str, Kind],
    gamma: dict[str, TypeScheme | Type],
    term: Term,
) -> TypeScheme:
    """Principal scheme of a bare term in a rank-1 calculus."""
    if not config.rank1:
        raise InferError(f"calculus {config.name} does not support inference")
    state = _State()
    for name, kind in delta.items():
        if isinstance(kind, KRow):
            state.lacks[name] = kind.lacks
    env: dict[str, TypeScheme] = {}
    for name, entry in gamma.items():
        env[name] = entry if isinstance(entry, TypeScheme) else TypeScheme((), entry)

    open_rows = config.row_poly == "rank1"

    def rec(t: Term, env: dict[str, TypeScheme]) -> Type:
        try:
            return dispatch(t, env)
        except InferError as e:
            if not getattr(e, "site", None):
                e.site = t
                e.args = (f"{e.args[0]} (while typing {show_term(t)})",)
            raise

    def dispatch(t: Term, env: dict[str, TypeScheme]) -> Type:
        if isinstance(t, Var):
            scheme = env.get(t.name)
            if scheme is None:
                raise InferError(f"unbound variable {t.name}")
            return instantiate(state, scheme)
        if isinstance(t, Lam):
            if t.annot is not None:
                raise InferError("inference input must not carry annotations")
            a = state.fresh_type()
            body = rec(t.body, {**env, t.var: TypeScheme((), a)})
            return Arrow(a, body)
        if isinstance(t, App):
            fn = rec(t.fn, env)
            arg = rec(t.arg, env)
            res = state.fresh_type()
            unify_type(state, fn, Arrow(arg, res))
            return res
        if isinstance(t, Let):
            if not config.allows_let:
                raise InferError("let bindings not available in this calculus")
            bound = rec(t.bound, env)
            scheme = generalize(state, env, bound)
            return rec(t.body, {**env, t.var: scheme})
        if isinstance(t, Lit):
            if not config.builtins:
                raise InferError("literals not available in this calculus")
            return INT if isinstance(t.value, int) else STRING
        if isinstance(t, Prim):
            if not config.builtins:
                raise InferError("primitives not available in this calculus")
            sig = PRIM_SIGS.get(t.op)
            if sig is None or len(t.args) != 2:
                raise InferError(f"unknown primitive {t.op}")
            unify_type(state, rec(t.args[0], env), sig[0])
            unify_type(state, rec(t.args[1], env), sig[1])
            return sig[2]
        if isinstance(t, RecordLit):
            if not config.records:
                raise InferError("record literals not available in this calculus")
            if t.annot is not None:
                raise InferError("inference input must not carry annotations")
            labels = [l for l, _ in t.fields]
            if len(set(labels)) != len(labels):
                raise InferError("duplicate record field labels")
            entries = []
            for label, value in t.fields:
                pres = Present() if open_rows else state.fresh_pres()
                entries.append((label, pres, rec(value, env)))
            return Record(Row(tuple(entries), None))
        if isinstance(t, Project):
            if not config.records:
                raise InferError("record projection not available in this calculus")
            rec_ty = rec(t.term, env)
            out = state.fresh_type()
            tail = state.fresh_row_tail(frozenset({t.label})) if open_rows else None
            want = Record(Row(((t.label, Present(), out),), tail))
            unify_type(state, rec_ty, want)
            return out
        if isinstance(t, Inject):
            if not config.variants:
                raise InferError("injection not available in this calculus")
            if t.annot is not None:
                raise InferError("inference input must not carry annotations")
            payload = rec(t.payload, env)
            tail = state.fresh_row_tail(frozenset({t.label})) if open_rows else None
            return Variant(Row(((t.label, Present(), payload),), tail))
        if isinstance(t, Case):
            if not config.variants:
                raise InferError("case analysis not available in this calculus")
            labels = [l for l, _, _ in t.branches]
            if len(set(labels)) != len(labels):
                raise InferError("duplicate case branch labels")
            scrut = rec(t.scrutinee, env)
            entries = []
            payloads: dict[str, Type] = {}
            for label in labels:
                a = state.fresh_type()
                payloads[label] = a
                pres = Present() if open_rows else state.fresh_pres()
                entries.append((label, pres, a))
            unify_type(state, scrut, Variant(Row(tuple(entries), None)))
            result = state.fresh_type()
            for label, binder, body in t.branches:
                branch_env = {**env, binder: TypeScheme((), payloads[label])}
                unify_type(state, rec(body, branch_env), result)
            return result
        raise InferError(
            f"inference input must not contain {type(t).__name__} nodes"
        )

    ty = rec(term, env)
    return generalize(state, env, ty)


def scheme_instance(general: TypeScheme, specific: TypeScheme) -> bool:
    """True when ``specific`` is an instance of ``general`` up to renaming."""
    state = _State()
    body_s = specific.body
    for i, (name, kind) in enumerate(specific.quants):
        skolem = f"!s{i}"
        if isinstance(kind, KRow):
            state.lacks[skolem] = kind.lacks
        body_s = _substitute_name(body_s, name, kind, skolem)
    body_g = instantiate(state, general)
    try:
        unify_type(state, body_g, body_s)
    except InferError:
        return False
    return True
