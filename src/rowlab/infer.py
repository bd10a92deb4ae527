"""Hindley-Milner inference for the rank-1 calculi.

Works on bare terms: no annotations, no casts, no type abstractions or
applications.  Unification handles rows up to reordering and up to entries
whose presence solves to absent; row metavariables carry lacks sets that
binding must respect.  Generalization happens at let bindings and once more
at the top level; lambda-bound variables stay monomorphic.

Metavariable names start with '?' so they can never collide with source
names; skolem names used by the instance check start with '!'.

Each rule is said once.  ``_resolve`` follows a type or presence
metavariable through the substitution, and ``unify_type`` and
``unify_pres`` each bind a metavariable by one rule, the left side first.
Instantiation, generalization and the instance check's skolems rename a
scheme's quantifiers by inference's own substitution: one ``zonk_type``
under a ``_State`` that binds only the renamed names.

``infer`` passes each entry of its context through the checker's gate,
``statics.check_part`` (a scheme's body under delta and its quantifiers),
so a context the calculus cannot state is refused as ``type_check``
refuses it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import CalculusConfig
from .pretty import show_presence, show_term, show_type
from .statics import check_distinct, check_part, lit_type, prim_sig, refuse_missing
from .syntax import (
    SHAPES,
    Absent,
    App,
    Arrow,
    Base,
    Case,
    Inject,
    KPre,
    KRow,
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
    free_type_names,
    type_level_names,
)


class InferError(Exception):
    site = None  # the innermost term being typed, set where the error passes it


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

    def fresh(self, kind: Kind) -> TyVar | Row | PresVar:
        """A metavariable for a quantifier of ``kind``, as a renaming's image."""
        if isinstance(kind, KRow):
            return Row((), self.fresh_row_tail(kind.lacks))
        return self.fresh_pres() if isinstance(kind, KPre) else self.fresh_type()


def _named(kind: Kind, name: str) -> TyVar | Row | PresVar:
    """``name`` as the image of a quantifier of ``kind`` in a renaming."""
    if isinstance(kind, KRow):
        return Row((), name)
    return PresVar(name) if isinstance(kind, KPre) else TyVar(name)


def _resolve(state: _State, x: Type | Presence) -> Type | Presence:
    """``x`` with the metavariables it starts with followed while bound."""
    while isinstance(x, (TyVar, PresVar)) and x.name in state.subst:
        x = state.subst[x.name]
    return x


def _expand_row(
    state: _State, row: Row
) -> tuple[dict[str, tuple[Presence, Type]], str | None]:
    """Entries reachable through the substitution; absent entries dropped."""
    entries: dict[str, tuple[Presence, Type]] = {}
    tail = row.tail
    pending = list(row.entries)
    while True:
        for label, pres, ty in pending:
            pres = _resolve(state, pres)
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
    ty = _resolve(state, obj)
    if isinstance(ty, (TyVar, PresVar)):
        return ty.name == name
    if isinstance(ty, Arrow):
        return _occurs(state, name, ty.dom) or _occurs(state, name, ty.cod)
    if isinstance(ty, (Record, Variant)):
        return _occurs(state, name, ty.row)
    return False


def _bind(state: _State, a, b) -> bool:
    """Bind whichever of ``a`` and ``b``, left first, is a type or presence
    metavariable to the other, after the occurs check; False when neither
    is one."""
    for meta, other in ((a, b), (b, a)):
        if isinstance(meta, (TyVar, PresVar)) and _is_meta(meta.name):
            if _occurs(state, meta.name, other):
                raise InferError(f"occurs check failed on {meta.name}")
            state.subst[meta.name] = other
            return True
    return False


def unify_pres(state: _State, a: Presence, b: Presence) -> None:
    a, b = _resolve(state, a), _resolve(state, b)
    if a != b and not _bind(state, a, b):
        raise InferError(
            f"presence mismatch: {show_presence(a)} vs {show_presence(b)}"
        )


def _split_extras(
    state: _State,
    extras: dict[str, tuple[Presence, Type]],
    tail: str | None,
) -> dict[str, tuple[Presence, Type]]:
    """Split one-sided entries: those the tail can absorb, the rest absent."""
    fits: dict[str, tuple[Presence, Type]] = {}
    for label, (pres, ty) in extras.items():
        if not _is_meta(tail):
            reason = (
                f"label {label} is present on one row but the other row "
                "cannot contain it"
            )
        elif label in state.lacks.get(tail, frozenset()):
            reason = f"label {label} is forbidden by the lacks constraint on {tail}"
        else:
            fits[label] = (pres, ty)
            continue
        try:
            unify_pres(state, pres, Absent())
        except InferError:
            raise InferError(reason) from None
    return fits


def _sorted_row(entries: dict[str, tuple[Presence, Type]], tail: str | None) -> Row:
    return Row(tuple((l, p, t) for l, (p, t) in sorted(entries.items())), tail)


def unify_rows(state: _State, ra: Row, rb: Row) -> None:
    ea, ta = _expand_row(state, ra)
    eb, tb = _expand_row(state, rb)
    common = set(ea) & set(eb)
    extra_a = {l: ea[l] for l in ea if l not in eb}
    extra_b = {l: eb[l] for l in eb if l not in ea}
    same = ta == tb  # identical tails absorb nothing new
    into_b = _split_extras(state, extra_a, None if same else tb)
    into_a = _split_extras(state, extra_b, None if same else ta)
    for tail, into in ((tb, into_b), (ta, into_a)):
        for _, ty in into.values():
            if _occurs(state, tail, ty):
                raise InferError(f"occurs check failed on row {tail}")
    if not same:
        if _is_meta(ta) and _is_meta(tb):
            shared = state.fresh_row_tail(
                state.lacks[ta] | state.lacks[tb] | set(ea) | set(eb)
            )
            state.subst[ta] = _sorted_row(into_a, shared)
            state.subst[tb] = _sorted_row(into_b, shared)
        elif _is_meta(ta) or _is_meta(tb):
            meta, other, into = (ta, tb, into_a) if _is_meta(ta) else (tb, ta, into_b)
            # the rest of the row must lack every label the meta lacks
            if other is not None:
                missing = state.lacks[meta] - state.lacks.get(other, frozenset())
                if missing:
                    raise InferError(
                        f"row {other} does not lack {', '.join(sorted(missing))} "
                        f"as {meta} must"
                    )
            state.subst[meta] = _sorted_row(into, other)
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
    a, b = _resolve(state, a), _resolve(state, b)
    if isinstance(a, (TyVar, Base)) and a == b or _bind(state, a, b):
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        unify_type(state, a.dom, b.dom)
        unify_type(state, a.cod, b.cod)
    elif isinstance(a, (Record, Variant)) and type(a) is type(b):
        unify_rows(state, a.row, b.row)
    else:
        raise InferError(f"cannot unify {show_type(a)} with {show_type(b)}")


def zonk_type(state: _State, ty: Type) -> Type:
    ty = _resolve(state, ty)
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(zonk_type(state, ty.dom), zonk_type(state, ty.cod))
    if isinstance(ty, (Record, Variant)):
        entries, tail = _expand_row(state, ty.row)
        zonked = ((l, p, zonk_type(state, t)) for l, (p, t) in entries.items())
        return type(ty)(Row(tuple(zonked), tail))
    raise InferError(f"unexpected type form {type(ty).__name__}")


def _rename(ty: Type, images: dict[str, TyVar | Row | PresVar]) -> Type:
    """``ty`` with each name in ``images`` replaced by its image: a zonk
    under a substitution that binds those names alone."""
    return zonk_type(_State(images), ty) if images else ty


def instantiate(state: _State, scheme: TypeScheme) -> Type:
    metas = {name: state.fresh(kind) for name, kind in scheme.quants}
    return _rename(scheme.body, metas)


def generalize(state: _State, env: dict[str, TypeScheme], ty: Type) -> TypeScheme:
    body = zonk_type(state, ty)
    env_names: set[str] = set()
    for scheme in env.values():
        # only metas are tested against env_names, and a scheme that
        # mentions none zonks to itself: skipping it keeps let chains linear
        if any(map(_is_meta, type_level_names(scheme.body))):
            env_names.update(free_type_names(zonk_type(state, scheme.body)))
    names = free_type_names(body)
    taken = {name for name in names if not _is_meta(name)}
    counters = {"a": itertools.count(), "r": itertools.count(), "p": itertools.count()}
    quants: list[tuple[str, Kind]] = []
    images: dict[str, TyVar | Row | PresVar] = {}
    for name, use in names.items():
        if not _is_meta(name) or name in env_names:
            continue
        if isinstance(use, KRow):
            kind, prefix = KRow(state.lacks.get(name, frozenset())), "r"
        else:
            kind, prefix = use, "p" if isinstance(use, KPre) else "a"
        while True:
            fresh = f"{prefix}{next(counters[prefix])}"
            if fresh not in taken:
                break
        images[name] = _named(kind, fresh)
        quants.append((fresh, kind))
    return TypeScheme(tuple(quants), _rename(body, images))


def infer(
    config: CalculusConfig,
    delta: dict[str, Kind],
    gamma: dict[str, TypeScheme | Type],
    term: Term,
) -> TypeScheme:
    """Principal scheme of a bare term in a rank-1 calculus.

    Raises InferError when the term has no type, and what ``type_check``'s
    gate raises (``StaticError``) for an entry of ``gamma`` the calculus
    cannot state."""
    if not config.rank1:
        raise InferError(f"calculus {config.name} does not support inference")
    run = _Inference(config)
    for name, kind in delta.items():
        if isinstance(kind, KRow):
            run.state.lacks[name] = kind.lacks
    env: dict[str, TypeScheme] = {}
    for name, entry in gamma.items():
        scheme = entry if isinstance(entry, TypeScheme) else TypeScheme((), entry)
        check_part(config, {**delta, **dict(scheme.quants)}, scheme.body)
        env[name] = scheme
    ty = run.rec(term, env)
    return generalize(run.state, env, ty)


class _Inference:
    """One run of inference: its substitution state, ``rec``, which refuses
    what inference does not take and then applies the form's rule on
    ``RULES``, and the rules, which call ``rec`` themselves, so that
    inference stays at two frames per nesting level, as checking does."""

    def __init__(self, config: CalculusConfig):
        self.config = config
        self.state = _State()
        self.open_rows = config.row_poly == "rank1"

    def rec(self, t: Term, env: dict[str, TypeScheme]) -> Type:
        cls = type(t)
        try:
            rule = RULES.get(cls)
            if rule is None:
                raise InferError(
                    f"inference input must not contain {cls.__name__} nodes"
                )
            refuse_missing(self.config, t, InferError)
            for name in SHAPES[cls].types:
                if getattr(t, name) is not None:
                    raise InferError("inference input must not carry annotations")
            return rule(self, t, env)
        except InferError as e:
            if e.site is None:
                e.site = t
                e.args = (f"{e.args[0]} (while typing {show_term(t)})",)
            raise

    def var(self, t: Var, env: dict[str, TypeScheme]) -> Type:
        scheme = env.get(t.name)
        if scheme is None:
            raise InferError(f"unbound variable {t.name}")
        return instantiate(self.state, scheme)

    def lam(self, t: Lam, env: dict[str, TypeScheme]) -> Type:
        a = self.state.fresh_type()
        body = self.rec(t.body, {**env, t.var: TypeScheme((), a)})
        return Arrow(a, body)

    def app(self, t: App, env: dict[str, TypeScheme]) -> Type:
        fn = self.rec(t.fn, env)
        arg = self.rec(t.arg, env)
        res = self.state.fresh_type()
        unify_type(self.state, fn, Arrow(arg, res))
        return res

    def let(self, t: Let, env: dict[str, TypeScheme]) -> Type:
        bound = self.rec(t.bound, env)
        scheme = generalize(self.state, env, bound)
        return self.rec(t.body, {**env, t.var: scheme})

    def lit(self, t: Lit, env: dict[str, TypeScheme]) -> Type:
        return lit_type(t.value)

    def prim(self, t: Prim, env: dict[str, TypeScheme]) -> Type:
        ta, tb, res = prim_sig(t, InferError)
        unify_type(self.state, self.rec(t.args[0], env), ta)
        unify_type(self.state, self.rec(t.args[1], env), tb)
        return res

    def recordlit(self, t: RecordLit, env: dict[str, TypeScheme]) -> Type:
        labels = [l for l, _ in t.fields]
        check_distinct(labels, "duplicate record field labels", InferError)
        entries = []
        for label, value in t.fields:
            pres = Present() if self.open_rows else self.state.fresh_pres()
            entries.append((label, pres, self.rec(value, env)))
        return Record(Row(tuple(entries), None))

    def project(self, t: Project, env: dict[str, TypeScheme]) -> Type:
        rec_ty = self.rec(t.term, env)
        out = self.state.fresh_type()
        tail = self._tail(t.label)
        unify_type(self.state, rec_ty, Record(Row(((t.label, Present(), out),), tail)))
        return out

    def inject(self, t: Inject, env: dict[str, TypeScheme]) -> Type:
        payload = self.rec(t.payload, env)
        return Variant(Row(((t.label, Present(), payload),), self._tail(t.label)))

    def case(self, t: Case, env: dict[str, TypeScheme]) -> Type:
        labels = [l for l, _, _ in t.branches]
        check_distinct(labels, "duplicate case branch labels", InferError)
        scrut = self.rec(t.scrutinee, env)
        entries = []
        payloads: dict[str, Type] = {}
        for label in labels:
            a = self.state.fresh_type()
            payloads[label] = a
            pres = Present() if self.open_rows else self.state.fresh_pres()
            entries.append((label, pres, a))
        unify_type(self.state, scrut, Variant(Row(tuple(entries), None)))
        result = self.state.fresh_type()
        for label, binder, body in t.branches:
            branch_env = {**env, binder: TypeScheme((), payloads[label])}
            unify_type(self.state, self.rec(body, branch_env), result)
        return result

    def _tail(self, label: str) -> str | None:
        """The tail of a row met at ``label``: open where rows are."""
        if self.open_rows:
            return self.state.fresh_row_tail(frozenset({label}))
        return None


# the term forms inference handles, each by the method named after it; the
# calculus may still lack some
RULES = {
    cls: getattr(_Inference, cls.__name__.lower())
    for cls in (Var, Lam, App, Let, Lit, Prim, RecordLit, Project, Inject, Case)
}


def scheme_instance(general: TypeScheme, specific: TypeScheme) -> bool:
    """True when ``specific`` is an instance of ``general`` up to renaming."""
    state = _State()
    skolems = {}
    for i, (name, kind) in enumerate(specific.quants):
        skolems[name] = _named(kind, f"!s{i}")
        if isinstance(kind, KRow):
            state.lacks[f"!s{i}"] = kind.lacks
    body_s = _rename(specific.body, skolems)
    body_g = instantiate(state, general)
    try:
        unify_type(state, body_g, body_s)
    except InferError:
        return False
    return True


def weak_sub_instance(principal: TypeScheme, goal: TypeScheme) -> bool:
    """True when some instance of ``principal`` weakens below ``goal``.

    Goal quantifiers are rigid; principal quantifiers become match
    variables, metavariables of a fresh ``_State``.  Dropped row tails are
    permitted exactly where the weakening preorder would drop them.
    """
    state = _State()
    return _weak_match(state, instantiate(state, principal), goal.body, True)


def _weak_match(state: _State, a: Type, b: Type, weaken: bool) -> bool:
    """``a``'s instance equals ``b``, up to open tails ``a`` may drop while
    ``weaken`` holds: in result positions of a closed goal."""
    a, b = _resolve(state, a), _resolve(state, b)
    if isinstance(a, TyVar) and _is_meta(a.name):
        state.subst[a.name] = b
        return True
    if isinstance(a, (TyVar, Base)):
        return a == b
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return _weak_match(state, a.dom, b.dom, False) and _weak_match(
            state, a.cod, b.cod, weaken
        )
    if isinstance(a, Record) and isinstance(b, Record):
        ea, ta = _expand_row(state, a.row)
        eb, tb = _expand_row(state, b.row)
        weaken = weaken and tb is None
        if set(ea) != set(eb):
            if not _is_meta(ta) or not set(ea) <= set(eb):
                return False
            missing = sorted((l, t) for l, (_, t) in eb.items() if l not in ea)
            state.subst[ta] = Row(tuple((l, Present(), t) for l, t in missing), tb)
        elif _is_meta(ta) and not weaken:
            state.subst[ta] = Row((), tb)
        elif ta != tb and not weaken:
            return False
        # under weakening an open tail on the left simply dangles
        return all(_weak_match(state, ea[l][1], eb[l][1], weaken) for l in ea)
    return False
