"""Encodings between the calculi, defined over typing derivations.

Each encoding consumes a derivation from its source configuration and emits
a term of its target configuration.  Cast-bearing sources compile their
casts three ways: re-tagging values (t1, t3), instantiating row or presence
quantifiers (t2, t4, t6), or applying coercion functions built from the
subtyping evidence (t5).  t7 simply erases casts; its typing story is weak
and goes through the scheme translation at the bottom of this module.

t1-t6 give a rule only for the derivation rules they compile their own way;
every other rule of their source family rebuilds the node from its
translated premises (``_congruent``), and a rule from outside the family is
a TranslationError.

Binder naming is deterministic: term-level quantifiers introduced by a
translation count up left to right over the derivation (r0, r1, ... for
rows, p0, p1, ... for presence), while quantifiers inside translated type
annotations use a q prefix so they can never shadow a term-level binder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .config import CalculusConfig, preset
from .statics import Derivation, SubtypeEvidence, check_rank_limit
from .syntax import (
    SHAPES,
    Absent,
    App,
    Arrow,
    Base,
    Case,
    ForallPres,
    ForallRow,
    Inject,
    KRow,
    Lam,
    NameSupply,
    PresAbs,
    PresApp,
    Presence,
    PresVar,
    Present,
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
    Var,
    Variant,
    rename_type_name,
    row_dom,
    subst_type_in_type,
    term_names,
)


class TranslationError(Exception):
    pass


def _closed_entries(row: Row) -> list[tuple[str, Type]]:
    return sorted((label, ty) for label, _, ty in row.entries)


def _congruent(d: Derivation, go, fn=None) -> Term:
    """The node of ``d`` rebuilt from its premises, translated in order, with
    the translation's type map ``fn`` applied to its type-level parts."""
    t = d.term
    return SHAPES[type(t)].rebuild(t, [go(p) for p in d.premises], None, fn)


# the rules of each source family that a translation may treat congruently;
# every family also has TyUpcast, which each translation compiles its own way
_CORE = ("TyVar", "TyApp", "TyLam", "TyLit", "TyPrim", "TyLet")
_VARIANTS = ("TyInject", "TyCase")
_RECORDS = ("TyRecord", "TyProject")


def _translator(name: str, family: tuple[str, ...], rules: dict, fn=None):
    """Translate a derivation by ``rules[d.rule](d)`` where there is one, and
    by ``_congruent`` for the other rules of the source ``family``."""

    def go(d: Derivation) -> Term:
        rule = rules.get(d.rule)
        if rule is not None:
            return rule(d)
        if d.rule not in family:
            raise TranslationError(f"unexpected rule {d.rule} for {name}")
        return _congruent(d, go, fn)

    return go


# ---------------------------------------------------------------------------
# t1: compile variant casts by case-and-reinject


def t1(deriv: Derivation) -> Term:
    supply = NameSupply(term_names(deriv.term) | set(deriv.gamma))

    def upcast(d: Derivation) -> Term:
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

    go = _translator("t1", _CORE + _VARIANTS, {"TyUpcast": upcast})
    return go(deriv)


# ---------------------------------------------------------------------------
# t2: compile variant casts into row instantiation


def type_translate2(ty: Type) -> Type:
    """Each variant quantifies a fresh row tail, q0, q1, ... in preorder."""
    counter = itertools.count()

    def go(ty: Type) -> Type:
        if isinstance(ty, (TyVar, Base)):
            return ty
        if isinstance(ty, Arrow):
            return Arrow(go(ty.dom), go(ty.cod))
        if isinstance(ty, Variant):
            rho = f"q{next(counter)}"
            entries = tuple((label, pres, go(a)) for label, pres, a in ty.row.entries)
            return ForallRow(rho, KRow(row_dom(ty.row)), Variant(Row(entries, rho)))
        raise TranslationError("type outside the t2 source calculus")

    return go(ty)


def t2(deriv: Derivation) -> Term:
    counter = itertools.count()

    def inject(d: Derivation) -> Term:
        t = d.term
        rho = f"r{next(counter)}"
        row = t.annot.row
        entries = tuple(
            (label, pres, type_translate2(a)) for label, pres, a in row.entries
        )
        ann = Variant(Row(entries, rho))
        return RowAbs(
            rho, KRow(row_dom(row)), Inject(t.label, go(d.premises[0]), ann)
        )

    def case(d: Derivation) -> Term:
        out = _congruent(d, go)
        return Case(RowApp(out.scrutinee, Row((), None), "source"), out.branches)

    def upcast(d: Derivation) -> Term:
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

    rules = {"TyInject": inject, "TyCase": case, "TyUpcast": upcast}
    go = _translator("t2", _CORE + _VARIANTS, rules, type_translate2)
    return go(deriv)


# ---------------------------------------------------------------------------
# t3: compile record casts by projecting field-wise


def t3(deriv: Derivation) -> Term:
    def record(d: Derivation) -> Term:
        # the target has no record annotations
        return RecordLit(_congruent(d, go).fields, None)

    def upcast(d: Derivation) -> Term:
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

    rules = {"TyRecord": record, "TyUpcast": upcast}
    go = _translator("t3", _CORE + _RECORDS, rules)
    return go(deriv)


# ---------------------------------------------------------------------------
# t4: compile record casts into presence instantiation


def type_translate4(ty: Type) -> Type:
    """Each record field's presence is quantified, q0, q1, ... in preorder."""
    counter = itertools.count()

    def go(ty: Type) -> Type:
        if isinstance(ty, (TyVar, Base)):
            return ty
        if isinstance(ty, Arrow):
            return Arrow(go(ty.dom), go(ty.cod))
        if isinstance(ty, Record):
            pairs = _closed_entries(ty.row)
            names = [f"q{next(counter)}" for _ in pairs]
            entries = tuple(
                (label, PresVar(name), go(a)) for (label, a), name in zip(pairs, names)
            )
            out: Type = Record(Row(entries, None))
            for name in reversed(names):
                out = ForallPres(name, out)
            return out
        raise TranslationError("type outside the t4 source calculus")

    return go(ty)


def t4(deriv: Derivation) -> Term:
    counter = itertools.count()

    def record(d: Derivation) -> Term:
        row = d.type.row
        names = {label: f"p{next(counter)}" for label in sorted(row_dom(row))}
        ann_entries = tuple(
            (label, PresVar(names[label]), type_translate4(a))
            for label, a in _closed_entries(row)
        )
        fields = _congruent(d, go).fields
        out: Term = RecordLit(fields, Record(Row(ann_entries, None)))
        for label in sorted(names, reverse=True):
            out = PresAbs(names[label], out)
        return out

    def project(d: Derivation) -> Term:
        row = d.premises[0].type.row
        out = go(d.premises[0])
        for label, _ in _closed_entries(row):
            pres = Present() if label == d.term.label else Absent()
            out = PresApp(out, pres, "source")
        return Project(out, d.term.label)

    def upcast(d: Derivation) -> Term:
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

    rules = {"TyRecord": record, "TyProject": project, "TyUpcast": upcast}
    go = _translator("t4", _CORE + _RECORDS, rules, type_translate4)
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

    def upcast(d: Derivation) -> Term:
        return App(coerce(d.evidence, supply), go(d.premises[0]))

    go = _translator("t5", _CORE + _VARIANTS + _RECORDS, {"TyUpcast": upcast})
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


def type_translate6(ty: Type) -> Type:
    """Presences hoisted to a prefix, named q0, q1, ... as they are made."""
    counter = itertools.count()

    def go(ty: Type) -> Type:
        if isinstance(ty, (TyVar, Base)):
            return ty
        if isinstance(ty, Arrow):
            names = [f"q{next(counter)}" for _ in range(pres_arity(ty.cod))]
            dom = go(ty.dom)
            body: Type = Arrow(dom, inst_type(ty.cod, [PresVar(n) for n in names]))
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

    return go(ty)


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

    def app(d: Derivation) -> Term:
        names = [
            f"p{next(counter)}" for _ in range(pres_arity(d.premises[0].type.cod))
        ]
        fn = apply_pres(go(d.premises[0]), names)
        return quantify(App(fn, go(d.premises[1])), names)

    def lam(d: Derivation) -> Term:
        t = d.term
        names = [f"p{next(counter)}" for _ in range(pres_arity(d.type.cod))]
        body = apply_pres(go(d.premises[0]), names)
        return quantify(Lam(t.var, type_translate6(t.annot), body), names)

    def record(d: Derivation) -> Term:
        t = d.term
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

    def project(d: Derivation) -> Term:
        t = d.term
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

    def upcast(d: Derivation) -> Term:
        binders, args = pres_seq_sub(d.evidence, counter)
        out = go(d.premises[0])
        for p in args:
            out = PresApp(out, p, "upcast")
        return quantify(out, binders)

    rules = {
        "TyApp": app,
        "TyLam": lam,
        "TyRecord": record,
        "TyProject": project,
        "TyUpcast": upcast,
    }
    go = _translator("t6", _CORE + _RECORDS, rules)
    return go(deriv)


# ---------------------------------------------------------------------------
# t7: erase casts outright (rank-limited sources)


def t7(deriv: Derivation, config: CalculusConfig) -> Term:
    from .dynamics import erase
    from .statics import derivations

    for d in derivations(deriv):
        if not check_rank_limit(config, d.type):
            raise TranslationError(
                "derivation contains a type beyond the rank limit"
            )
    return erase(deriv.term)


# ---------------------------------------------------------------------------
# Scheme translation giving erased record programs row-polymorphic types


def trans_a(ty: Type) -> TypeScheme:
    """Open up the records a consumer may widen, in argument positions.

    Function parameters go through trans_b, which gives every record an
    open tail; records in result positions keep closed heads.  The scheme
    quantifies all freshly created tails, r0, r1, ... in the order they are
    made; sub-schemes draw from the same supply.
    """
    return _open_records(ty, False, itertools.count())


def trans_b(ty: Type) -> TypeScheme:
    """Open every record in ``ty`` with a fresh tail, domains untouched.

    A record's own tail is made before the tails inside its fields; the
    scheme quantifies them in the order they are made, as trans_a does."""
    return _open_records(ty, True, itertools.count())


def _open_records(ty: Type, every: bool, counter) -> TypeScheme:
    """``trans_b(ty)`` when ``every``, else ``trans_a(ty)``, with the tails
    drawn from ``counter``."""
    if isinstance(ty, (TyVar, Base)):
        return TypeScheme((), ty)
    if isinstance(ty, Arrow):
        # trans_b leaves domains alone; trans_a opens them by trans_b
        dom = TypeScheme((), ty.dom) if every else _open_records(ty.dom, True, counter)
        cod = _open_records(ty.cod, every, counter)
        return TypeScheme(dom.quants + cod.quants, Arrow(dom.body, cod.body))
    if isinstance(ty, Record):
        tail = f"r{next(counter)}" if every else None
        quants = [] if tail is None else [(tail, KRow(row_dom(ty.row)))]
        fields = []
        for label, a in _closed_entries(ty.row):
            sub = _open_records(a, every, counter)
            quants.extend(sub.quants)
            fields.append((label, Present(), sub.body))
        return TypeScheme(tuple(quants), Record(Row(tuple(fields), tail)))
    raise TranslationError("type outside the rank-2 record fragment")


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
        body = rename_type_name(body, name, kind, meta)

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

    def match(a: Type, b: Type, weaken: bool) -> bool:
        """``a``'s instance equals ``b``, up to open tails ``a`` may drop
        while ``weaken`` holds: in result positions of a closed goal."""
        a, b = resolve(a), resolve(b)
        if isinstance(a, TyVar) and a.name in flex:
            subst[a.name] = b
            return True
        if isinstance(a, (TyVar, Base)):
            return a == b
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return match(a.dom, b.dom, False) and match(a.cod, b.cod, weaken)
        if isinstance(a, Record) and isinstance(b, Record):
            ea, ta = row_parts(a.row)
            eb, tb = row_parts(b.row)
            weaken = weaken and tb is None
            if set(ea) != set(eb):
                if ta not in flex or not set(ea) <= set(eb):
                    return False
                missing = sorted((l, t) for l, t in eb.items() if l not in ea)
                subst[ta] = Row(tuple((l, Present(), t) for l, t in missing), tb)
            elif ta in flex and not weaken:
                subst[ta] = Row((), tb)
            elif ta != tb and not weaken:
                return False
            # under weakening an open tail on the left simply dangles
            return all(match(ea[l], eb[l], weaken) for l in ea)
        return False

    return match(body, goal.body, True)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Translation:
    """One encoding: its (source, target) calculus pairs, the term and type
    maps, and the properties a theorem of the paper covers for it (the only
    ones ``harness.run_property`` checks on it).

    The operational correspondence theorems are data, read by the harness's
    one matcher (its docstring has the notation).  ``simulation`` maps a
    source step class to the target run its theorem states; a class it does
    not list is outside the theorem.  ``reflection`` lists (target run,
    source classes it may reflect, match mode) triples."""

    tid: str
    pairs: tuple[tuple[str, str], ...]
    term: Callable[[Derivation, CalculusConfig], Term]
    type_map: Callable[[Type], Type] | None
    properties: tuple[str, ...]
    simulation: dict[str, str] = field(default_factory=dict)
    reflection: tuple[tuple[str, set[str], str], ...] = ()


def _identity_type(ty: Type) -> Type:
    return ty


# Every translation preserves typing; t1-t4 also simulate and reflect
# reduction and commute with substitution; the ones that add no code to the
# erased term also preserve erasure.
_TYPED = ("type-preservation",)
_STEPS = ("simulation", "reflection", "substitution")


TRANSLATIONS: dict[str, Translation] = {
    t.tid: t
    for t in (
        Translation(
            "var-sub-to-var",
            (("var-sub", "var"),),
            lambda d, c: t1(d),
            _identity_type,
            _TYPED + _STEPS,
            {"beta": "beta", "upcast": "beta"},
            (("beta", {"beta", "upcast"}, "exact"),),
        ),
        Translation(
            "var-sub-to-row",
            (("var-sub", "var-row"),),
            lambda d, c: t2(d),
            type_translate2,
            _TYPED + _STEPS + ("erasure",),
            {"beta": "tau? beta", "upcast": "nu"},
            (
                ("tau? beta", {"beta"}, "tau"),
                ("nu", {"upcast", "nested"}, "exact"),
            ),
        ),
        Translation(
            "rec-sub-to-rec",
            (("rec-sub", "rec"),),
            lambda d, c: t3(d),
            _identity_type,
            _TYPED + _STEPS,
            {"beta": "beta*", "upcast": "beta*"},
            (("beta", {"beta", "upcast", "nested"}, "fwd"),),
        ),
        Translation(
            "rec-sub-to-pre",
            (("rec-sub", "rec-pre"),),
            lambda d, c: t4(d),
            type_translate4,
            _TYPED + _STEPS + ("erasure",),
            {"beta": "tau* beta", "upcast": "nu*"},
            (
                ("tau* beta", {"beta"}, "tau"),
                ("nu", {"upcast", "nested"}, "fwd"),
            ),
        ),
        Translation(
            "full-sub-coerce",
            (("var-rec-sub-full", "var-rec"),),
            lambda d, c: t5(d),
            _identity_type,
            _TYPED,
        ),
        Translation(
            "rec-co-to-pre",
            (("rec-sub-co", "rec-pre"),),
            lambda d, c: t6(d),
            type_translate6,
            _TYPED + ("erasure",),
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
            _TYPED + ("erasure",),
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
