"""Encodings between the calculi, defined over typing derivations.

Each encoding consumes a derivation, which names the calculus it was
checked in, and emits a term of the target that calculus is paired with
(``Translation.configs``, which refuses any other calculus).  Cast-bearing
sources compile their casts three ways: re-tagging values (t1, t3),
instantiating row or presence quantifiers (t2, t4, t6), or applying
coercion functions built from the subtyping evidence (t5).  t7 simply
erases casts.

A translation's type map gives its output's type [[A]] and, applied to each
entry of the context, the output's context [[G]].  The target picks the
judgement: a target with a checker types the output at [[A]] under [[G]];
a rank-1 target only infers, so the output's scheme need only be weakly
below the map of the cast-free source type (t7's map, ``trans_a``, is the
scheme translation at the bottom of this module).

t1-t6 give a rule only for the derivation rules they compile their own way;
every other rule of their source family rebuilds the node from its
translated premises (``_congruent``), and a rule from outside the family is
a TranslationError.  A reflexive cast translates as its operand, so t1-t4,
whose sources have simple subtyping, see only width casts.

Binder naming is deterministic: term-level quantifiers introduced by a
translation count up left to right over the derivation (r0, r1, ... for
rows, p0, p1, ... for presence), while quantifiers inside translated type
annotations use a q prefix so they can never shadow a term-level binder.
Each type map draws all its q names from one counter, so no q shadows
another.  A premise shared by several nodes of a derivation is translated
once, where it is first met, so its image and the names in it are shared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .config import CalculusConfig, preset
from .dynamics import erase
from .statics import Derivation, SubtypeEvidence
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
    row_dom,
    term_names,
)


class TranslationError(Exception):
    pass


def _closed_entries(row: Row) -> list[tuple[str, Type]]:
    return sorted((label, ty) for label, _, ty in row.entries)


def _prefix(node, body, names):
    """``node(n0, node(n1, ... body))`` for ``names`` n0, n1, ...: a run of
    quantifiers or abstractions."""
    for name in reversed(names):
        body = node(name, body)
    return body


def _pres_apps(term: Term, presences, origin: str) -> Term:
    for p in presences:
        term = PresApp(term, p, origin)
    return term


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


def _translate(name: str, family: tuple[str, ...], rules: dict, deriv, fn=None):
    """Translate ``deriv`` by ``rules[d.rule](d, go)``, ``go`` the recursive
    translator, where there is one, and by ``_congruent`` for the other
    rules of the source ``family``.  A reflexive cast translates as its
    operand, and a shared premise translates once."""
    return _Translator(name, family, rules, fn).go(deriv)


class _Translator:
    """One translation: ``go`` translates a derivation and keeps its image
    by the derivation's id.  No attribute is named like a node field, as the
    scan for writes to node fields (``tests/test_immutable_nodes.py``) reads
    names alone."""

    def __init__(self, tid: str, family: tuple[str, ...], rules: dict, type_map):
        self.tid = tid
        self.family = family
        self.rules = rules
        self.type_map = type_map
        self.images: dict[int, Term] = {}  # id of a derivation -> its image

    def go(self, d: Derivation) -> Term:
        image = self.images.get(id(d))
        if image is not None:
            return image
        rule = self.rules.get(d.rule)
        if rule is None:
            if d.rule not in self.family:
                raise TranslationError(f"unexpected rule {d.rule} for {self.tid}")
            image = _congruent(d, self.go, self.type_map)
        elif d.evidence is not None and d.evidence.rule == "SRefl":
            image = self.go(d.premises[0])
        else:
            image = rule(d, self.go)
        self.images[id(d)] = image
        return image


# ---------------------------------------------------------------------------
# t1: compile variant casts by case-and-reinject


def t1(deriv: Derivation) -> Term:
    supply = NameSupply(term_names(deriv.term) | set(deriv.gamma))

    def upcast(d: Derivation, go) -> Term:
        ev = d.evidence
        inner = go(d.premises[0])
        branches = []
        for label, _ in _closed_entries(ev.lhs.row):
            x = supply.fresh("x")
            branches.append((label, x, Inject(label, Var(x), ev.rhs)))
        return Case(inner, tuple(branches))

    return _translate("t1", _CORE + _VARIANTS, {"TyUpcast": upcast}, deriv)


# ---------------------------------------------------------------------------
# t2: compile variant casts into row instantiation


def type_translate2(ty: Type, counter=None) -> Type:
    """Each variant quantifies a fresh row tail, q0, q1, ... in preorder
    (``counter`` numbers them; a new one when None)."""
    counter = counter or itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(type_translate2(ty.dom, counter), type_translate2(ty.cod, counter))
    if isinstance(ty, Variant):
        rho = f"q{next(counter)}"
        entries = tuple(
            (label, pres, type_translate2(a, counter)) for label, pres, a in ty.row.entries
        )
        return ForallRow(rho, KRow(row_dom(ty.row)), Variant(Row(entries, rho)))
    raise TranslationError("type outside the t2 source calculus")


def t2(deriv: Derivation) -> Term:
    counter = itertools.count()

    def inject(d: Derivation, go) -> Term:
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

    def case(d: Derivation, go) -> Term:
        out = _congruent(d, go)
        return Case(RowApp(out.scrutinee, Row((), None), "source"), out.branches)

    def upcast(d: Derivation, go) -> Term:
        ev = d.evidence
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
    return _translate("t2", _CORE + _VARIANTS, rules, deriv, type_translate2)


# ---------------------------------------------------------------------------
# t3: compile record casts by projecting field-wise


def t3(deriv: Derivation) -> Term:
    def record(d: Derivation, go) -> Term:
        # the target has no record annotations
        return RecordLit(_congruent(d, go).fields, None)

    def upcast(d: Derivation, go) -> Term:
        ev = d.evidence
        inner = go(d.premises[0])
        fields = tuple(
            (label, Project(inner, label))
            for label, _ in _closed_entries(ev.rhs.row)
        )
        return RecordLit(fields, None)

    rules = {"TyRecord": record, "TyUpcast": upcast}
    return _translate("t3", _CORE + _RECORDS, rules, deriv)


# ---------------------------------------------------------------------------
# t4: compile record casts into presence instantiation


def type_translate4(ty: Type, counter=None) -> Type:
    """Each record field's presence is quantified, q0, q1, ... in preorder
    (``counter`` numbers them; a new one when None)."""
    counter = counter or itertools.count()
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(type_translate4(ty.dom, counter), type_translate4(ty.cod, counter))
    if isinstance(ty, Record):
        pairs = _closed_entries(ty.row)
        names = [f"q{next(counter)}" for _ in pairs]
        entries = tuple(
            (label, PresVar(name), type_translate4(a, counter))
            for (label, a), name in zip(pairs, names)
        )
        return _prefix(ForallPres, Record(Row(entries, None)), names)
    raise TranslationError("type outside the t4 source calculus")


def t4(deriv: Derivation) -> Term:
    counter = itertools.count()

    def record(d: Derivation, go) -> Term:
        row = d.type.row
        names = {label: f"p{next(counter)}" for label in sorted(row_dom(row))}
        ann_entries = tuple(
            (label, PresVar(names[label]), type_translate4(a))
            for label, a in _closed_entries(row)
        )
        fields = _congruent(d, go).fields
        out = RecordLit(fields, Record(Row(ann_entries, None)))
        return _prefix(PresAbs, out, list(names.values()))

    def project(d: Derivation, go) -> Term:
        label = d.term.label
        source = _closed_entries(d.premises[0].type.row)
        args = [Present() if l == label else Absent() for l, _ in source]
        return Project(_pres_apps(go(d.premises[0]), args, "source"), label)

    def upcast(d: Derivation, go) -> Term:
        ev = d.evidence
        names = {label: f"p{next(counter)}" for label in sorted(row_dom(ev.rhs.row))}
        args = [
            PresVar(names[label]) if label in names else Absent()
            for label, _ in _closed_entries(ev.lhs.row)
        ]
        out = _pres_apps(go(d.premises[0]), args, "upcast")
        return _prefix(PresAbs, out, list(names.values()))

    rules = {"TyRecord": record, "TyProject": project, "TyUpcast": upcast}
    return _translate("t4", _CORE + _RECORDS, rules, deriv, type_translate4)


# ---------------------------------------------------------------------------
# t5: compile full-subtyping casts into coercion functions


def coerce(ev: SubtypeEvidence, supply: NameSupply) -> Term:
    """A function term of type lhs -> rhs derived from the evidence."""
    if ev.rule in ("FVar", "FBase", "SRefl"):
        x = supply.fresh("x")
        return Lam(x, ev.lhs, Var(x))
    if ev.rule in ("FFun", "CoFun"):  # CoFun has no domain premise
        *dom_ev, cod_ev = ev.premises
        f = supply.fresh("f")
        x = supply.fresh("x")
        cod = coerce(cod_ev, supply)
        arg = App(coerce(dom_ev[0], supply), Var(x)) if dom_ev else Var(x)
        return Lam(f, ev.lhs, Lam(x, ev.rhs.dom, App(cod, App(Var(f), arg))))
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

    def upcast(d: Derivation, go) -> Term:
        return App(coerce(d.evidence, supply), go(d.premises[0]))

    return _translate("t5", _CORE + _VARIANTS + _RECORDS, {"TyUpcast": upcast}, deriv)


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


def _hoisted(ty: Type, prefix, counter) -> Type:
    """The body of the hoisted translation of ``ty``, its prefix taken in
    order from the iterator ``prefix``: a record's own fields first, then
    each field's prefix.  Quantifiers inside are named from ``counter``."""
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        dom = type_translate6(ty.dom, counter)
        return Arrow(dom, _hoisted(ty.cod, prefix, counter))
    if isinstance(ty, Record):
        pairs = _closed_entries(ty.row)
        heads = [next(prefix) for _ in pairs]
        entries = tuple(
            (label, head, _hoisted(a, prefix, counter))
            for (label, a), head in zip(pairs, heads)
        )
        return Record(Row(entries, None))
    raise TranslationError("type outside the t6 source calculus")


def type_translate6(ty: Type, counter=None) -> Type:
    """Presences hoisted to a prefix, named q0, q1, ... as they are made
    (``counter`` numbers them and every quantifier inside; a new one when
    None)."""
    counter = counter or itertools.count()
    names = [f"q{next(counter)}" for _ in range(pres_arity(ty))]
    return _prefix(ForallPres, _hoisted(ty, map(PresVar, names), counter), names)


def inst_type(ty: Type, presences: list[Presence]) -> Type:
    """The body of the hoisted translation of ``ty`` at ``presences``."""
    if len(presences) != pres_arity(ty):
        raise TranslationError("presence sequence does not cover the prefix")
    return _hoisted(ty, iter(presences), itertools.count())


def _cast_args(ev: SubtypeEvidence, prefix) -> list[Presence]:
    """Arguments covering the source prefix of a cast, given ``prefix``, the
    target's, in order: instantiating the translated source type with them
    and then quantifying the target prefix lands on the translated target."""
    if ev.rule in ("FVar", "FBase", "SRefl"):
        return []
    if ev.rule == "CoFun":
        return _cast_args(ev.premises[0], prefix)
    if ev.rule == "FRecord":
        prems = dict(ev.premises)
        heads = {label: next(prefix) for label, _ in _closed_entries(ev.rhs.row)}
        source = _closed_entries(ev.lhs.row)
        args = [heads.get(label, Absent()) for label, _ in source]
        for label, a in source:
            if label in heads:
                args += _cast_args(prems[label], prefix)
            else:
                args += [Absent()] * pres_arity(a)
        return args
    raise TranslationError(f"unexpected evidence {ev.rule} for t6")


def t6(deriv: Derivation) -> Term:
    counter = itertools.count()

    def fresh(ty: Type) -> list[str]:
        """p names for the prefix of the translation of ``ty``."""
        return [f"p{next(counter)}" for _ in range(pres_arity(ty))]

    def app(d: Derivation, go) -> Term:
        names = fresh(d.premises[0].type.cod)
        fn = _pres_apps(go(d.premises[0]), map(PresVar, names), "source")
        return _prefix(PresAbs, App(fn, go(d.premises[1])), names)

    def lam(d: Derivation, go) -> Term:
        t = d.term
        names = fresh(d.type.cod)
        body = _pres_apps(go(d.premises[0]), map(PresVar, names), "source")
        return _prefix(PresAbs, Lam(t.var, type_translate6(t.annot), body), names)

    def record(d: Derivation, go) -> Term:
        names = fresh(d.type)
        pairs = _closed_entries(d.type.row)
        deep = map(PresVar, names[len(pairs):])
        blocks = {label: list(itertools.islice(deep, pres_arity(a))) for label, a in pairs}
        fields = tuple(
            (label, _pres_apps(go(p), blocks[label], "source"))
            for (label, _), p in zip(d.term.fields, d.premises)
        )
        ann = inst_type(d.type, [PresVar(n) for n in names])
        return _prefix(PresAbs, RecordLit(fields, ann), names)

    def project(d: Derivation, go) -> Term:
        label = d.term.label
        names = fresh(d.type)
        source = _closed_entries(d.premises[0].type.row)
        args = [Present() if l == label else Absent() for l, _ in source]
        for l, a in source:
            args += map(PresVar, names) if l == label else [Absent()] * pres_arity(a)
        out = _pres_apps(go(d.premises[0]), args, "source")
        return _prefix(PresAbs, Project(out, label), names)

    def upcast(d: Derivation, go) -> Term:
        names = fresh(d.evidence.rhs)
        args = _cast_args(d.evidence, map(PresVar, names))
        return _prefix(PresAbs, _pres_apps(go(d.premises[0]), args, "upcast"), names)

    rules = {
        "TyApp": app,
        "TyLam": lam,
        "TyRecord": record,
        "TyProject": project,
        "TyUpcast": upcast,
    }
    return _translate("t6", _CORE + _RECORDS, rules, deriv)


# ---------------------------------------------------------------------------
# t7: erase casts outright (``type_check`` refuses a source past its rank)


def t7(deriv: Derivation) -> Term:
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
# Registry


@dataclass(frozen=True)
class Translation:
    """One encoding: its (source, target) calculus pairs, the term map (of
    the derivation alone) and the type map, and the properties a theorem of
    the paper covers on every pair it lists (the only ones
    ``harness.run_property`` checks on it).

    The type map is set exactly when type-preservation is listed; with the
    target's judgement (module docstring) it is that theorem's statement.

    The operational correspondence theorems are data, read by the harness's
    one matcher (its docstring has the notation).  ``simulation`` maps a
    source step class to the target run its theorem states; a class it does
    not list is outside the theorem.  ``reflection`` lists (target run,
    source classes it may reflect, match mode) triples."""

    tid: str
    pairs: tuple[tuple[str, str], ...]
    term: Callable[[Derivation], Term]
    type_map: Callable[[Type], Type | TypeScheme] | None
    properties: tuple[str, ...]
    simulation: dict[str, str] = field(default_factory=dict)
    reflection: tuple[tuple[str, set[str], str], ...] = ()

    def configs(self, deriv: Derivation) -> tuple[CalculusConfig, CalculusConfig]:
        """The (source, target) configurations of the pair whose source is
        the calculus ``deriv`` was checked in; TranslationError if none is."""
        for source, target in self.pairs:
            if source == deriv.calculus:
                return preset(source), preset(target)
        sources = ", ".join(source for source, _ in self.pairs)
        raise TranslationError(
            f"{self.tid} translates from {sources}, not from {deriv.calculus}"
        )


def _identity_type(ty: Type) -> Type:
    return ty


# Every translation commutes with substitution, and every one but the
# variant erasure preserves typing.  t1-t4 also simulate and reflect
# reduction; t7's erasure tracks cast evaluation through the record-width
# preorder; the ones that add no code to the erased term preserve erasure.
_TYPED = ("type-preservation",)
_STEPS = ("simulation", "reflection")
_SUBST = ("substitution",)
_ERASES_UPCASTS = ("erasure", "preorder-correspondence")


TRANSLATIONS: dict[str, Translation] = {
    t.tid: t
    for t in (
        Translation(
            "var-sub-to-var",
            (("var-sub", "var"),),
            t1,
            _identity_type,
            _TYPED + _STEPS + _SUBST,
            {"beta": "beta", "upcast": "beta"},
            (("beta", {"beta", "upcast"}, "exact"),),
        ),
        Translation(
            "var-sub-to-row",
            (("var-sub", "var-row"),),
            t2,
            type_translate2,
            _TYPED + _STEPS + _SUBST + ("erasure",),
            {"beta": "tau? beta", "upcast": "nu"},
            (
                ("tau? beta", {"beta"}, "tau"),
                ("nu", {"upcast", "nested"}, "exact"),
            ),
        ),
        Translation(
            "rec-sub-to-rec",
            (("rec-sub", "rec"),),
            t3,
            _identity_type,
            _TYPED + _STEPS + _SUBST,
            {"beta": "beta*", "upcast": "beta*"},
            (("beta", {"beta", "upcast", "nested"}, "fwd"),),
        ),
        Translation(
            "rec-sub-to-pre",
            (("rec-sub", "rec-pre"),),
            t4,
            type_translate4,
            _TYPED + _STEPS + _SUBST + ("erasure",),
            {"beta": "tau* beta", "upcast": "nu*"},
            (
                ("tau* beta", {"beta"}, "tau"),
                ("nu", {"upcast", "nested"}, "fwd"),
            ),
        ),
        Translation(
            "full-sub-coerce",
            (("var-rec-sub-full", "var-rec"),),
            t5,
            _identity_type,
            _TYPED + _SUBST,
        ),
        Translation(
            "rec-co-to-pre",
            (("rec-sub-co", "rec-pre"),),
            t6,
            type_translate6,
            _TYPED + _SUBST + ("erasure",),
        ),
        # rank-limited full subtyping on records erased into rank-1 row or
        # presence polymorphism, typed weakly through trans_a
        Translation(
            "erase-upcasts",
            (
                ("rec-sub-full-rank2", "rec-row1"),
                ("rec-sub-full-rank1", "rec-pre1"),
            ),
            t7,
            trans_a,
            _TYPED + _SUBST + _ERASES_UPCASTS,
        ),
        # the paper's variant duals: rank-1 full subtyping into rank-1 row
        # polymorphism, rank-2 into rank-1 presence polymorphism.  Their
        # typing statement waits for a variant bound map (trans_a knows
        # records only), so type preservation is not checked.
        Translation(
            "erase-variant-upcasts",
            (
                ("var-sub-full-rank1", "var-row1"),
                ("var-sub-full-rank2", "var-pre1"),
            ),
            t7,
            None,
            _SUBST + _ERASES_UPCASTS,
        ),
    )
}


def translation_for(source: str, target: str) -> Translation:
    for t in TRANSLATIONS.values():
        if (source, target) in t.pairs:
            return t
    pairs = sorted(pair for t in TRANSLATIONS.values() for pair in t.pairs)
    known = ", ".join(f"{s}->{g}" for s, g in pairs)
    raise TranslationError(
        f"no translation from {source} to {target}; known pairs: {known}"
    )


def run_translation(tid: str, deriv: Derivation) -> Term:
    t = TRANSLATIONS[tid]
    t.configs(deriv)  # refuses a derivation from a calculus it does not start
    return t.term(deriv)
