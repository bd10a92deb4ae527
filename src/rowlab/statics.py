"""Kinding, subtyping, and type checking for the annotated calculi.

Checking is syntax-directed over fully annotated terms.  Every successful
check returns a Derivation tree; Upcast nodes carry subtyping evidence so
that later passes can compile the cast away without re-deriving it.

Each form's typing rule is said once, on ``RULES``: a table from term class
to the ``_Checker`` method named after the form.  A rule checks its node,
calls ``rec(delta, gamma, child)`` for each premise, in the order of the
node's children (the translations rebuild nodes from them), and builds the
node's Derivation.  ``rec`` alone looks the node up in the memo, refuses a
form the calculus lacks and dispatches on the table.  Checks that several
rules make are helpers here, and inference shares the label, literal and
primitive ones.

Checking takes exactly two frames per nesting level, ``rec`` and the rule,
so a rule calls ``rec`` itself, never through a helper or a generator.
Under Python's default limit of 1,000 frames a ``+`` chain of just under
500 operands then checks; a third frame per level would lower that to about
330 and change which inputs the benchmark's scaling ladders decide.

Which calculus has which form is said once, in ``FEATURES``: it maps each
gated type, presence mark and term form to the switch of ``CalculusConfig``
that turns it on and the full text that refuses it.  ``refuse_missing``
reads it for the checker (on entry to every term node), for ``check_part``
and for ``infer``.  ``check_part`` is the one gate on every type-level part
of a term (an annotation, a cast target, a context entry, a row or a
presence argument) and the kinding judgement too.  It walks the part once:
at each node it refuses a constructor the calculus lacks, then applies the
node's kind rule, then walks its parts (below a quantifier, under the
extended delta).  A part with several defects is refused for the first in
preorder, a missing constructor before a kind error at the same node.

Rank-1 monotypes have open tails and presence marks, so a calculus with
any row polymorphism has open rows and one with any presence polymorphism
has presence marks; quantifiers and type abstractions stay higher-rank
only.  A row's tail must lack exactly the labels the row needs, except in a
rank-1 calculus, where it may lack more: a rigid row variable of an
inferred scheme keeps the lacks set unification gave it, and unification
demands only that it lack at least those labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator

from .config import CalculusConfig
from .pretty import show_kind, show_term, show_type
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
    Kind,
    KPre,
    KRow,
    KType,
    Lam,
    Let,
    Lit,
    Present,
    PresAbs,
    PresApp,
    Presence,
    PresVar,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    RowAbs,
    RowApp,
    Term,
    Type,
    TyVar,
    Upcast,
    Var,
    Variant,
    normalize_row,
    subst_type_in_type,
    type_equal,
)

INT = Base("Int")
STRING = Base("String")

PRIM_SIGS: dict[str, tuple[Type, Type, Type]] = {
    "+": (INT, INT, INT),
    "-": (INT, INT, INT),
    "++": (STRING, STRING, STRING),
}


class StaticError(Exception):
    """Raised when a type, row, or term fails to check."""


class KindError(StaticError):
    pass


class TypingError(StaticError):
    pass


class FeatureError(TypingError):
    """The term or type uses a constructor the calculus does not have."""


class RankError(TypingError):
    """A type in the derivation exceeds the configured rank limit."""


# ---------------------------------------------------------------------------
# Subtyping


@dataclass(frozen=True)
class SubtypeEvidence:
    """Proof skeleton for lhs <= rhs, tagged with the rule that closed it.

    Premise shapes by rule:
      SRefl, FVar, FBase        -- ()
      SVariant, SRecord         -- ()
      CoFun                     -- (codomain evidence,)
      FFun                      -- (domain evidence [rhs.dom <= lhs.dom], codomain evidence)
      FVariant                  -- ((label, evidence) for each lhs label)
      FRecord                   -- ((label, evidence) for each rhs label)
    """

    rule: str
    lhs: Type
    rhs: Type
    premises: tuple = ()


def subtype(mode: str, a: Type, b: Type) -> SubtypeEvidence | None:
    """Evidence that ``a`` is a subtype of ``b`` under ``mode``, else None."""
    if mode == "none":
        return None
    if mode == "simple":
        return _subtype_simple(a, b)
    if mode == "covariant":
        return _subtype_struct(a, b, depth_fun=False)
    if mode == "full":
        return _subtype_struct(a, b, depth_fun=True)
    raise ValueError(f"unknown subtyping mode {mode!r}")


def _closed_simple_row(row: Row) -> dict[str, Type] | None:
    if row.tail is not None:
        return None
    out: dict[str, Type] = {}
    for label, pres, ty in row.entries:
        if not isinstance(pres, Present):
            return None
        out[label] = ty
    return out


def _width(a: Type, b: Type) -> tuple[dict, dict, dict] | None:
    """Two closed, all-present rows ``ra`` and ``rb`` of variant types ``a``
    and ``b``, or of record types, and the narrower of them: a variant
    subtype's labels must be among its supertype's, a record subtype's must
    include them.  None when ``a`` and ``b`` are not such a pair."""
    if type(a) is not type(b) or not isinstance(a, (Variant, Record)):
        return None
    ra, rb = _closed_simple_row(a.row), _closed_simple_row(b.row)
    if ra is None or rb is None:
        return None
    narrow, wide = (ra, rb) if isinstance(a, Variant) else (rb, ra)
    return (ra, rb, narrow) if set(narrow) <= set(wide) else None


def _subtype_simple(a: Type, b: Type) -> SubtypeEvidence | None:
    width = _width(a, b)
    if width is not None:
        ra, rb, labels = width
        if all(type_equal(ra[l], rb[l]) for l in labels):
            return SubtypeEvidence("S" + type(a).__name__, a, b)
    if type_equal(a, b):
        return SubtypeEvidence("SRefl", a, b)
    return None


def _subtype_struct(a: Type, b: Type, depth_fun: bool) -> SubtypeEvidence | None:
    if isinstance(a, TyVar) and isinstance(b, TyVar) and a.name == b.name:
        return SubtypeEvidence("FVar", a, b)
    if isinstance(a, Base) and isinstance(b, Base) and a.tag == b.tag:
        return SubtypeEvidence("FBase", a, b)
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        cod = _subtype_struct(a.cod, b.cod, depth_fun)
        if cod is None:
            return None
        if depth_fun:
            dom = _subtype_struct(b.dom, a.dom, depth_fun)
            if dom is None:
                return None
            return SubtypeEvidence("FFun", a, b, (dom, cod))
        if type_equal(a.dom, b.dom):
            return SubtypeEvidence("CoFun", a, b, (cod,))
        return None
    width = _width(a, b)
    if width is None:
        return None
    ra, rb, labels = width
    prems = []
    for label in sorted(labels):
        ev = _subtype_struct(ra[label], rb[label], depth_fun)
        if ev is None:
            return None
        prems.append((label, ev))
    return SubtypeEvidence("F" + type(a).__name__, a, b, tuple(prems))


# ---------------------------------------------------------------------------
# Rank predicates


def rank_ok(ctor: type, n: int, ty: Type) -> bool:
    """``ctor`` types (Record or Variant) allowed only in positions of
    function-nesting depth < n."""
    if isinstance(ty, Arrow):
        return rank_ok(ctor, max(n - 1, 0), ty.dom) and rank_ok(ctor, n, ty.cod)
    if isinstance(ty, (Record, Variant)):
        if n == 0 and isinstance(ty, ctor):
            return False
        return all(rank_ok(ctor, n, t) for _, _, t in ty.row.entries)
    if isinstance(ty, (ForallRow, ForallPres)):
        return rank_ok(ctor, n, ty.body)
    return True


def check_rank_limit(config: CalculusConfig, ty: Type) -> bool:
    limits = ((Record, config.record_rank_limit), (Variant, config.variant_rank_limit))
    return all(n is None or rank_ok(ctor, n, ty) for ctor, n in limits)


# ---------------------------------------------------------------------------
# Features and kinds: which calculus has which form, and the gate on parts


def _higher_rows(config: CalculusConfig) -> bool:
    return config.row_poly == "higher"


def _higher_pres(config: CalculusConfig) -> bool:
    return config.pres_poly == "higher"


def _pres_marks(config: CalculusConfig) -> bool:
    return config.pres_poly != "none"


_variants = attrgetter("variants")
_records = attrgetter("records")
_PRESENCE_MARKS = "presence annotations not available in this calculus"

FEATURES: dict[type, tuple[Callable[[CalculusConfig], bool], str]] = {
    Variant: (_variants, "variant types not available in this calculus"),
    Record: (_records, "record types not available in this calculus"),
    ForallRow: (_higher_rows, "row quantifiers not available in this calculus"),
    ForallPres: (_higher_pres, "presence quantifiers not available in this calculus"),
    Absent: (_pres_marks, _PRESENCE_MARKS),
    PresVar: (_pres_marks, _PRESENCE_MARKS),
    Inject: (_variants, "variant injection not available in this calculus"),
    Case: (_variants, "case analysis not available in this calculus"),
    RecordLit: (_records, "record literals not available in this calculus"),
    Project: (_records, "record projection not available in this calculus"),
    Upcast: (
        lambda c: c.subtyping != "none",
        "upcasts not available in this calculus",
    ),
    RowAbs: (_higher_rows, "row abstraction not available in this calculus"),
    RowApp: (_higher_rows, "row application not available in this calculus"),
    PresAbs: (_higher_pres, "presence abstraction not available in this calculus"),
    PresApp: (_higher_pres, "presence application not available in this calculus"),
    Let: (attrgetter("allows_let"), "let bindings not available in this calculus"),
}


def refuse_missing(
    config: CalculusConfig, form, error: type[Exception] = FeatureError
) -> None:
    """Raise ``error`` with the refusal text of ``FEATURES`` when ``config``
    lacks the constructor of ``form``; forms the table omits are everywhere."""
    gate = FEATURES.get(type(form))
    if gate is not None and not gate[0](config):
        raise error(gate[1].format(form=form))


# what a variable of each sort is called, the kind it must have, and that kind
_SORTS = {TyVar: ("type", KType, "Type"), Row: ("row", KRow, "a row kind"),
          PresVar: ("presence", KPre, "Pre")}


def _kind_of(delta: dict[str, Kind], name: str, sort: type) -> Kind:
    noun, want, shown = _SORTS[sort]
    k = delta.get(name)
    if k is None:
        raise KindError(f"unbound {noun} variable {name}")
    if not isinstance(k, want):
        raise KindError(f"{name} has kind {show_kind(k)}, expected {shown}")
    return k


def check_part(config: CalculusConfig, delta: dict[str, Kind], part, lacks=frozenset()):
    """The one gate on a type-level part of a term (an annotation, a cast
    target, a context entry, or a row or presence argument, where a row must
    lack ``lacks``): the calculus must have each of its constructors, and it
    must be well kinded under ``delta``.  The parts of a type are walked with
    ``lacks`` None: only a type may stand there."""
    refuse_missing(config, part)
    if isinstance(part, TyVar):
        _kind_of(delta, part.name, TyVar)
    elif isinstance(part, Arrow):
        check_part(config, delta, part.dom, None)
        check_part(config, delta, part.cod, None)
    elif isinstance(part, (Variant, Record)):
        check_part(config, delta, part.row)
    elif isinstance(part, (ForallRow, ForallPres)):
        if part.var in delta:
            raise KindError(f"type binder {part.var} shadows an outer binder")
        if isinstance(part, ForallRow) and not isinstance(part.kind, KRow):
            raise KindError(f"row binder {part.var} must have a row kind")
        kind = part.kind if isinstance(part, ForallRow) else KPre()
        check_part(config, {**delta, part.var: kind}, part.body, None)
    elif isinstance(part, Row) and lacks is not None:
        if part.tail is not None and config.row_poly == "none":
            raise FeatureError("open rows not available in this calculus")
        seen: set[str] = set()
        for label, pres, ty in part.entries:
            if label in seen:
                raise KindError(f"duplicate label {label} in row")
            if label in lacks:
                raise KindError(f"label {label} must be absent from this row")
            seen.add(label)
            check_part(config, delta, pres)
            check_part(config, delta, ty, None)
        if part.tail is not None:
            have, want = _kind_of(delta, part.tail, Row).lacks, lacks | seen
            if have != want and not (config.rank1 and have > want):
                raise KindError(
                    f"row tail {part.tail} lacks {{{', '.join(sorted(have))}}}, "
                    f"needs {{{', '.join(sorted(want))}}}"
                )
    elif isinstance(part, PresVar) and lacks is not None:
        _kind_of(delta, part.name, PresVar)
    elif isinstance(part, (Row, Present, Absent, PresVar)):
        if lacks is None:  # a row or a presence where a type must be
            raise KindError(f"unhandled type form {type(part).__name__}")
    elif not isinstance(part, Base):
        raise FeatureError(f"unhandled type form {type(part).__name__}")


# ---------------------------------------------------------------------------
# Type checking


@dataclass
class Derivation:
    rule: str
    delta: dict[str, Kind]
    gamma: dict[str, Type]
    term: Term
    type: Type
    premises: tuple["Derivation", ...] = ()
    evidence: SubtypeEvidence | None = field(default=None)
    calculus: str | None = None  # on a root: the preset type_check checked it in

    def judgment(self) -> str:
        dd = ", ".join(f"{n}:{show_kind(k)}" for n, k in sorted(self.delta.items()))
        gg = ", ".join(f"{n}:{show_type(t)}" for n, t in sorted(self.gamma.items()))
        return f"{dd} ; {gg} |- {show_term(self.term)} : {show_type(self.type)}"


def type_check(
    config: CalculusConfig,
    delta: dict[str, Kind],
    gamma: dict[str, Type],
    term: Term,
) -> Derivation:
    """Check ``term`` in the given environments; returns its derivation.

    A subterm object met again under the same ``delta`` and ``gamma``
    objects (a shared operand, such as the one t3 copies into every field of
    a cast) gets back the derivation it had the first time, so a shared term
    costs what its distinct subterms under their contexts cost, not its tree
    unfolding, and its derivation shares them too.

    Raises TypingError (or a subclass) when the term does not check, or
    when a type in ``gamma`` fails the gate every type-level part passes.
    """
    for ty in gamma.values():
        check_part(config, delta, ty)
    deriv = _Checker(config).rec(delta, gamma, term)
    deriv.calculus = config.name
    # an annotation is its node's type or that type's domain: this checks it too
    if config.rank_limited:
        for d in derivations(deriv):
            if not check_rank_limit(config, d.type):
                raise RankError(
                    f"type {show_type(d.type)} exceeds the rank limit in {d.judgment()}"
                )
    return deriv


def derivations(deriv: Derivation) -> Iterator[Derivation]:
    """``deriv`` and every derivation under it, root first and left to
    right, a premise that several nodes share (see ``type_check``) once."""
    seen: set[int] = set()
    stack = [deriv]
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen.add(id(d))
            yield d
            stack.extend(reversed(d.premises))


# The checks several rules share; inference shares the last three.


def _unbound(env: dict, name: str) -> None:
    if name in env:
        raise TypingError(f"binder {name} shadows an outer binder")


def _expect(ty: Type, form: type, message: str):
    """``ty``, which a rule needs to be a ``form``; else ``message`` about it."""
    if not isinstance(ty, form):
        raise TypingError(message.format(show_type(ty)))
    return ty


def _closed(row: Row, message: str) -> dict[str, tuple[Presence, Type]]:
    if row.tail is not None:
        raise TypingError(message)
    return {label: (pres, ty) for label, pres, ty in row.entries}


def _present(ty: Variant | Record, label: str, absent: str) -> Type:
    """The type at ``label`` in ``ty``'s row, where it must be present."""
    for l, pres, entry in ty.row.entries:
        if l == label:
            if not isinstance(pres, Present):
                raise TypingError(f"label {label} is not present{absent}")
            return entry
    raise TypingError(f"label {label} not in {show_type(ty)}")


def check_distinct(labels: list[str], message: str, error=TypingError) -> None:
    if len(set(labels)) != len(labels):
        raise error(message)


def lit_type(value: int | str) -> Type:
    return INT if isinstance(value, int) else STRING


def prim_sig(term: Prim, error=TypingError) -> tuple[Type, Type, Type]:
    sig = PRIM_SIGS.get(term.op)
    if sig is None:
        raise error(f"unknown primitive {term.op}")
    if len(term.args) != 2:
        raise error(f"primitive {term.op} takes two arguments")
    return sig


class _Checker:
    """One run of ``type_check``: the calculus, ``rec``, and the rules."""

    def __init__(self, config: CalculusConfig):
        self.config = config
        # a node's id to its last derivation, which holds the node and its
        # contexts; leaves are cheaper to check than to look up
        self.memo: dict[int, Derivation] = {}

    def rec(self, d: dict[str, Kind], g: dict[str, Type], t: Term) -> Derivation:
        cls = type(t)
        leaf = cls is Var or cls is Lit
        if not leaf:
            hit = self.memo.get(id(t))
            if hit is not None and hit.delta is d and hit.gamma is g:
                return hit
        refuse_missing(self.config, t)
        rule = RULES.get(cls)
        if rule is None:
            raise TypingError(f"unhandled term form {cls.__name__}")
        out = rule(self, d, g, t)
        if not leaf:
            self.memo[id(t)] = out
        return out

    def var(self, delta, gamma, term: Var) -> Derivation:
        ty = gamma.get(term.name)
        if ty is None:
            raise TypingError(f"unbound variable {term.name}")
        return Derivation("TyVar", delta, gamma, term, ty)

    def lam(self, delta, gamma, term: Lam) -> Derivation:
        if term.annot is None:
            raise TypingError(f"binder {term.var} needs a type annotation")
        _unbound(gamma, term.var)
        check_part(self.config, delta, term.annot)
        body = self.rec(delta, {**gamma, term.var: term.annot}, term.body)
        ty = Arrow(term.annot, body.type)
        return Derivation("TyLam", delta, gamma, term, ty, (body,))

    def app(self, delta, gamma, term: App) -> Derivation:
        fn = self.rec(delta, gamma, term.fn)
        dom = _expect(fn.type, Arrow, "applying a non-function of type {}").dom
        arg = self.rec(delta, gamma, term.arg)
        if type_equal(arg.type, dom):
            return Derivation("TyApp", delta, gamma, term, fn.type.cod, (fn, arg))
        ev = subtype("full", arg.type, dom) if self.config.app_sub else None
        if ev is None:
            raise TypingError(
                f"argument type {show_type(arg.type)} does not match "
                f"domain {show_type(dom)}"
            )
        return Derivation("TyAppSub", delta, gamma, term, fn.type.cod, (fn, arg), ev)

    def inject(self, delta, gamma, term: Inject) -> Derivation:
        if term.annot is None:
            raise TypingError("variant injection needs a type annotation")
        check_part(self.config, delta, term.annot)
        annot = _expect(
            term.annot, Variant, "injection annotation must be a variant type, got {}"
        )
        ty = _present(annot, term.label, " in the annotation")
        payload = self.rec(delta, gamma, term.payload)
        if not type_equal(payload.type, ty):
            raise TypingError(
                f"payload type {show_type(payload.type)} does not match "
                f"{show_type(ty)} for label {term.label}"
            )
        return Derivation("TyInject", delta, gamma, term, annot, (payload,))

    def case(self, delta, gamma, term: Case) -> Derivation:
        scrut = self.rec(delta, gamma, term.scrutinee)
        row = _expect(
            scrut.type, Variant, "case scrutinee must have a variant type, got {}"
        ).row
        entries = _closed(row, "case scrutinee type must be a closed variant")
        labels = [label for label, _, _ in term.branches]
        check_distinct(labels, "duplicate case branch labels")
        for label in labels:
            if label not in entries:
                raise TypingError(f"case branch {label} not in scrutinee type")
        for label, (pres, _) in entries.items():
            if isinstance(pres, Present) and label not in labels:
                raise TypingError(f"case does not cover label {label}")
            if isinstance(pres, PresVar) and label not in labels:
                raise TypingError(
                    f"case must cover label {label} with variable presence"
                )
        prems = [scrut]
        result: Type | None = None
        for label, binder, body in term.branches:
            _unbound(gamma, binder)
            bd = self.rec(delta, {**gamma, binder: entries[label][1]}, body)
            if result is None:
                result = bd.type
            elif not type_equal(result, bd.type):
                raise TypingError(
                    f"case branches disagree: {show_type(result)} "
                    f"vs {show_type(bd.type)}"
                )
            prems.append(bd)
        if result is None:
            raise TypingError("case needs at least one branch")
        return Derivation("TyCase", delta, gamma, term, result, tuple(prems))

    def recordlit(self, delta, gamma, term: RecordLit) -> Derivation:
        labels = [label for label, _ in term.fields]
        check_distinct(labels, "duplicate record field labels")
        entries = None
        if term.annot is not None:
            check_part(self.config, delta, term.annot)
            row = _expect(
                term.annot, Record, "record annotation must be a record type, got {}"
            ).row
            entries = _closed(row, "record literal annotation must be a closed row")
            for label in labels:
                if label not in entries:
                    raise TypingError(f"field {label} not in {show_type(term.annot)}")
            for label, (pres, _) in entries.items():
                if not isinstance(pres, Absent) and label not in labels:
                    raise TypingError(f"record literal is missing field {label}")
        elif _higher_pres(self.config):
            raise TypingError("record literal needs a type annotation here")
        prems = []
        for label, value in term.fields:
            vd = self.rec(delta, gamma, value)
            if entries is not None and not type_equal(vd.type, entries[label][1]):
                raise TypingError(
                    f"field {label} has type {show_type(vd.type)}, "
                    f"annotation says {show_type(entries[label][1])}"
                )
            prems.append(vd)
        ty = term.annot
        if ty is None:
            inferred = tuple((l, Present(), d.type) for l, d in zip(labels, prems))
            ty = Record(normalize_row(Row(inferred, None)))
        return Derivation("TyRecord", delta, gamma, term, ty, tuple(prems))

    def project(self, delta, gamma, term: Project) -> Derivation:
        rd = self.rec(delta, gamma, term.term)
        rty = _expect(rd.type, Record, "projecting from a non-record of type {}")
        ty = _present(rty, term.label, ", cannot project")
        return Derivation("TyProject", delta, gamma, term, ty, (rd,))

    def upcast(self, delta, gamma, term: Upcast) -> Derivation:
        check_part(self.config, delta, term.target)
        sub = self.rec(delta, gamma, term.term)
        ev = subtype(self.config.subtyping, sub.type, term.target)
        if ev is None:
            raise TypingError(
                f"{show_type(sub.type)} is not a subtype of {show_type(term.target)}"
            )
        return Derivation("TyUpcast", delta, gamma, term, term.target, (sub,), ev)

    def rowabs(self, delta, gamma, term: RowAbs) -> Derivation:
        _unbound(delta, term.var)
        body = self.rec({**delta, term.var: term.kind}, gamma, term.body)
        ty = ForallRow(term.var, term.kind, body.type)
        return Derivation("TyRowLam", delta, gamma, term, ty, (body,))

    def rowapp(self, delta, gamma, term: RowApp) -> Derivation:
        fd = self.rec(delta, gamma, term.term)
        fty = _expect(fd.type, ForallRow, "row-applying a term of type {}")
        check_part(self.config, delta, term.row, fty.kind.lacks)
        ty = subst_type_in_type(fty.body, term.row, fty.var)
        return Derivation("TyRowApp", delta, gamma, term, ty, (fd,))

    def presabs(self, delta, gamma, term: PresAbs) -> Derivation:
        _unbound(delta, term.var)
        body = self.rec({**delta, term.var: KPre()}, gamma, term.body)
        ty = ForallPres(term.var, body.type)
        return Derivation("TyPreLam", delta, gamma, term, ty, (body,))

    def presapp(self, delta, gamma, term: PresApp) -> Derivation:
        fd = self.rec(delta, gamma, term.term)
        fty = _expect(fd.type, ForallPres, "presence-applying a term of type {}")
        check_part(self.config, delta, term.presence)
        ty = subst_type_in_type(fty.body, term.presence, fty.var)
        return Derivation("TyPreApp", delta, gamma, term, ty, (fd,))

    def let(self, delta, gamma, term: Let) -> Derivation:
        _unbound(gamma, term.var)
        bound = self.rec(delta, gamma, term.bound)
        body = self.rec(delta, {**gamma, term.var: bound.type}, term.body)
        return Derivation("TyLet", delta, gamma, term, body.type, (bound, body))

    def lit(self, delta, gamma, term: Lit) -> Derivation:
        return Derivation("TyLit", delta, gamma, term, lit_type(term.value))

    def prim(self, delta, gamma, term: Prim) -> Derivation:
        ta, tb, res = prim_sig(term)
        d0 = self.rec(delta, gamma, term.args[0])
        d1 = self.rec(delta, gamma, term.args[1])
        if not type_equal(d0.type, ta) or not type_equal(d1.type, tb):
            raise TypingError(
                f"primitive {term.op} applied at "
                f"{show_type(d0.type)}, {show_type(d1.type)}"
            )
        return Derivation("TyPrim", delta, gamma, term, res, (d0, d1))


# each form's rule is the method named after it
RULES: dict[type, Callable[..., Derivation]] = {
    cls: getattr(_Checker, cls.__name__.lower()) for cls in SHAPES
}
