"""Kinding, subtyping, and type checking for the annotated calculi.

Checking is syntax-directed over fully annotated terms.  Every successful
check returns a Derivation tree; Upcast nodes carry subtyping evidence so
that later passes can compile the cast away without re-deriving it.

Which calculus has which form is said once, in ``FEATURES``: it maps each
gated type, presence mark and term form to the switch of ``CalculusConfig``
that turns it on and the full text that refuses it.  ``refuse_missing``
reads it for the checker (on entry to every term node), for the annotation
scan ``check_type_features``, and for ``infer``.
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
# Kinding


def kind_check(delta: dict[str, Kind], ty: Type) -> Kind:
    """Kind of ``ty`` under ``delta``; raises KindError if ill formed."""
    if isinstance(ty, TyVar):
        k = delta.get(ty.name)
        if k is None:
            raise KindError(f"unbound type variable {ty.name}")
        if not isinstance(k, KType):
            raise KindError(f"{ty.name} has kind {show_kind(k)}, expected Type")
        return KType()
    if isinstance(ty, Base):
        return KType()
    if isinstance(ty, Arrow):
        kind_check(delta, ty.dom)
        kind_check(delta, ty.cod)
        return KType()
    if isinstance(ty, (Variant, Record)):
        row_check(delta, ty.row, frozenset())
        return KType()
    if isinstance(ty, ForallRow):
        if ty.var in delta:
            raise KindError(f"type binder {ty.var} shadows an outer binder")
        if not isinstance(ty.kind, KRow):
            raise KindError(f"row binder {ty.var} must have a row kind")
        kind_check({**delta, ty.var: ty.kind}, ty.body)
        return KType()
    if isinstance(ty, ForallPres):
        if ty.var in delta:
            raise KindError(f"type binder {ty.var} shadows an outer binder")
        kind_check({**delta, ty.var: KPre()}, ty.body)
        return KType()
    raise KindError(f"unhandled type form {type(ty).__name__}")


def row_check(delta: dict[str, Kind], row: Row, lacks: frozenset[str]) -> None:
    """Check ``row`` against kind Row lacking ``lacks``."""
    seen: set[str] = set()
    for label, pres, ty in row.entries:
        if label in seen:
            raise KindError(f"duplicate label {label} in row")
        if label in lacks:
            raise KindError(f"label {label} must be absent from this row")
        seen.add(label)
        _presence_check(delta, pres)
        kind_check(delta, ty)
    if row.tail is not None:
        k = delta.get(row.tail)
        if k is None:
            raise KindError(f"unbound row variable {row.tail}")
        if not isinstance(k, KRow):
            raise KindError(f"{row.tail} has kind {show_kind(k)}, expected a row kind")
        want = lacks | frozenset(seen)
        if k.lacks != want:
            raise KindError(
                f"row tail {row.tail} lacks {{{', '.join(sorted(k.lacks))}}}, "
                f"needs {{{', '.join(sorted(want))}}}"
            )


def _presence_check(delta: dict[str, Kind], pres: Presence) -> None:
    if isinstance(pres, PresVar):
        k = delta.get(pres.name)
        if k is None:
            raise KindError(f"unbound presence variable {pres.name}")
        if not isinstance(k, KPre):
            raise KindError(f"{pres.name} has kind {show_kind(k)}, expected Pre")


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


def _subtype_simple(a: Type, b: Type) -> SubtypeEvidence | None:
    if isinstance(a, Variant) and isinstance(b, Variant):
        ra, rb = _closed_simple_row(a.row), _closed_simple_row(b.row)
        if ra is not None and rb is not None and set(ra) <= set(rb):
            if all(type_equal(ra[l], rb[l]) for l in ra):
                return SubtypeEvidence("SVariant", a, b)
    if isinstance(a, Record) and isinstance(b, Record):
        ra, rb = _closed_simple_row(a.row), _closed_simple_row(b.row)
        if ra is not None and rb is not None and set(rb) <= set(ra):
            if all(type_equal(ra[l], rb[l]) for l in rb):
                return SubtypeEvidence("SRecord", a, b)
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
    if isinstance(a, Variant) and isinstance(b, Variant):
        ra, rb = _closed_simple_row(a.row), _closed_simple_row(b.row)
        if ra is None or rb is None or not set(ra) <= set(rb):
            return None
        prems = []
        for label in sorted(ra):
            ev = _subtype_struct(ra[label], rb[label], depth_fun)
            if ev is None:
                return None
            prems.append((label, ev))
        return SubtypeEvidence("FVariant", a, b, tuple(prems))
    if isinstance(a, Record) and isinstance(b, Record):
        ra, rb = _closed_simple_row(a.row), _closed_simple_row(b.row)
        if ra is None or rb is None or not set(rb) <= set(ra):
            return None
        prems = []
        for label in sorted(rb):
            ev = _subtype_struct(ra[label], rb[label], depth_fun)
            if ev is None:
                return None
            prems.append((label, ev))
        return SubtypeEvidence("FRecord", a, b, tuple(prems))
    return None


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
# Features: which calculus has which form


def _higher_rows(config: CalculusConfig) -> bool:
    return config.row_poly == "higher"


def _higher_pres(config: CalculusConfig) -> bool:
    return config.pres_poly == "higher"


_builtins = attrgetter("builtins")
_variants = attrgetter("variants")
_records = attrgetter("records")
_PRESENCE_MARKS = "presence annotations not available in this calculus"

FEATURES: dict[type, tuple[Callable[[CalculusConfig], bool], str]] = {
    Base: (_builtins, "base type {form.tag} not available here"),
    Variant: (_variants, "variant types not available in this calculus"),
    Record: (_records, "record types not available in this calculus"),
    ForallRow: (_higher_rows, "row quantifiers not available in this calculus"),
    ForallPres: (_higher_pres, "presence quantifiers not available in this calculus"),
    Absent: (_higher_pres, _PRESENCE_MARKS),
    PresVar: (_higher_pres, _PRESENCE_MARKS),
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
    Lit: (_builtins, "literals not available in this calculus"),
    Prim: (_builtins, "primitives not available in this calculus"),
}


def refuse_missing(
    config: CalculusConfig, form, error: type[Exception] = FeatureError
) -> None:
    """Raise ``error`` with the refusal text of ``FEATURES`` when ``config``
    lacks the constructor of ``form``; forms the table omits are everywhere."""
    gate = FEATURES.get(type(form))
    if gate is not None and not gate[0](config):
        raise error(gate[1].format(form=form))


def check_type_features(config: CalculusConfig, ty: Type) -> None:
    """Reject annotations that mention constructors the calculus lacks."""
    refuse_missing(config, ty)
    if isinstance(ty, Arrow):
        check_type_features(config, ty.dom)
        check_type_features(config, ty.cod)
    elif isinstance(ty, (Variant, Record)):
        if ty.row.tail is not None and not _higher_rows(config):
            raise FeatureError("open rows not available in this calculus")
        for _, pres, sub in ty.row.entries:
            refuse_missing(config, pres)
            check_type_features(config, sub)
    elif isinstance(ty, (ForallRow, ForallPres)):
        check_type_features(config, ty.body)
    elif not isinstance(ty, (TyVar, Base)):
        raise FeatureError(f"unhandled type form {type(ty).__name__}")


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

    Raises TypingError (or a subclass) when the term does not check.
    """
    memo: dict[int, Derivation] = {}

    def rec(d: dict[str, Kind], g: dict[str, Type], t: Term) -> Derivation:
        # ``memo`` maps a node's id to its last derivation, which holds the
        # node and its contexts; leaves are cheaper to check than to look up
        cls = type(t)
        if cls is Var or cls is Lit:
            return _check(config, d, g, t, rec)
        key = id(t)
        hit = memo.get(key)
        if hit is not None and hit.delta is d and hit.gamma is g:
            return hit
        out = memo[key] = _check(config, d, g, t, rec)
        return out

    deriv = _check(config, delta, gamma, term, rec)
    if config.rank_limited:
        _enforce_rank(config, deriv)
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


def _enforce_rank(config: CalculusConfig, deriv: Derivation) -> None:
    for d in derivations(deriv):
        if not check_rank_limit(config, d.type):
            raise RankError(
                f"type {show_type(d.type)} exceeds the rank limit in {d.judgment()}"
            )
        for ann in _term_annotations(d.term):
            if not check_rank_limit(config, ann):
                raise RankError(f"annotation {show_type(ann)} exceeds the rank limit")


def _term_annotations(term: Term):
    for name in SHAPES[type(term)].types:
        if name in ("annot", "target") and getattr(term, name) is not None:
            yield getattr(term, name)


def _check(
    config: CalculusConfig,
    delta: dict[str, Kind],
    gamma: dict[str, Type],
    term: Term,
    rec: Callable[[dict[str, Kind], dict[str, Type], Term], Derivation],
) -> Derivation:
    """One node's rule; ``rec(delta, gamma, child)`` checks a premise."""
    refuse_missing(config, term)
    if isinstance(term, Var):
        ty = gamma.get(term.name)
        if ty is None:
            raise TypingError(f"unbound variable {term.name}")
        return Derivation("TyVar", delta, gamma, term, ty)

    if isinstance(term, Lam):
        if term.annot is None:
            raise TypingError(f"binder {term.var} needs a type annotation")
        if term.var in gamma:
            raise TypingError(f"binder {term.var} shadows an outer binder")
        check_type_features(config, term.annot)
        kind_check(delta, term.annot)
        body = rec(delta, {**gamma, term.var: term.annot}, term.body)
        return Derivation(
            "TyLam", delta, gamma, term, Arrow(term.annot, body.type), (body,)
        )

    if isinstance(term, App):
        fn = rec(delta, gamma, term.fn)
        if not isinstance(fn.type, Arrow):
            raise TypingError(f"applying a non-function of type {show_type(fn.type)}")
        arg = rec(delta, gamma, term.arg)
        if type_equal(arg.type, fn.type.dom):
            return Derivation("TyApp", delta, gamma, term, fn.type.cod, (fn, arg))
        if config.app_sub:
            ev = subtype("full", arg.type, fn.type.dom)
            if ev is not None:
                return Derivation(
                    "TyAppSub", delta, gamma, term, fn.type.cod, (fn, arg), ev
                )
        raise TypingError(
            f"argument type {show_type(arg.type)} does not match "
            f"domain {show_type(fn.type.dom)}"
        )

    if isinstance(term, Inject):
        if term.annot is None:
            raise TypingError("variant injection needs a type annotation")
        check_type_features(config, term.annot)
        kind_check(delta, term.annot)
        if not isinstance(term.annot, Variant):
            raise TypingError(
                f"injection annotation must be a variant type, got {show_type(term.annot)}"
            )
        entry = _row_entry(term.annot.row, term.label)
        if entry is None:
            raise TypingError(f"label {term.label} not in {show_type(term.annot)}")
        pres, ty = entry
        if not isinstance(pres, Present):
            raise TypingError(f"label {term.label} is not present in the annotation")
        payload = rec(delta, gamma, term.payload)
        if not type_equal(payload.type, ty):
            raise TypingError(
                f"payload type {show_type(payload.type)} does not match "
                f"{show_type(ty)} for label {term.label}"
            )
        return Derivation("TyInject", delta, gamma, term, term.annot, (payload,))

    if isinstance(term, Case):
        scrut = rec(delta, gamma, term.scrutinee)
        if not isinstance(scrut.type, Variant):
            raise TypingError(
                f"case scrutinee must have a variant type, got {show_type(scrut.type)}"
            )
        row = scrut.type.row
        if row.tail is not None:
            raise TypingError("case scrutinee type must be a closed variant")
        entries = {label: (pres, ty) for label, pres, ty in row.entries}
        branch_labels = [label for label, _, _ in term.branches]
        if len(set(branch_labels)) != len(branch_labels):
            raise TypingError("duplicate case branch labels")
        for label in branch_labels:
            if label not in entries:
                raise TypingError(f"case branch {label} not in scrutinee type")
        for label, (pres, _) in entries.items():
            if isinstance(pres, Present) and label not in branch_labels:
                raise TypingError(f"case does not cover label {label}")
            if isinstance(pres, PresVar) and label not in branch_labels:
                raise TypingError(
                    f"case must cover label {label} with variable presence"
                )
        prems = [scrut]
        result: Type | None = None
        for label, binder, body in term.branches:
            if binder in gamma:
                raise TypingError(f"binder {binder} shadows an outer binder")
            _, payload_ty = entries[label]
            bd = rec(delta, {**gamma, binder: payload_ty}, body)
            if result is None:
                result = bd.type
            elif not type_equal(result, bd.type):
                raise TypingError(
                    f"case branches disagree: {show_type(result)} vs {show_type(bd.type)}"
                )
            prems.append(bd)
        if result is None:
            raise TypingError("case needs at least one branch")
        return Derivation("TyCase", delta, gamma, term, result, tuple(prems))

    if isinstance(term, RecordLit):
        field_labels = [label for label, _ in term.fields]
        if len(set(field_labels)) != len(field_labels):
            raise TypingError("duplicate record field labels")
        if term.annot is not None:
            check_type_features(config, term.annot)
            kind_check(delta, term.annot)
            if not isinstance(term.annot, Record):
                raise TypingError(
                    f"record annotation must be a record type, got {show_type(term.annot)}"
                )
            row = term.annot.row
            if row.tail is not None:
                raise TypingError("record literal annotation must be a closed row")
            entries = {label: (pres, ty) for label, pres, ty in row.entries}
            for label in field_labels:
                if label not in entries:
                    raise TypingError(f"field {label} not in {show_type(term.annot)}")
            for label, (pres, _) in entries.items():
                if not isinstance(pres, Absent) and label not in field_labels:
                    raise TypingError(f"record literal is missing field {label}")
            prems = []
            for label, value in term.fields:
                _, ty = entries[label]
                vd = rec(delta, gamma, value)
                if not type_equal(vd.type, ty):
                    raise TypingError(
                        f"field {label} has type {show_type(vd.type)}, "
                        f"annotation says {show_type(ty)}"
                    )
                prems.append(vd)
            return Derivation(
                "TyRecord", delta, gamma, term, term.annot, tuple(prems)
            )
        if _higher_pres(config):
            raise TypingError("record literal needs a type annotation here")
        prems = []
        row_entries = []
        for label, value in term.fields:
            vd = rec(delta, gamma, value)
            prems.append(vd)
            row_entries.append((label, Present(), vd.type))
        ty = Record(normalize_row(Row(tuple(row_entries), None)))
        return Derivation("TyRecord", delta, gamma, term, ty, tuple(prems))

    if isinstance(term, Project):
        rd = rec(delta, gamma, term.term)
        if not isinstance(rd.type, Record):
            raise TypingError(
                f"projecting from a non-record of type {show_type(rd.type)}"
            )
        entry = _row_entry(rd.type.row, term.label)
        if entry is None:
            raise TypingError(f"label {term.label} not in {show_type(rd.type)}")
        pres, ty = entry
        if not isinstance(pres, Present):
            raise TypingError(f"label {term.label} is not present, cannot project")
        return Derivation("TyProject", delta, gamma, term, ty, (rd,))

    if isinstance(term, Upcast):
        check_type_features(config, term.target)
        kind_check(delta, term.target)
        sub = rec(delta, gamma, term.term)
        ev = subtype(config.subtyping, sub.type, term.target)
        if ev is None:
            raise TypingError(
                f"{show_type(sub.type)} is not a subtype of {show_type(term.target)}"
            )
        return Derivation("TyUpcast", delta, gamma, term, term.target, (sub,), ev)

    if isinstance(term, RowAbs):
        if term.var in delta:
            raise TypingError(f"binder {term.var} shadows an outer binder")
        body = rec({**delta, term.var: term.kind}, gamma, term.body)
        return Derivation(
            "TyRowLam",
            delta,
            gamma,
            term,
            ForallRow(term.var, term.kind, body.type),
            (body,),
        )

    if isinstance(term, RowApp):
        fd = rec(delta, gamma, term.term)
        if not isinstance(fd.type, ForallRow):
            raise TypingError(
                f"row-applying a term of type {show_type(fd.type)}"
            )
        row_check(delta, term.row, fd.type.kind.lacks)
        ty = subst_type_in_type(fd.type.body, term.row, fd.type.var)
        return Derivation("TyRowApp", delta, gamma, term, ty, (fd,))

    if isinstance(term, PresAbs):
        if term.var in delta:
            raise TypingError(f"binder {term.var} shadows an outer binder")
        body = rec({**delta, term.var: KPre()}, gamma, term.body)
        return Derivation(
            "TyPreLam", delta, gamma, term, ForallPres(term.var, body.type), (body,)
        )

    if isinstance(term, PresApp):
        fd = rec(delta, gamma, term.term)
        if not isinstance(fd.type, ForallPres):
            raise TypingError(
                f"presence-applying a term of type {show_type(fd.type)}"
            )
        _presence_check(delta, term.presence)
        ty = subst_type_in_type(fd.type.body, term.presence, fd.type.var)
        return Derivation("TyPreApp", delta, gamma, term, ty, (fd,))

    if isinstance(term, Let):
        if term.var in gamma:
            raise TypingError(f"binder {term.var} shadows an outer binder")
        bound = rec(delta, gamma, term.bound)
        body = rec(delta, {**gamma, term.var: bound.type}, term.body)
        return Derivation("TyLet", delta, gamma, term, body.type, (bound, body))

    if isinstance(term, Lit):
        ty = INT if isinstance(term.value, int) else STRING
        return Derivation("TyLit", delta, gamma, term, ty)

    if isinstance(term, Prim):
        sig = PRIM_SIGS.get(term.op)
        if sig is None:
            raise TypingError(f"unknown primitive {term.op}")
        ta, tb, res = sig
        if len(term.args) != 2:
            raise TypingError(f"primitive {term.op} takes two arguments")
        d0 = rec(delta, gamma, term.args[0])
        d1 = rec(delta, gamma, term.args[1])
        if not type_equal(d0.type, ta) or not type_equal(d1.type, tb):
            raise TypingError(
                f"primitive {term.op} applied at "
                f"{show_type(d0.type)}, {show_type(d1.type)}"
            )
        return Derivation("TyPrim", delta, gamma, term, res, (d0, d1))

    raise TypingError(f"unhandled term form {type(term).__name__}")


def _row_entry(row: Row, label: str) -> tuple[Presence, Type] | None:
    for l, pres, ty in row.entries:
        if l == label:
            return (pres, ty)
    return None
