"""Small-step reduction, upcast evaluation, erasure, and term approximation.

Reduction is presented as a family of tagged rewrite relations so that the
verification harness can match exact step patterns.  ``REDEXES`` maps each
form that can head a redex to its head slot and its rule, which gives the
contractum and its tag, or None.  ``step_all`` is the reference relation:
it enumerates every redex in leftmost-outermost order together with its
position path and the whole term after firing it.  A row or presence
application that meets its binder keeps its contractum and tag on itself
(``_type_app``, a kept fact as in ``syntax``), so a redex that several
terms share, or that a search steps again, is substituted into once.

``step_once``, ``normalize`` and ``reduction_trace`` fire the first of those
redexes again and again, but without searching from the root each time.
They run one focused machine (``_Machine``) that keeps the evaluation
context between steps as a stack of frames, one per ancestor of the focus,
each holding the ancestor, its children, the index of the child in focus,
and whether a child has changed.  The machine visits nodes in the same
preorder as ``step_all``.  Every rule looks only at a node and its
immediate children, so after a contraction only the parent of the
contractum can have become a redex: the machine re-checks that parent and
then the contractum itself, and never revisits anything to the left.  A
changed ancestor is rebuilt once, when the machine leaves it.  ``erase``
rebuilds on an explicit stack (``syntax.strip``), so any depth is fine, and
each node object once, so the erasure shares what the term shares.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from .config import CalculusConfig
from .pretty import show_term
from .syntax import (
    SHAPES,
    TYPE_LEVEL,
    App,
    Arrow,
    Base,
    Case,
    Inject,
    Lam,
    Let,
    Lit,
    PresAbs,
    PresApp,
    Prim,
    Project,
    Record,
    RecordLit,
    RowAbs,
    RowApp,
    Term,
    TyVar,
    Upcast,
    Var,
    Variant,
    agree,
    rebuild,
    strip,
    subst_term,
    subst_type_in_term,
)


class DynamicsError(Exception):
    pass


class OutOfFuel(DynamicsError):
    pass


@dataclass(frozen=True)
class RelationSet:
    """Which rewrite rules are switched on; the beta rules always are."""

    upcast: bool = False  # cast rules for width subtyping, stacked casts collapsed
    full_upcast: bool = False  # structural cast rules, incl. function casts
    type_redex: bool = False  # row/presence application meeting its binder


def relations_for(config: CalculusConfig, *, full_upcast: bool = False) -> RelationSet:
    """The reduction relations a configuration evaluates under.

    Covariant and full subtyping default to erasure-based evaluation, so
    their cast rules stay off unless ``full_upcast`` is requested.
    """
    simple_casts = config.subtyping == "simple"
    structural = full_upcast and config.structural_subtyping
    return RelationSet(
        upcast=simple_casts or structural,
        full_upcast=structural,
        type_redex=config.row_poly == "higher" or config.pres_poly == "higher",
    )


Path = tuple[str, ...]


@dataclass(frozen=True)
class Step:
    term: Term  # whole term after the step
    tag: str
    path: Path


_PRIMS = {"+": operator.add, "-": operator.sub, "++": operator.add}


def _beta_case(t: Case, rels: RelationSet):
    inj = t.scrutinee
    if isinstance(inj, Inject):
        for label, binder, body in t.branches:
            if label == inj.label:
                return subst_term(body, inj.payload, binder), "beta-case"
    return None


def _beta_project(t: Project, rels: RelationSet):
    value = t.term.field(t.label) if isinstance(t.term, RecordLit) else None
    return None if value is None else (value, "beta-project")


def _beta_prim(t: Prim, rels: RelationSet):
    if all(isinstance(a, Lit) for a in t.args) and len(t.args) == 2:
        if t.op not in _PRIMS:
            raise DynamicsError(f"unknown primitive {t.op}")
        return Lit(_PRIMS[t.op](*(a.value for a in t.args))), "beta-prim"
    return None


def _upcast(t: Upcast, rels: RelationSet):
    """Stacked casts collapse.  Under the structural rules a cast at a base
    type or variable vanishes, a function cast rebinds, and variant and
    record casts cast each payload or kept field; under the width rules
    they only re-annotate the injection or drop the fields."""
    inner, target, full = t.term, t.target, rels.full_upcast
    if rels.upcast and isinstance(inner, Upcast):
        return Upcast(inner.term, target), "nested-upcast"
    if full and isinstance(target, (TyVar, Base)):
        return inner, "upcast-var"
    if full and isinstance(inner, Lam) and isinstance(target, Arrow):
        # Rebinding the same name is safe: every occurrence is replaced by
        # a cast wrapped around it, bound by the new abstraction.
        x = inner.var
        arg = Var(x) if inner.annot is None else Upcast(Var(x), inner.annot)
        body = Upcast(subst_term(inner.body, arg, x), target.cod)
        return Lam(x, target.dom, body), "upcast-lam"
    if not (full or rels.upcast):
        return None
    if isinstance(inner, Inject) and isinstance(target, Variant):
        if not full:
            return Inject(inner.label, inner.payload, target), "upcast-variant"
        for label, _, ty in target.row.entries:
            if label == inner.label:
                payload = Upcast(inner.payload, ty)
                return Inject(label, payload, target), "upcast-variant"
    elif isinstance(inner, RecordLit) and isinstance(target, Record):
        if not full:
            keep = set(target.row.labels())
            fields = tuple(f for f in inner.fields if f[0] in keep)
            return RecordLit(fields, target), "upcast-record"
        cast = [(label, inner.field(label), ty) for label, _, ty in target.row.entries]
        if all(v is not None for _, v, _ in cast):
            fields = tuple((label, Upcast(v, ty)) for label, v, ty in cast)
            return RecordLit(fields, target), "upcast-record"
    return None


def _type_app(t, rels: RelationSet, form: type, arg, kind: str):
    """A row or presence application meeting its binder: tau for a written
    one, nu for one a cast translation introduced.  The redex keeps its
    (contractum, tag) in its slot ``_contractum``, which both depend on
    alone; an application made anew has none yet."""
    if rels.type_redex and isinstance(t.term, form):
        hit = t._contractum
        if hit is None:
            tag = ("tau-" if t.origin == "source" else "nu-") + kind
            hit = (subst_type_in_term(t.term.body, arg, t.term.var), tag)
            t._contractum = hit
        return hit
    return None


# A redex on the head spine (reached through head slots only) can expose
# one at the node above it; every argument of a primitive is a head slot
# ("*"), a let has none, and no form outside the table is ever a redex.
REDEXES: dict[type, tuple[str | None, Callable[[Any, RelationSet], Any]]] = {
    App: ("fn", lambda t, rels: (subst_term(t.fn.body, t.arg, t.fn.var), "beta-lam")
          if isinstance(t.fn, Lam) else None),
    Case: ("scrutinee", _beta_case),
    Project: ("term", _beta_project),
    Let: (None, lambda t, rels: (subst_term(t.body, t.bound, t.var), "beta-let")),
    Prim: ("*", _beta_prim),
    Upcast: ("term", _upcast),
    RowApp: ("term", lambda t, rels: _type_app(t, rels, RowAbs, t.row, "row")),
    PresApp: ("term", lambda t, rels: _type_app(t, rels, PresAbs, t.presence, "pres")),
}


def on_spine(node: Term, slot: str) -> bool:
    """Whether ``slot`` of ``node`` is a head slot, the one slot in each
    ``REDEXES`` entry, or any of a primitive's ("*")."""
    head = REDEXES.get(type(node), (None,))[0]
    return head == "*" or slot == head


def _rewrite_here(term: Term, rels: RelationSet) -> tuple[Term, str] | None:
    """The rewrite this node heads, if any."""
    redex = REDEXES.get(type(term))
    return None if redex is None else redex[1](term, rels)


def step_all(term: Term, rels: RelationSet, spine: bool = False) -> list[Step]:
    """Every enabled redex, outermost first, left to right.

    With ``spine``, the walk enters only head slots and the arguments of a
    primitive, so it lists exactly the redexes on the head spine, in the
    same order, without visiting the rest of the term.  The walk keeps an
    explicit stack, so a term of any depth is fine."""
    out: list[Step] = []
    # (node, its context): a context is None at the root, and otherwise
    # (parent, the parent's children, the node's index, the parent's context)
    stack: list[tuple[Term, tuple | None]] = [(term, None)]
    while stack:
        node, context = stack.pop()
        hit = _rewrite_here(node, rels)
        if hit is not None:  # rebuild the ancestors and read the path off the context
            new, tag = hit
            slots, up = [], context
            while up is not None:
                parent, parts, i, up = up
                kids = [child for _, child, _ in parts]
                kids[i] = new
                new = rebuild(parent, kids)
                slots.append(parts[i][0])
            out.append(Step(new, tag, tuple(reversed(slots))))
        parts = SHAPES[type(node)].children(node)
        for i in range(len(parts) - 1, -1, -1):
            if not spine or on_spine(node, parts[i][0]):
                stack.append((parts[i][1], (node, parts, i, context)))
    return out


class _Frame:
    """An ancestor of the focus: the node, its children (the one in focus
    may be stale), the index of the child in focus, and whether ``kids``
    differs from the node's own children."""

    __slots__ = ("node", "kids", "index", "dirty")

    def __init__(self, node: Term, children: list[tuple[str, Term, str | None]]):
        self.node = node
        self.kids = [child for _, child, _ in children]
        self.index = 0
        self.dirty = False


class _Machine:
    """Leftmost-outermost reduction with the context kept between steps."""

    def __init__(self, term: Term, rels: RelationSet):
        self.rels = rels
        self.focus = term
        self.frames: list[_Frame] = []
        self.hit = _rewrite_here(term, rels)  # the rewrite the focus heads

    def seek(self) -> bool:
        """Move the focus to the next redex; False once the term is normal."""
        while self.hit is None:
            if not self._advance():
                return False
            self.hit = _rewrite_here(self.focus, self.rels)
        return True

    def path(self) -> Path:
        """The focus's slot names from the root."""
        return tuple(
            SHAPES[type(f.node)].children(f.node)[f.index][0] for f in self.frames
        )

    def contract(self) -> str:
        """Fire the redex in focus and give its tag; the focus moves up when
        the parent becomes a redex, and stays on the contractum otherwise."""
        new, tag = self.hit
        self.focus = new
        if self.frames:
            frame = self.frames[-1]
            frame.kids[frame.index] = new
            if type(frame.node) in REDEXES:
                frame.node = rebuild(frame.node, frame.kids)
                frame.dirty = False
                up = _rewrite_here(frame.node, self.rels)
                if up is not None:
                    self.frames.pop()
                    self.focus, self.hit = frame.node, up
                    return tag
            else:
                frame.dirty = True
        self.hit = _rewrite_here(new, self.rels)
        return tag

    def _advance(self) -> bool:
        """Step the focus to the next node in preorder, rebuilding each
        changed ancestor as it is left; False at the end of the term."""
        children = SHAPES[type(self.focus)].children(self.focus)
        if children:
            frame = _Frame(self.focus, children)
            self.frames.append(frame)
            self.focus = frame.kids[0]
            return True
        node = self.focus
        while self.frames:
            frame = self.frames[-1]
            if frame.kids[frame.index] is not node:
                frame.kids[frame.index] = node
                frame.dirty = True
            frame.index += 1
            if frame.index < len(frame.kids):
                self.focus = frame.kids[frame.index]
                return True
            self.frames.pop()
            node = rebuild(frame.node, frame.kids) if frame.dirty else frame.node
        self.focus = node
        return False

    def term(self) -> Term:
        """The whole term as it stands, with the focus plugged back in."""
        node = self.focus
        for frame in reversed(self.frames):
            if frame.dirty or frame.kids[frame.index] is not node:
                kids = list(frame.kids)
                kids[frame.index] = node
                node = rebuild(frame.node, kids)
            else:
                node = frame.node
        return node


def step_once(term: Term, rels: RelationSet) -> Step | None:
    """The first step ``step_all`` lists, found without listing the rest."""
    machine = _Machine(term, rels)
    if not machine.seek():
        return None
    path = machine.path()
    tag = machine.contract()
    return Step(machine.term(), tag, path)


def normalize(term: Term, rels: RelationSet, fuel: int = 10_000) -> Term:
    """The normal form, reached within ``fuel`` steps or OutOfFuel."""
    return reduction_trace(term, rels, fuel)[0]


def reduction_trace(
    term: Term, rels: RelationSet, fuel: int = 10_000
) -> tuple[Term, list[str]]:
    """The normal form and the tag of every step taken to reach it;
    OutOfFuel when it takes more than ``fuel`` steps.  ``step_once`` gives a
    step's path too."""
    machine = _Machine(term, rels)
    steps: list[str] = []
    while machine.seek():
        if len(steps) >= fuel:
            raise OutOfFuel(
                f"no normal form within {fuel} steps: {show_term(machine.term())}"
            )
        steps.append(machine.contract())
    return machine.focus, steps


# ---------------------------------------------------------------------------
# Erasure


def erase(term: Term) -> Term:
    """Strip annotations, casts, and type-level abstraction/application."""
    return strip(term, TYPE_LEVEL, lambda annotation: None)


# ---------------------------------------------------------------------------
# Term approximation


def term_preorder(m: Term, n: Term) -> bool:
    """``m`` is below ``n`` in the record-width preorder on erased terms:
    they are alpha-equivalent except that ``m``'s record literals may carry
    fields ``n``'s lack.  A cast or other type-level form is below nothing."""
    return agree(m, n, wider=True)
