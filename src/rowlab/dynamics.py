"""Small-step reduction, upcast evaluation, erasure, and term approximation.

Reduction is presented as a family of tagged rewrite relations so that the
verification harness can match exact step patterns.  ``step_all`` is the
reference relation: it enumerates every redex in leftmost-outermost order
together with its position path and the whole term after firing it.

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
changed ancestor is rebuilt once, when the machine leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import CalculusConfig
from .pretty import show_term
from .syntax import (
    NO_NAMES,
    SHAPES,
    App,
    Arrow,
    Base,
    Case,
    Inject,
    Lam,
    Let,
    Lit,
    Names,
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
    bind,
    rebuild,
    same_data,
    same_name,
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
    structural = full_upcast and config.subtyping in ("covariant", "full")
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


def _prim_eval(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "++":
        return a + b
    raise DynamicsError(f"unknown primitive {op}")


def _rewrite_here(term: Term, rels: RelationSet) -> tuple[Term, str] | None:
    """The rewrite this node heads, if any."""
    if isinstance(term, App) and isinstance(term.fn, Lam):
        return subst_term(term.fn.body, term.arg, term.fn.var), "beta-lam"
    if isinstance(term, Case) and isinstance(term.scrutinee, Inject):
        inj = term.scrutinee
        for label, binder, body in term.branches:
            if label == inj.label:
                return subst_term(body, inj.payload, binder), "beta-case"
    if isinstance(term, Project) and isinstance(term.term, RecordLit):
        value = term.term.field(term.label)
        if value is not None:
            return value, "beta-project"
    if isinstance(term, Let):
        return subst_term(term.body, term.bound, term.var), "beta-let"
    if (
        isinstance(term, Prim)
        and all(isinstance(a, Lit) for a in term.args)
        and len(term.args) == 2
    ):
        a, b = term.args
        return Lit(_prim_eval(term.op, a.value, b.value)), "beta-prim"

    if isinstance(term, Upcast):
        if rels.upcast and isinstance(term.term, Upcast):
            return Upcast(term.term.term, term.target), "nested-upcast"
        if rels.full_upcast:
            hit = _full_cast(term)
            if hit is not None:
                return hit
        elif rels.upcast:
            if isinstance(term.term, Inject) and isinstance(term.target, Variant):
                inj = term.term
                return Inject(inj.label, inj.payload, term.target), "upcast-variant"
            if isinstance(term.term, RecordLit) and isinstance(term.target, Record):
                lit = term.term
                keep = set(l for l, _, _ in term.target.row.entries)
                fields = tuple(f for f in lit.fields if f[0] in keep)
                return RecordLit(fields, term.target), "upcast-record"

    if rels.type_redex:
        if isinstance(term, RowApp) and isinstance(term.term, RowAbs):
            out = subst_type_in_term(term.term.body, term.row, term.term.var)
            return out, ("tau-row" if term.origin == "source" else "nu-row")
        if isinstance(term, PresApp) and isinstance(term.term, PresAbs):
            out = subst_type_in_term(term.term.body, term.presence, term.term.var)
            return out, ("tau-pres" if term.origin == "source" else "nu-pres")

    return None


def _full_cast(term: Upcast) -> tuple[Term, str] | None:
    target = term.target
    if isinstance(target, (TyVar, Base)):
        return term.term, "upcast-var"
    if isinstance(term.term, Lam) and isinstance(target, Arrow):
        # Rebinding the same name is safe: every occurrence is replaced by
        # a cast wrapped around it, bound by the new abstraction.
        lam = term.term
        arg = (
            Upcast(Var(lam.var), lam.annot)
            if lam.annot is not None
            else Var(lam.var)
        )
        body = Upcast(subst_term(lam.body, arg, lam.var), target.cod)
        return Lam(lam.var, target.dom, body), "upcast-lam"
    if isinstance(term.term, Inject) and isinstance(target, Variant):
        inj = term.term
        for label, _, ty in target.row.entries:
            if label == inj.label:
                return (
                    Inject(inj.label, Upcast(inj.payload, ty), target),
                    "upcast-variant",
                )
        return None
    if isinstance(term.term, RecordLit) and isinstance(target, Record):
        lit = term.term
        fields = []
        for label, _, ty in target.row.entries:
            value = lit.field(label)
            if value is None:
                return None
            fields.append((label, Upcast(value, ty)))
        return RecordLit(tuple(fields), target), "upcast-record"
    return None


# The slot that is a head position in each form that has one; every
# argument of a primitive is one too.  A redex on the head spine (reached
# through head positions only) can expose a redex at the node above it.
_HEAD_SLOT = {
    App: "fn", Project: "term", Upcast: "term", Case: "scrutinee",
    RowApp: "term", PresApp: "term",
}


def step_all(term: Term, rels: RelationSet, spine: bool = False) -> list[Step]:
    """Every enabled redex, outermost first, left to right.

    With ``spine``, the walk enters only head slots and the arguments of a
    primitive, so it lists exactly the redexes on the head spine, in the
    same order, without visiting the rest of the term."""
    out: list[Step] = []
    context: list[tuple[Term, list, int]] = []  # (ancestor, its children, index)

    def walk(node: Term, path: Path) -> None:
        hit = _rewrite_here(node, rels)
        if hit is not None:
            new, tag = hit
            for parent, parts, i in reversed(context):
                kids = [child for _, child, _ in parts]
                kids[i] = new
                new = rebuild(parent, kids)
            out.append(Step(new, tag, path))
        parts = SHAPES[type(node)].children(node)
        for i, (slot, child, _) in enumerate(parts):
            if spine and type(node) is not Prim and slot != _HEAD_SLOT.get(type(node)):
                continue
            context.append((node, parts, i))
            walk(child, path + (slot,))
            context.pop()

    walk(term, ())
    return out


# The forms ``_rewrite_here`` can fire at; no other node becomes a redex
# when one of its children is contracted.
_HEADS = (App, Case, Project, Let, Prim, Upcast, RowApp, PresApp)


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
            if isinstance(frame.node, _HEADS):
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


# The forms erasure removes, keeping their one child.
_TYPE_LEVEL = (Upcast, RowAbs, RowApp, PresAbs, PresApp)


def erase(term: Term) -> Term:
    """Strip annotations, casts, and type-level abstraction/application."""
    shape = SHAPES[type(term)]
    kids = []
    for _, child, _ in shape.children(term):
        kids.append(erase(child))
    if isinstance(term, _TYPE_LEVEL):
        return kids[0]
    return shape.rebuild(term, kids, None, lambda annotation: None)


# ---------------------------------------------------------------------------
# Term approximation: m approximates n when they agree up to the left side
# carrying extra record fields.


def term_preorder(m: Term, n: Term) -> bool:
    return _approx(m, n, NO_NAMES)


def _approx(m: Term, n: Term, env: Names) -> bool:
    # annotations are ignored; casts and type-level forms are never related
    if type(m) is not type(n) or isinstance(m, _TYPE_LEVEL):
        return False
    if type(m) is Var:
        return same_name(env, m.name, n.name)
    shape = SHAPES[type(m)]
    if not same_data(shape, m, n):
        return False
    mk = {slot: (child, x) for slot, child, x in shape.children(m)}
    nk = {slot: (child, y) for slot, child, y in shape.children(n)}
    if not (nk.keys() <= mk.keys() if type(m) is RecordLit else nk.keys() == mk.keys()):
        return False
    for slot, (b, y) in nk.items():
        a, x = mk[slot]
        if not _approx(a, b, env if x is None else bind(env, x, y)):
            return False
    return True
