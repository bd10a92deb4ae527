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
    Type,
    TyVar,
    Upcast,
    Var,
    Variant,
    subst_term,
    subst_type_in_term,
)


class DynamicsError(Exception):
    pass


class OutOfFuel(DynamicsError):
    pass


@dataclass(frozen=True)
class RelationSet:
    """Which rewrite rules are switched on."""

    beta: bool = True
    upcast: bool = False  # value-level cast rules for width subtyping
    full_upcast: bool = False  # structural cast rules, incl. function casts
    nested: bool = False  # collapse stacked casts into the outer one
    type_redex: bool = False  # row/presence application meeting its binder


def relations_for(config: CalculusConfig, *, full_upcast: bool = False) -> RelationSet:
    """The reduction relations a configuration evaluates under.

    Covariant and full subtyping default to erasure-based evaluation, so
    their cast rules stay off unless ``full_upcast`` is requested.
    """
    simple_casts = config.subtyping == "simple"
    structural = full_upcast and config.subtyping in ("covariant", "full")
    return RelationSet(
        beta=True,
        upcast=simple_casts or structural,
        full_upcast=structural,
        nested=simple_casts or structural,
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
    if rels.beta:
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
        if rels.nested and isinstance(term.term, Upcast):
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


def _children(term: Term) -> list[tuple[str, Term]]:
    if isinstance(term, Lam):
        return [("body", term.body)]
    if isinstance(term, App):
        return [("fn", term.fn), ("arg", term.arg)]
    if isinstance(term, Inject):
        return [("payload", term.payload)]
    if isinstance(term, Case):
        out = [("scrutinee", term.scrutinee)]
        out += [(f"branch:{l}", b) for l, _, b in term.branches]
        return out
    if isinstance(term, RecordLit):
        return [(f"field:{l}", v) for l, v in term.fields]
    if isinstance(term, Project):
        return [("term", term.term)]
    if isinstance(term, Upcast):
        return [("term", term.term)]
    if isinstance(term, (RowAbs, PresAbs)):
        return [("body", term.body)]
    if isinstance(term, (RowApp, PresApp)):
        return [("term", term.term)]
    if isinstance(term, Let):
        return [("bound", term.bound), ("body", term.body)]
    if isinstance(term, Prim):
        return [(f"arg:{i}", a) for i, a in enumerate(term.args)]
    return []


def _replace_child(term: Term, slot: str, new: Term) -> Term:
    if isinstance(term, Lam):
        return Lam(term.var, term.annot, new)
    if isinstance(term, App):
        return App(new, term.arg) if slot == "fn" else App(term.fn, new)
    if isinstance(term, Inject):
        return Inject(term.label, new, term.annot)
    if isinstance(term, Case):
        if slot == "scrutinee":
            return Case(new, term.branches)
        label = slot.split(":", 1)[1]
        branches = tuple(
            (l, x, new if l == label else b) for l, x, b in term.branches
        )
        return Case(term.scrutinee, branches)
    if isinstance(term, RecordLit):
        label = slot.split(":", 1)[1]
        fields = tuple((l, new if l == label else v) for l, v in term.fields)
        return RecordLit(fields, term.annot)
    if isinstance(term, Project):
        return Project(new, term.label)
    if isinstance(term, Upcast):
        return Upcast(new, term.target)
    if isinstance(term, RowAbs):
        return RowAbs(term.var, term.kind, new)
    if isinstance(term, PresAbs):
        return PresAbs(term.var, new)
    if isinstance(term, RowApp):
        return RowApp(new, term.row, term.origin)
    if isinstance(term, PresApp):
        return PresApp(new, term.presence, term.origin)
    if isinstance(term, Let):
        if slot == "bound":
            return Let(term.var, new, term.body)
        return Let(term.var, term.bound, new)
    if isinstance(term, Prim):
        idx = int(slot.split(":", 1)[1])
        args = tuple(new if i == idx else a for i, a in enumerate(term.args))
        return Prim(term.op, args)
    raise DynamicsError(f"no child slot {slot} in {type(term).__name__}")


def step_all(term: Term, rels: RelationSet) -> list[Step]:
    """Every enabled redex, outermost first, left to right."""
    out: list[Step] = []

    def walk(node: Term, path: Path, rebuild) -> None:
        hit = _rewrite_here(node, rels)
        if hit is not None:
            new, tag = hit
            out.append(Step(rebuild(new), tag, path))
        for slot, child in _children(node):
            walk(
                child,
                path + (slot,),
                lambda t, n=node, s=slot: rebuild(_replace_child(n, s, t)),
            )

    walk(term, (), lambda t: t)
    return out


def _with_children(term: Term, kids: list[Term]) -> Term:
    """``term`` with its ``_children`` replaced, in the same order."""
    if isinstance(term, Lam):
        return Lam(term.var, term.annot, kids[0])
    if isinstance(term, App):
        return App(kids[0], kids[1])
    if isinstance(term, Inject):
        return Inject(term.label, kids[0], term.annot)
    if isinstance(term, Case):
        branches = tuple(
            (l, x, b) for (l, x, _), b in zip(term.branches, kids[1:])
        )
        return Case(kids[0], branches)
    if isinstance(term, RecordLit):
        fields = tuple((l, v) for (l, _), v in zip(term.fields, kids))
        return RecordLit(fields, term.annot)
    if isinstance(term, Project):
        return Project(kids[0], term.label)
    if isinstance(term, Upcast):
        return Upcast(kids[0], term.target)
    if isinstance(term, RowAbs):
        return RowAbs(term.var, term.kind, kids[0])
    if isinstance(term, PresAbs):
        return PresAbs(term.var, kids[0])
    if isinstance(term, RowApp):
        return RowApp(kids[0], term.row, term.origin)
    if isinstance(term, PresApp):
        return PresApp(kids[0], term.presence, term.origin)
    if isinstance(term, Let):
        return Let(term.var, kids[0], kids[1])
    if isinstance(term, Prim):
        return Prim(term.op, tuple(kids))
    raise DynamicsError(f"no children in {type(term).__name__}")


# The forms ``_rewrite_here`` can fire at; no other node becomes a redex
# when one of its children is contracted.
_HEADS = (App, Case, Project, Let, Prim, Upcast, RowApp, PresApp)


class _Frame:
    """An ancestor of the focus: the node, its children (the one in focus
    may be stale), their slot names, the index of the child in focus, and
    whether ``kids`` differs from the node's own children."""

    __slots__ = ("node", "kids", "slots", "index", "dirty")

    def __init__(self, node: Term, children: list[tuple[str, Term]]):
        self.node = node
        self.slots = [slot for slot, _ in children]
        self.kids = [child for _, child in children]
        self.index = 0
        self.dirty = False


class _Machine:
    """Leftmost-outermost reduction with the context kept between steps."""

    def __init__(self, term: Term, rels: RelationSet):
        self.rels = rels
        self.focus = term
        self.frames: list[_Frame] = []
        self.path: list[str] = []  # the focus's slot names from the root
        self.hit = _rewrite_here(term, rels)  # the rewrite the focus heads

    def seek(self) -> bool:
        """Move the focus to the next redex; False once the term is normal."""
        while self.hit is None:
            if not self._advance():
                return False
            self.hit = _rewrite_here(self.focus, self.rels)
        return True

    def contract(self) -> tuple[str, Path]:
        """Fire the redex in focus; the focus moves up when the parent
        becomes a redex, and stays on the contractum otherwise."""
        new, tag = self.hit
        step = (tag, tuple(self.path))
        self.focus = new
        if self.frames:
            frame = self.frames[-1]
            frame.kids[frame.index] = new
            if isinstance(frame.node, _HEADS):
                frame.node = _with_children(frame.node, frame.kids)
                frame.dirty = False
                up = _rewrite_here(frame.node, self.rels)
                if up is not None:
                    self.frames.pop()
                    self.path.pop()
                    self.focus, self.hit = frame.node, up
                    return step
            else:
                frame.dirty = True
        self.hit = _rewrite_here(new, self.rels)
        return step

    def _advance(self) -> bool:
        """Step the focus to the next node in preorder, rebuilding each
        changed ancestor as it is left; False at the end of the term."""
        children = _children(self.focus)
        if children:
            frame = _Frame(self.focus, children)
            self.frames.append(frame)
            self.path.append(frame.slots[0])
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
                self.path[-1] = frame.slots[frame.index]
                self.focus = frame.kids[frame.index]
                return True
            self.frames.pop()
            self.path.pop()
            node = _with_children(frame.node, frame.kids) if frame.dirty else frame.node
        self.focus = node
        return False

    def term(self) -> Term:
        """The whole term as it stands, with the focus plugged back in."""
        node = self.focus
        for frame in reversed(self.frames):
            if frame.dirty or frame.kids[frame.index] is not node:
                kids = list(frame.kids)
                kids[frame.index] = node
                node = _with_children(frame.node, kids)
            else:
                node = frame.node
        return node


def step_once(term: Term, rels: RelationSet) -> Step | None:
    """The first step ``step_all`` lists, found without listing the rest."""
    machine = _Machine(term, rels)
    if not machine.seek():
        return None
    tag, path = machine.contract()
    return Step(machine.term(), tag, path)


def normalize(term: Term, rels: RelationSet, fuel: int = 10_000) -> Term:
    """The normal form, reached within ``fuel`` steps or OutOfFuel."""
    return reduction_trace(term, rels, fuel)[0]


def reduction_trace(
    term: Term, rels: RelationSet, fuel: int = 10_000
) -> tuple[Term, list[tuple[str, Path]]]:
    """The normal form and the (tag, path) of every step taken to reach it;
    OutOfFuel when it takes more than ``fuel`` steps."""
    machine = _Machine(term, rels)
    steps: list[tuple[str, Path]] = []
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
    if isinstance(term, (Var, Lit)):
        return term
    if isinstance(term, Lam):
        return Lam(term.var, None, erase(term.body))
    if isinstance(term, App):
        return App(erase(term.fn), erase(term.arg))
    if isinstance(term, Inject):
        return Inject(term.label, erase(term.payload), None)
    if isinstance(term, Case):
        return Case(
            erase(term.scrutinee),
            tuple((l, x, erase(b)) for l, x, b in term.branches),
        )
    if isinstance(term, RecordLit):
        return RecordLit(tuple((l, erase(v)) for l, v in term.fields), None)
    if isinstance(term, Project):
        return Project(erase(term.term), term.label)
    if isinstance(term, Upcast):
        return erase(term.term)
    if isinstance(term, (RowAbs, PresAbs)):
        return erase(term.body)
    if isinstance(term, (RowApp, PresApp)):
        return erase(term.term)
    if isinstance(term, Let):
        return Let(term.var, erase(term.bound), erase(term.body))
    if isinstance(term, Prim):
        return Prim(term.op, tuple(erase(a) for a in term.args))
    raise DynamicsError(f"unhandled term form {type(term).__name__}")


# ---------------------------------------------------------------------------
# Term approximation: m approximates n when they agree up to the left side
# carrying extra record fields.


def term_preorder(m: Term, n: Term) -> bool:
    return _approx(m, n, {})


def _approx(m: Term, n: Term, env: dict[str, str]) -> bool:
    if isinstance(m, Var) and isinstance(n, Var):
        return env.get(m.name, m.name) == n.name
    if isinstance(m, Lam) and isinstance(n, Lam):
        return _approx(m.body, n.body, {**env, m.var: n.var})
    if isinstance(m, App) and isinstance(n, App):
        return _approx(m.fn, n.fn, env) and _approx(m.arg, n.arg, env)
    if isinstance(m, Inject) and isinstance(n, Inject):
        return m.label == n.label and _approx(m.payload, n.payload, env)
    if isinstance(m, Case) and isinstance(n, Case):
        if not _approx(m.scrutinee, n.scrutinee, env):
            return False
        mb = {l: (x, b) for l, x, b in m.branches}
        nb = {l: (x, b) for l, x, b in n.branches}
        if set(mb) != set(nb):
            return False
        for label, (mx, mbody) in mb.items():
            nx, nbody = nb[label]
            if not _approx(mbody, nbody, {**env, mx: nx}):
                return False
        return True
    if isinstance(m, RecordLit) and isinstance(n, RecordLit):
        mf = {l: v for l, v in m.fields}
        nf = {l: v for l, v in n.fields}
        if not set(nf) <= set(mf):
            return False
        return all(_approx(mf[l], nf[l], env) for l in nf)
    if isinstance(m, Project) and isinstance(n, Project):
        return m.label == n.label and _approx(m.term, n.term, env)
    if isinstance(m, Let) and isinstance(n, Let):
        return _approx(m.bound, n.bound, env) and _approx(
            m.body, n.body, {**env, m.var: n.var}
        )
    if isinstance(m, Lit) and isinstance(n, Lit):
        return m.value == n.value
    if isinstance(m, Prim) and isinstance(n, Prim):
        return (
            m.op == n.op
            and len(m.args) == len(n.args)
            and all(_approx(a, b, env) for a, b in zip(m.args, n.args))
        )
    return False
