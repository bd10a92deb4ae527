"""Random well-typed terms and executable checks of the metatheory.

Generation is goal directed: sample a type, then build a term inhabiting it
using only the features the configuration enables.  Cast nodes are inserted
only with evidence found by widening the goal, so generated terms check by
construction.  Everything is driven by a seeded generator: the same
(spec, index) pair always yields the same term.

Each check_* function verifies one theorem-shaped property on one input and
returns a PropertyReport; reports merge associatively so large runs can be
split and recombined.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .config import CalculusConfig, preset
from .dynamics import RelationSet, erase, relations_for, step_all, term_preorder
from .infer import InferError, infer, scheme_instance
from .pretty import show_scheme, show_term, show_type
from .statics import (
    Derivation,
    StaticError,
    check_rank_limit,
    subtype,
    type_check,
)
from .syntax import (
    App,
    Arrow,
    Base,
    Case,
    Inject,
    KType,
    Lam,
    Let,
    Lit,
    PresAbs,
    PresApp,
    Present,
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
    TypeScheme,
    TyVar,
    Upcast,
    Var,
    Variant,
    alpha_eq,
    subst_term,
    subst_type_in_term,
    type_equal,
)
from .translate import (
    TRANSLATIONS,
    TranslationError,
    run_translation,
    strip_upcasts,
    trans_a,
    weak_sub_instance,
)

_UNTYPED = RelationSet()
_WORDS = ("Ada", "Alice", "Bob", "Carol", "Dan")
_DEFAULT_LABELS = ("Age", "Name", "Size", "Year")


class GenError(Exception):
    pass


def ambient_delta() -> dict:
    return {"a0": KType(), "a1": KType()}


def ambient_gamma() -> dict:
    return {"y0": TyVar("a0"), "y1": TyVar("a1")}


@dataclass
class GenSpec:
    config: CalculusConfig
    max_size: int = 8
    labels: tuple[str, ...] = _DEFAULT_LABELS
    seed: int = 0
    weights: dict[str, float] | None = None


_DEFAULT_WEIGHTS = {
    "var": 2.0,
    "lit": 2.0,
    "prim": 1.0,
    "intro": 3.0,
    "app": 1.2,
    "let": 0.8,
    "case": 1.5,
    "project": 1.2,
    "upcast": 3.0,
}


def term_size(term: Term) -> int:
    if isinstance(term, (Var, Lit)):
        return 1
    if isinstance(term, Lam):
        return 1 + term_size(term.body)
    if isinstance(term, App):
        return 1 + term_size(term.fn) + term_size(term.arg)
    if isinstance(term, Inject):
        return 1 + term_size(term.payload)
    if isinstance(term, Case):
        return 1 + term_size(term.scrutinee) + sum(
            term_size(b) for _, _, b in term.branches
        )
    if isinstance(term, RecordLit):
        return 1 + sum(term_size(v) for _, v in term.fields)
    if isinstance(term, Project):
        return 1 + term_size(term.term)
    if isinstance(term, Let):
        return 1 + term_size(term.bound) + term_size(term.body)
    if isinstance(term, Prim):
        return 1 + sum(term_size(a) for a in term.args)
    if isinstance(term, Upcast):
        return 1 + term_size(term.term)
    # type abstraction and application nodes
    inner = getattr(term, "term", None) or getattr(term, "body", None)
    return 1 + (term_size(inner) if inner is not None else 0)


class _Gen:
    def __init__(self, rng: random.Random, spec: GenSpec):
        self.rng = rng
        self.config = spec.config
        self.labels = spec.labels
        self.w = dict(_DEFAULT_WEIGHTS)
        if spec.weights:
            self.w.update(spec.weights)
        self.bare = spec.config.rank1
        self._fresh = itertools.count()

    def fresh_var(self) -> str:
        return f"x{next(self._fresh)}"

    # -- types -------------------------------------------------------------

    def sample_type(self, size: int) -> Type:
        for _ in range(4):
            ty = self._raw_type(size)
            if not self.config.rank_limited or check_rank_limit(self.config, ty):
                return ty
            size = max(1, size // 2)
        return Base("Int") if self.config.builtins else TyVar("a0")

    def _raw_type(self, size: int) -> Type:
        opts = [("base", 2.0)]
        if size >= 2:
            opts.append(("arrow", 1.0))
            if self.config.records:
                opts.append(("record", 2.0))
            if self.config.variants:
                opts.append(("variant", 2.0))
        kind = self._pick(opts)
        if kind == "base":
            pool: list[Type] = [TyVar("a0"), TyVar("a1")]
            if self.config.builtins:
                pool += [Base("Int"), Base("String"), Base("Int")]
            return self.rng.choice(pool)
        if kind == "arrow":
            return Arrow(
                self._raw_type(size // 2), self._raw_type(max(1, size - size // 2 - 1))
            )
        k = self.rng.randint(1, min(3, max(1, size - 1)))
        chosen = sorted(self.rng.sample(self.labels, k))
        share = max(1, (size - 1) // k)
        entries = tuple(
            (label, Present(), self._raw_type(share)) for label in chosen
        )
        row = Row(entries, None)
        return Record(row) if kind == "record" else Variant(row)

    # -- subtype widening for cast insertion -------------------------------

    def _can_widen(self, goal: Type) -> bool:
        if isinstance(goal, Record) and self.config.records:
            return True
        if isinstance(goal, Variant) and self.config.variants:
            return any(isinstance(p, Present) for _, p, _ in goal.row.entries)
        return isinstance(goal, Arrow) and self.config.subtyping == "full"

    def _widen(self, goal: Type, size: int) -> Type:
        rng = self.rng
        deep = self.config.subtyping in ("covariant", "full")
        if isinstance(goal, Record):
            entries = list(goal.row.entries)
            spare = [l for l in self.labels if all(l != e[0] for e in entries)]
            rng.shuffle(spare)
            for label in spare[: rng.randint(1, 2) if spare else 0]:
                entries.append((label, Present(), self.sample_type(2)))
            if deep and entries and rng.random() < 0.4:
                i = rng.randrange(len(entries))
                label, pres, a = entries[i]
                entries[i] = (label, pres, self._widen(a, max(1, size - 1)))
            return Record(Row(tuple(sorted(entries, key=lambda e: e[0])), None))
        if isinstance(goal, Variant):
            pres = [e for e in goal.row.entries if isinstance(e[1], Present)]
            if not pres:
                raise GenError("no present entry to inject")
            keep = sorted(
                rng.sample(pres, rng.randint(1, len(pres))), key=lambda e: e[0]
            )
            if deep and rng.random() < 0.4:
                i = rng.randrange(len(keep))
                label, p, a = keep[i]
                keep[i] = (label, p, self._widen(a, max(1, size - 1)))
            return Variant(Row(tuple(keep), None))
        if isinstance(goal, Arrow) and self.config.subtyping == "full":
            return Arrow(
                self._supertype(goal.dom, max(1, size - 1)),
                self._widen(goal.cod, max(1, size - 1)),
            )
        return goal

    def _supertype(self, ty: Type, size: int) -> Type:
        rng = self.rng
        if isinstance(ty, Record) and ty.row.entries:
            keep = sorted(
                rng.sample(ty.row.entries, rng.randint(0, len(ty.row.entries))),
                key=lambda e: e[0],
            )
            return Record(Row(tuple(keep), None))
        if isinstance(ty, Variant):
            entries = list(ty.row.entries)
            spare = [l for l in self.labels if all(l != e[0] for e in entries)]
            rng.shuffle(spare)
            for label in spare[: rng.randint(0, 2)]:
                entries.append((label, Present(), self.sample_type(2)))
            return Variant(Row(tuple(sorted(entries, key=lambda e: e[0])), None))
        if isinstance(ty, Arrow) and self.config.subtyping == "full":
            return Arrow(
                self._widen(ty.dom, max(1, size - 1)),
                self._supertype(ty.cod, max(1, size - 1)),
            )
        return ty

    # -- terms -------------------------------------------------------------

    def _pick(self, weighted):
        total = sum(w for _, w in weighted)
        roll = self.rng.random() * total
        for item, w in weighted:
            roll -= w
            if roll <= 0:
                return item
        return weighted[-1][0]

    def term_for(self, goal: Type, size: int, gamma: dict[str, Type]) -> Term:
        cands: list[tuple[str, float, object]] = []
        for name in gamma:
            if type_equal(gamma[name], goal):
                cands.append(("var", self.w["var"], name))
        if isinstance(goal, Base) and self.config.builtins:
            cands.append(("lit", self.w["lit"], None))
            if size >= 3:
                cands.append(("prim", self.w["prim"], None))
        if isinstance(goal, Arrow) and size >= 2:
            cands.append(("lam", self.w["intro"], None))
        if isinstance(goal, Record) and self.config.records:
            cands.append(("record", self.w["intro"], None))
        if isinstance(goal, Variant) and self.config.variants and any(
            isinstance(p, Present) for _, p, _ in goal.row.entries
        ):
            cands.append(("inject", self.w["intro"], None))
        if size >= 3:
            cands.append(("app", self.w["app"], None))
            if self.config.allows_let:
                cands.append(("let", self.w["let"], None))
            if self.config.records:
                cands.append(("project", self.w["project"], None))
        if size >= 4 and self.config.variants:
            cands.append(("case", self.w["case"], None))
        if (
            not self.bare
            and self.config.subtyping != "none"
            and size >= 2
            and self._can_widen(goal)
        ):
            cands.append(("upcast", self.w["upcast"], None))

        while cands:
            weighted = [(i, w) for i, (_, w, _) in enumerate(cands)]
            i = self._pick(weighted)
            kind, _, payload = cands.pop(i)
            try:
                return self._produce(kind, payload, goal, size, gamma)
            except GenError:
                continue
        raise GenError(f"no production inhabits {show_type(goal)}")

    def _produce(self, kind, payload, goal, size, gamma):
        rng = self.rng
        if kind == "var":
            return Var(payload)
        if kind == "lit":
            if goal.tag == "Int":
                return Lit(rng.randint(0, 99))
            return Lit(rng.choice(_WORDS))
        if kind == "prim":
            op = "++" if goal.tag == "String" else rng.choice(("+", "-"))
            arg_ty = Base("String" if op == "++" else "Int")
            half = max(1, (size - 1) // 2)
            return Prim(
                op,
                (
                    self.term_for(arg_ty, half, gamma),
                    self.term_for(arg_ty, max(1, size - 1 - half), gamma),
                ),
            )
        if kind == "lam":
            x = self.fresh_var()
            body = self.term_for(goal.cod, size - 1, {**gamma, x: goal.dom})
            return Lam(x, None if self.bare else goal.dom, body)
        if kind == "record":
            fields = []
            present = [e for e in goal.row.entries if isinstance(e[1], Present)]
            share = max(1, (size - 1) // max(1, len(present)))
            for label, _, a in present:
                fields.append((label, self.term_for(a, share, gamma)))
            annot = (
                goal if (not self.bare and self.config.pres_poly != "none") else None
            )
            return RecordLit(tuple(fields), annot)
        if kind == "inject":
            present = [e for e in goal.row.entries if isinstance(e[1], Present)]
            label, _, a = rng.choice(present)
            return Inject(
                label,
                self.term_for(a, max(1, size - 1), gamma),
                None if self.bare else goal,
            )
        if kind == "app":
            dom = self.sample_type(max(1, min(3, size // 3)))
            if self.config.rank_limited and not check_rank_limit(
                self.config, Arrow(dom, goal)
            ):
                dom = Base("Int") if self.config.builtins else TyVar("a0")
            half = max(1, (size - 1) // 2)
            fn = self.term_for(Arrow(dom, goal), half, gamma)
            arg = self.term_for(dom, max(1, size - 1 - half), gamma)
            return App(fn, arg)
        if kind == "let":
            x = self.fresh_var()
            bound_ty = self.sample_type(max(1, min(3, size // 3)))
            half = max(1, (size - 1) // 2)
            bound = self.term_for(bound_ty, half, gamma)
            body = self.term_for(
                goal, max(1, size - 1 - half), {**gamma, x: bound_ty}
            )
            return Let(x, bound, body)
        if kind == "case":
            k = rng.randint(1, 2)
            chosen = sorted(rng.sample(self.labels, k))
            payloads = {l: self.sample_type(2) for l in chosen}
            scr_ty = Variant(
                Row(tuple((l, Present(), payloads[l]) for l in chosen), None)
            )
            half = max(1, (size - 1) // 2)
            scrutinee = self.term_for(scr_ty, half, gamma)
            share = max(1, (size - 1 - half) // k)
            branches = []
            for label in chosen:
                binder = self.fresh_var()
                branches.append(
                    (
                        label,
                        binder,
                        self.term_for(
                            goal, share, {**gamma, binder: payloads[label]}
                        ),
                    )
                )
            return Case(scrutinee, tuple(branches))
        if kind == "project":
            label = rng.choice(self.labels)
            entries = [(label, Present(), goal)]
            for extra in rng.sample(
                [l for l in self.labels if l != label], rng.randint(0, 2)
            ):
                entries.append((extra, Present(), self.sample_type(2)))
            rec_ty = Record(
                Row(tuple(sorted(entries, key=lambda e: e[0])), None)
            )
            if self.config.rank_limited and not check_rank_limit(
                self.config, rec_ty
            ):
                raise GenError("projection source beyond the rank limit")
            return Project(self.term_for(rec_ty, max(1, size - 1), gamma), label)
        if kind == "upcast":
            sub_ty = self._widen(goal, max(1, min(4, size // 2)))
            if self.config.rank_limited and not check_rank_limit(
                self.config, sub_ty
            ):
                raise GenError("widened type beyond the rank limit")
            if subtype(self.config.subtyping, sub_ty, goal) is None:
                raise GenError("widening produced no evidence")
            return Upcast(
                self.term_for(sub_ty, max(1, size - 1), gamma), goal
            )
        raise GenError(f"unknown production {kind}")


def gen_typed_term(spec: GenSpec, index: int = 0):
    """A well-typed term for the spec, with its derivation.

    Rank-1 configurations are bare: the term carries no annotations and the
    derivation slot is None (principality is checked through inference
    instead).  Deterministic in (spec, index).
    """
    if spec.max_size < 1:
        raise ValueError("max_size must be at least 1")
    last: Exception | None = None
    for attempt in range(10):
        rng = random.Random(spec.seed * 1_000_003 + index + 7_919 * attempt)
        gen = _Gen(rng, spec)
        goal = gen.sample_type(max(1, spec.max_size // 2))
        gamma = ambient_gamma()
        try:
            term = gen.term_for(goal, spec.max_size, gamma)
            if spec.config.rank1:
                infer(spec.config, ambient_delta(), gamma, term)
                return term, None
            return term, type_check(spec.config, ambient_delta(), gamma, term)
        except (GenError, StaticError, InferError) as e:
            last = e
    raise GenError(f"generation budget exhausted: {last}")


def gen_subst_pair(spec: GenSpec, index: int = 0):
    """(deriv_m, deriv_n, var) where var is free in m's context at n's type."""
    hole = "z0"
    last: Exception | None = None
    for attempt in range(10):
        rng = random.Random(spec.seed * 1_000_003 + index + 31 + 7_919 * attempt)
        gen = _Gen(rng, spec)
        hole_ty = gen.sample_type(3)
        goal = gen.sample_type(max(1, spec.max_size // 2))
        gamma_m = {**ambient_gamma(), hole: hole_ty}
        try:
            m = gen.term_for(goal, spec.max_size, gamma_m)
            n = gen.term_for(hole_ty, max(2, spec.max_size // 2), ambient_gamma())
            dm = type_check(spec.config, ambient_delta(), gamma_m, m)
            dn = type_check(spec.config, ambient_delta(), ambient_gamma(), n)
            return dm, dn, hole
        except (GenError, StaticError) as e:
            last = e
    raise GenError(f"generation budget exhausted: {last}")


# ---------------------------------------------------------------------------
# Reports


@dataclass
class PropertyReport:
    prop: str
    cases: int = 0
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def tally(self, case_id: str, term: Term, ok: bool, expected: str, got: str):
        self.cases += 1
        if not ok:
            self.failures.append((case_id, show_term(term), expected, got))

    def merge(self, other: "PropertyReport") -> "PropertyReport":
        if other.prop != self.prop:
            raise ValueError(f"cannot merge {self.prop} with {other.prop}")
        return PropertyReport(
            self.prop,
            self.cases + other.cases,
            self.failures + other.failures,
            self.elapsed + other.elapsed,
        )

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.prop}: {self.cases} cases, {state}"

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [list(f) for f in self.failures],
            "elapsed": round(self.elapsed, 6),
        }


# ---------------------------------------------------------------------------
# Step bookkeeping


def _step_class(tag: str) -> str:
    if tag.startswith("beta"):
        return "beta"
    if tag == "nested-upcast":
        return "nested"
    if tag.startswith("upcast"):
        return "upcast"
    if tag.startswith("tau"):
        return "tau"
    if tag.startswith("nu"):
        return "nu"
    return tag


def _class_steps(term: Term, rels: RelationSet, cls: str) -> list[Term]:
    return [s.term for s in step_all(term, rels) if _step_class(s.tag) == cls]


def _closure(
    term: Term, rels: RelationSet, classes: set[str], max_nodes: int = 300
) -> list[Term]:
    """Terms reachable through steps from the given classes, incl. the start."""
    seen = {show_term(term)}
    out = [term]
    queue = [term]
    while queue and len(out) < max_nodes:
        u = queue.pop()
        for s in step_all(u, rels):
            if _step_class(s.tag) not in classes:
                continue
            key = show_term(s.term)
            if key in seen:
                continue
            seen.add(key)
            out.append(s.term)
            queue.append(s.term)
    return out


def _any_alpha(terms, target) -> bool:
    return any(alpha_eq(t, target) for t in terms)


def _cast_normal(term: Term, rels: RelationSet, fuel: int = 400) -> Term:
    """Contract cast redexes until none remain.  Cast rules only collapse,
    narrow, or push casts inward, so this terminates and (the system being
    orthogonal) the result does not depend on the contraction order."""
    while fuel:
        fuel -= 1
        for s in step_all(term, rels):
            if _step_class(s.tag) in ("upcast", "nested"):
                term = s.term
                break
        else:
            return term
    return term


def _on_spine(x: Term, path) -> bool:
    """True when every hop of path sits in a head position: reductions there
    can expose a redex at the node above, so a standard reduction may need
    them before contracting the root."""
    node = x
    for slot in path:
        if isinstance(node, App):
            if slot != "fn":
                return False
            node = node.fn
        elif isinstance(node, (Project, Upcast)):
            if slot != "term":
                return False
            node = node.term
        elif isinstance(node, Case):
            if slot != "scrutinee":
                return False
            node = node.scrutinee
        elif isinstance(node, Prim):
            if not slot.startswith("arg:"):
                return False
            node = node.args[int(slot.split(":", 1)[1])]
        elif slot == "term" and hasattr(node, "term") and hasattr(
            node, "origin"
        ):
            node = node.term
        else:
            return False
    return True


class _Reach:
    """Goal-directed reachability in an orthogonal rewriting system.

    Searching all interleavings of independent redexes blows up (translated
    cast stacks duplicate subterms), so instead we contract root redexes and
    otherwise descend congruently, memoising on rendered (state, goal) pairs.
    need_beta threads the 'exactly one beta somewhere' obligation through the
    descent."""

    def __init__(self, rels: RelationSet, classes: set[str], budget: int = 6000):
        self.rels = rels
        self.classes = classes
        self.budget = budget
        self.memo: dict = {}
        self._strs: dict[int, tuple[Term, str]] = {}
        self._fresh = itertools.count()

    def _key(self, t: Term) -> str:
        # hold the term itself so ids cannot be recycled under us
        hit = self._strs.get(id(t))
        if hit is None:
            hit = (t, show_term(t))
            self._strs[id(t)] = hit
        return hit[1]

    def go(self, x: Term, g: Term, need_beta: bool = False) -> bool:
        key = (self._key(x), self._key(g), need_beta)
        if key in self.memo:
            return self.memo[key]
        if len(self.memo) > self.budget:
            return False
        self.memo[key] = False
        if alpha_eq(x, g):
            # no rewrite cycle can return here, so this is definitive
            out = not need_beta
            self.memo[key] = out
            return out
        out = False
        for s in step_all(x, self.rels):
            # contract the root, or a head-spine position that can expose it
            if s.path != () and not _on_spine(x, s.path):
                continue
            cls = _step_class(s.tag)
            if cls in self.classes and self.go(s.term, g, need_beta):
                out = True
                break
            if need_beta and cls == "beta" and self.go(s.term, g, False):
                out = True
                break
        if not out:
            pairs = self._decompose(x, g)
            if pairs is not None:
                out = self._descend(pairs, need_beta)
        self.memo[key] = out
        return out

    def _descend(self, pairs, need_beta: bool) -> bool:
        if not need_beta:
            return all(self.go(a, b, False) for a, b in pairs)
        for j in range(len(pairs)):
            if all(
                self.go(a, b, i == j) for i, (a, b) in enumerate(pairs)
            ):
                return True
        return False

    def _pair_bound(self, xb, xv, gb, gv):
        fresh = f"_r{next(self._fresh)}"
        return (subst_term(xb, Var(fresh), xv), subst_term(gb, Var(fresh), gv))

    def _decompose(self, x: Term, g: Term):
        if type(x) is not type(g):
            return None
        if isinstance(x, (Var, Lit)):
            return [] if x == g else None
        if isinstance(x, Lam):
            if (x.annot is None) != (g.annot is None):
                return None
            if x.annot is not None and not type_equal(x.annot, g.annot):
                return None
            return [self._pair_bound(x.body, x.var, g.body, g.var)]
        if isinstance(x, App):
            return [(x.fn, g.fn), (x.arg, g.arg)]
        if isinstance(x, Inject):
            if x.label != g.label:
                return None
            if (x.annot is None) != (g.annot is None):
                return None
            if x.annot is not None and not type_equal(x.annot, g.annot):
                return None
            return [(x.payload, g.payload)]
        if isinstance(x, Case):
            if len(x.branches) != len(g.branches):
                return None
            pairs = [(x.scrutinee, g.scrutinee)]
            for (lx, vx, bx), (lg, vg, bg) in zip(x.branches, g.branches):
                if lx != lg:
                    return None
                pairs.append(self._pair_bound(bx, vx, bg, vg))
            return pairs
        if isinstance(x, RecordLit):
            if [l for l, _ in x.fields] != [l for l, _ in g.fields]:
                return None
            if (x.annot is None) != (g.annot is None):
                return None
            if x.annot is not None and not type_equal(x.annot, g.annot):
                return None
            return [
                (a, b) for (_, a), (_, b) in zip(x.fields, g.fields)
            ]
        if isinstance(x, Project):
            if x.label != g.label:
                return None
            return [(x.term, g.term)]
        if isinstance(x, Let):
            return [
                (x.bound, g.bound),
                self._pair_bound(x.body, x.var, g.body, g.var),
            ]
        if isinstance(x, Prim):
            if x.op != g.op or len(x.args) != len(g.args):
                return None
            return list(zip(x.args, g.args))
        if isinstance(x, Upcast):
            if not type_equal(x.target, g.target):
                return None
            return [(x.term, g.term)]
        # type-level binders get alpha-renamed: independently produced
        # translations pick different fresh row/presence names
        if isinstance(x, PresAbs):
            fresh = PresVar(f"_q{next(self._fresh)}")
            return [
                (
                    subst_type_in_term(x.body, fresh, x.var),
                    subst_type_in_term(g.body, fresh, g.var),
                )
            ]
        if isinstance(x, RowAbs):
            if x.kind != g.kind:
                return None
            fresh = Row((), f"_q{next(self._fresh)}")
            return [
                (
                    subst_type_in_term(x.body, fresh, x.var),
                    subst_type_in_term(g.body, fresh, g.var),
                )
            ]
        if isinstance(x, RowApp):
            if x.origin != g.origin or not type_equal(
                Record(x.row), Record(g.row)
            ):
                return None
            return [(x.term, g.term)]
        if isinstance(x, PresApp):
            if x.origin != g.origin or x.presence != g.presence:
                return None
            return [(x.term, g.term)]
        return None


def _recheck(cfg: CalculusConfig, deriv: Derivation, term: Term) -> Derivation:
    return type_check(cfg, deriv.delta, deriv.gamma, term)


def _translation_cfgs(tid: str):
    t = TRANSLATIONS[tid]
    return preset(t.pairs[0][0]), preset(t.pairs[0][1])


# ---------------------------------------------------------------------------
# Type preservation


def check_type_preservation(tid: str, deriv: Derivation, case_id: str = ""):
    if tid == "erase-upcasts":
        return check_weak_preservation(deriv, case_id)
    rep = PropertyReport(f"type-preservation[{tid}]")
    start = time.perf_counter()
    t = TRANSLATIONS[tid]
    _, tgt_cfg = _translation_cfgs(tid)
    try:
        out = run_translation(tid, deriv)
        tgamma = {x: t.type_map(a) for x, a in deriv.gamma.items()}
        od = type_check(tgt_cfg, dict(deriv.delta), tgamma, out)
        want = t.type_map(deriv.type)
        rep.tally(
            case_id,
            deriv.term,
            type_equal(od.type, want),
            show_type(want),
            show_type(od.type),
        )
    except (StaticError, TranslationError) as e:
        rep.tally(
            case_id,
            deriv.term,
            False,
            "output typechecks at the mapped type",
            f"{type(e).__name__}: {e}",
        )
    rep.elapsed = time.perf_counter() - start
    return rep


def check_weak_preservation(deriv: Derivation, case_id: str = ""):
    """Erasing casts from a rank-2 record derivation keeps an inferable type
    weakly below the translated bound."""
    rep = PropertyReport("type-preservation[erase-upcasts]")
    start = time.perf_counter()
    src_cfg = preset("rec-sub-full-rank2")
    tgt_cfg = preset("rec-row1")
    try:
        stripped = strip_upcasts(deriv.term)
        d2 = type_check(
            src_cfg.with_app_sub(), dict(deriv.delta), dict(deriv.gamma), stripped
        )
        if subtype("full", d2.type, deriv.type) is None:
            rep.tally(
                case_id,
                deriv.term,
                False,
                "cast-free type below the original",
                f"{show_type(d2.type)} vs {show_type(deriv.type)}",
            )
        else:
            bare = erase(deriv.term)
            sigma = infer(tgt_cfg, dict(deriv.delta), dict(deriv.gamma), bare)
            bound = trans_a(d2.type)
            rep.tally(
                case_id,
                deriv.term,
                weak_sub_instance(sigma, bound),
                show_scheme(bound),
                show_scheme(sigma),
            )
    except (StaticError, TranslationError, InferError) as e:
        rep.tally(
            case_id,
            deriv.term,
            False,
            "inferred scheme weakly below the translated bound",
            f"{type(e).__name__}: {e}",
        )
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# Operational correspondence


def _sim_pattern(tid, tm, tn, cls, tgt_rels):
    if tid == "var-sub-to-var":
        return (
            _any_alpha(_class_steps(tm, tgt_rels, "beta"), tn),
            "one beta step reaching the translated reduct",
        )
    if tid == "var-sub-to-row":
        if cls == "beta":
            cand = _class_steps(tm, tgt_rels, "beta")
            for u in _class_steps(tm, tgt_rels, "tau"):
                cand += _class_steps(u, tgt_rels, "beta")
            return _any_alpha(cand, tn), "an optional tau step then one beta"
        return (
            _any_alpha(_class_steps(tm, tgt_rels, "nu"), tn),
            "exactly one nu step",
        )
    if tid == "rec-sub-to-rec":
        return (
            _Reach(tgt_rels, {"beta"}).go(tm, tn),
            "a sequence of beta steps",
        )
    if tid == "rec-sub-to-pre":
        if cls == "beta":
            return (
                _Reach(tgt_rels, {"tau"}).go(tm, tn, need_beta=True),
                "tau steps then one beta",
            )
        return (
            _Reach(tgt_rels, {"nu"}).go(tm, tn),
            "a sequence of nu steps",
        )
    raise ValueError(f"no single-step correspondence for {tid}")


def check_simulation(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every source step maps onto the target pattern its theorem states."""
    rep = PropertyReport(f"simulation[{tid}]")
    start = time.perf_counter()
    src_cfg, tgt_cfg = _translation_cfgs(tid)
    src_rels = relations_for(src_cfg)
    tgt_rels = relations_for(tgt_cfg)
    seen: set[str] = set()

    def visit(d: Derivation, level: int):
        key = show_term(d.term)
        if key in seen:
            return
        seen.add(key)
        tm = run_translation(tid, d)
        for s in step_all(d.term, src_rels):
            cls = _step_class(s.tag)
            try:
                nd = _recheck(src_cfg, d, s.term)
            except StaticError as e:
                rep.tally(
                    f"{case_id}@{level}",
                    d.term,
                    False,
                    "reduct re-typechecks",
                    f"{type(e).__name__}: {e}",
                )
                continue
            if cls != "nested":
                # nested-cast collapse is outside the stated patterns
                tn = run_translation(tid, nd)
                ok, expected = _sim_pattern(tid, tm, tn, cls, tgt_rels)
                rep.tally(
                    f"{case_id}@{level}", d.term, ok, expected, f"no match for {s.tag}"
                )
            if level + 1 < depth:
                visit(nd, level + 1)

    visit(deriv, 0)
    rep.elapsed = time.perf_counter() - start
    return rep


def check_reflection(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every target step (in its theorem's pattern) reflects a source step."""
    rep = PropertyReport(f"reflection[{tid}]")
    start = time.perf_counter()
    src_cfg, tgt_cfg = _translation_cfgs(tid)
    src_rels = relations_for(src_cfg)
    tgt_rels = relations_for(tgt_cfg)
    seen: set[str] = set()

    def obligations(tm):
        # Match modes: "exact" compares endpoints directly; "img-tau" allows
        # trailing administrative steps on the translated source reduct (the
        # correspondence is stated modulo tau); "fwd-beta"/"fwd-nu" continue
        # from the target endpoint to a translated reduct.
        if tid == "var-sub-to-var":
            return [
                ("beta step", u, {"beta", "upcast"}, "exact")
                for u in _class_steps(tm, tgt_rels, "beta")
            ]
        if tid == "var-sub-to-row":
            obls = [
                ("beta step", u, {"beta"}, "img-tau")
                for u in _class_steps(tm, tgt_rels, "beta")
            ]
            for v in _class_steps(tm, tgt_rels, "tau"):
                obls += [
                    ("tau then beta", u, {"beta"}, "img-tau")
                    for u in _class_steps(v, tgt_rels, "beta")
                ]
            obls += [
                ("nu step", u, {"upcast", "nested"}, "exact")
                for u in _class_steps(tm, tgt_rels, "nu")
            ]
            return obls
        if tid == "rec-sub-to-rec":
            return [
                ("beta step continues to a translated reduct", u,
                 {"beta", "upcast", "nested"}, "fwd-beta")
                for u in _class_steps(tm, tgt_rels, "beta")
            ]
        if tid == "rec-sub-to-pre":
            obls = []
            for v in _closure(tm, tgt_rels, {"tau"}):
                obls += [
                    ("tau steps then beta", u, {"beta"}, "img-tau")
                    for u in _class_steps(v, tgt_rels, "beta")
                ]
            obls += [
                ("nu step continues to a translated reduct", u,
                 {"upcast", "nested"}, "fwd-nu")
                for u in _class_steps(tm, tgt_rels, "nu")
            ]
            return obls
        raise ValueError(f"no single-step correspondence for {tid}")

    def visit(d: Derivation, level: int):
        key = show_term(d.term)
        if key in seen:
            return
        seen.add(key)
        tm = run_translation(tid, d)
        sources = []
        for s in step_all(d.term, src_rels):
            try:
                nd = _recheck(src_cfg, d, s.term)
            except StaticError as e:
                rep.tally(
                    f"{case_id}@{level}",
                    d.term,
                    False,
                    "reduct re-typechecks",
                    f"{type(e).__name__}: {e}",
                )
                continue
            sources.append((_step_class(s.tag), nd, run_translation(tid, nd)))
        reach_by: dict[str, _Reach] = {
            "beta": _Reach(tgt_rels, {"beta"}),
            "nu": _Reach(tgt_rels, {"nu"}),
            "tau": _Reach(tgt_rels, {"tau"}),
        }
        deeper: list[Term] | None = None

        def deeper_images() -> list[Term]:
            # when a cast expansion lets the target contract an outer redex
            # first, the matching source run takes the cast step and then the
            # outer step: close over two more source levels on demand
            nonlocal deeper
            if deeper is None:
                deeper = []
                known = {show_term(nd.term) for _, nd, _ in sources}
                frontier = [nd for _, nd, _ in sources]
                for _ in range(3):
                    nxt = []
                    for fd in frontier:
                        for s in step_all(fd.term, src_rels):
                            k = show_term(s.term)
                            if k in known:
                                continue
                            known.add(k)
                            try:
                                fnd = _recheck(src_cfg, fd, s.term)
                            except StaticError:
                                continue
                            nxt.append(fnd)
                            deeper.append(run_translation(tid, fnd))
                    frontier = nxt
            return deeper

        done: set[str] = set()
        for desc, u, allowed, mode in obligations(tm):
            key_u = mode + "|" + show_term(u)
            if key_u in done:
                continue
            done.add(key_u)
            if mode in ("fwd-beta", "fwd-nu"):
                reach = reach_by[mode.removeprefix("fwd-")]
                ok = any(
                    cls in allowed and reach.go(u, tk)
                    for cls, _, tk in sources
                )
                if not ok:
                    ok = any(reach.go(u, tk) for tk in deeper_images())
            elif mode == "exact":
                ok = any(
                    cls in allowed and alpha_eq(tk, u)
                    for cls, _, tk in sources
                )
            else:
                # the translated source reduct matches u up to trailing
                # administrative steps
                ok = any(
                    cls in allowed and reach_by["tau"].go(tk, u)
                    for cls, _, tk in sources
                )
            rep.tally(
                f"{case_id}@{level}",
                d.term,
                ok,
                f"a source step matching the target {desc}",
                "no source step matches",
            )
        if level + 1 < depth:
            for _, nd, _ in sources:
                visit(nd, level + 1)

    visit(deriv, 0)
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# Erasure laws and the untyped preorder


def check_erasure(tid: str, deriv: Derivation, case_id: str = ""):
    rep = PropertyReport(f"erasure[{tid}]")
    start = time.perf_counter()
    try:
        lhs = erase(run_translation(tid, deriv))
        rhs = erase(deriv.term)
        rep.tally(
            case_id,
            deriv.term,
            alpha_eq(lhs, rhs),
            show_term(rhs),
            show_term(lhs),
        )
    except (StaticError, TranslationError) as e:
        rep.tally(
            case_id, deriv.term, False, "erasures agree", f"{type(e).__name__}: {e}"
        )
    rep.elapsed = time.perf_counter() - start
    return rep


def check_preorder_correspondence(
    deriv: Derivation, depth: int = 2, case_id: str = ""
):
    """Cast-rule evaluation and erased evaluation track each other through
    the record-width preorder."""
    rep = PropertyReport("preorder-correspondence")
    start = time.perf_counter()
    cfg = preset("var-rec-sub-full")
    rels = relations_for(cfg, full_upcast=True)
    seen: set[str] = set()

    def visit(d: Derivation, u: Term, level: int):
        key = show_term(d.term) + "|" + show_term(u)
        if key in seen:
            return
        seen.add(key)
        if not term_preorder(u, erase(d.term)):
            rep.tally(
                f"{case_id}@{level}", d.term, False,
                "untyped side stays below the erasure", show_term(u),
            )
            return
        # simulation direction
        for s in step_all(d.term, rels):
            try:
                nd = _recheck(cfg, d, s.term)
            except StaticError as e:
                rep.tally(
                    f"{case_id}@{level}", d.term, False,
                    "reduct re-typechecks", f"{type(e).__name__}: {e}",
                )
                continue
            if _step_class(s.tag) == "beta":
                matches = [
                    n2
                    for n2 in _class_steps(u, _UNTYPED, "beta")
                    if term_preorder(n2, erase(nd.term))
                ]
                rep.tally(
                    f"{case_id}@{level}", d.term, bool(matches),
                    "an untyped beta step below the reduct's erasure",
                    f"none of the untyped steps track {s.tag}",
                )
                if matches and level + 1 < depth:
                    visit(nd, matches[0], level + 1)
            else:
                ok = term_preorder(u, erase(nd.term))
                rep.tally(
                    f"{case_id}@{level}", d.term, ok,
                    "cast steps leave the untyped side below the erasure",
                    f"preorder broken after {s.tag}",
                )
                if ok and level + 1 < depth:
                    visit(nd, u, level + 1)
        # reflection direction: contracting every cast can only narrow the
        # erasure further and never destroys a beta redex, so the cast-normal
        # form is the one candidate worth checking.
        v = _cast_normal(d.term, rels)
        for n_prime in _class_steps(u, _UNTYPED, "beta"):
            found = any(
                term_preorder(n_prime, erase(w))
                for w in _class_steps(v, rels, "beta")
            )
            rep.tally(
                f"{case_id}@{level}", d.term, found,
                "cast steps then a beta step covering the untyped reduct",
                "no typed counterpart found",
            )

    visit(deriv, erase(deriv.term), 0)
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# Substitution and subject reduction


def check_subst_lemma(
    tid: str, deriv_m: Derivation, deriv_n: Derivation, var: str, case_id: str = ""
):
    """Translating after substitution agrees with substituting translations."""
    rep = PropertyReport(f"substitution[{tid}]")
    start = time.perf_counter()
    src_cfg, _ = _translation_cfgs(tid)
    try:
        tm = run_translation(tid, deriv_m)
        tn = run_translation(tid, deriv_n)
        combined = subst_term(deriv_m.term, deriv_n.term, var)
        gamma = {k: v for k, v in deriv_m.gamma.items() if k != var}
        dc = type_check(src_cfg, dict(deriv_m.delta), gamma, combined)
        lhs = run_translation(tid, dc)
        rhs = subst_term(tm, tn, var)
        rep.tally(
            case_id,
            deriv_m.term,
            alpha_eq(lhs, rhs),
            show_term(rhs),
            show_term(lhs),
        )
    except (StaticError, TranslationError) as e:
        rep.tally(
            case_id,
            deriv_m.term,
            False,
            "translation commutes with substitution",
            f"{type(e).__name__}: {e}",
        )
    rep.elapsed = time.perf_counter() - start
    return rep


def check_subject_reduction(
    config: CalculusConfig, subject, depth: int = 3, case_id: str = ""
):
    """Stepping preserves the type (or keeps the principal scheme as general)."""
    rep = PropertyReport(f"subject-reduction[{config.name}]")
    start = time.perf_counter()
    rels = relations_for(config)
    seen: set[str] = set()

    if config.rank1:
        term = subject.term if isinstance(subject, Derivation) else subject

        def visit_bare(term: Term, scheme: TypeScheme, level: int):
            key = show_term(term)
            if key in seen:
                return
            seen.add(key)
            for s in step_all(term, rels):
                try:
                    ns = infer(config, ambient_delta(), ambient_gamma(), s.term)
                except InferError as e:
                    rep.tally(
                        f"{case_id}@{level}", term, False,
                        "reduct still infers", f"{type(e).__name__}: {e}",
                    )
                    continue
                rep.tally(
                    f"{case_id}@{level}",
                    term,
                    scheme_instance(ns, scheme),
                    show_scheme(scheme),
                    show_scheme(ns),
                )
                if level + 1 < depth:
                    visit_bare(s.term, ns, level + 1)

        visit_bare(term, infer(config, ambient_delta(), ambient_gamma(), term), 0)
    else:

        def visit(d: Derivation, level: int):
            key = show_term(d.term)
            if key in seen:
                return
            seen.add(key)
            for s in step_all(d.term, rels):
                try:
                    nd = _recheck(config, d, s.term)
                except StaticError as e:
                    rep.tally(
                        f"{case_id}@{level}", d.term, False,
                        "reduct re-typechecks", f"{type(e).__name__}: {e}",
                    )
                    continue
                rep.tally(
                    f"{case_id}@{level}",
                    d.term,
                    type_equal(nd.type, d.type),
                    show_type(d.type),
                    show_type(nd.type),
                )
                if level + 1 < depth:
                    visit(nd, level + 1)

        visit(subject, 0)
    rep.elapsed = time.perf_counter() - start
    return rep


# ---------------------------------------------------------------------------
# Batch driver


def run_property(
    prop: str,
    *,
    translation: str | None = None,
    config: str | None = None,
    count: int = 100,
    seed: int = 0,
    depth: int = 2,
    max_size: int = 8,
) -> PropertyReport:
    """Generate inputs and fold one property's report over them."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    start = time.perf_counter()
    merged: PropertyReport | None = None

    def fold(r: PropertyReport):
        nonlocal merged
        merged = r if merged is None else merged.merge(r)

    if prop in ("type-preservation", "simulation", "reflection", "erasure",
                "substitution"):
        if translation is None:
            raise ValueError(f"property {prop} needs a translation id")
        t = TRANSLATIONS[translation]
        spec = GenSpec(preset(t.pairs[0][0]), max_size=max_size, seed=seed)
        for i in range(count):
            cid = f"seed={seed} index={i}"
            if prop == "substitution":
                dm, dn, var = gen_subst_pair(spec, i)
                fold(check_subst_lemma(translation, dm, dn, var, cid))
                continue
            _, deriv = gen_typed_term(spec, i)
            if prop == "type-preservation":
                fold(check_type_preservation(translation, deriv, cid))
            elif prop == "simulation":
                fold(check_simulation(translation, deriv, depth, cid))
            elif prop == "reflection":
                fold(check_reflection(translation, deriv, depth, cid))
            else:
                fold(check_erasure(translation, deriv, cid))
    elif prop == "subject-reduction":
        if config is None:
            raise ValueError("subject-reduction needs a calculus id")
        cfg = preset(config)
        spec = GenSpec(cfg, max_size=max_size, seed=seed)
        for i in range(count):
            term, deriv = gen_typed_term(spec, i)
            fold(
                check_subject_reduction(
                    cfg, deriv if deriv is not None else term, depth,
                    f"seed={seed} index={i}",
                )
            )
    elif prop == "preorder-correspondence":
        spec = GenSpec(preset("var-rec-sub-full"), max_size=max_size, seed=seed)
        for i in range(count):
            _, deriv = gen_typed_term(spec, i)
            fold(
                check_preorder_correspondence(
                    deriv, depth, f"seed={seed} index={i}"
                )
            )
    else:
        raise ValueError(f"unknown property {prop}")

    assert merged is not None
    merged.elapsed = time.perf_counter() - start
    return merged
