"""Random well-typed terms and executable checks of the metatheory.

Generation is goal directed: sample a type, then build a term inhabiting it
using only the features the configuration enables.  The productions are one
table in offer order (``_PRODUCTIONS``), filtered once per configuration and
indexed by goal form, so ``term_for`` tests only the ones that build its
goal, then draws among them and the goal's variables by weight, trying the
next draw when one fails.  Cast nodes are inserted
only with evidence found by widening the goal, so generated terms check by
construction.  Everything is driven by a seeded generator: the same
(spec, index) pair always yields the same term.  Each generation attempt
may make ``_GEN_CALLS_PER_NODE * max_size`` calls to ``_Gen.term_for``; one
that makes more is abandoned and the next attempt seed is tried, so an
overrun means a retry, never a verdict.  Work an attempt throws away is
kept cheap: each scope (``_Scope``) indexes its names by ``type_key`` when
a binder extends it, so ``term_for`` finds a goal's variables by one lookup
and compares no types, and a dead end's text ("no production inhabits T")
is formatted only when it is read.

Each check_* function verifies one theorem-shaped property on one input and
returns a PropertyReport; reports merge associatively so large runs can be
split and recombined.

The step shapes of the operational correspondence theorems are data on each
``translate.Translation``, read by one matcher.  A pattern is a run of step
classes (``_step_class``: beta, tau, nu, upcast, nested): ``c`` is one c
step, ``c?`` at most one, ``c*`` any number.  Simulation lists the ends of
a finite pattern and decides a starred one (``c*``, ``c* beta``) by the
``_Reach`` search.  Reflection matches each end u of a target run against
the translated source reducts of the listed classes: ``exact`` up to alpha,
``tau`` when a reduct reaches u by tau steps, ``fwd`` when u reaches a
translated reduct, any number of source steps away, by steps of the run's
one class.  Every stepping check runs on one walk: ``_explore`` keeps the
seen set and descends, ``_reducts`` steps and re-typechecks.

Each stepping check makes one ``_Keys`` table, its memo for as long as it
runs.  The table keys terms by structure, never by their printed text: the
seen sets of ``_explore`` and ``_closure`` and the ``_Reach`` memo hold its
ints.  It also makes every call the check makes into the stepper
(``step_all``, keyed by term, relation set and spine mode), the checker
(a reduct, keyed by term and context objects) and the translator
(``run_translation``, keyed by derivation), so a term reached twice, say as
a reduct's image and again as the next level's root, is stepped,
re-typechecked and translated once.  Report text is rendered only for a
failed case (``PropertyReport.tally``).  The search compares a state with
its goal as ``alpha_eq`` does, under the binder pairs of the nodes above
them (``syntax.match_node``), so it renames neither.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, get_args

from .config import CalculusConfig, UsageError, preset
from .dynamics import RelationSet, Step, erase, relations_for, step_all, term_preorder
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
    NO_NAMES,
    SHAPES,
    App,
    Arrow,
    Base,
    Case,
    Inject,
    KType,
    Lam,
    Let,
    Lit,
    MalformedRowError,
    Names,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    Term,
    Type,
    TyVar,
    Upcast,
    Var,
    Variant,
    alpha_eq,
    match_node,
    strip,
    subst_term,
    term_size,  # kept here too: bench/budget.py sizes terms through harness
    type_equal,
    type_key,
)
from .translate import (
    TRANSLATIONS,
    TranslationError,
    run_translation,
    trans_a,
    weak_sub_instance,
)

_UNTYPED = RelationSet()
Text = str | Callable[[], str]  # report text, or a function that renders it
_WORDS = ("Ada", "Alice", "Bob", "Carol", "Dan")
_LABELS = ("Age", "Name", "Size", "Year")
_LEAF_TYPES = (TyVar("a0"), TyVar("a1"), Base("Int"), Base("String"), Base("Int"))


class GenError(Exception):
    pass


class _NoProduction(GenError):
    """No production inhabits ``goal``.  Most dead ends are retried and
    their text never read, so it is formatted only when it is."""

    def __init__(self, goal: Type):
        super().__init__(goal)
        self.goal = goal

    def __str__(self) -> str:
        return f"no production inhabits {show_type(self.goal)}"


class _Overrun(Exception):
    """A generation attempt made more ``term_for`` calls than its bound.  Not
    a GenError, so no production's retry catches it: the attempt ends."""


def ambient_delta() -> dict:
    return {"a0": KType(), "a1": KType()}


def ambient_gamma() -> dict:
    return {"y0": TyVar("a0"), "y1": TyVar("a1")}


@dataclass
class GenSpec:
    config: CalculusConfig
    max_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_size < 1:
            raise UsageError("max_size must be at least 1")


def _scope_key(ty: Type) -> tuple | None:
    """``ty``'s ``type_key``, or None for a row that repeats a label, which
    ``type_equal`` equates with nothing."""
    try:
        return type_key(ty)
    except MalformedRowError:
        return None


class _Scope(dict):
    """A generation context, names to types in scope order, with the names of
    each type indexed by ``type_key`` (``by_key``, each tuple in scope order):
    the variables of a goal's type are one lookup away, and a type's key is
    taken once, when a binder brings it into scope."""

    def __init__(self, types=(), by_key: dict | None = None):
        super().__init__(types)
        if by_key is None:
            by_key = {}
            for name, ty in self.items():
                key = _scope_key(ty)
                if key is not None:
                    by_key[key] = (*by_key.get(key, ()), name)
        self.by_key = by_key

    def bind(self, name: str, ty: Type) -> _Scope:
        """This scope with ``name`` bound to ``ty``, as ``{**self, name: ty}``."""
        if name in self:  # a rebound name keeps its place: index afresh
            return _Scope({**self, name: ty})
        by_key = self.by_key
        key = _scope_key(ty)
        if key is not None:
            by_key = {**by_key, key: (*by_key.get(key, ()), name)}
        return _Scope({**self, name: ty}, by_key)

    def names_of(self, goal: Type) -> tuple[str, ...]:
        """``[x for x in self if type_equal(self[x], goal)]``, by one lookup."""
        key = _scope_key(goal)
        return () if key is None else self.by_key.get(key, ())


class _Gen:
    def __init__(self, rng: random.Random, spec: GenSpec):
        self.rng = rng
        self.config = spec.config
        self.bare = spec.config.rank1
        self._fresh = itertools.count()
        self.calls_left = _GEN_CALLS_PER_NODE * spec.max_size
        self.productions = _productions(spec.config)

    def fresh_var(self) -> str:
        return f"x{next(self._fresh)}"

    # -- types -------------------------------------------------------------

    def sample_type(self, size: int) -> Type:
        for _ in range(4):
            ty = self._raw_type(size)
            if not self.config.rank_limited or check_rank_limit(self.config, ty):
                return ty
            size = max(1, size // 2)
        return Base("Int")

    def _raw_type(self, size: int) -> Type:
        opts = [("base", 2.0)]
        if size >= 2:
            opts.append(("arrow", 1.0))
            if self.config.records:
                opts.append(("record", 2.0))
            if self.config.variants:
                opts.append(("variant", 2.0))
        kind = opts[self._pick(opts)][0]
        if kind == "base":
            return self.rng.choice(_LEAF_TYPES)
        if kind == "arrow":
            return Arrow(
                self._raw_type(size // 2), self._raw_type(max(1, size - size // 2 - 1))
            )
        k = self.rng.randint(1, min(3, max(1, size - 1)))
        chosen = sorted(self.rng.sample(_LABELS, k))
        share = max(1, (size - 1) // k)
        entries = tuple(
            (label, Present(), self._raw_type(share)) for label in chosen
        )
        row = Row(entries, None)
        return Record(row) if kind == "record" else Variant(row)

    # -- subtype widening for cast insertion -------------------------------

    def _widen(self, goal: Type, size: int) -> Type:
        rng = self.rng
        deep = self.config.subtyping in ("covariant", "full")
        if isinstance(goal, Record):
            entries = list(goal.row.entries)
            spare = [l for l in _LABELS if all(l != e[0] for e in entries)]
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
            spare = [l for l in _LABELS if all(l != e[0] for e in entries)]
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

    def _pick(self, options) -> int:
        """The index of one of ``options``, tuples whose second item is a
        weight, drawn with chance proportional to it."""
        roll = self.rng.random() * sum(o[1] for o in options)
        for i, o in enumerate(options):
            roll -= o[1]
            if roll <= 0:
                return i
        return len(options) - 1

    def term_for(self, goal: Type, size: int, gamma: dict[str, Type]) -> Term:
        self.calls_left -= 1
        if self.calls_left < 0:
            raise _Overrun(
                f"over {_GEN_CALLS_PER_NODE} term_for calls per unit of max_size"
            )
        if type(gamma) is not _Scope:
            gamma = _Scope(gamma)
        cands: list = [(name, 2.0) for name in gamma.names_of(goal)]
        for weight, least, fits, make in self.productions[type(goal)]:
            if size >= least and (fits is None or fits(goal)):
                cands.append((make, weight))
        while cands:
            make = cands.pop(self._pick(cands))[0]
            if type(make) is str:
                return Var(make)
            try:
                return make(self, goal, size, gamma)
            except GenError:
                continue
        raise _NoProduction(goal)

    # -- the productions (``_PRODUCTIONS``) --------------------------------

    def _lit(self, goal: Base, size: int, gamma: _Scope) -> Term:
        if goal.tag == "Int":
            return Lit(self.rng.randint(0, 99))
        return Lit(self.rng.choice(_WORDS))

    def _prim(self, goal: Base, size: int, gamma: _Scope) -> Term:
        op = "++" if goal.tag == "String" else self.rng.choice(("+", "-"))
        arg_ty = Base("String" if op == "++" else "Int")
        half = max(1, (size - 1) // 2)
        left = self.term_for(arg_ty, half, gamma)
        return Prim(op, (left, self.term_for(arg_ty, max(1, size - 1 - half), gamma)))

    def _lam(self, goal: Arrow, size: int, gamma: _Scope) -> Term:
        x = self.fresh_var()
        body = self.term_for(goal.cod, size - 1, gamma.bind(x, goal.dom))
        return Lam(x, None if self.bare else goal.dom, body)

    def _record(self, goal: Record, size: int, gamma: _Scope) -> Term:
        present = [e for e in goal.row.entries if isinstance(e[1], Present)]
        share = max(1, (size - 1) // max(1, len(present)))
        fields = tuple((l, self.term_for(a, share, gamma)) for l, _, a in present)
        annot = goal if (not self.bare and self.config.pres_poly != "none") else None
        return RecordLit(fields, annot)

    def _inject(self, goal: Variant, size: int, gamma: _Scope) -> Term:
        present = [e for e in goal.row.entries if isinstance(e[1], Present)]
        label, _, a = self.rng.choice(present)
        payload = self.term_for(a, max(1, size - 1), gamma)
        return Inject(label, payload, None if self.bare else goal)

    def _app(self, goal: Type, size: int, gamma: _Scope) -> Term:
        cfg, dom = self.config, self.sample_type(max(1, min(3, size // 3)))
        if cfg.rank_limited and not check_rank_limit(cfg, Arrow(dom, goal)):
            dom = Base("Int")
        half = max(1, (size - 1) // 2)
        fn = self.term_for(Arrow(dom, goal), half, gamma)
        return App(fn, self.term_for(dom, max(1, size - 1 - half), gamma))

    def _let(self, goal: Type, size: int, gamma: _Scope) -> Term:
        x = self.fresh_var()
        bound_ty = self.sample_type(max(1, min(3, size // 3)))
        half = max(1, (size - 1) // 2)
        bound = self.term_for(bound_ty, half, gamma)
        body = self.term_for(goal, max(1, size - 1 - half), gamma.bind(x, bound_ty))
        return Let(x, bound, body)

    def _project(self, goal: Type, size: int, gamma: _Scope) -> Term:
        rng = self.rng
        label = rng.choice(_LABELS)
        entries = [(label, Present(), goal)]
        for extra in rng.sample([l for l in _LABELS if l != label], rng.randint(0, 2)):
            entries.append((extra, Present(), self.sample_type(2)))
        rec_ty = Record(Row(tuple(sorted(entries, key=lambda e: e[0])), None))
        if self.config.rank_limited and not check_rank_limit(self.config, rec_ty):
            raise GenError("projection source beyond the rank limit")
        return Project(self.term_for(rec_ty, max(1, size - 1), gamma), label)

    def _case(self, goal: Type, size: int, gamma: _Scope) -> Term:
        k = self.rng.randint(1, 2)
        chosen = sorted(self.rng.sample(_LABELS, k))
        payloads = {l: self.sample_type(2) for l in chosen}
        scr_ty = Variant(Row(tuple((l, Present(), payloads[l]) for l in chosen), None))
        half = max(1, (size - 1) // 2)
        scrutinee = self.term_for(scr_ty, half, gamma)
        share = max(1, (size - 1 - half) // k)
        branches = []
        for label in chosen:
            binder = self.fresh_var()
            body = self.term_for(goal, share, gamma.bind(binder, payloads[label]))
            branches.append((label, binder, body))
        return Case(scrutinee, tuple(branches))

    def _upcast(self, goal: Type, size: int, gamma: _Scope) -> Term:
        sub_ty = self._widen(goal, max(1, min(4, size // 2)))
        if self.config.rank_limited and not check_rank_limit(self.config, sub_ty):
            raise GenError("widened type beyond the rank limit")
        if subtype(self.config.subtyping, sub_ty, goal) is None:
            raise GenError("widening produced no evidence")
        return Upcast(self.term_for(sub_ty, max(1, size - 1), gamma), goal)


def _has_present(goal: Variant) -> bool:
    return any(isinstance(p, Present) for _, p, _ in goal.row.entries)


def _casts(config: CalculusConfig) -> bool:
    return not config.rank1 and config.subtyping != "none"


# The term productions, offered in this order after the goal's variables
# (weight 2): the goal form built (None: any), weight, least size, the test
# on the configuration that enables it, a test on the goal, and the method.
_PRODUCTIONS = (
    (Base, 2.0, 1, lambda c: True, None, _Gen._lit),
    (Base, 1.0, 3, lambda c: True, None, _Gen._prim),
    (Arrow, 3.0, 2, lambda c: True, None, _Gen._lam),
    (Record, 3.0, 1, lambda c: c.records, None, _Gen._record),
    (Variant, 3.0, 1, lambda c: c.variants, _has_present, _Gen._inject),
    (None, 1.2, 3, lambda c: True, None, _Gen._app),
    (None, 0.8, 3, lambda c: c.allows_let, None, _Gen._let),
    (None, 1.2, 3, lambda c: c.records, None, _Gen._project),
    (None, 1.5, 4, lambda c: c.variants, None, _Gen._case),
    (Record, 3.0, 2, lambda c: _casts(c) and c.records, None, _Gen._upcast),
    (Variant, 3.0, 2, lambda c: _casts(c) and c.variants, _has_present, _Gen._upcast),
    (Arrow, 3.0, 2, lambda c: _casts(c) and c.subtyping == "full", None, _Gen._upcast),
)


@functools.cache
def _productions(config: CalculusConfig) -> dict[type, list]:
    """For each goal form, the (weight, least size, goal test, method) of
    every production ``config`` enables, in offer order."""
    return {
        form: [
            (weight, least, fits, make)
            for forms, weight, least, enabled, fits, make in _PRODUCTIONS
            if forms in (None, form) and enabled(config)
        ]
        for form in get_args(Type)
    }


def gen_typed_term(spec: GenSpec, index: int = 0):
    """A well-typed term for the spec, with its derivation.

    Rank-1 configurations are bare: the term carries no annotations and the
    derivation slot is None (principality is checked through inference
    instead).  Deterministic in (spec, index).

    Up to ten attempts, each with its own seed: an attempt that finds no
    term, or makes more than ``_GEN_CALLS_PER_NODE * spec.max_size`` calls
    to ``term_for``, or whose term does not check, gives way to the next.
    After ten, GenError ("generation budget exhausted").
    """

    def attempt(gen: _Gen):
        goal = gen.sample_type(max(1, spec.max_size // 2))
        gamma = ambient_gamma()
        term = gen.term_for(goal, spec.max_size, gamma)
        if spec.config.rank1:
            infer(spec.config, ambient_delta(), gamma, term)
            return term, None
        return term, type_check(spec.config, ambient_delta(), gamma, term)

    return _attempts(spec, spec.seed * 1_000_003 + index, attempt)


def gen_subst_pair(spec: GenSpec, index: int = 0):
    """(deriv_m, deriv_n, var) where var is free in m's context at n's type.

    Rank-1 configurations generate bare terms, which have no derivation, so
    they are refused.  Attempts are retried as in ``gen_typed_term``; one
    attempt makes both terms, under one bound on its ``term_for`` calls."""
    if spec.config.rank1:
        raise GenError(
            f"no substitution pairs in {spec.config.name}: its terms are bare"
        )
    hole = "z0"

    def attempt(gen: _Gen):
        hole_ty = gen.sample_type(3)
        goal = gen.sample_type(max(1, spec.max_size // 2))
        gamma_m = {**ambient_gamma(), hole: hole_ty}
        m = gen.term_for(goal, spec.max_size, gamma_m)
        n = gen.term_for(hole_ty, max(2, spec.max_size // 2), ambient_gamma())
        dm = type_check(spec.config, ambient_delta(), gamma_m, m)
        dn = type_check(spec.config, ambient_delta(), ambient_gamma(), n)
        return dm, dn, hole

    return _attempts(spec, spec.seed * 1_000_003 + index + 31, attempt)


def _attempts(spec: GenSpec, seed: int, attempt: Callable[[_Gen], object]):
    """``attempt(gen)`` with a generator seeded ``seed + 7_919 * k`` for k =
    0, 1, ... until one finds a term that checks; after ten, GenError."""
    last: Exception | None = None
    for k in range(10):
        try:
            return attempt(_Gen(random.Random(seed + 7_919 * k), spec))
        except (GenError, _Overrun, StaticError, InferError) as e:
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

    def tally(self, case_id: str, term: Term, ok: bool, expected: Text, got: Text):
        """Count one case; ``expected`` and ``got`` are its text, or functions
        that render it, called only when the case fails."""
        self.cases += 1
        if not ok:
            texts = (x() if callable(x) else x for x in (expected, got))
            self.failures.append((case_id, show_term(term), *texts))

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


# Silent bounds on the searches below: one that reaches its bound answers
# with what it has found so far, as if it were complete.
_CLOSURE_NODES = 300  # terms _closure collects
_CAST_FUEL = 400  # cast contractions _cast_normal makes
_REACH_MEMO = 6000  # (state, goal) pairs _Reach settles
# The generator's bound is not silent: an attempt that makes more than this
# many term_for calls per unit of max_size ends (_Overrun) and is retried
# with the next attempt seed.  At 100, the benchmark's verify-sweep at seed
# 0 had its p99.8 input time at 41-48 ms, against about 30 ms at 64, and
# one input ran out of its work budget.  At 64, abandoned attempts made 59%
# of verify-sweep's term_for calls, while a kept size-12 attempt made 11 at
# the median and 202 at p99.  Benchmark wall_s medians at seed 0, five
# alternating runs each (two at 64), 2-vCPU machine, and how many inputs'
# kept attempt at 64 the bound would cut:
#
#   per node   verify-sweep   verify-search   attempts cut (sweep, search)
#   64         12.0 s         13.9 s          -
#   32         10.2 s         12.9 s          13, 246
#   24          9.8 s         12.5 s          27, 276
#   16          9.5 s         11.9 s          64, 322
#
# 16 gains little more than the runs' spread on verify-sweep and, below the
# kept attempts' p99, cuts twice as many attempts that would have succeeded.
_GEN_CALLS_PER_NODE = 24


def _step_class(tag: str) -> str:
    return tag.split("-", 1)[0]


def _class_steps(term: Term, rels: RelationSet, cls: str, keys: _Keys) -> list[Term]:
    return [s.term for s in keys.steps(term, rels) if _step_class(s.tag) == cls]


def _closure(
    term: Term, rels: RelationSet, classes: set[str], keys: _Keys
) -> list[Term]:
    """Terms reachable through steps from the given classes, incl. the start."""
    seen = {keys(term)}
    out = [term]
    queue = [term]
    while queue and len(out) < _CLOSURE_NODES:
        u = queue.pop()
        for s in keys.steps(u, rels):
            if _step_class(s.tag) not in classes:
                continue
            key = keys(s.term)
            if key in seen:
                continue
            seen.add(key)
            out.append(s.term)
            queue.append(s.term)
    return out


def _pattern_steps(
    pattern: str, term: Term, rels: RelationSet, keys: _Keys
) -> list[Term]:
    """The ends of the runs from ``term`` that the pattern spells, in order."""
    ends = [term]
    for token in pattern.split():
        cls = token.rstrip("?*")
        if token.endswith("*"):
            ends = [v for u in ends for v in _closure(u, rels, {cls}, keys)]
        else:
            stepped = [v for u in ends for v in _class_steps(u, rels, cls, keys)]
            ends = ends + stepped if token.endswith("?") else stepped
    return ends


def _simulates(
    pattern: str, tm: Term, tn: Term, rels: RelationSet, keys: _Keys
) -> bool:
    """Whether ``tm`` reaches ``tn`` by a run the pattern spells: ``c*`` and
    ``c* beta`` by the search, a finite pattern by listing its ends."""
    first, *rest = pattern.split()
    if not first.endswith("*"):
        return any(alpha_eq(u, tn) for u in _pattern_steps(pattern, tm, rels, keys))
    if rest not in ([], ["beta"]):
        raise ValueError(f"no search for the pattern {pattern!r}")
    return _Reach(rels, {first[:-1]}, keys).go(tm, tn, need_beta=bool(rest))


def _cast_normal(term: Term, rels: RelationSet, keys: _Keys) -> Term:
    """Contract cast redexes until none remain.  Cast rules only collapse,
    narrow, or push casts inward, so this terminates and (the system being
    orthogonal) the result does not depend on the contraction order."""
    for _ in range(_CAST_FUEL):
        for s in keys.steps(term, rels):
            if _step_class(s.tag) in ("upcast", "nested"):
                term = s.term
                break
        else:
            return term
    return term


class _Keys:
    """One stepping check's memo.  Calling it gives a term's structural key:
    an int interned from a node's form, its fields, its binder names and its
    children's keys, computed once per object.  Two terms get the same key
    exactly when they are equal (a literal's type included), however their
    nodes are shared, and keying a term costs what its distinct subterms
    cost, not its tree unfolding.

    The table also makes every call the check makes into the stepper and
    the translator, once per distinct question: ``steps`` keys ``step_all``
    by (term key, relation set, spine mode), ``reducts`` re-typechecks a
    reduct once per (term key, context objects, configuration), so a term
    that two runs reach gets one derivation object, and ``image`` keys
    ``run_translation`` by (translation, derivation object).  Objects keyed
    by ``id`` are held, so their ids cannot be recycled.  Each check makes
    one table for all its searches and seen sets, and drops it when it
    returns."""

    def __init__(self):
        self._keys: dict[int, tuple[Term, int]] = {}  # id -> (term, key)
        self._interned: dict[tuple, int] = {}
        self._steps: dict[tuple, list[Step]] = {}
        self._typed: dict[tuple, tuple[Derivation, Derivation | StaticError]] = {}
        self._images: dict[tuple, tuple[Derivation, Term]] = {}

    def __call__(self, t: Term) -> int:
        # hold the term itself so ids cannot be recycled under us
        hit = self._keys.get(id(t))
        if hit is not None:
            return hit[1]
        shape = SHAPES[type(t)]
        parts: list = [type(t)]
        # the value's type too: Lit(True) == Lit(1) as Python values
        parts += [(type(v), v) for v in (getattr(t, f) for f in shape.data)]
        parts += [getattr(t, f) for f in shape.types]
        if type(t) is Var or shape.tybinder:
            parts.append(t.name if type(t) is Var else t.var)
        for slot, child, binder in shape.children(t):
            parts += (slot, binder, self(child))
        key = self._interned.setdefault(tuple(parts), len(self._interned))
        self._keys[id(t)] = (t, key)
        return key

    def steps(self, t: Term, rels: RelationSet, spine: bool = False) -> list[Step]:
        """What ``step_all`` lists for ``t``; the list is shared, so it is
        not to be changed."""
        key = (self(t), rels, spine)
        hit = self._steps.get(key)
        if hit is None:
            hit = self._steps[key] = step_all(t, rels, spine=spine)
        return hit

    def image(self, tid: str, d: Derivation) -> Term:
        """``d``'s translation by ``tid``, as ``run_translation`` gives it."""
        hit = self._images.get((tid, id(d)))
        if hit is None:
            hit = self._images[tid, id(d)] = (d, run_translation(tid, d))
        return hit[1]

    def reducts(
        self, cfg: CalculusConfig, d: Derivation, rels: RelationSet
    ) -> list[tuple[Step, Derivation | StaticError]]:
        """Each step of ``d``'s term with its reduct's derivation, or the
        error that re-typechecking the reduct raised."""
        out: list[tuple[Step, Derivation | StaticError]] = []
        for s in self.steps(d.term, rels):
            key = (self(s.term), id(d.delta), id(d.gamma), cfg)
            hit = self._typed.get(key)
            if hit is None:
                try:
                    nd = type_check(cfg, d.delta, d.gamma, s.term)
                except StaticError as e:
                    nd = e
                hit = self._typed[key] = (d, nd)  # d holds the contexts
            out.append((s, hit[1]))
        return out


class _Reach:
    """Goal-directed reachability in an orthogonal rewriting system.

    Searching all interleavings of independent redexes blows up (translated
    cast stacks duplicate subterms), so instead we contract redexes at the
    root or on its head spine (``step_all``'s spine mode, which never walks
    the rest of the term) and otherwise descend congruently through
    ``match_node``, as ``alpha_eq`` does: a state and its goal are compared
    under the binder pairs of the nodes above them (independently produced
    translations pick different fresh names), so nothing is renamed.  The
    memo keys (state, goal) pairs by structure (``_Keys``) with their
    environments, so that the search costs what the distinct subterms cost.
    need_beta threads the 'exactly one beta somewhere' obligation through
    the descent.  ``keys`` is the table of the check that searches."""

    def __init__(self, rels: RelationSet, classes: set[str], keys: _Keys):
        self.rels = rels
        self.classes = classes
        self.memo: dict = {}
        self._key = keys

    def go(
        self, x: Term, g: Term, need_beta: bool = False, env: Names = NO_NAMES,
        tyenv: tuple = ((), ()),
    ) -> bool:
        key = (self._key(x), self._key(g), need_beta, env, tyenv)
        if key in self.memo:
            return self.memo[key]
        if len(self.memo) > _REACH_MEMO:
            return False
        self.memo[key] = False
        if alpha_eq(x, g, env, tyenv):
            # no rewrite cycle can return here, so this is definitive
            out = not need_beta
            self.memo[key] = out
            return out
        out = False
        # contract the root, or a head-spine position that can expose it
        for s in self._key.steps(x, self.rels, spine=True):
            cls = _step_class(s.tag)
            if cls in self.classes and self.go(s.term, g, need_beta, env, tyenv):
                out = True
                break
            if need_beta and cls == "beta" and self.go(s.term, g, False, env, tyenv):
                out = True
                break
        if not out:
            pairs = match_node(x, g, env, tyenv)
            if pairs is not None:
                out = self._descend(pairs, need_beta)
        self.memo[key] = out
        return out

    def _descend(self, pairs, need_beta: bool) -> bool:
        if not need_beta:
            return all(self.go(a, b, False, e, t) for a, b, e, t in pairs)
        for j in range(len(pairs)):
            if all(
                self.go(a, b, i == j, e, t) for i, (a, b, e, t) in enumerate(pairs)
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# The one walk and the one-case checks


def _explore(root, depth: int, expand, keys: _Keys, terms=lambda d: (d.term,)) -> None:
    """Expand ``root`` and, depth first, each node that ``expand(node,
    level)`` yields, as soon as it yields it, down to ``depth`` levels; a
    node whose terms (``terms(node)``, a tuple) were seen together before is
    not expanded again.  Terms are told apart by structure (``keys``)."""
    seen = set()

    def visit(node, level: int):
        k = tuple(map(keys, terms(node)))
        if k in seen:
            return
        seen.add(k)
        for child in expand(node, level):
            if level + 1 < depth:
                visit(child, level + 1)

    visit(root, 0)


def _reducts(
    rep: PropertyReport, keys: _Keys, cfg: CalculusConfig, d: Derivation, rels, cid
):
    """(step, derivation) for each reduct of ``d`` that re-typechecks; one
    that does not is a failed case, tallied on each walk over it."""
    for s, nd in keys.reducts(cfg, d, rels):
        if isinstance(nd, StaticError):
            got = f"{type(nd).__name__}: {nd}"
            rep.tally(cid, d.term, False, "reduct re-typechecks", got)
            continue
        yield s, nd


def _single(prop: str, case_id: str, term: Term, errors, expected: str, check):
    """A report of one case: ``check()`` gives (ok, expected, got), and an
    exception from ``errors`` that it raises fails the case."""
    rep = PropertyReport(prop)
    try:
        rep.tally(case_id, term, *check())
    except errors as e:
        rep.tally(case_id, term, False, expected, f"{type(e).__name__}: {e}")
    return rep


# ---------------------------------------------------------------------------
# Type preservation


def check_type_preservation(tid: str, deriv: Derivation, case_id: str = ""):
    t = TRANSLATIONS[tid]
    if t.type_map is None:
        return check_weak_preservation(deriv, case_id)
    tgt_cfg = preset(t.pairs[0][1])

    def check():
        out = run_translation(tid, deriv)
        tgamma = {x: t.type_map(a) for x, a in deriv.gamma.items()}
        od = type_check(tgt_cfg, dict(deriv.delta), tgamma, out)
        want = t.type_map(deriv.type)
        return (
            type_equal(od.type, want),
            lambda: show_type(want), lambda: show_type(od.type),
        )

    return _single(
        f"type-preservation[{tid}]", case_id, deriv.term,
        (StaticError, TranslationError), "output typechecks at the mapped type", check,
    )


def check_weak_preservation(deriv: Derivation, case_id: str = ""):
    """Erasing casts from a rank-2 record derivation keeps an inferable type
    weakly below the translated bound: the typing story of the translation
    that has no type map, on its first pair."""
    t = next(t for t in TRANSLATIONS.values() if t.type_map is None)
    src_cfg, tgt_cfg = map(preset, t.pairs[0])

    def check():
        stripped = strip(deriv.term, (Upcast,))
        d2 = type_check(
            src_cfg.with_app_sub(), dict(deriv.delta), dict(deriv.gamma), stripped
        )
        if subtype("full", d2.type, deriv.type) is None:
            return (
                False,
                "cast-free type below the original",
                f"{show_type(d2.type)} vs {show_type(deriv.type)}",
            )
        bare = erase(deriv.term)
        sigma = infer(tgt_cfg, dict(deriv.delta), dict(deriv.gamma), bare)
        bound = trans_a(d2.type)
        return (
            weak_sub_instance(sigma, bound),
            lambda: show_scheme(bound), lambda: show_scheme(sigma),
        )

    return _single(
        f"type-preservation[{t.tid}]", case_id, deriv.term,
        (StaticError, TranslationError, InferError),
        "inferred scheme weakly below the translated bound", check,
    )


# ---------------------------------------------------------------------------
# Operational correspondence


def check_simulation(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every source step maps onto the target run its theorem states."""
    rep = PropertyReport(f"simulation[{tid}]")
    t = TRANSLATIONS[tid]
    src_cfg, tgt_cfg = map(preset, t.pairs[0])
    src_rels, tgt_rels = relations_for(src_cfg), relations_for(tgt_cfg)
    keys = _Keys()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        tm = keys.image(tid, d)
        for s, nd in _reducts(rep, keys, src_cfg, d, src_rels, cid):
            pattern = t.simulation.get(_step_class(s.tag))
            if pattern is not None:
                ok = _simulates(pattern, tm, keys.image(tid, nd), tgt_rels, keys)
                rep.tally(
                    cid, d.term, ok,
                    f"target steps {pattern} reaching the translated reduct",
                    f"no match for {s.tag}",
                )
            yield nd

    _explore(deriv, depth, expand, keys)
    return rep


def check_reflection(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every target run its theorem lists reflects a source step."""
    rep = PropertyReport(f"reflection[{tid}]")
    t = TRANSLATIONS[tid]
    src_cfg, tgt_cfg = map(preset, t.pairs[0])
    src_rels, tgt_rels = relations_for(src_cfg), relations_for(tgt_cfg)
    keys = _Keys()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        tm = keys.image(tid, d)
        sources = [
            (_step_class(s.tag), nd, keys.image(tid, nd))
            for s, nd in _reducts(rep, keys, src_cfg, d, src_rels, cid)
        ]
        reach_by = {c: _Reach(tgt_rels, {c}, keys) for c in ("beta", "nu", "tau")}
        # translated source reducts two or more steps away, breadth first,
        # and the queue of source reducts not yet stepped
        deeper: list[Term] = []
        queue = collections.deque(nd for _, nd, _ in sources)
        known = {keys(nd.term) for nd in queue}

        def deeper_images() -> Iterator[Term]:
            # when a cast expansion lets the target contract an outer redex
            # first, the matching source run takes the cast step and then the
            # outer step: search the source reducts level by level, going one
            # reduct further only when every image so far has failed.  The
            # source calculi have no recursion, so the queue runs dry.
            i = 0
            while True:
                while i < len(deeper):
                    yield deeper[i]
                    i += 1
                if not queue:
                    return
                fd = queue.popleft()
                for s, fnd in keys.reducts(src_cfg, fd, src_rels):
                    k = keys(s.term)
                    if k in known:
                        continue
                    known.add(k)
                    if isinstance(fnd, StaticError):
                        continue
                    queue.append(fnd)
                    deeper.append(keys.image(tid, fnd))

        obligations = [
            (i, u)
            for i, (run, _, _) in enumerate(t.reflection)
            for u in _pattern_steps(run, tm, tgt_rels, keys)
        ]
        done: set[tuple[int, int]] = set()
        for i, u in obligations:
            key_u = (i, keys(u))
            if key_u in done:
                continue
            done.add(key_u)
            run, allowed, mode = t.reflection[i]
            if mode == "exact":
                ok = any(cls in allowed and alpha_eq(tk, u) for cls, _, tk in sources)
            elif mode == "tau":
                ok = any(
                    cls in allowed and reach_by["tau"].go(tk, u)
                    for cls, _, tk in sources
                )
            elif mode == "fwd":
                reach = reach_by[run.rstrip("?*")]
                ok = any(
                    cls in allowed and reach.go(u, tk) for cls, _, tk in sources
                ) or any(reach.go(u, tk) for tk in deeper_images())
            else:
                raise ValueError(f"unknown match mode {mode!r}")
            rep.tally(
                cid, d.term, ok, f"a source step matching the target run {run}",
                "no source step matches",
            )
        for _, nd, _ in sources:
            yield nd

    _explore(deriv, depth, expand, keys)
    return rep


# ---------------------------------------------------------------------------
# Erasure laws and the untyped preorder


def check_erasure(tid: str, deriv: Derivation, case_id: str = ""):
    def check():
        lhs = erase(run_translation(tid, deriv))
        rhs = erase(deriv.term)
        return alpha_eq(lhs, rhs), lambda: show_term(rhs), lambda: show_term(lhs)

    return _single(
        f"erasure[{tid}]", case_id, deriv.term, (StaticError, TranslationError),
        "erasures agree", check,
    )


def check_preorder_correspondence(
    deriv: Derivation, depth: int = 2, case_id: str = ""
):
    """Cast-rule evaluation and erased evaluation track each other through
    the record-width preorder: u ⊑ |M| (``term_preorder``) when the untyped
    u is the erasure |M| of M, except that u's record literals may carry
    fields that a cast in M has dropped.

    The paper runs full subtyping by erasure and relates the two semantics
    by this preorder, in both directions (its operational correspondence
    for the erasure of upcasts).  For M in var-rec-sub-full and u ⊑ |M|:
    - simulation: a cast step M -> M' keeps u ⊑ |M'|, and a beta step
      M -> M' has an untyped beta step u -> u' with u' ⊑ |M'|;
    - reflection: u -> u' implies M ->* M' with u' ⊑ |M'|.  M' is sought
      among the beta reducts of the cast-normal form v of M, then v itself:
      u's step may lie inside a field that a cast of M drops."""
    rep = PropertyReport("preorder-correspondence")
    cfg = preset("var-rec-sub-full")
    rels = relations_for(cfg, full_upcast=True)
    keys = _Keys()

    def expand(node, level: int):
        d, u = node
        cid = f"{case_id}@{level}"
        if not term_preorder(u, erase(d.term)):
            rep.tally(
                cid, d.term, False, "untyped side stays below the erasure",
                show_term(u),
            )
            return
        # simulation direction
        for s, nd in _reducts(rep, keys, cfg, d, rels, cid):
            if _step_class(s.tag) == "beta":
                matches = [
                    n2
                    for n2 in _class_steps(u, _UNTYPED, "beta", keys)
                    if term_preorder(n2, erase(nd.term))
                ]
                rep.tally(
                    cid, d.term, bool(matches),
                    "an untyped beta step below the reduct's erasure",
                    f"none of the untyped steps track {s.tag}",
                )
                if matches:
                    yield nd, matches[0]
            else:
                ok = term_preorder(u, erase(nd.term))
                rep.tally(
                    cid, d.term, ok,
                    "cast steps leave the untyped side below the erasure",
                    f"preorder broken after {s.tag}",
                )
                if ok:
                    yield nd, u
        # reflection direction: contracting every cast can only narrow the
        # erasure further and never destroys a beta redex, so the cast-normal
        # form is the one candidate worth checking.
        v = _cast_normal(d.term, rels, keys)
        for n_prime in _class_steps(u, _UNTYPED, "beta", keys):
            found = any(
                term_preorder(n_prime, erase(w))
                for w in _class_steps(v, rels, "beta", keys)
            ) or term_preorder(n_prime, erase(v))
            rep.tally(
                cid, d.term, found,
                "cast steps and at most one beta step covering the untyped reduct",
                "no typed counterpart found",
            )

    _explore(
        (deriv, erase(deriv.term)), depth, expand, keys,
        lambda node: (node[0].term, node[1]),
    )
    return rep


# ---------------------------------------------------------------------------
# Substitution and subject reduction


def check_subst_lemma(
    tid: str, deriv_m: Derivation, deriv_n: Derivation, var: str, case_id: str = ""
):
    """Translating after substitution agrees with substituting translations."""
    src_cfg = preset(TRANSLATIONS[tid].pairs[0][0])

    def check():
        tm = run_translation(tid, deriv_m)
        tn = run_translation(tid, deriv_n)
        combined = subst_term(deriv_m.term, deriv_n.term, var)
        gamma = {k: v for k, v in deriv_m.gamma.items() if k != var}
        dc = type_check(src_cfg, dict(deriv_m.delta), gamma, combined)
        lhs = run_translation(tid, dc)
        rhs = subst_term(tm, tn, var)
        return alpha_eq(lhs, rhs), lambda: show_term(rhs), lambda: show_term(lhs)

    return _single(
        f"substitution[{tid}]", case_id, deriv_m.term,
        (StaticError, TranslationError), "translation commutes with substitution",
        check,
    )


def check_subject_reduction(
    config: CalculusConfig, subject, depth: int = 3, case_id: str = ""
):
    """Stepping preserves the type (or keeps the principal scheme as general)."""
    rep = PropertyReport(f"subject-reduction[{config.name}]")
    rels = relations_for(config)
    keys = _Keys()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        for _, nd in _reducts(rep, keys, config, d, rels, cid):
            rep.tally(
                cid, d.term, type_equal(nd.type, d.type),
                lambda: show_type(d.type), lambda: show_type(nd.type),
            )
            yield nd

    def expand_bare(node, level: int):
        term, scheme = node
        cid = f"{case_id}@{level}"
        for s in keys.steps(term, rels):
            try:
                ns = infer(config, ambient_delta(), ambient_gamma(), s.term)
            except InferError as e:
                rep.tally(
                    cid, term, False, "reduct still infers", f"{type(e).__name__}: {e}"
                )
                continue
            rep.tally(
                cid, term, scheme_instance(ns, scheme),
                lambda: show_scheme(scheme), lambda: show_scheme(ns),
            )
            yield s.term, ns

    if config.rank1:
        term = subject.term if isinstance(subject, Derivation) else subject
        root = (term, infer(config, ambient_delta(), ambient_gamma(), term))
        _explore(root, depth, expand_bare, keys, lambda node: node[:1])
    else:
        _explore(subject, depth, expand, keys)
    return rep


# ---------------------------------------------------------------------------
# Batch driver


# every property run_property checks: the ones a theorem covers for some
# translation, then the two checked on a calculus
BY_TRANSLATION = tuple(
    dict.fromkeys(p for t in TRANSLATIONS.values() for p in t.properties)
)
PROPERTIES = BY_TRANSLATION + ("subject-reduction", "preorder-correspondence")


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
        raise UsageError(f"count must be at least 1, got {count}")
    if depth < 1:
        raise UsageError(f"depth must be at least 1, got {depth}")
    start = time.perf_counter()
    if prop in BY_TRANSLATION:
        if translation is None:
            raise UsageError(f"property {prop} needs a translation id")
        t = TRANSLATIONS.get(translation)
        if t is None or prop not in t.properties:
            covered = [tid for tid, u in TRANSLATIONS.items() if prop in u.properties]
            raise UsageError(
                f"no theorem covers {prop} on {translation}; "
                f"it is checked on {', '.join(covered)}"
            )
        spec = GenSpec(preset(t.pairs[0][0]), max_size=max_size, seed=seed)
        stepped = {"simulation": check_simulation, "reflection": check_reflection}
        single = {"type-preservation": check_type_preservation, "erasure": check_erasure}

        def one(i: int, cid: str) -> PropertyReport:
            if prop == "substitution":
                return check_subst_lemma(translation, *gen_subst_pair(spec, i), cid)
            _, deriv = gen_typed_term(spec, i)
            if prop in stepped:
                return stepped[prop](translation, deriv, depth, cid)
            return single[prop](translation, deriv, cid)

    elif prop == "subject-reduction":
        if config is None:
            raise UsageError("subject-reduction needs a calculus id")
        cfg = preset(config)
        spec = GenSpec(cfg, max_size=max_size, seed=seed)

        def one(i: int, cid: str) -> PropertyReport:
            term, deriv = gen_typed_term(spec, i)
            subject = deriv if deriv is not None else term
            return check_subject_reduction(cfg, subject, depth, cid)

    elif prop == "preorder-correspondence":
        spec = GenSpec(preset("var-rec-sub-full"), max_size=max_size, seed=seed)

        def one(i: int, cid: str) -> PropertyReport:
            _, deriv = gen_typed_term(spec, i)
            return check_preorder_correspondence(deriv, depth, cid)

    else:
        raise UsageError(f"unknown property {prop}")
    merged = functools.reduce(
        PropertyReport.merge, (one(i, f"seed={seed} index={i}") for i in range(count))
    )
    merged.elapsed = time.perf_counter() - start
    return merged
