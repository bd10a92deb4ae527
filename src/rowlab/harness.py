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
returns a PropertyReport; reports merge associatively to split and join runs.
``run_property`` runs the checks from ``ROW_CHECKS`` and ``CALCULUS_CHECKS``.

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

Each stepping check makes one ``_Memo`` table, its memo for as long as it
runs and freed, by reference counting, when it returns (``_Memo`` says
how).  Terms are their own keys, never their printed text: the seen sets
of ``_explore`` and ``_closure`` and the ``_Reach`` memo hold the terms
themselves and compare them by ``==``, which a node keeps its hash for.
The table makes every call the check makes into the stepper (``step_all``,
keyed by term, relation set and spine mode), the checker (a reduct, keyed
by term and context objects) and the translator (``run_translation``,
keyed by derivation), so a term reached twice, say as a reduct's image and
again as the next level's root, is stepped, re-typechecked and translated
once.  It holds one memo of settled search questions per (relation set,
step classes), which every ``_Reach`` search of the check reads and adds
to, so no search settles a question an earlier one settled.  Report text
is rendered only for a failed case (``PropertyReport.tally``).  The search
compares a state with its goal as ``alpha_eq`` does, under the binder
pairs of the nodes above them (``syntax.match_node``), so it renames
neither.

No search, closure or cast normalisation has a bound of its own: each runs
to its fixpoint, so a fail is a counterexample.  Each stops, as the calculi
have no recursion and reduction, cast steps included, is strongly
normalising and finitely branching: every reduct graph, closure and search
memo is finite.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, get_args

from .config import PRESETS, CalculusConfig, UsageError, preset
from .dynamics import RelationSet, Step, erase, relations_for, step_all, term_preorder
from .infer import InferError, infer, scheme_instance, weak_sub_instance
from .pretty import show_scheme, show_term, show_type
from .statics import (
    Derivation,
    StaticError,
    check_part,
    check_rank_limit,
    subtype,
    type_check,
)
from .syntax import (
    NO_NAMES,
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
    taken once, when a binder brings it into scope.  A goal of no form in
    scope (``forms``, the keys' first items) is not keyed at all."""

    def __init__(self, types=(), by_key: dict | None = None, forms: frozenset = frozenset()):
        super().__init__(types)
        if by_key is None:
            by_key = {}
            for name, ty in self.items():
                key = _scope_key(ty)
                if key is not None:
                    by_key[key] = (*by_key.get(key, ()), name)
            forms = frozenset(key[0] for key in by_key)
        self.by_key = by_key
        self.forms = forms

    def bind(self, name: str, ty: Type) -> _Scope:
        """This scope with ``name`` bound to ``ty``, as ``{**self, name: ty}``."""
        if name in self:  # a rebound name keeps its place: index afresh
            return _Scope({**self, name: ty})
        by_key, forms = self.by_key, self.forms
        key = _scope_key(ty)
        if key is not None:
            by_key = {**by_key, key: (*by_key.get(key, ()), name)}
            forms = forms | {key[0]}
        return _Scope({**self, name: ty}, by_key, forms)

    def names_of(self, goal: Type) -> tuple[str, ...]:
        """``[x for x in self if type_equal(self[x], goal)]``, by one lookup."""
        key = _scope_key(goal) if type(goal) in self.forms else None
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
        if isinstance(goal, Record):
            entries = list(goal.row.entries)
            spare = [l for l in _LABELS if all(l != e[0] for e in entries)]
            rng.shuffle(spare)
            for label in spare[: rng.randint(1, 2) if spare else 0]:
                entries.append((label, Present(), self.sample_type(2)))
            if self.config.structural_subtyping and entries and rng.random() < 0.4:
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
            if self.config.structural_subtyping and rng.random() < 0.4:
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


def _frameless(e: Exception) -> Exception:
    """``e`` without its traceback and the error it was raised handling, so
    that keeping it keeps no frame alive: a frame that holds ``e`` itself
    would make a cycle that only the garbage collector frees."""
    e.__context__ = None
    return e.with_traceback(None)


def _attempts(spec: GenSpec, seed: int, attempt: Callable[[_Gen], object]):
    """``attempt(gen)`` with a generator seeded ``seed + 7_919 * k`` for k =
    0, 1, ... until one finds a term that checks; after ten, GenError."""
    last: Exception | None = None
    for k in range(10):
        try:
            return attempt(_Gen(random.Random(seed + 7_919 * k), spec))
        except (GenError, _Overrun, StaticError, InferError) as e:
            last = _frameless(e)
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


def _class_steps(term: Term, rels: RelationSet, cls: str, memo: _Memo) -> list[Term]:
    return [s.term for s in memo.steps(term, rels) if _step_class(s.tag) == cls]


def _closure(
    term: Term, rels: RelationSet, classes: set[str], memo: _Memo
) -> list[Term]:
    """Terms reachable through steps from the given classes, incl. the start."""
    seen = {term}
    out = [term]
    queue = [term]
    while queue:
        u = queue.pop()
        for s in memo.steps(u, rels):
            if _step_class(s.tag) not in classes or s.term in seen:
                continue
            seen.add(s.term)
            out.append(s.term)
            queue.append(s.term)
    return out


def _pattern_steps(
    pattern: str, term: Term, rels: RelationSet, memo: _Memo
) -> list[Term]:
    """The ends of the runs from ``term`` that the pattern spells, in order."""
    ends = [term]
    for token in pattern.split():
        cls = token.rstrip("?*")
        if token.endswith("*"):
            ends = [v for u in ends for v in _closure(u, rels, {cls}, memo)]
        else:
            stepped = [v for u in ends for v in _class_steps(u, rels, cls, memo)]
            ends = ends + stepped if token.endswith("?") else stepped
    return ends


def _simulates(
    pattern: str, tm: Term, tn: Term, rels: RelationSet, memo: _Memo
) -> bool:
    """Whether ``tm`` reaches ``tn`` by a run the pattern spells: ``c*`` and
    ``c* beta`` by the search, a finite pattern by listing its ends."""
    first, *rest = pattern.split()
    if not first.endswith("*"):
        return any(alpha_eq(u, tn) for u in _pattern_steps(pattern, tm, rels, memo))
    if rest not in ([], ["beta"]):
        raise ValueError(f"no search for the pattern {pattern!r}")
    return _Reach(rels, {first[:-1]}, memo).go(tm, tn, need_beta=bool(rest))


def _cast_normal(term: Term, rels: RelationSet, memo: _Memo) -> Term:
    """Contract cast redexes until none remain.  This stops (the module says
    why) and, the system being orthogonal, the result does not depend on the
    contraction order."""
    while True:
        for s in memo.steps(term, rels):
            if _step_class(s.tag) in ("upcast", "nested"):
                term = s.term
                break
        else:
            return term


class _Memo:
    """One stepping check's memo.  It makes every call the check makes into
    the stepper and the translator, once per distinct question: ``steps``
    keys ``step_all`` by (term, relation set, spine mode), ``reducts``
    re-typechecks a reduct once per (term, context objects, configuration),
    so a term that two runs reach gets one derivation object, ``image`` keys
    ``run_translation`` by (translation, derivation object) and ``erased``
    keys ``erase`` by term; ``settled`` keeps every exact search answer.  A
    term is its own key: two are one key exactly when they are ``==`` (a
    literal's type included), however their nodes are shared, and a node
    keeps its hash, so a term made anew is hashed once, and then read.  A
    term's hash leaves out names (``Term.__hash__``), so alpha-variants share
    a bucket, and ``==`` separates them.
    Objects keyed by ``id`` are held, so their ids cannot be recycled.  Each
    check makes one table for all its searches and seen sets, and the table
    is freed when the check returns: nothing the check leaves refers back to
    it, as no walker holds itself and a kept ``StaticError`` has no
    traceback, whose frames would hold the table (``_frameless``)."""

    def __init__(self):
        self._memos: dict[tuple, dict] = {}
        self._steps: dict[tuple, list[Step]] = {}
        self._typed: dict[tuple, tuple[Derivation, Derivation | StaticError]] = {}
        self._images: dict[tuple, tuple[Derivation, Term]] = {}
        self._erased: dict[Term, Term] = {}

    def settled(self, rels: RelationSet, classes: set[str]) -> dict:
        """The one memo, by question, of every ``_Reach`` search of the
        check by steps of ``classes`` under ``rels``."""
        return self._memos.setdefault((rels, frozenset(classes)), {})

    def steps(self, t: Term, rels: RelationSet, spine: bool = False) -> list[Step]:
        """What ``step_all`` lists for ``t``; the list is shared, so it is
        not to be changed."""
        key = (t, rels, spine)
        hit = self._steps.get(key)
        if hit is None:
            hit = self._steps[key] = step_all(t, rels, spine=spine)
        return hit

    def erased(self, t: Term) -> Term:
        """``erase(t)``, taken once per distinct term."""
        hit = self._erased.get(t)
        if hit is None:
            hit = self._erased[t] = erase(t)
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
            key = (s.term, id(d.delta), id(d.gamma), cfg)
            hit = self._typed.get(key)
            if hit is None:
                try:
                    nd = type_check(cfg, d.delta, d.gamma, s.term)
                except StaticError as e:
                    nd = _frameless(e)
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
    memo keys (state, goal) pairs, compared by ``==``, with their
    environments, so that the search costs what the distinct subterms cost.
    need_beta threads the 'exactly one beta somewhere' obligation through
    the descent.  ``memo`` is the table of the check that searches.

    One object is one search.  Its memo is the check's memo for the same
    relations and classes (``_Memo.settled``), which holds every answer a
    search of the check has settled, and each answer is exact: the search
    runs to its end.  A question is marked False while it is open, which
    guards against cycles; none can close, as a question leads only to
    questions on a reduct of its state or on a pair of children."""

    def __init__(self, rels: RelationSet, classes: set[str], memo: _Memo):
        self.rels = rels
        self.classes = classes
        self.settled = memo.settled(rels, classes)
        self._memo = memo

    def go(
        self, x: Term, g: Term, need_beta: bool = False, env: Names = NO_NAMES,
        tyenv: tuple = ((), ()),
    ) -> bool:
        key = (x, g, need_beta, env, tyenv)
        out = self.settled.get(key)
        if out is not None:
            return out
        self.settled[key] = False
        if alpha_eq(x, g, env, tyenv):
            # no rewrite cycle can return here, so this is definitive
            self.settled[key] = not need_beta
            return not need_beta
        out = False
        # contract the root, or a head-spine position that can expose it
        for s in self._memo.steps(x, self.rels, spine=True):
            cls = _step_class(s.tag)
            if cls in self.classes and self.go(s.term, g, need_beta, env, tyenv):
                out = True
                break
            if need_beta and cls == "beta" and self.go(s.term, g, False, env, tyenv):
                out = True
                break
        if not out:
            pairs = match_node(x, g, env, tyenv)
            out = pairs is not None and self._descend(pairs, need_beta)
        self.settled[key] = out
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


def _explore(root, depth: int, expand, terms=lambda d: (d.term,)) -> None:
    """Expand ``root`` and, depth first, each node that ``expand(node,
    level)`` yields, as soon as it yields it, down to ``depth`` levels; a
    node whose terms (``terms(node)``, a tuple) were seen together before is
    not expanded again.  Terms are compared by ``==``, and no node is None."""
    seen = {terms(root)}
    running = [expand(root, 0)]  # the expansions under way, innermost last
    while running:
        child = next(running[-1], None)
        if child is None:
            running.pop()
        elif len(running) < depth:  # the child's level
            k = terms(child)
            if k not in seen:
                seen.add(k)
                running.append(expand(child, len(running)))


def _reducts(
    rep: PropertyReport, memo: _Memo, cfg: CalculusConfig, d: Derivation, rels, cid
):
    """(step, derivation) for each reduct of ``d`` that re-typechecks; one
    that does not is a failed case, tallied on each walk over it."""
    for s, nd in memo.reducts(cfg, d, rels):
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
    _, tgt_cfg = t.configs(deriv)
    if tgt_cfg.rank1:
        return check_weak_preservation(tid, deriv, case_id)

    def check():
        out = run_translation(tid, deriv)
        tgamma = {x: t.type_map(a) for x, a in deriv.gamma.items()}
        od = type_check(tgt_cfg, dict(deriv.delta), tgamma, out)
        want = t.type_map(deriv.type)
        check_part(tgt_cfg, dict(deriv.delta), want)
        return (
            type_equal(od.type, want),
            lambda: show_type(want), lambda: show_type(od.type),
        )

    return _single(
        f"type-preservation[{tid}]", case_id, deriv.term,
        (StaticError, TranslationError), "output typechecks at the mapped type", check,
    )


def check_weak_preservation(tid: str, deriv: Derivation, case_id: str = ""):
    """Type preservation into a rank-1 target, which only infers: the
    translation's output has a scheme weakly below the type map's bound on
    the cast-free source type.  Inference runs under the context mapped
    entry by entry with the same map."""
    t = TRANSLATIONS[tid]
    src_cfg, tgt_cfg = t.configs(deriv)

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
        tgamma = {x: t.type_map(a) for x, a in deriv.gamma.items()}
        sigma = infer(tgt_cfg, dict(deriv.delta), tgamma, run_translation(tid, deriv))
        bound = t.type_map(d2.type)
        return (
            weak_sub_instance(sigma, bound),
            lambda: show_scheme(bound), lambda: show_scheme(sigma),
        )

    return _single(
        f"type-preservation[{tid}]", case_id, deriv.term,
        (StaticError, TranslationError, InferError),
        "inferred scheme weakly below the translated bound", check,
    )


# ---------------------------------------------------------------------------
# Operational correspondence


def check_simulation(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every source step maps onto the target run its theorem states."""
    rep = PropertyReport(f"simulation[{tid}]")
    t = TRANSLATIONS[tid]
    src_cfg, tgt_cfg = t.configs(deriv)
    src_rels, tgt_rels = relations_for(src_cfg), relations_for(tgt_cfg)
    memo = _Memo()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        tm = memo.image(tid, d)
        for s, nd in _reducts(rep, memo, src_cfg, d, src_rels, cid):
            pattern = t.simulation.get(_step_class(s.tag))
            if pattern is not None:
                ok = _simulates(pattern, tm, memo.image(tid, nd), tgt_rels, memo)
                rep.tally(
                    cid, d.term, ok,
                    f"target steps {pattern} reaching the translated reduct",
                    f"no match for {s.tag}",
                )
            yield nd

    _explore(deriv, depth, expand)
    return rep


def check_reflection(tid: str, deriv: Derivation, depth: int = 1, case_id: str = ""):
    """Every target run its theorem lists reflects a source step."""
    rep = PropertyReport(f"reflection[{tid}]")
    t = TRANSLATIONS[tid]
    src_cfg, tgt_cfg = t.configs(deriv)
    src_rels, tgt_rels = relations_for(src_cfg), relations_for(tgt_cfg)
    memo = _Memo()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        tm = memo.image(tid, d)
        sources = [
            (_step_class(s.tag), nd, memo.image(tid, nd))
            for s, nd in _reducts(rep, memo, src_cfg, d, src_rels, cid)
        ]
        # translated source reducts two or more steps away, breadth first,
        # and the queue of source reducts not yet stepped
        deeper: list[Term] = []
        queue = collections.deque(nd for _, nd, _ in sources)
        known = {nd.term for nd in queue}

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
                for s, fnd in memo.reducts(src_cfg, fd, src_rels):
                    if s.term in known:
                        continue
                    known.add(s.term)
                    if isinstance(fnd, StaticError):
                        continue
                    queue.append(fnd)
                    deeper.append(memo.image(tid, fnd))

        obligations = [
            (i, u)
            for i, (run, _, _) in enumerate(t.reflection)
            for u in _pattern_steps(run, tm, tgt_rels, memo)
        ]
        done: set[tuple[int, Term]] = set()
        for i, u in obligations:
            if (i, u) in done:
                continue
            done.add((i, u))
            run, allowed, mode = t.reflection[i]
            if mode == "exact":
                ok = any(cls in allowed and alpha_eq(tk, u) for cls, _, tk in sources)
            elif mode == "tau":
                ok = any(
                    cls in allowed and _Reach(tgt_rels, {"tau"}, memo).go(tk, u)
                    for cls, _, tk in sources
                )
            elif mode == "fwd":
                by = {run.rstrip("?*")}
                ok = any(
                    cls in allowed and _Reach(tgt_rels, by, memo).go(u, tk)
                    for cls, _, tk in sources
                ) or any(_Reach(tgt_rels, by, memo).go(u, tk) for tk in deeper_images())
            else:
                raise ValueError(f"unknown match mode {mode!r}")
            rep.tally(
                cid, d.term, ok, f"a source step matching the target run {run}",
                "no source step matches",
            )
        for _, nd, _ in sources:
            yield nd

    _explore(deriv, depth, expand)
    return rep


# ---------------------------------------------------------------------------
# Erasure laws and the untyped preorder


def check_erasure(tid: str, deriv: Derivation, case_id: str = ""):
    TRANSLATIONS[tid].configs(deriv)  # refuses a derivation from elsewhere

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

    A calculus with structural subtyping runs by erasure, and the paper
    relates its two semantics by this preorder, both ways (its operational
    correspondence for upcast erasure).  For M in deriv's calculus, u ⊑ |M|:
    - simulation: a cast step M -> M' keeps u ⊑ |M'|, and a beta step
      M -> M' has an untyped beta step u -> u' with u' ⊑ |M'|;
    - reflection: u -> u' implies M ->* M' with u' ⊑ |M'|.  M' is sought
      among the beta reducts of the cast-normal form v of M, then v itself:
      u's step may lie inside a field that a cast of M drops."""
    rep = PropertyReport("preorder-correspondence")
    cfg = preset(deriv.calculus)
    rels = relations_for(cfg, full_upcast=True)
    memo = _Memo()

    def expand(node, level: int):
        d, u = node
        cid = f"{case_id}@{level}"
        if not term_preorder(u, memo.erased(d.term)):
            rep.tally(
                cid, d.term, False, "untyped side stays below the erasure",
                show_term(u),
            )
            return
        # simulation direction
        for s, nd in _reducts(rep, memo, cfg, d, rels, cid):
            if _step_class(s.tag) == "beta":
                matches = [
                    n2
                    for n2 in _class_steps(u, _UNTYPED, "beta", memo)
                    if term_preorder(n2, memo.erased(nd.term))
                ]
                rep.tally(
                    cid, d.term, bool(matches),
                    "an untyped beta step below the reduct's erasure",
                    f"none of the untyped steps track {s.tag}",
                )
                if matches:
                    yield nd, matches[0]
            else:
                ok = term_preorder(u, memo.erased(nd.term))
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
        v = _cast_normal(d.term, rels, memo)
        for n_prime in _class_steps(u, _UNTYPED, "beta", memo):
            found = any(
                term_preorder(n_prime, memo.erased(w))
                for w in _class_steps(v, rels, "beta", memo)
            ) or term_preorder(n_prime, memo.erased(v))
            rep.tally(
                cid, d.term, found,
                "cast steps and at most one beta step covering the untyped reduct",
                "no typed counterpart found",
            )

    _explore(
        (deriv, memo.erased(deriv.term)), depth, expand,
        lambda node: (node[0].term, node[1]),
    )
    return rep


# ---------------------------------------------------------------------------
# Substitution and subject reduction


def check_subst_lemma(
    tid: str, deriv_m: Derivation, deriv_n: Derivation, var: str, case_id: str = ""
):
    """Translating after substitution agrees with substituting translations."""
    t = TRANSLATIONS[tid]
    src_cfg, _ = t.configs(deriv_m)
    t.configs(deriv_n)  # refuses n from another calculus as well

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
    memo = _Memo()

    def expand(d: Derivation, level: int):
        cid = f"{case_id}@{level}"
        for _, nd in _reducts(rep, memo, config, d, rels, cid):
            rep.tally(
                cid, d.term, type_equal(nd.type, d.type),
                lambda: show_type(d.type), lambda: show_type(nd.type),
            )
            yield nd

    def expand_bare(node, level: int):
        term, scheme = node
        cid = f"{case_id}@{level}"
        for s in memo.steps(term, rels):
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
        _explore(root, depth, expand_bare, lambda node: node[:1])
    else:
        _explore(subject, depth, expand)
    return rep


# ---------------------------------------------------------------------------
# Batch driver


def _input(spec: GenSpec, i: int):
    """Input i of ``spec``: its derivation, or its term where it is bare."""
    term, deriv = gen_typed_term(spec, i)
    return term if deriv is None else deriv


# The two check tables: each property's check, on subject t, of input i of
# spec s at depth n, with case id c: on each pair of a registry row that
# lists it (``Translation.properties``), or on a calculus its test accepts.
# Each looks up its check and generator when it runs, so wrappers are called.
ROW_CHECKS: dict[str, Callable[..., PropertyReport]] = {
    "type-preservation": lambda t, s, i, n, c: check_type_preservation(t, _input(s, i), c),
    "simulation": lambda t, s, i, n, c: check_simulation(t, _input(s, i), n, c),
    "reflection": lambda t, s, i, n, c: check_reflection(t, _input(s, i), n, c),
    "substitution": lambda t, s, i, n, c: check_subst_lemma(t, *gen_subst_pair(s, i), c),
    "erasure": lambda t, s, i, n, c: check_erasure(t, _input(s, i), c),
    "preorder-correspondence":
        lambda t, s, i, n, c: check_preorder_correspondence(_input(s, i), n, c),
}
CALCULUS_CHECKS: dict[str, tuple[Callable, Callable[..., PropertyReport]]] = {
    "subject-reduction": (
        lambda cfg: True,
        lambda t, s, i, n, c: check_subject_reduction(s.config, _input(s, i), n, c),
    ),
    "preorder-correspondence": (  # on the calculi that evaluate by erasure
        lambda cfg: cfg.structural_subtyping, ROW_CHECKS["preorder-correspondence"]
    ),
}
PROPERTIES = tuple(dict.fromkeys([*ROW_CHECKS, *CALCULUS_CHECKS]))


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
    """Generate inputs on one subject and fold one property's report over
    them; a row's input i comes from its pair i mod P."""
    if count < 1:
        raise UsageError(f"count must be at least 1, got {count}")
    if depth < 1:
        raise UsageError(f"depth must be at least 1, got {depth}")
    start = time.perf_counter()
    by_row = prop in ROW_CHECKS and translation is not None
    if by_row == (prop in CALCULUS_CHECKS and config is not None):
        needs = [kind for kind, table in (
            ("a translation id", ROW_CHECKS), ("a calculus id", CALCULUS_CHECKS)
        ) if prop in table]
        if not needs:
            raise UsageError(f"unknown property {prop}")
        both = ", not both" if by_row else ""
        raise UsageError(f"property {prop} needs {' or '.join(needs)}{both}")
    if by_row:
        subject, check = translation, ROW_CHECKS[prop]
        covered = [tid for tid, t in TRANSLATIONS.items() if prop in t.properties]
    else:
        accepts, check = CALCULUS_CHECKS[prop]
        subject = preset(config).name  # refuses an unknown calculus
        covered = [name for name, cfg in PRESETS.items() if accepts(cfg)]
    if subject not in covered:
        raise UsageError(
            f"no theorem covers {prop} on {subject}; "
            f"it is checked on {', '.join(covered)}"
        )
    sources = [s for s, _ in TRANSLATIONS[subject].pairs] if by_row else [subject]
    specs = [GenSpec(preset(s), max_size=max_size, seed=seed) for s in sources]

    def one(i: int) -> PropertyReport:
        spec, cid = specs[i % len(specs)], f"seed={seed} index={i}"
        if len(specs) > 1:
            cid += f" from={spec.config.name}"
        return check(subject, spec, i, depth, cid)

    merged = functools.reduce(PropertyReport.merge, map(one, range(count)))
    merged.elapsed = time.perf_counter() - start
    return merged
