"""Abstract syntax for the row calculi workbench.

Structure:
- kinds (Type, Row with a lacks set, Pre) and presence marks
- rows, types, type schemes
- terms, including explicit type-manipulation nodes (upcast, row/presence
  abstraction and application with an origin mark)
- capture-avoiding substitution at the term and type level
- canonical row normalization, type equality, alpha equivalence
- row algebra helpers (difference, restriction, domain)

Rows are stored in source order; comparisons normalize. Names are plain
strings; fresh names come from a NameSupply and look like "x$3".
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MalformedRowError(Exception):
    """A row with duplicate labels (or a restriction missing a label)."""


# ---------------------------------------------------------------------------
# kinds and presence marks


@dataclass(frozen=True)
class KType:
    """Kind of value types."""


@dataclass(frozen=True)
class KRow:
    """Kind of rows that must not mention the labels in `lacks`."""

    lacks: frozenset[str]


@dataclass(frozen=True)
class KPre:
    """Kind of presence annotations."""


Kind = KType | KRow | KPre


@dataclass(frozen=True)
class Absent:
    """Presence mark for a label hidden from the row."""


@dataclass(frozen=True)
class Present:
    """Presence mark for a label usable in the row."""


@dataclass(frozen=True)
class PresVar:
    """Presence variable."""

    name: str


Presence = Absent | Present | PresVar


# ---------------------------------------------------------------------------
# rows and types


@dataclass(frozen=True)
class Row:
    """Ordered label/presence/type entries with an optional row-variable tail."""

    entries: tuple[tuple[str, Presence, "Type"], ...]
    tail: str | None = None

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.entries)


@dataclass(frozen=True)
class TyVar:
    """Type variable."""

    name: str


@dataclass(frozen=True)
class Base:
    """Builtin base type, tag 'Int' or 'String'."""

    tag: str


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"


@dataclass(frozen=True)
class Variant:
    row: Row


@dataclass(frozen=True)
class Record:
    row: Row


@dataclass(frozen=True)
class ForallRow:
    """Row quantifier; kind is always a KRow."""

    var: str
    kind: KRow
    body: "Type"


@dataclass(frozen=True)
class ForallPres:
    var: str
    body: "Type"


Type = TyVar | Base | Arrow | Variant | Record | ForallRow | ForallPres


@dataclass(frozen=True)
class TypeScheme:
    """Prenex scheme: quantified (name, kind) pairs over a body type."""

    quants: tuple[tuple[str, Kind], ...]
    body: Type


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    """Annotation is None only in rank-1 calculi and untyped terms."""

    var: str
    annot: Type | None
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Inject:
    label: str
    payload: "Term"
    annot: Type | None


@dataclass(frozen=True)
class Case:
    scrutinee: "Term"
    branches: tuple[tuple[str, str, "Term"], ...]


@dataclass(frozen=True)
class RecordLit:
    """Annotation is required in presence-typed record calculi."""

    fields: tuple[tuple[str, "Term"], ...]
    annot: Type | None = None

    def field(self, label: str) -> "Term | None":
        for name, term in self.fields:
            if name == label:
                return term
        return None


@dataclass(frozen=True)
class Project:
    term: "Term"
    label: str


@dataclass(frozen=True)
class Upcast:
    term: "Term"
    target: Type


@dataclass(frozen=True)
class RowAbs:
    var: str
    kind: KRow
    body: "Term"


@dataclass(frozen=True)
class RowApp:
    """origin is 'source' for written applications, 'upcast' for the ones
    introduced by upcast translation (they reduce by a separate relation)."""

    term: "Term"
    row: Row
    origin: str = "source"


@dataclass(frozen=True)
class PresAbs:
    var: str
    body: "Term"


@dataclass(frozen=True)
class PresApp:
    term: "Term"
    presence: Presence
    origin: str = "source"


@dataclass(frozen=True)
class Let:
    var: str
    bound: "Term"
    body: "Term"


@dataclass(frozen=True)
class Lit:
    value: int | str


@dataclass(frozen=True)
class Prim:
    """Builtin operator application; op is '-', '+' or '++'."""

    op: str
    args: tuple["Term", ...]


Term = (
    Var
    | Lam
    | App
    | Inject
    | Case
    | RecordLit
    | Project
    | Upcast
    | RowAbs
    | RowApp
    | PresAbs
    | PresApp
    | Let
    | Lit
    | Prim
)


# ---------------------------------------------------------------------------
# names


@dataclass
class NameSupply:
    """Deterministic fresh-name source; never returns a name in `avoid`."""

    avoid: set[str] = field(default_factory=set)
    counter: int = 0

    def fresh(self, base: str = "x") -> str:
        base = base.split("$", 1)[0] or "x"
        while True:
            name = f"{base}${self.counter}"
            self.counter += 1
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def free_vars(term: Term) -> set[str]:
    """Free term variables."""
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.var}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, Inject):
        return free_vars(term.payload)
    if isinstance(term, Case):
        out = free_vars(term.scrutinee)
        for _, binder, body in term.branches:
            out |= free_vars(body) - {binder}
        return out
    if isinstance(term, RecordLit):
        out: set[str] = set()
        for _, sub in term.fields:
            out |= free_vars(sub)
        return out
    if isinstance(term, (Project, Upcast, RowApp, PresApp)):
        return free_vars(term.term)
    if isinstance(term, (RowAbs, PresAbs)):
        return free_vars(term.body)
    if isinstance(term, Let):
        return free_vars(term.bound) | (free_vars(term.body) - {term.var})
    if isinstance(term, Lit):
        return set()
    if isinstance(term, Prim):
        out = set()
        for sub in term.args:
            out |= free_vars(sub)
        return out
    raise TypeError(f"not a term: {term!r}")


def free_type_names(ty: Type) -> set[str]:
    """Free type-level names (type, row, and presence variables share one space)."""
    if isinstance(ty, TyVar):
        return {ty.name}
    if isinstance(ty, Base):
        return set()
    if isinstance(ty, Arrow):
        return free_type_names(ty.dom) | free_type_names(ty.cod)
    if isinstance(ty, (Variant, Record)):
        return free_row_names(ty.row)
    if isinstance(ty, ForallRow):
        return free_type_names(ty.body) - {ty.var}
    if isinstance(ty, ForallPres):
        return free_type_names(ty.body) - {ty.var}
    raise TypeError(f"not a type: {ty!r}")


def free_row_names(row: Row) -> set[str]:
    out: set[str] = set()
    for _, pres, ty in row.entries:
        if isinstance(pres, PresVar):
            out.add(pres.name)
        out |= free_type_names(ty)
    if row.tail is not None:
        out.add(row.tail)
    return out


def term_names(term: Term) -> set[str]:
    """Every term variable occurring in the term, bound or free."""
    out: set[str] = set()

    def go(sub: Term) -> None:
        if isinstance(sub, Var):
            out.add(sub.name)
        elif isinstance(sub, Lam):
            out.add(sub.var)
            go(sub.body)
        elif isinstance(sub, App):
            go(sub.fn)
            go(sub.arg)
        elif isinstance(sub, Inject):
            go(sub.payload)
        elif isinstance(sub, Case):
            go(sub.scrutinee)
            for _, binder, body in sub.branches:
                out.add(binder)
                go(body)
        elif isinstance(sub, RecordLit):
            for _, inner in sub.fields:
                go(inner)
        elif isinstance(sub, (Project, Upcast, RowApp, PresApp)):
            go(sub.term)
        elif isinstance(sub, (RowAbs, PresAbs)):
            go(sub.body)
        elif isinstance(sub, Let):
            out.add(sub.var)
            go(sub.bound)
            go(sub.body)
        elif isinstance(sub, Prim):
            for inner in sub.args:
                go(inner)
        elif not isinstance(sub, Lit):
            raise TypeError(f"not a term: {sub!r}")

    go(term)
    return out


def _bound_type_names(ty: Type) -> set[str]:
    if isinstance(ty, (TyVar, Base)):
        return set()
    if isinstance(ty, Arrow):
        return _bound_type_names(ty.dom) | _bound_type_names(ty.cod)
    if isinstance(ty, (Variant, Record)):
        out: set[str] = set()
        for _, _, t in ty.row.entries:
            out |= _bound_type_names(t)
        return out
    if isinstance(ty, (ForallRow, ForallPres)):
        return {ty.var} | _bound_type_names(ty.body)
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# substitution


def subst_term(body: Term, replacement: Term, var: str) -> Term:
    """body[replacement/var], capture-avoiding with deterministic renames."""
    fvs = free_vars(replacement)

    def rename_binder(binder: str, *scopes: Term) -> str:
        # Only rename when the binder would capture or shadow what we need.
        if binder != var and binder not in fvs:
            return binder
        taken = fvs | {var}
        for scope in scopes:
            taken |= term_names(scope)
        base = binder.split("$", 1)[0] or "x"
        n = 0
        while f"{base}${n}" in taken:
            n += 1
        return f"{base}${n}"

    def go(sub: Term) -> Term:
        if isinstance(sub, Var):
            return replacement if sub.name == var else sub
        if isinstance(sub, Lam):
            if sub.var == var:
                return sub
            new = rename_binder(sub.var, sub.body)
            inner = sub.body if new == sub.var else subst_term(sub.body, Var(new), sub.var)
            return Lam(new, sub.annot, go(inner))
        if isinstance(sub, App):
            return App(go(sub.fn), go(sub.arg))
        if isinstance(sub, Inject):
            return Inject(sub.label, go(sub.payload), sub.annot)
        if isinstance(sub, Case):
            branches = []
            for label, binder, branch in sub.branches:
                if binder == var:
                    branches.append((label, binder, branch))
                    continue
                new = rename_binder(binder, branch)
                inner = branch if new == binder else subst_term(branch, Var(new), binder)
                branches.append((label, new, go(inner)))
            return Case(go(sub.scrutinee), tuple(branches))
        if isinstance(sub, RecordLit):
            return RecordLit(tuple((l, go(t)) for l, t in sub.fields), sub.annot)
        if isinstance(sub, Project):
            return Project(go(sub.term), sub.label)
        if isinstance(sub, Upcast):
            return Upcast(go(sub.term), sub.target)
        if isinstance(sub, RowAbs):
            return RowAbs(sub.var, sub.kind, go(sub.body))
        if isinstance(sub, RowApp):
            return RowApp(go(sub.term), sub.row, sub.origin)
        if isinstance(sub, PresAbs):
            return PresAbs(sub.var, go(sub.body))
        if isinstance(sub, PresApp):
            return PresApp(go(sub.term), sub.presence, sub.origin)
        if isinstance(sub, Let):
            bound = go(sub.bound)
            if sub.var == var:
                return Let(sub.var, bound, sub.body)
            new = rename_binder(sub.var, sub.body)
            inner = sub.body if new == sub.var else subst_term(sub.body, Var(new), sub.var)
            return Let(new, bound, go(inner))
        if isinstance(sub, Lit):
            return sub
        if isinstance(sub, Prim):
            return Prim(sub.op, tuple(go(t) for t in sub.args))
        raise TypeError(f"not a term: {sub!r}")

    return go(body)


def subst_type_in_type(ty: Type, arg: Row | Presence, var: str) -> Type:
    """ty[arg/var]; arg is a row (for row variables) or a presence mark."""
    arg_names: set[str]
    if isinstance(arg, Row):
        arg_names = free_row_names(arg)
    elif isinstance(arg, PresVar):
        arg_names = {arg.name}
    else:
        arg_names = set()

    def fresh_against(binder: str, body: Type) -> str:
        taken = arg_names | {var} | free_type_names(body) | _bound_type_names(body)
        base = binder.split("$", 1)[0] or "r"
        n = 0
        while f"{base}${n}" in taken:
            n += 1
        return f"{base}${n}"

    def go(t: Type) -> Type:
        if isinstance(t, (TyVar, Base)):
            return t
        if isinstance(t, Arrow):
            return Arrow(go(t.dom), go(t.cod))
        if isinstance(t, Variant):
            return Variant(go_row(t.row))
        if isinstance(t, Record):
            return Record(go_row(t.row))
        if isinstance(t, ForallRow):
            if t.var == var:
                return t
            if t.var in arg_names:
                new = fresh_against(t.var, t.body)
                body = subst_type_in_type(t.body, Row((), new), t.var)
                return ForallRow(new, t.kind, go(body))
            return ForallRow(t.var, t.kind, go(t.body))
        if isinstance(t, ForallPres):
            if t.var == var:
                return t
            if t.var in arg_names:
                new = fresh_against(t.var, t.body)
                body = subst_type_in_type(t.body, PresVar(new), t.var)
                return ForallPres(new, go(body))
            return ForallPres(t.var, go(t.body))
        raise TypeError(f"not a type: {t!r}")

    def go_row(row: Row) -> Row:
        entries = []
        for label, pres, t in row.entries:
            if isinstance(pres, PresVar) and pres.name == var and isinstance(arg, (Absent, Present, PresVar)):
                pres = arg
            entries.append((label, pres, go(t)))
        if row.tail == var:
            if not isinstance(arg, Row):
                raise TypeError("row variable substituted with a presence")
            return Row(tuple(entries) + arg.entries, arg.tail)
        return Row(tuple(entries), row.tail)

    return go(ty)


def subst_type_in_term(term: Term, arg: Row | Presence, var: str) -> Term:
    """Substitute a type-level name throughout a term's annotations and arguments."""

    def go_ty(ty: Type | None) -> Type | None:
        return None if ty is None else subst_type_in_type(ty, arg, var)

    def go_row(row: Row) -> Row:
        wrapped = subst_type_in_type(Record(row), arg, var)
        assert isinstance(wrapped, Record)
        return wrapped.row

    def go_pres(p: Presence) -> Presence:
        if isinstance(p, PresVar) and p.name == var and isinstance(arg, (Absent, Present, PresVar)):
            return arg
        return p

    def go(sub: Term) -> Term:
        if isinstance(sub, Var):
            return sub
        if isinstance(sub, Lam):
            return Lam(sub.var, go_ty(sub.annot), go(sub.body))
        if isinstance(sub, App):
            return App(go(sub.fn), go(sub.arg))
        if isinstance(sub, Inject):
            return Inject(sub.label, go(sub.payload), go_ty(sub.annot))
        if isinstance(sub, Case):
            return Case(go(sub.scrutinee), tuple((l, x, go(b)) for l, x, b in sub.branches))
        if isinstance(sub, RecordLit):
            return RecordLit(tuple((l, go(t)) for l, t in sub.fields), go_ty(sub.annot))
        if isinstance(sub, Project):
            return Project(go(sub.term), sub.label)
        if isinstance(sub, Upcast):
            target = go_ty(sub.target)
            assert target is not None
            return Upcast(go(sub.term), target)
        if isinstance(sub, RowAbs):
            if sub.var == var:
                return sub
            return RowAbs(sub.var, sub.kind, go(sub.body))
        if isinstance(sub, RowApp):
            return RowApp(go(sub.term), go_row(sub.row), sub.origin)
        if isinstance(sub, PresAbs):
            if sub.var == var:
                return sub
            return PresAbs(sub.var, go(sub.body))
        if isinstance(sub, PresApp):
            return PresApp(go(sub.term), go_pres(sub.presence), sub.origin)
        if isinstance(sub, Let):
            return Let(sub.var, go(sub.bound), go(sub.body))
        if isinstance(sub, Lit):
            return sub
        if isinstance(sub, Prim):
            return Prim(sub.op, tuple(go(t) for t in sub.args))
        raise TypeError(f"not a term: {sub!r}")

    return go(term)


# ---------------------------------------------------------------------------
# row algebra and equality


def normalize_row(row: Row, presence_aware: bool = True) -> Row:
    """Sort entries by label (bytewise); drop Absent entries if presence_aware.

    Raises MalformedRowError on duplicate labels. Idempotent.
    """
    seen: set[str] = set()
    for label in row.labels():
        if label in seen:
            raise MalformedRowError(f"duplicate label {label!r}")
        seen.add(label)
    entries = row.entries
    if presence_aware:
        entries = tuple(e for e in entries if not isinstance(e[1], Absent))
    return Row(tuple(sorted(entries, key=lambda e: e[0])), row.tail)


def row_dom(row: Row) -> frozenset[str]:
    return frozenset(row.labels())


def row_restrict(row: Row, labels: frozenset[str] | set[str]) -> Row:
    missing = set(labels) - set(row.labels())
    if missing:
        raise MalformedRowError(f"labels not in row: {sorted(missing)}")
    return Row(tuple(e for e in row.entries if e[0] in labels), None)


def row_difference(row: Row, other: Row) -> Row:
    """Entries of `row` whose (label, type) pair does not occur in `other`.

    Both rows must be closed; presence marks are ignored for the pair test.
    """
    if row.tail is not None or other.tail is not None:
        raise MalformedRowError("row difference needs closed rows")
    other_pairs = {(label, ty) for label, _, ty in other.entries}
    return Row(tuple(e for e in row.entries if (e[0], e[2]) not in other_pairs), None)


def type_equal(a: Type, b: Type) -> bool:
    """Structural equality modulo alpha-renaming and row normalization."""
    return _ty_eq(a, b, {})


def _ty_eq(a: Type, b: Type, env: dict[str, str]) -> bool:
    """env maps a-side bound type names to b-side names."""
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return env.get(a.name, a.name) == b.name
    if isinstance(a, Base) and isinstance(b, Base):
        return a.tag == b.tag
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return _ty_eq(a.dom, b.dom, env) and _ty_eq(a.cod, b.cod, env)
    if isinstance(a, Variant) and isinstance(b, Variant):
        return _row_eq(a.row, b.row, env)
    if isinstance(a, Record) and isinstance(b, Record):
        return _row_eq(a.row, b.row, env)
    if isinstance(a, ForallRow) and isinstance(b, ForallRow):
        if a.kind.lacks != b.kind.lacks:
            return False
        return _ty_eq(a.body, b.body, {**env, a.var: b.var})
    if isinstance(a, ForallPres) and isinstance(b, ForallPres):
        return _ty_eq(a.body, b.body, {**env, a.var: b.var})
    return False


def _pres_eq(a: Presence, b: Presence, env: dict[str, str]) -> bool:
    if isinstance(a, PresVar) and isinstance(b, PresVar):
        return env.get(a.name, a.name) == b.name
    return type(a) is type(b)


def _row_eq(a: Row, b: Row, env: dict[str, str]) -> bool:
    try:
        na = normalize_row(a)
        nb = normalize_row(b)
    except MalformedRowError:
        return False
    tail_a = na.tail if na.tail is None else env.get(na.tail, na.tail)
    if tail_a != nb.tail:
        return False
    if len(na.entries) != len(nb.entries):
        return False
    for (la, pa, ta), (lb, pb, tb) in zip(na.entries, nb.entries):
        if la != lb or not _pres_eq(pa, pb, env) or not _ty_eq(ta, tb, env):
            return False
    return True


def scheme_alpha_eq(a: TypeScheme, b: TypeScheme) -> bool:
    """Scheme equality up to renaming; quantifier order must correspond."""
    if len(a.quants) != len(b.quants):
        return False
    env: dict[str, str] = {}
    for (na, ka), (nb, kb) in zip(a.quants, b.quants):
        if type(ka) is not type(kb):
            return False
        if isinstance(ka, KRow) and isinstance(kb, KRow) and ka.lacks != kb.lacks:
            return False
        env[na] = nb
    return _ty_eq(a.body, b.body, env)


# ---------------------------------------------------------------------------
# alpha equivalence of terms


def alpha_eq(m: Term, n: Term) -> bool:
    """Equality modulo bound renaming, row normalization in annotations, and
    record fields marked absent by their annotation."""
    return _tm_eq(m, n, {}, {})


def _annot_eq(a: Type | None, b: Type | None, tyenv: dict[str, str]) -> bool:
    if a is None or b is None:
        return (a is None) == (b is None)
    return _ty_eq(a, b, tyenv)


def _live_fields(rec: RecordLit) -> tuple[tuple[str, Term], ...]:
    dropped: set[str] = set()
    if rec.annot is not None and isinstance(rec.annot, Record):
        dropped = {l for l, p, _ in rec.annot.row.entries if isinstance(p, Absent)}
    return tuple(sorted((f for f in rec.fields if f[0] not in dropped), key=lambda f: f[0]))


def _tm_eq(m: Term, n: Term, env: dict[str, str], tyenv: dict[str, str]) -> bool:
    if isinstance(m, Var) and isinstance(n, Var):
        return env.get(m.name, m.name) == n.name
    if isinstance(m, Lam) and isinstance(n, Lam):
        return _annot_eq(m.annot, n.annot, tyenv) and _tm_eq(
            m.body, n.body, {**env, m.var: n.var}, tyenv
        )
    if isinstance(m, App) and isinstance(n, App):
        return _tm_eq(m.fn, n.fn, env, tyenv) and _tm_eq(m.arg, n.arg, env, tyenv)
    if isinstance(m, Inject) and isinstance(n, Inject):
        return (
            m.label == n.label
            and _annot_eq(m.annot, n.annot, tyenv)
            and _tm_eq(m.payload, n.payload, env, tyenv)
        )
    if isinstance(m, Case) and isinstance(n, Case):
        if not _tm_eq(m.scrutinee, n.scrutinee, env, tyenv):
            return False
        bm = sorted(m.branches, key=lambda b: b[0])
        bn = sorted(n.branches, key=lambda b: b[0])
        if len(bm) != len(bn):
            return False
        for (lm, xm, tm), (ln, xn, tn) in zip(bm, bn):
            if lm != ln or not _tm_eq(tm, tn, {**env, xm: xn}, tyenv):
                return False
        return True
    if isinstance(m, RecordLit) and isinstance(n, RecordLit):
        if not _annot_eq(m.annot, n.annot, tyenv):
            return False
        fm = _live_fields(m)
        fn = _live_fields(n)
        if len(fm) != len(fn):
            return False
        for (lm, tm), (ln, tn) in zip(fm, fn):
            if lm != ln or not _tm_eq(tm, tn, env, tyenv):
                return False
        return True
    if isinstance(m, Project) and isinstance(n, Project):
        return m.label == n.label and _tm_eq(m.term, n.term, env, tyenv)
    if isinstance(m, Upcast) and isinstance(n, Upcast):
        return _ty_eq(m.target, n.target, tyenv) and _tm_eq(m.term, n.term, env, tyenv)
    if isinstance(m, RowAbs) and isinstance(n, RowAbs):
        if m.kind.lacks != n.kind.lacks:
            return False
        return _tm_eq(m.body, n.body, env, {**tyenv, m.var: n.var})
    if isinstance(m, RowApp) and isinstance(n, RowApp):
        return (
            m.origin == n.origin
            and _row_eq(m.row, n.row, tyenv)
            and _tm_eq(m.term, n.term, env, tyenv)
        )
    if isinstance(m, PresAbs) and isinstance(n, PresAbs):
        return _tm_eq(m.body, n.body, env, {**tyenv, m.var: n.var})
    if isinstance(m, PresApp) and isinstance(n, PresApp):
        return (
            m.origin == n.origin
            and _pres_eq(m.presence, n.presence, tyenv)
            and _tm_eq(m.term, n.term, env, tyenv)
        )
    if isinstance(m, Let) and isinstance(n, Let):
        return _tm_eq(m.bound, n.bound, env, tyenv) and _tm_eq(
            m.body, n.body, {**env, m.var: n.var}, tyenv
        )
    if isinstance(m, Lit) and isinstance(n, Lit):
        return type(m.value) is type(n.value) and m.value == n.value
    if isinstance(m, Prim) and isinstance(n, Prim):
        return (
            m.op == n.op
            and len(m.args) == len(n.args)
            and all(_tm_eq(a, b, env, tyenv) for a, b in zip(m.args, n.args))
        )
    return False


# ---------------------------------------------------------------------------
# small constructors used all over the tests and translations


def closed_row(*pairs: tuple[str, Type]) -> Row:
    return Row(tuple((label, Present(), ty) for label, ty in pairs), None)


def variant(*pairs: tuple[str, Type]) -> Variant:
    return Variant(closed_row(*pairs))


def record(*pairs: tuple[str, Type]) -> Record:
    return Record(closed_row(*pairs))
