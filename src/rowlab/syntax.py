"""Abstract syntax for the row calculi workbench.

Structure:
- kinds (Type, Row with a lacks set, Pre) and presence marks
- rows, types, type schemes
- terms, including explicit type-manipulation nodes (upcast, row/presence
  abstraction and application with an origin mark)
- SHAPES, one table keyed by term class that gives each form's child terms
  with their slot names, the term variable each child binds, the way to
  rebuild the node, its type-level parts and binder, and the fields two
  nodes of the form must agree on; free variables, substitution, erasure,
  reduction, the equality and preorder walkers and the translations' default
  rule all read it instead of matching on the forms themselves
- a two-sided binder environment (``bind``, ``same_name``), a hashable
  tuple of (left, right) binder pairs, that every comparison of terms up to
  renaming shares, and ``match_node``, one node of ``alpha_eq``: it pairs
  two nodes' children with the environments they are compared under, so a
  search can descend two terms the way ``alpha_eq`` does without renaming
  either
- capture-avoiding substitution at the term and type level
- canonical row normalization, the row domain, alpha equivalence
- canonical type keys (``type_key``), which type and scheme equality and the
  annotations of alpha equivalence compare

Frozen nodes keep facts computed once from their parts' copies: a type or
row its key ``_key`` and printed text ``_text`` (``pretty.show_type``), a
term its tree size ``_size`` (``term_size``) and its free term variables
``_free`` (``free_vars``), and a term, type or row the set ``_names`` of
every type-level name it mentions (``type_level_names``).  The name sets let
``subst_term`` and ``subst_type_in_term`` return untouched subterms without
a walk.  They are stored with ``object.__setattr__``, outside the dataclass
fields, and read with ``getattr(node, name, None)``, never through
``__dict__``.

Rows are stored in source order; comparisons normalize. Names are plain
strings; fresh names come from a NameSupply and look like "x$3".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, get_args


class MalformedRowError(Exception):
    """A row with duplicate labels."""


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
# term shapes


@dataclass(frozen=True)
class Shape:
    """How one term form holds its parts; every term walker reads it.

    ``children(t)`` gives ``(slot, child, binder)`` for each child term, left
    to right: the slot name a reduction path uses, the child, and the term
    variable the child is under (None for none).  ``types`` names the
    fields that hold type-level parts (an annotation, a cast target, a row or
    a presence argument).  ``tybinder``, on the forms whose ``var`` binds a
    type-level name over their body, makes the argument that names it (a
    row with that tail, or that presence variable).  ``data`` names the
    fields two nodes of the form must agree on to be equal: a label, an
    operator, an origin mark, a row kind or a literal value.  A ``Var``'s
    name is none of these: the comparisons look it up in their binder
    environment (``same_name``).  Labels of case branches and record fields
    are in their slot names.

    ``rebuild(t, kids, names=None, fn=None)`` is ``t`` with new children in
    the same order, new binder names (one per child) when ``names`` is
    given, and ``fn`` applied to each type-level part when it is given.
    """

    children: Callable[[Any], list[tuple[str, "Term", str | None]]]
    rebuild: Callable[..., "Term"]
    types: tuple[str, ...] = ()
    tybinder: Callable[[str], "Row | Presence"] | None = None
    data: tuple[str, ...] = ()


def _under(slot: str) -> Callable[[Any], list]:
    return lambda t: [(slot, getattr(t, slot), None)]


def _leaf(*data: str) -> Shape:
    return Shape(lambda t: [], lambda t, k, n=None, f=None: t, data=data)


class _Slots(dict):
    """Slot names ``prefix + str(key)``, each made once, on its first use."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key) -> str:
        slot = self[key] = f"{self.prefix}{key}"
        return slot


_BRANCH, _FIELD, _ARG = _Slots("branch:"), _Slots("field:"), _Slots("arg:")


SHAPES: dict[type, Shape] = {
    Var: _leaf(),
    Lit: _leaf("value"),
    Lam: Shape(
        lambda t: [("body", t.body, t.var)],
        lambda t, k, n=None, f=None: Lam(
            n[0] if n else t.var, f(t.annot) if f else t.annot, k[0]
        ),
        types=("annot",),
    ),
    App: Shape(
        lambda t: [("fn", t.fn, None), ("arg", t.arg, None)],
        lambda t, k, n=None, f=None: App(k[0], k[1]),
    ),
    Inject: Shape(
        _under("payload"),
        lambda t, k, n=None, f=None: Inject(
            t.label, k[0], f(t.annot) if f else t.annot
        ),
        types=("annot",),
        data=("label",),
    ),
    Case: Shape(
        lambda t: [("scrutinee", t.scrutinee, None)]
        + [(_BRANCH[l], b, x) for l, x, b in t.branches],
        lambda t, k, n=None, f=None: Case(
            k[0],
            tuple(
                (l, n[i] if n else x, k[i])
                for i, (l, x, _) in enumerate(t.branches, 1)
            ),
        ),
    ),
    RecordLit: Shape(
        lambda t: [(_FIELD[l], v, None) for l, v in t.fields],
        lambda t, k, n=None, f=None: RecordLit(
            tuple(zip([l for l, _ in t.fields], k)),
            f(t.annot) if f else t.annot,
        ),
        types=("annot",),
    ),
    Project: Shape(
        _under("term"),
        lambda t, k, n=None, f=None: Project(k[0], t.label),
        data=("label",),
    ),
    Upcast: Shape(
        _under("term"),
        lambda t, k, n=None, f=None: Upcast(k[0], f(t.target) if f else t.target),
        types=("target",),
    ),
    RowAbs: Shape(
        _under("body"),
        lambda t, k, n=None, f=None: RowAbs(t.var, t.kind, k[0]),
        tybinder=lambda name: Row((), name),
        data=("kind",),
    ),
    RowApp: Shape(
        _under("term"),
        lambda t, k, n=None, f=None: RowApp(
            k[0], f(t.row) if f else t.row, t.origin
        ),
        types=("row",),
        data=("origin",),
    ),
    PresAbs: Shape(
        _under("body"),
        lambda t, k, n=None, f=None: PresAbs(t.var, k[0]),
        tybinder=PresVar,
    ),
    PresApp: Shape(
        _under("term"),
        lambda t, k, n=None, f=None: PresApp(
            k[0], f(t.presence) if f else t.presence, t.origin
        ),
        types=("presence",),
        data=("origin",),
    ),
    Let: Shape(
        lambda t: [("bound", t.bound, None), ("body", t.body, t.var)],
        lambda t, k, n=None, f=None: Let(n[1] if n else t.var, k[0], k[1]),
    ),
    Prim: Shape(
        lambda t: [(_ARG[i], a, None) for i, a in enumerate(t.args)],
        lambda t, k, n=None, f=None: Prim(t.op, tuple(k)),
        data=("op",),
    ),
}


def children(term: Term) -> list[tuple[str, Term, str | None]]:
    """The term's (slot, child, binder) triples; see Shape."""
    return SHAPES[type(term)].children(term)


def rebuild(term: Term, kids: list[Term]) -> Term:
    """``term`` with its children replaced, in ``children`` order."""
    return SHAPES[type(term)].rebuild(term, kids)


def strip(term: Term, forms: tuple[type, ...], fn: Callable | None = None) -> Term:
    """``term`` with every node of ``forms`` (one-child forms) replaced by its
    child, and ``fn`` applied to each type-level part of the rest when it is
    given.  The rebuild runs bottom-up on an explicit stack, so a term of
    any depth is fine."""
    done: list[Term] = []  # the rebuilt subterms not yet used, in postorder
    # (node, its shape once its children are rebuilt, where they start in done)
    stack: list = [(term, None, 0)]
    while stack:
        node, shape, start = stack.pop()
        if shape is None:
            shape = SHAPES[type(node)]
            kids = shape.children(node)
            if not kids:
                done.append(shape.rebuild(node, kids, None, fn))
                continue
            stack.append((node, shape, len(done)))
            stack += [(c, None, 0) for _, c, _ in reversed(kids)]
            continue
        kids = done[start:]
        del done[start:]
        if isinstance(node, forms):
            done.append(kids[0])
        else:
            done.append(shape.rebuild(node, kids, None, fn))
    return done[0]


def same_data(shape: Shape, m: Term, n: Term) -> bool:
    """The two nodes of ``shape``'s form agree on every ``data`` field."""
    for name in shape.data:
        a, b = getattr(m, name), getattr(n, name)
        if type(a) is not type(b) or a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# kept facts (see the module docstring): outside the dataclass fields they
# never join ==, hash or repr, and a node made anew (by rebuild or
# dataclasses.replace) starts without them; reading them through __dict__
# would make every attribute read of the node slower


_PRESENCE_FORMS = (Absent, Present, PresVar)
_NO_NAMES: frozenset[str] = frozenset()

# the parts of a type or row whose names it mentions, and the names it
# mentions itself
_TYPE_NAMES: dict[type, Callable[[Any], tuple[list, list[str]]]] = {
    TyVar: lambda t: ([], [t.name]),
    Base: lambda t: ([], []),
    Arrow: lambda t: ([t.dom, t.cod], []),
    Variant: lambda t: ([t.row], []),
    Record: lambda t: ([t.row], []),
    ForallRow: lambda t: ([t.body], [t.var]),
    ForallPres: lambda t: ([t.body], [t.var]),
    Row: lambda r: (
        [t for _, _, t in r.entries],
        ([] if r.tail is None else [r.tail])
        + [p.name for _, p, _ in r.entries if type(p) is PresVar],
    ),
}


def _keep(top, attr: str, visit: Callable):
    """``top``'s kept fact ``attr``, computed first for every node under it
    that has none.  ``visit(node, stack)`` pushes onto ``stack`` the parts of
    ``node`` that have no fact yet; when it pushes none, what it returns is
    the node's fact, made from its parts' facts (a node is never its own
    part).  The walk keeps an explicit stack, so a term of any depth is
    fine."""
    stack = [top]
    while stack:
        node = stack[-1]
        fact = visit(node, stack)
        if stack[-1] is node:  # it pushed no part
            object.__setattr__(node, attr, fact)
            stack.pop()
    return getattr(top, attr)


def _visit_size(term: Term, stack: list) -> int:
    size = 1
    for _, child, _ in SHAPES[type(term)].children(term):
        kept = getattr(child, "_size", None)
        if kept is None:
            stack.append(child)
        else:
            size += kept
    return size


def term_size(term: Term) -> int:
    """The number of nodes of the term as a tree, kept on each node as
    ``_size``: after the first call on a term, a read of one attribute.

    The facts a frozen node keeps are ``_key`` and ``_text`` (types and
    rows: ``type_key`` and ``pretty.show_type``), ``_size`` (terms),
    ``_free`` (terms: ``free_vars``) and ``_names`` (terms, types and rows:
    ``type_level_names``).  They are read with ``getattr``, never through
    ``__dict__``."""
    size = getattr(term, "_size", None)
    return _keep(term, "_size", _visit_size) if size is None else size


def _visit_names(node, stack: list) -> frozenset[str]:
    shape = SHAPES.get(type(node))
    if shape is None:
        parts, own = _TYPE_NAMES[type(node)](node)
    else:
        # a term: its children, its type-level parts and its type binder
        parts = [child for _, child, _ in shape.children(node)]
        own = [node.var] if shape.tybinder else []
        for name in shape.types:
            part = getattr(node, name)
            if type(part) is PresVar:
                own.append(part.name)
            elif part is not None and type(part) not in _PRESENCE_FORMS:
                parts.append(part)
    names = _NO_NAMES
    for part in parts:
        kept = getattr(part, "_names", None)
        if kept is None:
            stack.append(part)
        elif not kept <= names:  # reuse a part's set where it holds them all
            names = names | kept if names else kept
    return names.union(own) if own and not names.issuperset(own) else names


def type_level_names(x: Term | Type | Row | Presence) -> frozenset[str]:
    """Every type-level name that a term, type, row or presence mentions,
    bound or free: type variables, row tails, presence variables, the names
    quantifiers and type abstractions bind, and those in a term's
    annotations, cast targets and row and presence arguments.  Terms, types
    and rows keep it as ``_names`` (see ``term_size``); a presence's is read
    off it."""
    if isinstance(x, _PRESENCE_FORMS):
        return frozenset((x.name,)) if type(x) is PresVar else _NO_NAMES
    names = getattr(x, "_names", None)
    return _keep(x, "_names", _visit_names) if names is None else names


# ---------------------------------------------------------------------------
# binder environments: a comparison of two terms up to renaming pairs each
# binder on the left with its partner on the right, so a free name on one
# side never matches a bound name on the other.  An environment is a tuple
# of (left, right) pairs, innermost first, so it can be part of a memo key.


Names = tuple[tuple[str, str], ...]
NO_NAMES: Names = ()


def bind(env: Names, x: str, y: str) -> Names:
    """``env`` under a left binder ``x`` paired with a right binder ``y``."""
    return ((x, y),) + env


def same_name(env: Names, x: str, y: str) -> bool:
    """``x`` on the left and ``y`` on the right name the same thing: the
    innermost binders of both are partners, or both are free and equal."""
    for a, b in env:
        if a == x or b == y:
            return a == x and b == y
    return x == y


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


def _visit_free(term: Term, stack: list) -> frozenset[str]:
    if type(term) is Var:
        return frozenset((term.name,))
    free = _NO_NAMES
    for _, child, binder in SHAPES[type(term)].children(term):
        kept = getattr(child, "_free", None)
        if kept is None:
            stack.append(child)
            continue
        if binder in kept:
            kept = kept - {binder}
        if not kept <= free:  # reuse a child's set where it holds them all
            free = free | kept if free else kept
    return free


def free_vars(term: Term) -> frozenset[str]:
    """The free term variables, kept on each node as ``_free`` (see
    ``term_size``)."""
    free = getattr(term, "_free", None)
    return _keep(term, "_free", _visit_free) if free is None else free


def free_type_names(ty: Type) -> dict[str, type]:
    """Free type-level names in first-occurrence order (type, row and presence
    variables share one space), each with the kind class of its first
    occurrence: KType for a type variable, KRow for a row tail, KPre for a
    presence variable."""
    out: dict[str, type] = {}
    _free_names(ty, frozenset(), out)
    return out


def _free_names(t: Type, bound: frozenset[str], out: dict[str, type]) -> None:
    if isinstance(t, TyVar):
        if t.name not in bound:
            out.setdefault(t.name, KType)
    elif isinstance(t, Base):
        return
    elif isinstance(t, (Variant, Record)):
        for _, pres, a in t.row.entries:
            if isinstance(pres, PresVar) and pres.name not in bound:
                out.setdefault(pres.name, KPre)
            _free_names(a, bound, out)
        if t.row.tail is not None and t.row.tail not in bound:
            out.setdefault(t.row.tail, KRow)
    elif isinstance(t, Arrow):
        _free_names(t.dom, bound, out)
        _free_names(t.cod, bound, out)
    elif isinstance(t, (ForallRow, ForallPres)):
        _free_names(t.body, bound | {t.var}, out)
    else:
        raise TypeError(f"not a type: {t!r}")


def term_names(term: Term) -> set[str]:
    """Every term variable occurring in the term, bound or free."""
    out: set[str] = set()
    stack = [term]
    while stack:
        sub = stack.pop()
        if type(sub) is Var:
            out.add(sub.name)
        for _, child, binder in SHAPES[type(sub)].children(sub):
            if binder is not None:
                out.add(binder)
            stack.append(child)
    return out


def row_use_lacks(name: str, ty: Type) -> frozenset[str] | None:
    """Lacks set implied by the first use of `name` as a row tail, if any."""
    if isinstance(ty, Arrow):
        found = row_use_lacks(name, ty.dom)
        return found if found is not None else row_use_lacks(name, ty.cod)
    if isinstance(ty, (Variant, Record)):
        if ty.row.tail == name:
            return frozenset(ty.row.labels())
        for _, _, sub in ty.row.entries:
            found = row_use_lacks(name, sub)
            if found is not None:
                return found
        return None
    if isinstance(ty, (ForallRow, ForallPres)):
        return None if ty.var == name else row_use_lacks(name, ty.body)
    return None


# ---------------------------------------------------------------------------
# substitution


def subst_term(body: Term, replacement: Term, var: str) -> Term:
    """body[replacement/var], capture-avoiding with deterministic renames.

    Every subterm the substitution leaves unchanged comes back as the same
    object, the whole body included when ``var`` is not free in it.  A
    subterm whose kept free variables (``free_vars``) lack ``var`` is
    returned without a walk, so the substitution enters only the nodes on
    the paths from the root to the free occurrences of ``var``: a shared
    subterm once per such path, and nothing of the rest of the body."""
    if var not in free_vars(body):
        return body
    fvs = free_vars(replacement)

    def go(sub: Term) -> Term:
        if type(sub) is Var:  # ``var`` is free in ``sub``: an occurrence
            return replacement
        shape = SHAPES[type(sub)]
        parts = shape.children(sub)
        kids: list[Term] = []
        same = True
        for _, child, binder in parts:
            # a child under a binder of `var` itself is left alone
            new = go(child) if binder != var and var in child._free else child
            same = same and new is child
            kids.append(new)
        if same:
            return sub
        names = None  # the binder names, once one of them changes
        for i, (_, child, binder) in enumerate(parts):
            if binder in fvs and binder != var:
                # the binder would capture a free name of the replacement
                names = names or [b for _, _, b in parts]
                names[i] = _fresh_binder(binder, fvs | {var} | term_names(child))
                renamed = subst_term(child, Var(names[i]), binder)
                kids[i] = subst_term(renamed, replacement, var)
        return shape.rebuild(sub, kids, names)

    return go(body)


def subst_type_in_type(ty: Type, arg: Row | Presence | TyVar, var: str) -> Type:
    """ty[arg/var]; arg is a row (for row variables), a presence mark, or a
    type variable (for type variables).  Unchanged parts come back as the
    same objects."""
    return _subst_type(ty, arg, var, _arg_names(arg))


def _arg_names(arg: Row | Presence | TyVar) -> set[str]:
    """The free type-level names of a substituted row, presence or type
    variable."""
    if isinstance(arg, Row):
        return set(free_type_names(Record(arg)))
    if isinstance(arg, (PresVar, TyVar)):
        return {arg.name}
    return set()


def _fresh_binder(binder: str, taken: set[str]) -> str:
    """The first of ``base$0``, ``base$1``, ... (``base`` the binder's name
    before any ``$``, or ``x`` when that is empty, as ``NameSupply`` has it)
    that is not taken: the name every substitution gives a binder it renames
    so that it cannot capture."""
    base = binder.split("$", 1)[0] or "x"
    n = 0
    while f"{base}${n}" in taken:
        n += 1
    return f"{base}${n}"


def _subst_type(
    ty: Type, arg: Row | Presence | TyVar, var: str, arg_names: set[str]
) -> Type:
    def go(t: Type) -> Type:
        if isinstance(t, TyVar):
            return arg if t.name == var and isinstance(arg, TyVar) else t
        if isinstance(t, Base):
            return t
        if isinstance(t, Arrow):
            dom, cod = go(t.dom), go(t.cod)
            return t if dom is t.dom and cod is t.cod else Arrow(dom, cod)
        if isinstance(t, (Variant, Record)):
            row = go_row(t.row)
            return t if row is t.row else type(t)(row)
        if isinstance(t, (ForallRow, ForallPres)):
            if t.var == var:
                return t
            new, body = t.var, t.body
            if t.var in arg_names:
                new = _fresh_binder(t.var, arg_names | {var} | type_level_names(t.body))
                fresh = Row((), new) if isinstance(t, ForallRow) else PresVar(new)
                body = subst_type_in_type(body, fresh, t.var)
            body = go(body)
            if new == t.var and body is t.body:
                return t
            if isinstance(t, ForallRow):
                return ForallRow(new, t.kind, body)
            return ForallPres(new, body)
        raise TypeError(f"not a type: {t!r}")

    def go_row(row: Row) -> Row:
        entries = []
        same = True
        for entry in row.entries:
            label, pres, t = entry
            if isinstance(pres, PresVar) and pres.name == var and isinstance(arg, (Absent, Present, PresVar)):
                pres = arg
            new = go(t)
            if pres is not entry[1] or new is not t:
                same = False
                entry = (label, pres, new)
            entries.append(entry)
        if row.tail == var:
            if not isinstance(arg, Row):
                raise TypeError("row variable substituted with what is not a row")
            return Row(tuple(entries) + arg.entries, arg.tail)
        return row if same else Row(tuple(entries), row.tail)

    return go(ty)


def rename_type_name(ty: Type, old: str, kind: Kind, new: str) -> Type:
    """ty with the type-level name ``old``, of kind ``kind``, renamed ``new``."""
    if isinstance(kind, KRow):
        return subst_type_in_type(ty, Row((), new), old)
    if isinstance(kind, KPre):
        return subst_type_in_type(ty, PresVar(new), old)
    return subst_type_in_type(ty, TyVar(new), old)


def subst_type_in_term(term: Term, arg: Row | Presence, var: str) -> Term:
    """Substitute a type-level name throughout a term's annotations and
    arguments; unchanged subterms and types come back as the same objects.
    A subterm or type part whose kept names (``type_level_names``) do not
    include ``var`` is returned as it is, without a walk.  A type abstraction
    whose binder is free in ``arg`` is renamed, as ``subst_type_in_type``
    renames a quantifier, so that it cannot capture."""
    if var not in type_level_names(term):
        return term
    arg_names = _arg_names(arg)
    done: dict[int, tuple] = {}  # id -> (part, its image): parts are shared

    def go_part(part):
        if isinstance(part, _PRESENCE_FORMS):
            hit = type(part) is PresVar and part.name == var
            return arg if hit and not isinstance(arg, Row) else part
        if part is None or var not in part._names:
            return part
        hit = done.get(id(part))
        if hit is None:
            hit = done[id(part)] = (part, subst_part(part))
        return hit[1]

    def subst_part(part):
        if isinstance(part, Row):
            record = Record(part)
            new = _subst_type(record, arg, var, arg_names)
            return part if new is record else new.row
        return _subst_type(part, arg, var, arg_names)

    def go(sub: Term) -> Term:
        shape = SHAPES[type(sub)]
        if shape.tybinder and sub.var == var:
            return sub
        if shape.tybinder and sub.var in arg_names:
            new = _fresh_binder(sub.var, arg_names | {var} | type_level_names(sub.body))
            body = subst_type_in_term(sub.body, shape.tybinder(new), sub.var)
            return replace(sub, var=new, body=subst_type_in_term(body, arg, var))
        kids: list[Term] = []
        same = True
        for _, child, _ in shape.children(sub):
            new = go(child) if var in child._names else child
            same = same and new is child
            kids.append(new)
        if same and all(
            go_part(getattr(sub, name)) is getattr(sub, name) for name in shape.types
        ):
            return sub
        return shape.rebuild(sub, kids, None, go_part)

    return go(term)


# ---------------------------------------------------------------------------
# row algebra and equality


def normalize_row(row: Row) -> Row:
    """Sort entries by label (bytewise) and drop Absent entries.

    Raises MalformedRowError on duplicate labels. Idempotent.
    """
    seen: set[str] = set()
    for label in row.labels():
        if label in seen:
            raise MalformedRowError(f"duplicate label {label!r}")
        seen.add(label)
    entries = [e for e in row.entries if not isinstance(e[1], Absent)]
    return Row(tuple(sorted(entries, key=lambda e: e[0])), row.tail)


def row_dom(row: Row) -> frozenset[str]:
    return frozenset(row.labels())


def _ref(name: str, names: tuple[str, ...]) -> int | str:
    """``name`` in a key: its de Bruijn index if ``names`` binds it, else itself."""
    return names.index(name) if name in names else name


def _row_key(row: Row, names: tuple[str, ...]) -> tuple:
    labels = row.labels()
    if len(set(labels)) != len(labels):
        raise MalformedRowError(f"duplicate label in {labels!r}")
    entries = [
        (label, type_key(pres, names), type_key(ty, names))
        for label, pres, ty in row.entries
        if type(pres) is not Absent
    ]
    entries.sort()
    tail = None if row.tail is None else _ref(row.tail, names)
    return Row, tuple(entries), tail


_KEY_FORMS: dict[type, Callable[[Any, tuple[str, ...]], tuple]] = {
    TyVar: lambda t, ns: (TyVar, _ref(t.name, ns)),
    Base: lambda t, ns: (Base, t.tag),
    Arrow: lambda t, ns: (Arrow, type_key(t.dom, ns), type_key(t.cod, ns)),
    Variant: lambda t, ns: (Variant, type_key(t.row, ns)),
    Record: lambda t, ns: (Record, type_key(t.row, ns)),
    ForallRow: lambda t, ns: (ForallRow, t.kind.lacks, type_key(t.body, (t.var, *ns))),
    ForallPres: lambda t, ns: (ForallPres, type_key(t.body, (t.var, *ns))),
    Row: _row_key,
    Absent: lambda t, ns: (Absent,),
    Present: lambda t, ns: (Present,),
    PresVar: lambda t, ns: (PresVar, _ref(t.name, ns)),
}
_TYPE_FORMS = frozenset(get_args(Type))


def type_key(t: Type | Row | Presence, names: tuple[str, ...] = ()) -> tuple:
    """The key of a type, row or presence under the type-level binders
    ``names`` (innermost first): a nested tuple of its form and its parts'
    keys, with each bound name as its de Bruijn index and each free name as
    itself, and rows normalized as ``normalize_row`` does.  A duplicate label
    raises MalformedRowError, and what is not a type raises TypeError.

    Types and rows are frozen, so a key computed outside every binder is
    kept on the object and can never go stale; one under binders is not."""
    key = None if names else getattr(t, "_key", None)
    if key is None:
        form = _KEY_FORMS.get(type(t))
        if form is None:
            raise TypeError(f"not a type: {t!r}")
        key = form(t, names)
        if not names:
            object.__setattr__(t, "_key", key)
    return key


def type_equal(a: Type, b: Type) -> bool:
    """Equality modulo alpha-renaming and row normalization: the types have
    the same ``type_key`` (bound names as de Bruijn indices, rows sorted).
    Types are frozen, so each keeps its key once computed.  A duplicate label
    or a non-type (a row included) makes them unequal."""
    if type(a) is not type(b) or type(a) not in _TYPE_FORMS:
        return False
    ka, kb = getattr(a, "_key", None), getattr(b, "_key", None)
    if ka is None or kb is None:
        return _same_key(a, (), b, ())
    return ka == kb


def _same_key(a, left: tuple[str, ...], b, right: tuple[str, ...]) -> bool:
    """``a`` under ``left`` and ``b`` under ``right`` have one key (not none)."""
    try:
        return type_key(a, left) == type_key(b, right)
    except (MalformedRowError, TypeError):
        return False


# ---------------------------------------------------------------------------
# alpha equivalence of terms


def alpha_eq(m: Term, n: Term, env: Names = NO_NAMES, tyenv: tuple = ((), ())) -> bool:
    """Equality modulo bound renaming, row normalization in annotations, the
    order of case branches and record fields, and record fields marked absent
    by their annotation; ``m`` and ``n`` are compared under the term binder
    pairs ``env`` and the type binders ``tyenv`` (see ``match_node``)."""
    pairs = match_node(m, n, env, tyenv)
    if pairs is None:
        return False
    for a, b, inner, tyinner in pairs:
        if not alpha_eq(a, b, inner, tyinner):
            return False
    return True


def _part_eq(a, b, tyenv: tuple[tuple[str, ...], tuple[str, ...]]) -> bool:
    """Two type-level parts of the same field (types, rows or presences)
    under the type binders ``tyenv``: a left and a right stack."""
    if a is None or b is None:
        return a is b
    return _same_key(a, tyenv[0], b, tyenv[1])


def _slot(part: tuple) -> str:
    return part[0]


def match_node(m: Term, n: Term, env: Names, tyenv: tuple) -> list | None:
    """One node of ``alpha_eq``: the children of ``m`` and ``n`` paired by
    slot, each pair as ``(child of m, child of n, env, tyenv)`` with the
    environments it is compared under, or None when the nodes differ.

    ``env`` pairs the term binders of the two sides (``bind``); ``tyenv`` is
    the two stacks of type-level binders, innermost first, under which the
    type-level parts are compared by key (``type_key``).  Two nodes differ in
    form, in a ``data`` field, in a type-level part, in the slots of their
    children (record fields that the annotation marks absent left out), or,
    for two variables, in what they name (``same_name``)."""
    if type(m) is not type(n):
        return None
    if type(m) is Var:
        return [] if same_name(env, m.name, n.name) else None
    shape = SHAPES[type(m)]
    if shape.data and not same_data(shape, m, n):
        return None
    for name in shape.types:
        if not _part_eq(getattr(m, name), getattr(n, name), tyenv):
            return None
    if shape.tybinder:
        tyenv = ((m.var, *tyenv[0]), (n.var, *tyenv[1]))
    mk, nk = shape.children(m), shape.children(n)
    if type(m) is RecordLit:
        mk, nk = _live_fields(m, mk), _live_fields(n, nk)
    if len(mk) != len(nk):
        return None
    # children pair up by slot; sort only when the two orders differ
    for a, b in zip(mk, nk):
        if a[0] != b[0]:
            mk, nk = sorted(mk, key=_slot), sorted(nk, key=_slot)
            break
    pairs = []
    for (sm, cm, xm), (sn, cn, xn) in zip(mk, nk):
        if sm != sn:
            return None
        pairs.append((cm, cn, env if xm is None else bind(env, xm, xn), tyenv))
    return pairs


def _live_fields(rec: RecordLit, kids: list) -> list:
    """The field children of ``rec`` its annotation does not mark absent."""
    if not isinstance(rec.annot, Record):
        return kids
    dropped = {_FIELD[l] for l, p, _ in rec.annot.row.entries if isinstance(p, Absent)}
    return [k for k in kids if k[0] not in dropped]


# ---------------------------------------------------------------------------
# small constructors used all over the tests and translations


def closed_row(*pairs: tuple[str, Type]) -> Row:
    return Row(tuple((label, Present(), ty) for label, ty in pairs), None)


def variant(*pairs: tuple[str, Type]) -> Variant:
    return Variant(closed_row(*pairs))


def record(*pairs: tuple[str, Type]) -> Record:
    return Record(closed_row(*pairs))
