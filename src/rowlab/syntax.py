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
  reduction, the comparison of terms and the translations' default rule
  all read it instead of matching on the forms themselves
- a two-sided binder environment (``bind``, ``same_name``), a hashable
  tuple of (left, right) binder pairs, that every comparison of terms up to
  renaming shares, and ``match_node``, the one place two terms' children
  are paired, with the environments they are compared under: up to alpha
  equivalence or, with ``wider``, the record-width preorder.  ``agree``
  applies it at every node pair, for ``alpha_eq`` and ``term_preorder``; a
  search descends two terms the same way without renaming either
- ``free_type_names``, the one walk for the free type-level names of a
  term, type, row or presence and the kind their uses give them (a row
  tail's lacks set, or a presence), on an explicit stack; it reads the same
  table of type parts (``_TYPE_NAMES``) as ``type_level_names``
- capture-avoiding substitution at the term and type level
- canonical row normalization, the row domain, alpha equivalence
- canonical type keys (``type_key``), which type and scheme equality and the
  annotations of alpha equivalence compare

``agree`` and ``==`` meet each node pair once, on an explicit stack, so
terms that share subterms (a cast stack's translation is a tree
exponential in its casts) cost what their distinct pairs cost.  ``strip``
(so erasure) and the substitutions rebuild each node object once, and keep
the sharing.

Each node keeps facts computed once from its parts' facts, each in a slot of
its own that is None in a node made anew: every node its hash ``_hash`` (a
term's leaves out every name, so ``alpha_eq`` rejects terms that keep two
hashes with no walk), a type, row or presence its key ``_key`` and its keys
under binder stacks ``_keys`` (``type_key``), a term its tree size ``_size``
(``term_size``) and its free term variables ``_free`` (``free_vars``), a
term, type or row the set ``_names`` of every type-level name it mentions
(``type_level_names``), and a row or presence application that meets its
binder its contractum ``_contractum`` (``dynamics``).  The name sets let ``subst_term`` and
``subst_type_in_term`` return untouched subterms without a walk.

Rows are stored in source order; comparisons normalize. Names are plain
strings; fresh names come from a NameSupply and look like "x$3".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, get_args


class MalformedRowError(Exception):
    """A row with duplicate labels."""


# ---------------------------------------------------------------------------
# the node base


def _slotted(name: str, bases: tuple, ns: dict, facts: tuple[str, ...] = ()) -> type:
    """Each node class's metaclass.  A node class lists its fields as
    annotations, in order, with any default, and in ``facts`` the facts it
    keeps beyond its base's.  Fields and facts are slots, and the class gets
    ``_fields``, ``_facts`` and an ``__init__``, made once, that sets each
    field from its argument and each fact to None.  The class is a plain
    ``type``: ``isinstance`` against one whose type is not costs twice as much."""
    fields = tuple(ns.get("__annotations__", ()))
    defaults = tuple(ns.pop(f) for f in fields if f in ns)
    ns["__slots__"] = fields + facts
    cls = type(name, bases, ns)
    cls._fields, cls._facts = fields, (bases[0]._facts if bases else ()) + facts
    sets = "".join(f"self.{f} = {f}; " for f in fields)
    scope: dict = {}
    exec(f"def __init__(self{''.join(', ' + f for f in fields)}): {sets}"
         f"self.{' = self.'.join(cls._facts)} = None", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__defaults__ = defaults or None
    return cls


class Node(metaclass=_slotted, facts=("_hash",)):
    """A kind, presence, row, type, type scheme or term, with a frozen
    dataclass's repr.  No code changes a field after ``__init__``
    (``tests/test_immutable_nodes.py``), so the hash is a fact, kept once
    made on an explicit stack (``_keep``): a kind's, type's, row's,
    presence's or scheme's from all its fields, a term's from its shape
    alone (``Term.__hash__``)."""

    def __eq__(self, other):
        """Of one class with equal fields, each leaf value of one type
        (``Lit(True) != Lit(1)``); a walk that meets each node pair once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        met = set()
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if type(x) is not type(y):
                return False
            if isinstance(x, Node):
                if x is not y and (id(x), id(y)) not in met:
                    met.add((id(x), id(y)))
                    for f in x._fields:  # plain values before any walk below
                        u, v = getattr(x, f), getattr(y, f)
                        if type(u) is tuple or isinstance(u, Node):
                            stack.append((u, v))
                        elif type(u) is not type(v) or u != v:
                            return False
            elif type(x) is tuple and len(x) == len(y):
                stack += zip(x, y)
            elif x != y:  # tuples of two lengths included
                return False
        return True

    def __hash__(self):
        kept = self._hash
        return _keep(self, "_hash", _visit_hash) if kept is None else kept

    def __repr__(self):
        """``Class(field=value, ...)``, built on an explicit stack of text
        (a str) and of nodes and tuples still to show."""
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            if type(x) is tuple:
                head, pairs, end = "(", [("", v) for v in x], ",)" if len(x) == 1 else ")"
            else:
                head, end = type(x).__qualname__ + "(", ")"
                pairs = [(f + "=", getattr(x, f)) for f in x._fields]
            items = [head]
            for i, (name, v) in enumerate(pairs):
                shown = v if type(v) is tuple or isinstance(v, Node) else repr(v)
                items += (", " if i else "") + name, shown
            stack += reversed([*items, end])
        return "".join(out)


# ---------------------------------------------------------------------------
# kinds and presence marks


class KType(Node, metaclass=_slotted):
    """Kind of value types."""


class KRow(Node, metaclass=_slotted):
    """Kind of rows that must not mention the labels in `lacks`."""

    lacks: frozenset[str]


class KPre(Node, metaclass=_slotted):
    """Kind of presence annotations."""


Kind = KType | KRow | KPre


class _Part(Node, metaclass=_slotted, facts=("_key", "_keys", "_names")):
    """A presence, row or type: what a term's type-level parts are made of."""


class Absent(_Part, metaclass=_slotted):
    """Presence mark for a label hidden from the row."""


class Present(_Part, metaclass=_slotted):
    """Presence mark for a label usable in the row."""


class PresVar(_Part, metaclass=_slotted):
    """Presence variable."""

    name: str


Presence = Absent | Present | PresVar


# ---------------------------------------------------------------------------
# rows and types


class Row(_Part, metaclass=_slotted):
    """Ordered label/presence/type entries with an optional row-variable tail."""

    entries: tuple[tuple[str, Presence, "Type"], ...]
    tail: str | None = None

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.entries)


class TyVar(_Part, metaclass=_slotted):
    """Type variable."""

    name: str


class Base(_Part, metaclass=_slotted):
    """Builtin base type, tag 'Int' or 'String'."""

    tag: str


class Arrow(_Part, metaclass=_slotted):
    dom: "Type"
    cod: "Type"


class Variant(_Part, metaclass=_slotted):
    row: Row


class Record(_Part, metaclass=_slotted):
    row: Row


class ForallRow(_Part, metaclass=_slotted):
    """Row quantifier; kind is always a KRow."""

    var: str
    kind: KRow
    body: "Type"


class ForallPres(_Part, metaclass=_slotted):
    var: str
    body: "Type"


Type = TyVar | Base | Arrow | Variant | Record | ForallRow | ForallPres


class TypeScheme(Node, metaclass=_slotted):
    """Prenex scheme: quantified (name, kind) pairs over a body type."""

    quants: tuple[tuple[str, Kind], ...]
    body: Type


# ---------------------------------------------------------------------------
# terms


class Term(Node, metaclass=_slotted, facts=("_size", "_free", "_names")):
    """A term: one of the forms below, ``Var`` to ``Prim``."""

    def __hash__(self):
        """The term's shape hash, kept once made (``_visit_shape``): its
        form, its ``data`` fields, the form class of each type-level part
        and its children's hashes by slot.  It leaves out every name (a
        variable's, a binder's, a type variable's) and what the type-level
        parts hold, so alpha-equal terms hash alike, and so do ``==``-equal
        ones: ``==`` tells apart the alpha-variants that share a hash."""
        kept = self._hash
        return _keep(self, "_hash", _visit_shape) if kept is None else kept


class Var(Term, metaclass=_slotted):
    name: str


class Lam(Term, metaclass=_slotted):
    """Annotation is None only in rank-1 calculi and untyped terms."""

    var: str
    annot: Type | None
    body: "Term"


class App(Term, metaclass=_slotted):
    fn: "Term"
    arg: "Term"


class Inject(Term, metaclass=_slotted):
    label: str
    payload: "Term"
    annot: Type | None


class Case(Term, metaclass=_slotted):
    scrutinee: "Term"
    branches: tuple[tuple[str, str, "Term"], ...]


class RecordLit(Term, metaclass=_slotted):
    """Annotation is required in presence-typed record calculi."""

    fields: tuple[tuple[str, "Term"], ...]
    annot: Type | None = None

    def field(self, label: str) -> "Term | None":
        for name, term in self.fields:
            if name == label:
                return term
        return None


class Project(Term, metaclass=_slotted):
    term: "Term"
    label: str


class Upcast(Term, metaclass=_slotted):
    term: "Term"
    target: Type


class RowAbs(Term, metaclass=_slotted):
    var: str
    kind: KRow
    body: "Term"


class RowApp(Term, metaclass=_slotted, facts=("_contractum",)):
    """origin is 'source' for written applications, 'upcast' for the ones
    introduced by upcast translation (they reduce by a separate relation)."""

    term: "Term"
    row: Row
    origin: str = "source"


class PresAbs(Term, metaclass=_slotted):
    var: str
    body: "Term"


class PresApp(Term, metaclass=_slotted, facts=("_contractum",)):
    term: "Term"
    presence: Presence
    origin: str = "source"


class Let(Term, metaclass=_slotted):
    var: str
    bound: "Term"
    body: "Term"


class Lit(Term, metaclass=_slotted):
    value: int | str


class Prim(Term, metaclass=_slotted):
    """Builtin operator application; op is '-', '+' or '++'."""

    op: str
    args: tuple["Term", ...]


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


# The one-child type-level forms: erasure removes them, the preorder relates none.
TYPE_LEVEL = (Upcast, RowAbs, RowApp, PresAbs, PresApp)


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
    any depth is fine, and once per node object, so a subterm shared in
    ``term`` is shared in the result."""
    done: list[Term] = []  # the rebuilt subterms not yet used, in postorder
    images: dict[int, Term] = {}  # id of a node -> its image; term holds them
    # (node, its shape once its children are rebuilt, where they start in done)
    stack: list = [(term, None, 0)]
    while stack:
        node, shape, start = stack.pop()
        if shape is None:
            image = images.get(id(node))
            if image is not None:
                done.append(image)
                continue
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
        image = kids[0] if isinstance(node, forms) else shape.rebuild(node, kids, None, fn)
        images[id(node)] = image
        done.append(image)
    return done[0]


# ---------------------------------------------------------------------------
# kept facts (see the module docstring): each is a slot of its node beside
# the fields, None until it is first asked for, and never part of ==, hash
# or repr; a node made anew (by a constructor or ``rebuild``) has none yet


_PRESENCE_FORMS = (Absent, Present, PresVar)
_NO_NAMES: frozenset[str] = frozenset()

# each type-level form's parts in walk order (a row's: each entry's presence
# and type, then its tail as a plain name) and the name it has itself: a type
# variable's, or the one a quantifier binds over its body
_TYPE_NAMES: dict[type, Callable[[Any], tuple[list, str | None]]] = {
    TyVar: lambda t: ([], t.name),
    Base: lambda t: ([], None),
    Arrow: lambda t: ([t.dom, t.cod], None),
    Variant: lambda t: ([t.row], None),
    Record: lambda t: ([t.row], None),
    ForallRow: lambda t: ([t.body], t.var),
    ForallPres: lambda t: ([t.body], t.var),
    Row: lambda r: (
        [part for _, p, t in r.entries for part in (p, t)]
        + ([] if r.tail is None else [r.tail]),
        None,
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
            setattr(node, attr, fact)
            stack.pop()
    return getattr(top, attr)


def _visit_hash(node: Node, stack: list) -> int:
    values = tuple([getattr(node, f) for f in node._fields])
    tuples = [values]  # the field values, then the tuples among them
    while tuples:
        for value in tuples.pop():
            if type(value) is tuple:
                tuples.append(value)
            elif isinstance(value, Node) and value._hash is None:
                stack.append(value)
    return hash((type(node), values)) if stack[-1] is node else 0


def _visit_shape(term: Term, stack: list) -> int:
    shape = SHAPES[type(term)]
    kids = shape.children(term)
    for _, child, _ in kids:
        if child._hash is None:
            stack.append(child)
    if stack[-1] is not term:
        return 0
    if type(term) is RecordLit or type(term) is Case:  # slots named by labels
        if type(term) is RecordLit:
            kids = _live_fields(term, kids)
        kids = sorted(kids, key=_slot)
        hashes = [(slot, child._hash) for slot, child, _ in kids]
    else:  # slots fixed by the form, in its order
        hashes = [child._hash for _, child, _ in kids]
    data = [getattr(term, f) for f in shape.data]
    forms = [type(getattr(term, f)) for f in shape.types]
    return hash((type(term), *data, *forms, *hashes))


def _visit_size(term: Term, stack: list) -> int:
    size = 1
    for _, child, _ in SHAPES[type(term)].children(term):
        kept = child._size
        if kept is None:
            stack.append(child)
        else:
            size += kept
    return size


def term_size(term: Term) -> int:
    """The number of nodes of the term as a tree, kept in each node's slot
    ``_size`` (the module docstring lists every fact slot): after the first
    call on a term, a read of one attribute.  A node made anew has no
    kept fact until something asks for it."""
    size = term._size
    return _keep(term, "_size", _visit_size) if size is None else size


def _visit_names(node, stack: list) -> frozenset[str]:
    shape = SHAPES.get(type(node))
    if shape is None:
        parts, name = _TYPE_NAMES[type(node)](node)
    else:  # a term: its children, its type-level parts and its type binder
        parts = [child for _, child, _ in shape.children(node)]
        for field in shape.types:
            parts.append(getattr(node, field))
        name = node.var if shape.tybinder else None
    own = [] if name is None else [name]
    names = _NO_NAMES
    for part in parts:
        if type(part) is str or type(part) is PresVar:  # a row tail or presence
            own.append(part if type(part) is str else part.name)
        elif part is not None and type(part) not in _PRESENCE_FORMS:
            kept = part._names
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
    and rows keep it in the slot ``_names`` (see ``term_size``); a
    presence's is read off it."""
    if isinstance(x, _PRESENCE_FORMS):
        return frozenset((x.name,)) if type(x) is PresVar else _NO_NAMES
    names = x._names
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
    """Deterministic fresh-name source; never returns a name in `avoid`.
    A substitution renames a binder that would capture by a new supply that
    avoids the names in scope: the first ``base$n`` none of them takes."""

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
        kept = child._free
        if kept is None:
            stack.append(child)
            continue
        if binder in kept:
            kept = kept - {binder}
        if not kept <= free:  # reuse a child's set where it holds them all
            free = free | kept if free else kept
    return free


def free_vars(term: Term) -> frozenset[str]:
    """The free term variables, kept in each node's slot ``_free`` (see
    ``term_size``)."""
    free = term._free
    return _keep(term, "_free", _visit_free) if free is None else free


def free_type_names(x: Term | Type | Row | Presence) -> dict[str, Kind]:
    """The free type-level names of a term, type, row or presence, in order
    of first occurrence, with the kind their uses give them: a name used as
    a row tail gets the ``KRow`` lacking the labels beside its first such
    use, any other name ``KPre`` where it first occurs as a presence and
    ``KType`` elsewhere.  A term's annotations, cast targets and row and
    presence arguments are read, and its type abstractions bind.

    The one walk for free names, on an explicit stack.  It takes a type's
    parts in ``_TYPE_NAMES`` order and a term's type-level parts before its
    children, and a row's tail as a use for the lacks set when it enters
    the row, before the row's entries."""
    kinds: dict[str, Kind] = {}  # at each free name's first occurrence
    tails: dict[str, Kind] = {}  # at each free row tail's first use
    bound: dict[str, int] = {}  # how many binders of each name enclose the walk
    stack = [x]
    while stack:
        node = stack.pop()
        form = type(node)
        if form is tuple:  # the end of a binder's scope
            bound[node[0]] -= 1
        elif form is str or form is TyVar or form is PresVar:
            name = node if form is str else node.name
            if name not in kinds and not bound.get(name):  # a tail's is in tails
                kinds[name] = KPre() if form is PresVar else KType()
        elif node is not None and form is not Absent and form is not Present:
            shape = SHAPES.get(form)
            if shape is None:
                parts, binder = _TYPE_NAMES[form](node)
            else:  # a term: its type-level parts, then its children
                parts = [getattr(node, name) for name in shape.types]
                parts += [child for _, child, _ in shape.children(node)]
                binder = node.var if shape.tybinder else None
            if binder is not None:
                bound[binder] = bound.get(binder, 0) + 1
                stack.append((binder,))
            tail = node.tail if form is Row else None
            if tail is not None and tail not in tails and not bound.get(tail):
                tails[tail] = KRow(frozenset(node.labels()))
            stack += reversed(parts)
    return {name: tails.get(name, kind) for name, kind in kinds.items()}


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


# ---------------------------------------------------------------------------
# substitution


def subst_term(body: Term, replacement: Term, var: str) -> Term:
    """body[replacement/var], capture-avoiding with deterministic renames.

    Every subterm the substitution leaves unchanged comes back as the same
    object, the whole body included when ``var`` is not free in it.  A
    subterm whose kept free variables (``free_vars``) lack ``var`` is
    returned without a walk, so the substitution enters only the nodes on
    the paths from the root to the free occurrences of ``var``, each node
    object once: a subterm shared in ``body`` is shared in the result."""
    if var not in free_vars(body):
        return body
    return _subst(body, replacement, var, free_vars(replacement), {})


def _subst(sub: Term, replacement: Term, var: str, fvs, images: dict) -> Term:
    """``subst_term``'s walk of a ``sub`` whose kept free variables hold
    ``var``: ``fvs`` are the replacement's, ``images`` the call's memo by id."""
    if type(sub) is Var:  # an occurrence
        return replacement
    image = images.get(id(sub))
    if image is not None:
        return image
    shape = SHAPES[type(sub)]
    parts = shape.children(sub)
    kids: list[Term] = []
    for _, child, binder in parts:
        # a child under a binder of `var` itself is left alone
        enter = binder != var and var in child._free
        kids.append(_subst(child, replacement, var, fvs, images) if enter else child)
    image = sub
    if any(new is not child for new, (_, child, _) in zip(kids, parts)):
        names = None  # the binder names, once one of them changes
        for i, (_, child, binder) in enumerate(parts):
            if binder in fvs and binder != var:
                # the binder would capture a free name of the replacement:
                # rename it, with a memo per walk, as the renamed child is new
                names = names or [b for _, _, b in parts]
                name = NameSupply({*fvs, var, *term_names(child)}).fresh(binder)
                if binder in child._free:
                    child = _subst(child, Var(name), binder, {name}, {})
                if var in free_vars(child):
                    child = _subst(child, replacement, var, fvs, {})
                names[i], kids[i] = name, child
        image = shape.rebuild(sub, kids, names)
    images[id(sub)] = image
    return image


def subst_type_in_type(ty: Type, arg: Row | Presence | TyVar, var: str) -> Type:
    """ty[arg/var]; arg is a row (for row variables), a presence mark, or a
    type variable (for type variables).  Unchanged parts come back as the
    same objects."""
    return _subst_type(ty, arg, var, set(free_type_names(arg)))


def _subst_type(
    t: Type | Row, arg: Row | Presence | TyVar, var: str, arg_names: set[str]
) -> Type | Row:
    """``t[arg/var]`` for a type or row ``t``, ``arg_names`` the free names of ``arg``."""
    if isinstance(t, TyVar):
        return arg if t.name == var and isinstance(arg, TyVar) else t
    if isinstance(t, Base):
        return t
    if isinstance(t, Arrow):
        dom = _subst_type(t.dom, arg, var, arg_names)
        cod = _subst_type(t.cod, arg, var, arg_names)
        return t if dom is t.dom and cod is t.cod else Arrow(dom, cod)
    if isinstance(t, (Variant, Record)):
        row = _subst_type(t.row, arg, var, arg_names)
        return t if row is t.row else type(t)(row)
    if isinstance(t, (ForallRow, ForallPres)):
        if t.var == var:
            return t
        new, body = t.var, t.body
        if t.var in arg_names:
            new = NameSupply(arg_names | {var} | type_level_names(t.body)).fresh(t.var)
            fresh = Row((), new) if isinstance(t, ForallRow) else PresVar(new)
            body = subst_type_in_type(body, fresh, t.var)
        body = _subst_type(body, arg, var, arg_names)
        if new == t.var and body is t.body:
            return t
        if isinstance(t, ForallRow):
            return ForallRow(new, t.kind, body)
        return ForallPres(new, body)
    if not isinstance(t, Row):
        raise TypeError(f"not a type: {t!r}")
    entries = []
    same = True
    for entry in t.entries:
        label, pres, ty = entry
        if isinstance(pres, PresVar) and pres.name == var and isinstance(arg, _PRESENCE_FORMS):
            pres = arg
        new = _subst_type(ty, arg, var, arg_names)
        if pres is not entry[1] or new is not ty:
            same = False
            entry = (label, pres, new)
        entries.append(entry)
    if t.tail == var:
        if not isinstance(arg, Row):
            raise TypeError("row variable substituted with what is not a row")
        return Row(tuple(entries) + arg.entries, arg.tail)
    return t if same else Row(tuple(entries), t.tail)


def subst_type_in_term(term: Term, arg: Row | Presence, var: str) -> Term:
    """Substitute a type-level name throughout a term's annotations and
    arguments; unchanged subterms and types come back as the same objects.
    A subterm or type part whose kept names (``type_level_names``) do not
    include ``var`` is returned as it is, without a walk, and every other
    node object is entered once.  A type abstraction whose binder is free in
    ``arg`` is renamed, as ``subst_type_in_type`` renames a quantifier, so
    that it cannot capture."""
    if var not in type_level_names(term):
        return term
    arg_names = set(free_type_names(arg))
    done: dict[int, tuple] = {}  # id -> (part, its image): parts are shared

    def go_part(part):
        if isinstance(part, _PRESENCE_FORMS):
            hit = type(part) is PresVar and part.name == var
            return arg if hit and not isinstance(arg, Row) else part
        if part is None or var not in part._names:
            return part
        hit = done.get(id(part))
        if hit is None:
            hit = done[id(part)] = (part, _subst_type(part, arg, var, arg_names))
        return hit[1]

    return _subst_types(term, arg, var, arg_names, go_part, {})


def _subst_types(
    sub: Term, arg: Row | Presence, var: str, arg_names: set[str], go_part, images: dict
) -> Term:
    """``subst_type_in_term``'s walk of a ``sub`` whose kept names include
    ``var``: ``go_part`` maps a type-level part, and ``images`` is the call's
    memo, by the id of a node ``sub`` holds."""
    image = images.get(id(sub))
    if image is not None:
        return image
    shape = SHAPES[type(sub)]
    if shape.tybinder and sub.var == var:
        image = sub
    elif shape.tybinder and sub.var in arg_names:
        new = NameSupply(arg_names | {var} | type_level_names(sub.body)).fresh(sub.var)
        body = subst_type_in_term(sub.body, shape.tybinder(new), sub.var)
        body = subst_type_in_term(body, arg, var)
        image = RowAbs(new, sub.kind, body) if type(sub) is RowAbs else PresAbs(new, body)
    else:
        kids: list[Term] = []
        same = True
        for _, child, _ in shape.children(sub):
            if var in child._names:
                new = _subst_types(child, arg, var, arg_names, go_part, images)
                same = same and new is child
                kids.append(new)
            else:
                kids.append(child)
        if same and all(
            go_part(getattr(sub, name)) is getattr(sub, name) for name in shape.types
        ):
            image = sub
        else:
            image = shape.rebuild(sub, kids, None, go_part)
    images[id(sub)] = image
    return image


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

    No code changes a node's fields, so a key can never go stale: the key
    outside every binder is kept in the slot ``_key``, and those under
    binders in the dict ``_keys``, by binder stack.  A part that mentions
    none of the stack's names has its key outside every binder, and keeps
    nothing for the stack.  A part made anew has neither."""
    form = _KEY_FORMS.get(type(t))
    if form is None:
        raise TypeError(f"not a type: {t!r}")
    if not names:
        key = t._key
        if key is None:
            key = t._key = form(t, names)
        return key
    kept = t._keys
    if kept is not None and names in kept:
        return kept[names]
    if type_level_names(t).isdisjoint(names):
        return type_key(t)
    if kept is None:
        kept = t._keys = {}
    key = kept[names] = form(t, names)
    return key


def type_equal(a: Type, b: Type) -> bool:
    """Equality modulo alpha-renaming and row normalization: the types have
    the same ``type_key`` (bound names as de Bruijn indices, rows sorted).
    Each type keeps its key once computed (``_key``).  A duplicate label or
    a non-type (a row included) makes them unequal."""
    if type(a) is not type(b) or type(a) not in _TYPE_FORMS:
        return False
    ka, kb = a._key, b._key
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
# comparing terms: alpha equivalence and the record-width preorder


def alpha_eq(m: Term, n: Term, env: Names = NO_NAMES, tyenv: tuple = ((), ())) -> bool:
    """Equality modulo bound renaming, row normalization in annotations, the
    order of case branches and record fields, and record fields marked absent
    by their annotation; ``m`` and ``n`` are compared under the term binder
    pairs ``env`` and the type binders ``tyenv`` (see ``match_node``).

    Terms that both keep a hash (``Term.__hash__``), and keep two, are
    unequal, with no walk.  That is sound: the hash reads no name, only what
    ``match_node`` requires two matching nodes to share (form, ``data``
    fields, each type-level part's form class, and the slots of the children
    it pairs, which must match in turn), so alpha-equal terms hash alike
    under any environments.  A hash not yet kept is not made here: making it
    walks the term, so a comparison that answers True would walk it twice."""
    hm, hn = m._hash, n._hash
    if hm is not None and hn is not None and hm != hn:
        return False
    return agree(m, n, env, tyenv)


def agree(
    m: Term, n: Term, env: Names = NO_NAMES, tyenv: tuple = ((), ()), wider: bool = False
) -> bool:
    """``match_node`` holds at every node pair of ``m`` and ``n``: alpha
    equivalence, or with ``wider`` the record-width preorder.  Each pair is
    matched once, by object and environments, on an explicit stack; the
    terms hold every node alive, so no id is reused meanwhile."""
    met = set()
    stack = [(m, n, env, tyenv)]
    while stack:
        a, b, env, tyenv = stack.pop()
        key = (id(a), id(b), env, tyenv)
        if key not in met:
            met.add(key)
            pairs = match_node(a, b, env, tyenv, wider)
            if pairs is None:
                return False
            stack += reversed(pairs)
    return True


def _part_eq(a, b, tyenv: tuple[tuple[str, ...], tuple[str, ...]]) -> bool:
    """Two type-level parts of the same field (types, rows or presences)
    under the type binders ``tyenv``: a left and a right stack."""
    if a is None or b is None:
        return a is b
    return _same_key(a, tyenv[0], b, tyenv[1])


def _slot(part: tuple) -> str:
    return part[0]


def match_node(m: Term, n: Term, env: Names, tyenv: tuple, wider=False) -> list | None:
    """One node of ``agree``: the children of ``m`` and ``n`` paired by
    slot, each pair as ``(child of m, child of n, env, tyenv)`` with the
    environments it is compared under, or None when the nodes differ.

    ``env`` pairs the term binders of the two sides (``bind``); ``tyenv`` is
    the two stacks of type-level binders, innermost first, under which the
    type-level parts are compared by key (``type_key``).  Two nodes differ in
    form, in a ``data`` field, in a type-level part, in the slots of their
    children (record fields that the annotation marks absent left out), or,
    for two variables, in what they name (``same_name``).

    With ``wider``, the record-width preorder on erased terms: a record
    literal on the left may carry fields the right lacks, type-level parts
    are not compared, and a node of a ``TYPE_LEVEL`` form matches nothing."""
    if type(m) is not type(n) or wider and isinstance(m, TYPE_LEVEL):
        return None
    if type(m) is Var:
        return [] if same_name(env, m.name, n.name) else None
    shape = SHAPES[type(m)]
    for name in shape.data:
        a, b = getattr(m, name), getattr(n, name)
        if type(a) is not type(b) or a != b:
            return None
    if not wider:
        for name in shape.types:
            if not _part_eq(getattr(m, name), getattr(n, name), tyenv):
                return None
        if shape.tybinder:
            tyenv = ((m.var, *tyenv[0]), (n.var, *tyenv[1]))
    mk, nk = shape.children(m), shape.children(n)
    if type(m) is RecordLit:
        if wider:
            slots = {k[0] for k in nk}
            mk = [k for k in mk if k[0] in slots]
        else:
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
