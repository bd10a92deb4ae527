"""Oracles for the syntax layer: the term shape table, substitution, row
algebra, equality."""

from __future__ import annotations

import dataclasses
import functools
import random
import sys

import pytest
from hypothesis import given, strategies as st

from rowlab.config import PRESETS, preset
from rowlab import dynamics, syntax
from rowlab.dynamics import RelationSet, normalize, step_all
from rowlab.harness import GenError, GenSpec, _Gen, gen_typed_term, term_size
from rowlab.parser import parse_term_str
from rowlab.pretty import show_term, show_type
from rowlab.statics import type_check
from rowlab.syntax import (
    SHAPES,
    Absent,
    App,
    Arrow,
    Base,
    Case,
    ForallPres,
    ForallRow,
    Inject,
    KPre,
    KRow,
    KType,
    Lam,
    Let,
    Lit,
    NO_NAMES,
    MalformedRowError,
    NameSupply,
    Node,
    PresAbs,
    PresApp,
    PresVar,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    RowAbs,
    RowApp,
    Term,
    TyVar,
    TypeScheme,
    Upcast,
    Var,
    Variant,
    _same_key,
    alpha_eq,
    bind,
    children,
    closed_row,
    free_type_names,
    free_vars,
    normalize_row,
    rebuild,
    record,
    row_dom,
    same_name,
    subst_term,
    subst_type_in_term,
    subst_type_in_type,
    term_names,
    type_equal,
    type_key,
    type_level_names,
    variant,
)
from rowlab.translate import TRANSLATIONS, run_translation

A0 = TyVar("a0")


def rename_type_name(ty, old, kind, new):
    """``ty`` with the type-level name ``old``, of kind ``kind``, renamed
    ``new`` by the capture-avoiding substitution."""
    if isinstance(kind, KRow):
        return subst_type_in_type(ty, Row((), new), old)
    if isinstance(kind, KPre):
        return subst_type_in_type(ty, PresVar(new), old)
    return subst_type_in_type(ty, TyVar(new), old)


def scheme_alpha_eq(a: TypeScheme, b: TypeScheme) -> bool:
    """Scheme equality up to renaming; quantifier order must correspond."""
    if [k for _, k in a.quants] != [k for _, k in b.quants]:
        return False
    left, right = (tuple(n for n, _ in reversed(s.quants)) for s in (a, b))
    return _same_key(a.body, left, b.body, right)
INT = Base("Int")
STR = Base("String")


# ---------------------------------------------------------------------------
# subst_term


def test_subst_variable_hit():
    assert subst_term(Var("x"), Lit(1), "x") == Lit(1)


def test_subst_forced_capture_renames():
    # (\y. x)[y/x] must rename the binder, then the body becomes the new free y.
    out = subst_term(Lam("y", None, Var("x")), Var("y"), "x")
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == Var("y")


def test_subst_under_case():
    body = Case(Var("x"), (("l", "z", Var("z")),))
    inj = Inject("l", Lit(1), variant(("l", INT)))
    out = subst_term(body, inj, "x")
    assert out == Case(inj, (("l", "z", Var("z")),))


def test_subst_identity():
    m = App(Lam("y", A0, Var("x")), Var("x"))
    assert subst_term(m, Var("x"), "x") == m


def test_subst_shadowed_binder_left_alone():
    m = Lam("x", A0, Var("x"))
    assert subst_term(m, Lit(3), "x") == m


def test_subst_let_binder_capture():
    m = Let("y", Var("x"), Var("y"))
    out = subst_term(m, Var("y"), "x")
    assert isinstance(out, Let)
    assert out.bound == Var("y")
    # binder renamed away from the incoming free y
    assert out.var != "y"


# ---------------------------------------------------------------------------
# subst_type_in_type


def test_row_subst_empty_row():
    body = Variant(Row((("l", Present(), A0),), "r"))
    out = subst_type_in_type(body, Row((), None), "r")
    assert out == variant(("l", A0))


def test_pres_subst_to_absent():
    body = Variant(Row((("l", PresVar("p"), A0),), None))
    out = subst_type_in_type(body, Absent(), "p")
    assert out == Variant(Row((("l", Absent(), A0),), None))


def test_row_subst_appends_entries():
    body = Variant(Row((("l", Present(), A0),), "r"))
    arg = Row((("m", Present(), TyVar("b0")),), "r1")
    out = subst_type_in_type(body, arg, "r")
    assert out == Variant(
        Row((("l", Present(), A0), ("m", Present(), TyVar("b0"))), "r1")
    )


def test_row_subst_avoids_quantifier_capture():
    # (forall r1. [l:a0; r])[ (m:b0; r1) / r ] must not capture r1.
    body = ForallRow("r1", KRow(frozenset({"l"})), Variant(Row((("l", Present(), A0),), "r")))
    arg = Row((("m", Present(), TyVar("b0")),), "r1")
    out = subst_type_in_type(body, arg, "r")
    assert isinstance(out, ForallRow)
    assert out.var != "r1"
    assert isinstance(out.body, Variant)
    assert out.body.row.tail == "r1"


# ---------------------------------------------------------------------------
# normalize_row


def test_normalize_sorts_labels():
    row = Row((("Year", Present(), INT), ("Age", Present(), INT)), None)
    assert normalize_row(row) == Row((("Age", Present(), INT), ("Year", Present(), INT)), None)


def test_normalize_drops_absent_when_presence_aware():
    row = Row((("l", Absent(), A0),), None)
    assert normalize_row(row) == Row((), None)


def test_normalize_duplicate_label_errors():
    row = Row((("l", Present(), A0), ("l", Present(), A0)), None)
    with pytest.raises(MalformedRowError):
        normalize_row(row)


# ---------------------------------------------------------------------------
# type_equal


def test_type_equal_row_reorder():
    a = Variant(Row((("Age", Present(), INT), ("Year", Present(), INT)), "r"))
    b = Variant(Row((("Year", Present(), INT), ("Age", Present(), INT)), "r"))
    assert type_equal(a, b)


def test_type_equal_ignores_absent_entries():
    a = Variant(Row((("l", PresVar("p"), STR),), None))
    b = Variant(Row((("l", PresVar("p"), STR), ("m", Absent(), INT)), None))
    assert type_equal(a, b)


def test_type_equal_alpha_quantifiers():
    a = ForallRow("r", KRow(frozenset()), Variant(Row((), "r")))
    b = ForallRow("s", KRow(frozenset()), Variant(Row((), "s")))
    assert type_equal(a, b)
    assert not type_equal(a, ForallRow("s", KRow(frozenset({"l"})), Variant(Row((), "s"))))


def test_type_equal_pres_quantifiers():
    a = ForallPres("p", Record(Row((("l", PresVar("p"), INT),), None)))
    b = ForallPres("q", Record(Row((("l", PresVar("q"), INT),), None)))
    assert type_equal(a, b)


# ---------------------------------------------------------------------------
# row algebra


def test_row_dom():
    r = closed_row(("Name", STR), ("Age", INT))
    assert row_dom(r) == frozenset({"Name", "Age"})
    assert row_dom(Row((), None)) == frozenset()


# ---------------------------------------------------------------------------
# alpha_eq


def test_alpha_eq_lambda():
    assert alpha_eq(Lam("x", None, Var("x")), Lam("y", None, Var("y")))
    assert not alpha_eq(Lam("x", None, Var("x")), Lam("x", None, Lam("y", None, Var("x"))))


def test_alpha_eq_annotations_modulo_rows():
    a = Lam("x", variant(("Age", INT), ("Year", INT)), Var("x"))
    b = Lam("y", variant(("Year", INT), ("Age", INT)), Var("y"))
    assert alpha_eq(a, b)


def test_alpha_eq_row_abs():
    m = RowAbs("r", KRow(frozenset({"l"})), Inject("l", Lit(1), Variant(Row((("l", Present(), INT),), "r"))))
    n = RowAbs("s", KRow(frozenset({"l"})), Inject("l", Lit(1), Variant(Row((("l", Present(), INT),), "s"))))
    assert alpha_eq(m, n)


def test_alpha_eq_origin_marks_matter():
    m = RowApp(Var("x"), Row((), None), "source")
    n = RowApp(Var("x"), Row((), None), "upcast")
    assert not alpha_eq(m, n)


def test_alpha_eq_drops_absent_annotated_fields():
    annot = Record(Row((("l", Present(), INT), ("m", Absent(), INT)), None))
    a = RecordLit((("l", Lit(1)), ("m", Lit(2))), annot)
    b = RecordLit((("l", Lit(1)),), Record(Row((("l", Present(), INT),), None)))
    assert alpha_eq(a, b)


def test_scheme_alpha_eq():
    a = TypeScheme((("a", KRow(frozenset())),), Record(Row((), "a")))
    b = TypeScheme((("b", KRow(frozenset())),), Record(Row((), "b")))
    assert scheme_alpha_eq(a, b)
    assert not scheme_alpha_eq(a, TypeScheme((), record()))


# ---------------------------------------------------------------------------
# properties


LABELS = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def rows(draw):
    n = draw(st.integers(0, 4))
    labels = draw(st.permutations(["a", "b", "c", "d", "e"]))[:n]
    entries = []
    for label in labels:
        pres = draw(st.sampled_from([Present(), Absent(), PresVar("p")]))
        entries.append((label, pres, draw(st.sampled_from([A0, INT, STR]))))
    tail = draw(st.sampled_from([None, "r"]))
    return Row(tuple(entries), tail)


@given(rows())
def test_normalize_idempotent(row):
    once = normalize_row(row)
    assert normalize_row(once) == once


@given(rows(), st.randoms())
def test_normalize_permutation_invariant(row, rnd):
    entries = list(row.entries)
    rnd.shuffle(entries)
    assert normalize_row(Row(tuple(entries), row.tail)) == normalize_row(row)


@given(st.sampled_from(["x", "y", "z"]))
def test_fresh_names_avoid(base):
    supply = NameSupply(avoid={f"{base}$0", f"{base}$1"})
    name = supply.fresh(base)
    assert name not in {f"{base}$0", f"{base}$1"}
    assert name.startswith(base + "$")


def test_free_vars():
    m = Let("x", Var("y"), App(Var("x"), Lam("z", None, Var("w"))))
    assert free_vars(m) == {"y", "w"}


def test_upcast_project_structure():
    m = Upcast(Project(Var("x"), "Name"), STR)
    assert free_vars(m) == {"x"}


# ---------------------------------------------------------------------------
# term shapes

ROW_KIND = KRow(frozenset())


def test_every_term_form_has_a_shape():
    assert set(Term.__subclasses__()) == set(SHAPES)


def _generated_terms():
    """A few generated terms of every preset, and their translations (which
    bring in row and presence abstraction and application)."""
    for name in sorted(PRESETS):
        spec = GenSpec(preset(name), max_size=10, seed=4)
        for i in range(4):
            try:
                term, deriv = gen_typed_term(spec, i)
            except GenError:
                continue
            yield term
            for tid, t in sorted(TRANSLATIONS.items()):
                if deriv is not None and t.pairs[0][0] == name:
                    yield run_translation(tid, deriv)


@functools.lru_cache(maxsize=1)
def _generated_term_list():
    return list(_generated_terms())


def _subterms(term):
    yield term
    for _, child, _ in children(term):
        yield from _subterms(child)


def test_rebuild_from_own_parts_gives_an_equal_term():
    forms = set()
    for term in _generated_terms():
        for sub in _subterms(term):
            shape = SHAPES[type(sub)]
            parts = shape.children(sub)
            kids = [child for _, child, _ in parts]
            assert rebuild(sub, kids) == sub
            names = [binder for _, _, binder in parts]
            assert shape.rebuild(sub, kids, names, lambda part: part) == sub
            forms.add(type(sub))
    assert forms == set(SHAPES)


def test_slot_names_and_binders():
    m = Case(Var("s"), (("A", "a", Var("a")), ("B", "b", Lit(1))))
    assert [(slot, binder) for slot, _, binder in children(m)] == [
        ("scrutinee", None), ("branch:A", "a"), ("branch:B", "b"),
    ]
    m = Let("x", Lit(1), Var("x"))
    assert [(slot, binder) for slot, _, binder in children(m)] == [
        ("bound", None), ("body", "x"),
    ]


def test_free_vars_through_type_abstraction_and_application():
    m = RowAbs(
        "r", ROW_KIND,
        PresAbs("p", RowApp(PresApp(Var("f"), PresVar("p")), Row((), "r"))),
    )
    assert free_vars(m) == {"f"}
    assert free_vars(Lam("f", None, m)) == set()


def test_subst_renames_a_capturing_case_binder():
    m = Case(Var("z"), (("A", "y", App(Var("x"), Var("y"))), ("B", "x", Var("x"))))
    assert subst_term(m, Var("y"), "x") == Case(
        Var("z"),
        (("A", "y$0", App(Var("y"), Var("y$0"))), ("B", "x", Var("x"))),
    )


def test_subst_renames_a_capturing_let_binder_in_the_body_only():
    m = Let("y", Var("x"), App(Var("x"), Var("y")))
    assert subst_term(m, Var("y"), "x") == Let(
        "y$0", Var("y"), App(Var("y"), Var("y$0"))
    )


def test_subst_passes_type_abstraction_and_application():
    m = RowAbs("r", ROW_KIND, RowApp(PresAbs("p", Var("x")), Row((), "r")))
    assert subst_term(m, Lit(1), "x") == RowAbs(
        "r", ROW_KIND, RowApp(PresAbs("p", Lit(1)), Row((), "r"))
    )


def test_subst_type_in_term_stops_at_its_own_binder():
    body = Lam("x", Record(Row((), "r")), PresApp(Var("x"), PresVar("p")))
    row_abs = RowAbs("r", ROW_KIND, body)
    assert subst_type_in_term(row_abs, Row((), "s"), "r") == row_abs
    assert subst_type_in_term(PresAbs("p", body), Absent(), "p") == PresAbs("p", body)


def test_subst_type_in_term_renames_a_binder_the_argument_names():
    # the argument's free s must stay free, as it does under the quantifier
    m = RowAbs("s", ROW_KIND, Lam("x", Record(Row((), "r")), Var("x")))
    assert show_term(subst_type_in_term(m, Row((), "s"), "r")) == "/\\s$0:Row!{}. \\x:{s}. x"
    ty = ForallRow("s", ROW_KIND, Record(Row((), "r")))
    assert show_type(subst_type_in_type(ty, Row((), "s"), "r")) == "forall s$0:Row!{}. {s}"
    m = PresAbs("p", Lam("x", Record(Row((("A", PresVar("p"), INT),), "r")), Var("x")))
    out = subst_type_in_term(m, Row((("B", PresVar("p"), INT),), None), "r")
    assert show_term(out) == "/\\p$0. \\x:{A^p$0:Int; B^p:Int}. x"


def test_rename_type_name_shares_unchanged_parts_and_avoids_capture():
    keep = record(("A", INT))
    ty = Arrow(keep, TyVar("a"))
    out = rename_type_name(ty, "a", KType(), "b")
    assert out == Arrow(keep, TyVar("b")) and out.dom is keep
    assert rename_type_name(keep, "a", KType(), "b") is keep
    # one substitution for every kind: a quantifier that would capture the
    # new name is renamed, as it is for rows and presences
    ty = ForallPres("b", Arrow(TyVar("a"), Record(Row((("A", PresVar("b"), INT),), None))))
    assert show_type(rename_type_name(ty, "a", KType(), "b")) == "forall b$0:Pre. b -> {A^b$0:Int}"


def test_subst_type_in_term_reaches_annotations_under_other_binders():
    body = Lam("x", Record(Row((), "r")), Upcast(Var("x"), Record(Row((), "r"))))
    out = subst_type_in_term(
        PresAbs("p", RowAbs("q", ROW_KIND, body)), closed_row(("A", INT)), "r"
    )
    want = Lam("x", record(("A", INT)), Upcast(Var("x"), record(("A", INT))))
    assert out == PresAbs("p", RowAbs("q", ROW_KIND, want))


def test_subst_type_in_term_rewrites_row_and_presence_arguments():
    m = PresApp(
        RowApp(Var("f"), Row((("A", PresVar("p"), INT),), "r"), "upcast"),
        PresVar("p"),
    )
    assert subst_type_in_term(m, Absent(), "p") == PresApp(
        RowApp(Var("f"), Row((("A", Absent(), INT),), "r"), "upcast"), Absent()
    )
    row = Row((("A", PresVar("p"), INT), ("B", Present(), STR)), None)
    assert subst_type_in_term(m, closed_row(("B", STR)), "r") == PresApp(
        RowApp(Var("f"), row, "upcast"), PresVar("p")
    )


# ---------------------------------------------------------------------------
# the two-sided binder environment


def test_alpha_eq_free_name_never_matches_a_bound_one():
    # \x:Int. y and \y:Int. y: the free y on the left is not the bound y
    assert not alpha_eq(Lam("x", INT, Var("y")), Lam("y", INT, Var("y")))
    assert not alpha_eq(Lam("y", INT, Var("y")), Lam("x", INT, Var("y")))
    assert not alpha_eq(Let("x", Lit(1), Var("y")), Let("y", Lit(1), Var("y")))
    case_x = Case(Var("z"), (("A", "x", Var("y")),))
    case_y = Case(Var("z"), (("A", "y", Var("y")),))
    assert not alpha_eq(case_x, case_y)
    assert not alpha_eq(case_y, case_x)
    assert alpha_eq(Lam("x", INT, Var("y")), Lam("z", INT, Var("y")))


def test_type_equal_free_name_never_matches_a_bound_one():
    # forall r:Row!{}. {s} and forall s:Row!{}. {s}
    a = ForallRow("r", ROW_KIND, Record(Row((), "s")))
    b = ForallRow("s", ROW_KIND, Record(Row((), "s")))
    assert not type_equal(a, b)
    assert not type_equal(b, a)
    p = ForallPres("p", Record(Row((("A", PresVar("q"), INT),), None)))
    q = ForallPres("q", Record(Row((("A", PresVar("q"), INT),), None)))
    assert not type_equal(p, q)
    assert not type_equal(q, p)


def test_alpha_eq_type_binders_are_two_sided():
    m = RowAbs("r", ROW_KIND, Lam("x", Record(Row((), "s")), Var("x")))
    n = RowAbs("s", ROW_KIND, Lam("x", Record(Row((), "s")), Var("x")))
    assert not alpha_eq(m, n)
    assert not alpha_eq(n, m)


def _dict_same_name(stack, x, y):
    """``same_name`` over the dict environment it replaced: each side maps a
    binder to its innermost partner."""
    left, right = {}, {}
    for a, b in stack:  # outermost first
        left[a], right[b] = b, a
    return left.get(x, x) == y and right.get(y, y) == x


def test_same_name_agrees_with_a_dict_reference():
    rng = random.Random(0)
    names = "abcd"
    shadowed = 0
    for _ in range(3000):
        stack = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 6))]
        env = NO_NAMES
        for a, b in stack:
            env = bind(env, a, b)
        assert hash(env) == hash(tuple(stack[::-1]))
        shadowed += len({a for a, _ in stack}) < len(stack)
        for x in names + "e":
            for y in names + "e":
                assert same_name(env, x, y) == _dict_same_name(stack, x, y), (stack, x, y)
    assert shadowed > 1000


def test_alpha_eq_under_binder_pairs():
    env = bind(bind(NO_NAMES, "x", "y"), "z", "z")
    assert alpha_eq(App(Var("x"), Var("z")), App(Var("y"), Var("z")), env)
    assert not alpha_eq(Var("x"), Var("x"), env)
    assert alpha_eq(Var("w"), Var("w"), env)
    tyenv = (("r",), ("s",))
    m = Lam("v", Record(Row((), "r")), Var("v"))
    n = Lam("v", Record(Row((), "s")), Var("v"))
    assert alpha_eq(m, n, NO_NAMES, tyenv)
    assert not alpha_eq(m, n) and not alpha_eq(m, m, NO_NAMES, tyenv)


def test_alpha_eq_keeps_one_frame_per_nesting_level():
    depth = 400
    m, n = Var("x"), Var("y")
    for i in range(depth):
        m, n = Lam(f"a{i}", INT, m), Lam(f"b{i}", INT, n)
    m, n = Lam("x", INT, m), Lam("y", INT, n)
    here = 0
    frame = sys._getframe()
    while frame is not None:
        frame, here = frame.f_back, here + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(here + depth + 50)
    try:
        assert alpha_eq(m, n)
    finally:
        sys.setrecursionlimit(limit)


def test_scheme_alpha_eq_is_two_sided():
    a = TypeScheme((("r", ROW_KIND),), Record(Row((), "s")))
    b = TypeScheme((("s", ROW_KIND),), Record(Row((), "s")))
    assert not scheme_alpha_eq(a, b)
    assert not scheme_alpha_eq(b, a)


def test_every_term_field_is_in_the_shape_table():
    """A field two nodes can differ in is compared by every pairwise walker
    only if the table names it: as a child, a type-level part, the binder or
    a data field (a Var's name goes through the binder environment)."""
    for cls, shape in SHAPES.items():
        names = set(cls._fields)
        assert set(shape.types) <= names and set(shape.data) <= names, cls
        for name in cls._fields:
            child = "Term" in cls.__annotations__[name]
            binder = name == "var" and (shape.tybinder or cls in (Lam, Let))
            own = cls is Var and name == "name"
            listed = name in shape.types or name in shape.data
            assert child or binder or own or listed, (cls.__name__, name)


# ---------------------------------------------------------------------------
# alpha_eq against a locally nameless reference: bound names become the
# distance to their binder, free names stay, rows are normalized, and
# branches and live fields are sorted by label


def _ln_name(name, env):
    for depth, bound in enumerate(reversed(env)):
        if bound == name:
            return ("bound", depth)
    return ("free", name)


def _ln_type(ty, tyenv):
    if ty is None:
        return None
    if isinstance(ty, TyVar):
        return _ln_name(ty.name, tyenv)
    if isinstance(ty, Base):
        return ("Base", ty.tag)
    if isinstance(ty, Arrow):
        return ("Arrow", _ln_type(ty.dom, tyenv), _ln_type(ty.cod, tyenv))
    if isinstance(ty, (Variant, Record)):
        return (type(ty).__name__, _ln_row(ty.row, tyenv))
    if isinstance(ty, ForallRow):
        return ("ForallRow", ty.kind.lacks, _ln_type(ty.body, tyenv + (ty.var,)))
    return ("ForallPres", _ln_type(ty.body, tyenv + (ty.var,)))


def _ln_pres(p, tyenv):
    return _ln_name(p.name, tyenv) if isinstance(p, PresVar) else type(p).__name__


def _ln_row(row, tyenv):
    try:
        row = normalize_row(row)
    except MalformedRowError:
        return object()  # equal to nothing
    entries = tuple(
        (l, _ln_pres(p, tyenv), _ln_type(a, tyenv)) for l, p, a in row.entries
    )
    return entries, None if row.tail is None else _ln_name(row.tail, tyenv)


def _ln(t, env=(), tyenv=()):
    def go(sub, inner=env):
        return _ln(sub, inner, tyenv)

    if isinstance(t, Var):
        return _ln_name(t.name, env)
    if isinstance(t, Lam):
        return ("Lam", _ln_type(t.annot, tyenv), go(t.body, env + (t.var,)))
    if isinstance(t, App):
        return ("App", go(t.fn), go(t.arg))
    if isinstance(t, Inject):
        return ("Inject", t.label, _ln_type(t.annot, tyenv), go(t.payload))
    if isinstance(t, Case):
        branches = sorted(t.branches, key=lambda b: b[0])
        return ("Case", go(t.scrutinee)) + tuple(
            (l, go(b, env + (x,))) for l, x, b in branches
        )
    if isinstance(t, RecordLit):
        dropped = set()
        if isinstance(t.annot, Record):
            dropped = {l for l, p, _ in t.annot.row.entries if isinstance(p, Absent)}
        live = sorted((f for f in t.fields if f[0] not in dropped), key=lambda f: f[0])
        return ("Record", _ln_type(t.annot, tyenv)) + tuple((l, go(v)) for l, v in live)
    if isinstance(t, Project):
        return ("Project", t.label, go(t.term))
    if isinstance(t, Upcast):
        return ("Upcast", _ln_type(t.target, tyenv), go(t.term))
    if isinstance(t, RowAbs):
        return ("RowAbs", t.kind, _ln(t.body, env, tyenv + (t.var,)))
    if isinstance(t, PresAbs):
        return ("PresAbs", _ln(t.body, env, tyenv + (t.var,)))
    if isinstance(t, RowApp):
        return ("RowApp", t.origin, _ln_row(t.row, tyenv), go(t.term))
    if isinstance(t, PresApp):
        return ("PresApp", t.origin, _ln_pres(t.presence, tyenv), go(t.term))
    if isinstance(t, Let):
        return ("Let", go(t.bound), go(t.body, env + (t.var,)))
    if isinstance(t, Lit):
        return ("Lit", type(t.value).__name__, t.value)
    return ("Prim", t.op) + tuple(go(a) for a in t.args)


def _binders(term):
    """(kind, name) of every binder in the term."""
    for sub in _subterms(term):
        for _, _, binder in children(sub):
            if binder is not None:
                yield "term", binder
        if SHAPES[type(sub)].tybinder:
            yield "type", sub.var


def _rename_binders(term, suffix):
    """The term with every binder renamed to name + suffix, capture-free."""
    shape = SHAPES[type(term)]
    parts = shape.children(term)
    kids, names = [], []
    for _, child, binder in parts:
        if binder is not None:
            child = subst_term(child, Var(binder + suffix), binder)
            binder += suffix
        kids.append(_rename_binders(child, suffix))
        names.append(binder)
    if shape.tybinder:
        new = term.var + suffix
        body = subst_type_in_term(kids[0], shape.tybinder(new), term.var)
        return _with(term, var=new, body=body)
    return shape.rebuild(term, kids, names)


def _replace_free(term, old, new, bound=frozenset()):
    """Free occurrences of ``old`` replaced by ``new``, captured or not."""
    if isinstance(term, Var):
        return Var(new) if term.name == old and old not in bound else term
    shape = SHAPES[type(term)]
    kids = [
        _replace_free(child, old, new, bound if b is None else bound | {b})
        for _, child, b in shape.children(term)
    ]
    return shape.rebuild(term, kids)


def _capture_binder(term, name, free):
    """The term with each binder ``name`` renamed ``free``, naively: the
    binder captures any free ``free`` below it."""
    shape = SHAPES[type(term)]
    parts = shape.children(term)
    kids = [
        _replace_free(_capture_binder(child, name, free), name, free)
        if binder == name
        else _capture_binder(child, name, free)
        for _, child, binder in parts
    ]
    names = [free if binder == name else binder for _, _, binder in parts]
    return shape.rebuild(term, kids, names)


def _oracle_cases():
    """Generated terms and their translations, each with the terms to compare
    it to: itself, the next term, a binder-renamed copy, and copies where a
    free variable is renamed to a bound name or a binder to a free name."""
    # t3 can blow a term up to tens of thousands of nodes; those add time,
    # not cases
    terms = [t for t in _generated_term_list() if term_size(t) <= 500]
    for m, other in zip(terms, terms[1:] + terms[:1]):
        copies = [m, other, _rename_binders(m, "'")]
        bound = sorted({name for kind, name in _binders(m) if kind == "term"})
        for free in sorted(free_vars(m))[:2]:
            for name in bound[:3]:
                copies.append(_replace_free(m, free, name))
                copies.append(_capture_binder(m, name, free))
        yield m, copies


def test_alpha_eq_matches_the_locally_nameless_reference():
    outcomes = {True: 0, False: 0}
    for m, copies in _oracle_cases():
        ln_m = _ln(m)
        for n in copies:
            want = ln_m == _ln(n)
            assert alpha_eq(m, n) == want, (m, n)
            assert alpha_eq(n, m) == want, (n, m)
            assert not want or hash(m) == hash(n), (m, n)
            outcomes[want] += 1
    # both answers are exercised, the captured copies included
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_renamed_copies_of_every_preset_share_a_hash():
    # every term and type binder renamed fresh: alpha-equal, one shape hash
    presets = set()
    for name in sorted(PRESETS):
        spec = GenSpec(preset(name), max_size=10, seed=4)
        for i in range(4):
            try:
                term, _ = gen_typed_term(spec, i)
            except GenError:
                continue
            copy = _rename_binders(term, "'")
            assert alpha_eq(term, copy) and hash(term) == hash(copy), term
            presets.add(name)
    assert presets == set(PRESETS)


def test_alpha_eq_of_hashed_terms_of_two_shapes_walks_nothing(monkeypatch):
    a, b = Var("x"), Lit(0)
    for i in range(100_000):
        a, b = Lam(f"x{i}", None, a), Lam(f"x{i}", None, b)
    hash(a), hash(b)
    calls = []
    real = syntax.match_node
    monkeypatch.setattr(syntax, "match_node", lambda *args: calls.append(1) or real(*args))
    assert not alpha_eq(a, b) and calls == []
    m, n = Var("x0"), Var("y0")
    for i in range(100_000):
        m, n = Lam(f"x{i}", None, m), Lam(f"y{i}", None, n)
    assert hash(m) == hash(n) and m != n


def test_binder_renamed_copies_are_alpha_equal():
    renamed = 0
    for m in _generated_term_list():
        copy = _rename_binders(m, "'")
        assert alpha_eq(m, copy) and _ln(m) == _ln(copy)
        renamed += copy != m
    assert renamed > 50


# ---------------------------------------------------------------------------
# substitutions share what they leave unchanged: checked against copying
# references that rebuild every node they pass


def _copying_subst_term(body, replacement, var):
    fvs = free_vars(replacement)

    def go(sub):
        if type(sub) is Var:
            return replacement if sub.name == var else sub
        shape = SHAPES[type(sub)]
        parts = shape.children(sub)
        kids, names, walked = [], None, False
        for _, child, binder in parts:
            if binder != var:
                if binder in fvs:
                    taken = fvs | {var} | term_names(child)
                    base, n = binder.split("$", 1)[0] or "x", 0
                    while f"{base}${n}" in taken:
                        n += 1
                    names = names or [b for _, _, b in parts]
                    names[len(kids)] = f"{base}${n}"
                    child = _copying_subst_term(child, Var(f"{base}${n}"), binder)
                child = go(child)
                walked = True
            kids.append(child)
        if parts and not walked:
            return sub
        return shape.rebuild(sub, kids, names)

    return go(body)


def _copying_subst_type(ty, arg, var):
    arg_names = set()
    if isinstance(arg, Row):
        arg_names = set(free_type_names(Record(arg)))
    elif isinstance(arg, PresVar):
        arg_names = {arg.name}

    def go(t):
        if isinstance(t, (TyVar, Base)):
            return t
        if isinstance(t, Arrow):
            return Arrow(go(t.dom), go(t.cod))
        if isinstance(t, (Variant, Record)):
            return type(t)(go_row(t.row))
        if t.var == var:
            return t
        new, body = t.var, t.body
        if t.var in arg_names:
            taken = arg_names | {var} | set(free_type_names(body)) | _all_type_binders(body)
            base, n = t.var.split("$", 1)[0] or "r", 0
            while f"{base}${n}" in taken:
                n += 1
            new = f"{base}${n}"
            fresh = Row((), new) if isinstance(t, ForallRow) else PresVar(new)
            body = _copying_subst_type(body, fresh, t.var)
        if isinstance(t, ForallRow):
            return ForallRow(new, t.kind, go(body))
        return ForallPres(new, go(body))

    def go_row(row):
        entries = []
        for label, pres, t in row.entries:
            if isinstance(pres, PresVar) and pres.name == var and not isinstance(arg, Row):
                pres = arg
            entries.append((label, pres, go(t)))
        if row.tail == var:
            return Row(tuple(entries) + arg.entries, arg.tail)
        return Row(tuple(entries), row.tail)

    return go(ty)


def _all_type_binders(ty):
    if isinstance(ty, (TyVar, Base)):
        return set()
    if isinstance(ty, Arrow):
        return _all_type_binders(ty.dom) | _all_type_binders(ty.cod)
    if isinstance(ty, (Variant, Record)):
        return set().union(*(_all_type_binders(t) for _, _, t in ty.row.entries))
    return {ty.var} | _all_type_binders(ty.body)


def _copying_subst_type_in_term(term, arg, var):
    def go_part(part):
        if part is None:
            return None
        if isinstance(part, Row):
            return _copying_subst_type(Record(part), arg, var).row
        if isinstance(part, (Absent, Present, PresVar)):
            hit = isinstance(part, PresVar) and part.name == var
            return arg if hit and not isinstance(arg, Row) else part
        return _copying_subst_type(part, arg, var)

    def go(sub):
        shape = SHAPES[type(sub)]
        if shape.tybinder and sub.var == var:
            return sub
        kids = [go(child) for _, child, _ in shape.children(sub)]
        return shape.rebuild(sub, kids, None, go_part)

    return go(term)


def _type_parts(term):
    """Every type (and row, as a record) in the term's type-level parts."""
    for sub in _subterms(term):
        for name in SHAPES[type(sub)].types:
            part = getattr(sub, name)
            if isinstance(part, Row):
                yield Record(part)
            elif part is not None and not isinstance(part, (Absent, Present, PresVar)):
                yield part


def _subst_cases(capturing):
    """(body, replacement, var) triples from the generated terms: every free
    and bound variable of each term, replaced by a literal and by the next
    term, or (``capturing``) by a variable named like one of the term's
    binders, which forces renames."""
    terms = [t for t in _generated_term_list() if term_size(t) <= 500]
    for m, other in zip(terms, terms[1:] + terms[:1]):
        bound = sorted({name for kind, name in _binders(m) if kind == "term"})
        reps = [Var(b) for b in bound[:2]] if capturing else [Lit(0), other]
        for var in sorted(free_vars(m)) + bound[:2]:
            for rep in reps:
                yield m, rep, var


def _type_subst_cases():
    """(term, argument, name) triples: the body of every type abstraction in
    the generated terms with rows and presences for its name, some of them
    naming the term's own type binders."""
    for m in _generated_term_list():
        if term_size(m) > 500:
            continue
        tybound = sorted({name for kind, name in _binders(m) if kind == "type"})
        for sub in _subterms(m):
            if not SHAPES[type(sub)].tybinder:
                continue
            if isinstance(sub, RowAbs):
                args = [Row((), None), closed_row(("Age", INT))]
                args += [Row((("Zip", Present(), TyVar(n)),), n) for n in tybound[:2]]
            else:
                args = [Present(), Absent()] + [PresVar(n) for n in tybound[:2]]
            for arg in args:
                yield sub.body, arg, sub.var


def test_sharing_substitutions_equal_the_copying_ones():
    changed = 0
    for m, rep, var in _subst_cases(capturing=False):
        out = subst_term(m, rep, var)
        assert out == _copying_subst_term(m, rep, var), (m, rep, var)
        changed += out is not m
    assert changed > 200
    # a binder that would capture is renamed only above an occurrence of
    # `var`, where the copying reference renames it everywhere it walks
    renamed = 0
    for m, rep, var in _subst_cases(capturing=True):
        out, want = subst_term(m, rep, var), _copying_subst_term(m, rep, var)
        assert _ln(out) == _ln(want), (m, rep, var)
        renamed += out != want
    assert renamed > 0
    changed = 0
    for body, arg, var in _type_subst_cases():
        out = subst_type_in_term(body, arg, var)
        assert out == _copying_subst_type_in_term(body, arg, var), (body, arg, var)
        for ty in _type_parts(body):
            assert subst_type_in_type(ty, arg, var) == _copying_subst_type(ty, arg, var)
        changed += out is not body
    assert changed > 50


def test_substituting_a_name_that_is_not_free_returns_the_input():
    kept = 0
    for m in _generated_term_list():
        bound = sorted({name for kind, name in _binders(m) if kind == "term"})
        # a replacement that a binder of the term would capture
        for rep in [Lit(0)] + [Var(b) for b in bound[:2]]:
            assert subst_term(m, rep, "absent") is m
        for arg in (closed_row(("Age", INT)), Row((), "r"), PresVar("p"), Absent()):
            assert subst_type_in_term(m, arg, "absent") is m
            for ty in _type_parts(m):
                assert subst_type_in_type(ty, arg, "absent") is ty
        kept += 1
    assert kept > 50


def test_substitution_shares_the_untouched_children():
    m = App(Lam("y", A0, Var("y")), App(Var("x"), Lit(1)))
    out = subst_term(m, Lit(2), "x")
    assert out.fn is m.fn and out.arg.arg is m.arg.arg
    annot = Record(Row((("A", Present(), INT),), "r"))
    t = App(Lam("y", annot, Var("y")), Upcast(Var("z"), Arrow(INT, INT)))
    out = subst_type_in_term(t, closed_row(("B", STR)), "r")
    assert out.fn.annot == record(("A", INT), ("B", STR))
    assert out.arg is t.arg


def test_subst_type_in_term_reads_the_argument_names_once(monkeypatch):
    from rowlab import syntax

    calls = []
    real = syntax.free_type_names
    monkeypatch.setattr(syntax, "free_type_names", lambda ty: calls.append(ty) or real(ty))
    annot = Record(Row((("A", Present(), INT),), "r"))
    m = Lam("x", annot, Upcast(App(Lam("y", annot, Var("y")), Var("x")), annot))
    out = subst_type_in_term(m, Row((("B", Present(), A0),), "s"), "r")
    assert out.annot.row.tail == "s"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# type keys and printed text, kept on each object: checked against the
# structural walkers they replaced, which compare two types in one pass
# under a two-sided binder environment and print without keeping anything


def _ty_eq(a, b, env):
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return same_name(env, a.name, b.name)
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
        return _ty_eq(a.body, b.body, bind(env, a.var, b.var))
    if isinstance(a, ForallPres) and isinstance(b, ForallPres):
        return _ty_eq(a.body, b.body, bind(env, a.var, b.var))
    return False


def _pres_eq(a, b, env):
    if isinstance(a, PresVar) and isinstance(b, PresVar):
        return same_name(env, a.name, b.name)
    return type(a) is type(b)


def _row_eq(a, b, env):
    try:
        na = normalize_row(a)
        nb = normalize_row(b)
    except MalformedRowError:
        return False
    if na.tail is None or nb.tail is None:
        if na.tail is not nb.tail:
            return False
    elif not same_name(env, na.tail, nb.tail):
        return False
    if len(na.entries) != len(nb.entries):
        return False
    for (la, pa, ta), (lb, pb, tb) in zip(na.entries, nb.entries):
        if la != lb or not _pres_eq(pa, pb, env) or not _ty_eq(ta, tb, env):
            return False
    return True


def _reference_scheme_alpha_eq(a, b):
    if len(a.quants) != len(b.quants):
        return False
    env = NO_NAMES
    for (na, ka), (nb, kb) in zip(a.quants, b.quants):
        if type(ka) is not type(kb):
            return False
        if isinstance(ka, KRow) and isinstance(kb, KRow) and ka.lacks != kb.lacks:
            return False
        env = bind(env, na, nb)
    return _ty_eq(a.body, b.body, env)


def _fresh(x):
    """An equal copy built from new objects, so nothing kept on ``x`` is."""
    if isinstance(x, tuple):
        return tuple(_fresh(y) for y in x)
    if isinstance(x, Node):
        return type(x)(*(_fresh(getattr(x, f)) for f in x._fields))
    return x


def _with(node, **changes):
    """``node`` made anew by its class's constructor, with ``changes`` to
    its fields."""
    return type(node)(*(changes.get(f, getattr(node, f)) for f in node._fields))


def _map_type(ty, fn):
    """``ty`` with ``fn`` applied bottom-up to every type and row in it."""
    if isinstance(ty, Arrow):
        ty = Arrow(_map_type(ty.dom, fn), _map_type(ty.cod, fn))
    elif isinstance(ty, (Variant, Record)):
        row = ty.row
        entries = tuple((l, p, _map_type(a, fn)) for l, p, a in row.entries)
        ty = type(ty)(fn(Row(entries, row.tail)))
    elif isinstance(ty, (ForallRow, ForallPres)):
        ty = _with(ty, body=_map_type(ty.body, fn))
    return fn(ty)


def _sub_types(ty):
    yield ty
    if isinstance(ty, Arrow):
        yield from _sub_types(ty.dom)
        yield from _sub_types(ty.cod)
    elif isinstance(ty, (Variant, Record)):
        for _, _, a in ty.row.entries:
            yield from _sub_types(a)
    elif isinstance(ty, (ForallRow, ForallPres)):
        yield from _sub_types(ty.body)


def _kind_of(kind):
    """A kind of the class ``free_type_names`` reports."""
    return KRow(frozenset()) if isinstance(kind, KRow) else kind


def _permuted(ty):
    """Every row of ``ty`` with its entries reversed: an equal type."""
    return _map_type(ty, lambda t: Row(t.entries[::-1], t.tail) if isinstance(t, Row) else t)


def _renamed(ty, name, kind, new):
    """``ty`` with ``name`` renamed, or None where ``name`` is used at
    another kind than ``kind`` too (a row tail and a presence)."""
    try:
        return rename_type_name(ty, name, kind, new)
    except TypeError:
        return None


def _binders_renamed(ty, suffix="'"):
    """Every quantifier of ``ty`` renamed apart: alpha-equivalent where each
    bound name is used at one kind."""
    def go(t):
        if isinstance(t, (ForallRow, ForallPres)):
            kind = t.kind if isinstance(t, ForallRow) else KPre()
            body = _renamed(t.body, t.var, kind, t.var + suffix)
            return t if body is None else _with(t, var=t.var + suffix, body=body)
        return t
    return _map_type(ty, go)


def _captured(ty, free):
    """``ty`` with its outermost quantifier renamed ``free`` naively, so that
    it captures the free occurrences of ``free`` in its body."""
    if isinstance(ty, (ForallRow, ForallPres)):
        return _with(ty, var=free)
    return ty


def _type_copies(ty):
    """Copies of ``ty`` the comparisons must agree on: fresh, row-permuted,
    binder-renamed, with a free name renamed to a new name or to a name a
    quantifier binds, and with a quantifier capturing a free name."""
    copies = [_fresh(ty), _permuted(ty), _binders_renamed(ty)]
    bound = sorted({t.var for t in _sub_types(ty) if isinstance(t, (ForallRow, ForallPres))})
    for name, cls in list(free_type_names(ty).items())[:2]:
        kind = _kind_of(cls)
        copies += [_renamed(ty, name, kind, new) for new in ["fresh", *bound[:2]]]
        copies.append(_captured(ty, name))
    return [c for c in copies if c is not None]


@functools.lru_cache(maxsize=1)
def _generated_types():
    """Distinct types of every preset: sampled goal types, the types of
    generated derivations and their images under every type translation (a
    scheme's body),
    and the annotations, casts and rows (as records) of the generated terms
    and their translations."""
    out = []
    for name in sorted(PRESETS):
        spec = GenSpec(preset(name), max_size=10, seed=4)
        gen = _Gen(random.Random(0), spec)
        out += [gen.sample_type(size) for size in range(1, 8)]
        for i in range(4):
            try:
                _, deriv = gen_typed_term(spec, i)
            except GenError:
                continue
            if deriv is None:
                continue
            out.append(deriv.type)
            for t in TRANSLATIONS.values():
                if t.type_map is not None and name in dict(t.pairs):
                    image = t.type_map(deriv.type)
                    out.append(image.body if isinstance(image, TypeScheme) else image)
    for m in _generated_term_list():
        out += _type_parts(m)
    return list(dict.fromkeys(out))


def _hand_types():
    """Absent entries, duplicate labels (one inside an absent entry),
    shadowed quantifiers and free names next to bound ones."""
    r0 = KRow(frozenset())
    dup = Record(Row((("l", Present(), INT), ("l", Present(), INT)), None))
    return [
        Record(Row((("l", Absent(), INT), ("m", Present(), STR)), None)),
        Record(Row((("m", Present(), STR),), None)),
        Record(Row((("m", Present(), STR), ("l", Absent(), dup)), None)),
        dup,
        Record(Row((("l", Absent(), INT), ("l", Present(), INT)), None)),
        Arrow(dup, INT),
        Variant(Row((("l", Present(), dup),), "r")),
        ForallRow("r", r0, ForallRow("r", r0, Record(Row((), "r")))),
        ForallRow("s", r0, ForallRow("t", r0, Record(Row((), "t")))),
        ForallRow("s", r0, ForallRow("t", r0, Record(Row((), "s")))),
        ForallRow("r", r0, Record(Row((), "s"))),
        ForallRow("s", r0, Record(Row((), "s"))),
        ForallRow("s", KRow(frozenset({"l"})), Record(Row((), "s"))),
        ForallPres("p", ForallPres("p", Record(Row((("A", PresVar("p"), A0),), None)))),
        ForallPres("q", Record(Row((("A", PresVar("p"), A0),), None))),
        ForallPres("p", Arrow(TyVar("p"), Record(Row((("A", PresVar("p"), A0),), "p")))),
        ForallPres("q", Arrow(TyVar("q"), Record(Row((("A", PresVar("q"), A0),), "q")))),
    ]


def _assert_type_equal_agrees(a, b, outcomes):
    want = _ty_eq(a, b, NO_NAMES)
    assert type_equal(a, b) == want, (a, b)
    assert type_equal(a, b) == want, (a, b)  # now from the kept keys
    assert type_equal(b, a) == _ty_eq(b, a, NO_NAMES), (b, a)
    outcomes[want] += 1


def test_type_equal_matches_the_structural_reference():
    types = _generated_types() + _hand_types()
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    for i, ty in enumerate(types):
        others = [ty, types[(i + 1) % len(types)], rng.choice(types)]
        for other in others + _type_copies(ty):
            _assert_type_equal_agrees(ty, other, outcomes)
    for a in _hand_types():
        for b in _hand_types():
            _assert_type_equal_agrees(a, b, outcomes)
    assert outcomes[True] > 500 and outcomes[False] > 500, outcomes
    forms = {type(t) for ty in types for t in _sub_types(ty)}
    assert forms == {TyVar, Base, Arrow, Variant, Record, ForallRow, ForallPres}


_NAMES = st.sampled_from(["r", "s", "p"])
_PRESENCES = st.one_of(st.just(Present()), st.just(Absent()), st.builds(PresVar, _NAMES))


def _compound(inner):
    entry = st.tuples(st.sampled_from(["a", "b", "c"]), _PRESENCES, inner)
    row = st.builds(Row, st.lists(entry, max_size=3).map(tuple), st.one_of(st.none(), _NAMES))
    return st.one_of(
        st.builds(Arrow, inner, inner),
        st.builds(Record, row),
        st.builds(Variant, row),
        st.builds(ForallRow, _NAMES, st.sampled_from([KRow(frozenset()), KRow(frozenset("a"))]), inner),
        st.builds(ForallPres, _NAMES, inner),
    )


_TYPES = st.recursive(st.one_of(st.builds(TyVar, _NAMES), st.just(INT)), _compound, max_leaves=6)


@given(_TYPES, _TYPES)
def test_type_equal_matches_the_structural_reference_on_random_binders(a, b):
    outcomes = {True: 0, False: 0}
    for other in [a, b] + _type_copies(a):
        _assert_type_equal_agrees(a, other, outcomes)


def test_keys_kept_on_objects_equal_fresh_ones():
    for ty in _generated_types() + _hand_types():
        try:
            kept = type_key(ty)
        except MalformedRowError:
            continue
        assert type_key(ty) is kept
        assert type_key(_fresh(ty)) == kept
    row = closed_row(("A", INT))
    assert type_key(Record(row)) == (Record, type_key(row))


def test_keys_under_and_outside_binders_are_kept_apart():
    # the same body object, keyed under its binder and outside it, in both orders
    r0 = KRow(frozenset())
    for binder_first in (True, False):
        body = Record(Row((), "r"))
        checks = [
            lambda: type_equal(ForallRow("r", r0, body), ForallRow("s", r0, Record(Row((), "s")))),
            lambda: type_equal(body, Record(Row((), "r"))),
        ]
        for check in checks if binder_first else checks[::-1]:
            assert check()


def test_type_equal_on_what_is_not_a_type():
    row = closed_row(("A", INT))
    assert type_equal(Record(row), Record(row))
    assert not type_equal(row, row)
    assert not type_equal(None, INT) and not type_equal(INT, None)
    assert not type_equal(None, None)
    assert not type_equal(Arrow(None, INT), Arrow(None, INT))
    with pytest.raises(TypeError):
        type_key(None)


def _generalized(ty):
    """``ty`` quantified over its free names, in order of first occurrence."""
    quants = tuple((n, _kind_of(c)) for n, c in free_type_names(ty).items())
    return TypeScheme(quants, ty)


def _scheme_copies(s):
    """Copies of a scheme: renamed quantifiers, quantifiers reversed, the
    last one dropped, and a free name renamed to a quantified one."""
    renamed = s.body
    for name, kind in s.quants:
        renamed = rename_type_name(renamed, name, kind, name + "'")
    out = [
        TypeScheme(tuple((n + "'", k) for n, k in s.quants), renamed),
        TypeScheme(s.quants[::-1], s.body),
        TypeScheme(s.quants[:-1], s.body),
    ]
    if len(s.quants) > 1:
        (first, kind), (second, _) = s.quants[:2]
        out.append(TypeScheme(s.quants[1:], rename_type_name(s.body, first, kind, second)))
    return out


def test_scheme_alpha_eq_matches_the_structural_reference():
    outcomes = {True: 0, False: 0}
    schemes = []
    for m, copies in _oracle_cases():
        for n in [m] + copies[1:2]:
            schemes += [_generalized(ty) for ty in _type_parts(n)]
    schemes = list(dict.fromkeys(schemes))
    r0 = KRow(frozenset())
    shadowing = [  # a repeated quantifier name: the later one binds
        TypeScheme((("r", r0), ("r", r0)), Record(Row((), "r"))),
        TypeScheme((("s", r0), ("t", r0)), Record(Row((), "t"))),
        TypeScheme((("s", r0), ("t", r0)), Record(Row((), "s"))),
    ]
    for s, other in [(a, b) for a in shadowing for b in shadowing] + list(
        zip(schemes, schemes[1:] + schemes[:1])
    ):
        for t in [s, other] + _scheme_copies(s):
            want = _reference_scheme_alpha_eq(s, t)
            assert scheme_alpha_eq(s, t) == want, (s, t)
            assert scheme_alpha_eq(t, s) == _reference_scheme_alpha_eq(t, s), (t, s)
            outcomes[want] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_show_type_refuses_what_is_not_a_type():
    row = closed_row(("A", INT))
    assert show_type(Record(row)) == "{A:Int}"
    type_key(row)
    for junk in (None, row, Var("x"), Present()):
        with pytest.raises(TypeError):
            show_type(junk)


# ---------------------------------------------------------------------------
# facts kept on term nodes: the tree size and the type-level names, checked
# against walks that keep nothing


def _reference_size(term):
    return 1 + sum(_reference_size(child) for _, child, _ in children(term))


def _reference_names(x):
    """Every type-level name in ``x``, read off its fields (``_fields``) rather
    than the shape table."""
    if isinstance(x, tuple):
        return set().union(*map(_reference_names, x))
    if not isinstance(x, Node) or isinstance(x, (KType, KRow, KPre)):
        return set()
    if isinstance(x, (TyVar, PresVar)):
        return {x.name}
    out = set()
    if isinstance(x, (ForallRow, ForallPres, RowAbs, PresAbs)):
        out.add(x.var)
    if isinstance(x, Row) and x.tail is not None:
        out.add(x.tail)
    for f in x._fields:
        out |= _reference_names(getattr(x, f))
    return out


@functools.lru_cache(maxsize=1)
def _terms_and_reducts():
    """The generated terms and, for each of at most 500 nodes, its one-step
    reducts under the cast and type-application rules, whose new nodes
    substitution and rebuilding made."""
    rules = [
        RelationSet(upcast=True, type_redex=True),
        RelationSet(upcast=True, full_upcast=True, type_redex=True),
    ]
    out = []
    for m in _generated_term_list():
        out.append(m)
        for rels in rules if term_size(m) <= 500 else []:
            out += [step.term for step in step_all(m, rels)]
    return out


_TYPE_RULES = (
    RelationSet(upcast=True, type_redex=True),
    RelationSet(upcast=True, full_upcast=True, type_redex=True),
)


def _typed_parts(term):
    """Each type-level part of ``term`` that is not None, with the stack of
    type binders it is under, innermost first, as ``alpha_eq`` keys it."""
    stack = [(term, ())]
    while stack:
        sub, names = stack.pop()
        shape = SHAPES[type(sub)]
        for name in shape.types:
            if getattr(sub, name) is not None:
                yield getattr(sub, name), names
        if shape.tybinder:
            names = (sub.var, *names)
        stack += [(child, names) for _, child, _ in shape.children(sub)]


def _type_redexes(term):
    """The row and presence applications in ``term`` that meet their binder."""
    return [
        sub for sub in _subterms(term)
        if isinstance(sub, RowApp) and isinstance(sub.term, RowAbs)
        or isinstance(sub, PresApp) and isinstance(sub.term, PresAbs)
    ]


def _keep_every_fact(term):
    """Make ``term`` keep every fact a node can keep: its size, names and
    free variables, each type part's key under its binder stack, and, on a
    term of at most 500 nodes, each type redex's contractum."""
    term_size(term), type_level_names(term), free_vars(term)
    for part, names in _typed_parts(term) if term_size(term) <= 500 else []:
        try:
            type_key(part, names)
        except MalformedRowError:
            pass
    for rels in _TYPE_RULES if term_size(term) <= 500 else []:
        step_all(term, rels)


def test_kept_size_and_names_equal_the_reference_walks():
    generated = set(map(id, _generated_term_list()))
    reducts = 0
    for m in _terms_and_reducts():
        cold = _fresh(m)
        before = hash(cold), repr(cold)
        assert cold._size is None
        assert term_size(cold) == _reference_size(m)
        assert type_level_names(cold) == _reference_names(m)
        _keep_every_fact(cold)
        _keep_every_fact(m)
        # warm: the same kept objects come back, and nothing else moved
        assert term_size(m) == term_size(m) == _reference_size(m)
        assert type_level_names(m) is type_level_names(m)
        assert type_level_names(m) == _reference_names(m)
        assert cold == m and (hash(cold), repr(cold)) == before
        for sub in _subterms(m) if term_size(m) <= 500 else []:
            assert sub._size == _reference_size(sub)
            assert sub._names == _reference_names(sub)
            for name in SHAPES[type(sub)].types:
                part = getattr(sub, name)
                if part is not None:
                    assert type_level_names(part) == _reference_names(part)
        reducts += id(m) not in generated
    assert reducts > 100


def _reference_free(term):
    """The free term variables of ``term``, read off its fields (``_fields``)
    rather than the shape table."""
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        return _reference_free(term.body) - {term.var}
    if isinstance(term, Let):
        return _reference_free(term.bound) | (_reference_free(term.body) - {term.var})
    if isinstance(term, Case):
        out = _reference_free(term.scrutinee)
        for _, binder, body in term.branches:
            out |= _reference_free(body) - {binder}
        return out
    out = set()
    for f in term._fields:
        for part in _term_parts(getattr(term, f)):
            out |= _reference_free(part)
    return out


def _term_parts(x):
    if isinstance(x, tuple):
        for y in x:
            yield from _term_parts(y)
    elif isinstance(x, Term):
        yield x


def test_keys_kept_under_binders_equal_those_of_uncached_copies():
    kept = closed = 0
    for m in _terms_and_reducts():
        for part, names in _typed_parts(m) if term_size(m) <= 500 else []:
            try:
                key = type_key(part, names)
            except MalformedRowError:
                continue
            assert type_key(_fresh(part), names) == key
            assert type_key(part, names) is key
            if type_level_names(part).isdisjoint(names):
                # a part that mentions no binder of the stack keeps nothing for it
                assert key is type_key(part)
                assert names not in (part._keys or {})
                closed += bool(names)
            elif names:
                assert part._keys[names] is key
                kept += 1
    assert kept > 100 and closed > 100


def test_keys_under_binders_are_kept_per_stack():
    a0 = TyVar("a0")
    body = Record(Row((("A", PresVar("p"), a0),), "r"))
    inner, outer = ("r", "p"), ("r", "q", "p")
    assert type_key(body, inner) == (Record, (Row, (("A", (PresVar, 1), (TyVar, "a0")),), 0))
    assert type_key(body, outer) == (Record, (Row, (("A", (PresVar, 2), (TyVar, "a0")),), 0))
    assert set(body._keys) == {inner, outer}
    assert type_key(body) == (Record, (Row, (("A", (PresVar, "p"), (TyVar, "a0")),), "r"))
    assert type_key(a0, inner) is type_key(a0) and a0._keys is None


def test_kept_contracta_equal_fresh_substitutions():
    contracted = 0
    for m in _terms_and_reducts():
        for sub in _type_redexes(m) if term_size(m) <= 500 else []:
            for rels in _TYPE_RULES:
                hit = dynamics._rewrite_here(sub, rels)
                assert dynamics._rewrite_here(sub, rels) is hit is sub._contractum
            arg = sub.row if isinstance(sub, RowApp) else sub.presence
            fresh = subst_type_in_term(sub.term.body, arg, sub.term.var)
            assert hit[0] == fresh
            kind = "row" if isinstance(sub, RowApp) else "pres"
            assert hit[1] == ("tau-" if sub.origin == "source" else "nu-") + kind
            contracted += 1
    assert contracted > 50
    # no contractum is kept where the rules give no step
    cold = _fresh(next(r for m in _terms_and_reducts() for r in _type_redexes(m)))
    assert dynamics._rewrite_here(cold, RelationSet(upcast=True)) is None
    assert cold._contractum is None


def test_kept_free_variables_equal_the_reference_walk():
    bound = 0
    for m in _terms_and_reducts():
        cold = _fresh(m)
        assert cold._free is None
        assert free_vars(cold) == _reference_free(m)
        # warm: the same kept object comes back
        assert free_vars(m) is free_vars(m)
        assert free_vars(m) == _reference_free(m)
        for sub in _subterms(m) if term_size(m) <= 500 else []:
            assert sub._free == _reference_free(sub)
            bound += any(b is not None for _, _, b in children(sub))
    assert bound > 100


def test_kept_names_cover_binders_tails_and_presence_variables():
    r0 = KRow(frozenset())
    assert type_level_names(RowAbs("r", r0, Lit(1))) == {"r"}
    assert type_level_names(PresAbs("p", Var("x"))) == {"p"}
    assert type_level_names(ForallRow("r", r0, INT)) == {"r"}
    row = Row((("A", PresVar("p"), INT), ("B", Absent(), A0)), "r")
    assert type_level_names(row) == {"p", "a0", "r"}
    assert type_level_names(Record(row)) == {"p", "a0", "r"}
    assert type_level_names(RowApp(Var("x"), row)) == {"p", "a0", "r"}
    assert type_level_names(PresApp(Var("x"), PresVar("q"))) == {"q"}
    assert type_level_names(Upcast(Lam("x", A0, Var("x")), Record(Row((), "s")))) == {
        "a0",
        "s",
    }
    assert type_level_names(Absent()) == set()


def test_new_nodes_start_without_kept_facts():
    changed = 0
    for m in _generated_term_list():
        for sub in _subterms(m) if term_size(m) <= 500 else []:
            term_size(sub), type_level_names(sub), free_vars(sub)
            kids = [Lit(7) for _ in children(sub)]
            if kids:
                new = rebuild(sub, kids)
                assert new._size is None
                assert new._free is None
                assert term_size(new) == 1 + len(kids)
                assert type_level_names(new) == _reference_names(new)
                assert free_vars(new) == set()
            for name in SHAPES[type(sub)].types:
                if getattr(sub, name) is None or isinstance(sub, PresApp):
                    continue
                part = Record(Row((), "fresh")) if name != "row" else Row((), "fresh")
                new = _with(sub, **{name: part})
                assert new._names is None
                assert new._free is None
                assert free_vars(new) == _reference_free(sub)
                assert "fresh" in type_level_names(new)
                assert type_level_names(new) == _reference_names(new)
                changed += 1
    assert changed > 50


def test_deep_terms_are_sized_and_skipped_without_recursion():
    chain = Lit(0)
    for i in range(1, 100_000):
        chain = Prim("+", (chain, Lit(i)))
    assert term_size(chain) == 199_999
    assert subst_type_in_term(chain, Row((), "s"), "r") is chain
    top = Prim("+", (chain, Var("y")))
    assert free_vars(top) == {"y"}
    assert subst_term(top, Lit(1), "x") is top
    out = subst_term(top, Lit(1), "y")
    assert out.args[0] is chain and out.args[1] == Lit(1)


def test_type_substitution_enters_only_the_paths_to_the_name(monkeypatch):
    untouched = Prim("+", (App(Lam("y", INT, Var("y")), Lit(1)), Lit(2)))
    hit = Lam("x", Record(Row((), "r")), Var("x"))
    inner = App(untouched, hit)
    t = App(inner, Upcast(Var("z"), Arrow(INT, INT)))
    cases = list(_type_subst_cases())
    for body in [t] + [body for body, _, _ in cases]:
        type_level_names(body)  # the kept sets are what the walk prunes by
    entered = []
    for cls, shape in list(SHAPES.items()):
        counted = lambda node, real=shape.children: entered.append(node) or real(node)
        monkeypatch.setitem(SHAPES, cls, dataclasses.replace(shape, children=counted))
    out = subst_type_in_term(t, closed_row(("B", STR)), "r")
    assert len(entered) == 3
    assert all(a is b for a, b in zip(entered, [t, inner, hit]))
    assert out.fn.fn is untouched and out.arg is t.arg and out.fn.arg.body is hit.body
    assert out.fn.arg.annot == record(("B", STR))
    walked = 0
    for body, arg, var in cases:
        entered.clear()
        subst_type_in_term(body, arg, var)
        assert all(var in type_level_names(node) for node in entered), (body, var)
        walked += len(entered)
    assert walked > 100


def _distinct(term):
    """The node objects of ``term``, each once, however it is shared."""
    seen, stack = {}, [term]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [child for _, child, _ in children(node)]
    return list(seen.values())


def test_substitution_enters_each_node_object_once(monkeypatch):
    # t3 copies a cast's operand into every field, so the image of twelve
    # stacked casts is a DAG of a few dozen nodes and a tree of 16,000: a
    # substitution that keeps the sharing enters each node object once
    src = "\\x:{A:Int; B:Int}. (x" + " :> {A:Int; B:Int}" * 12 + ").A"
    d = type_check(preset("rec-sub"), {}, {}, parse_term_str(src))
    body = run_translation("rec-sub-to-rec", d).body
    replacement = RecordLit((("A", Lit(1)), ("B", Lit(2))))
    assert len(_distinct(body)) < 50 and term_size(body) > 16_000
    # a shared part with a row variable in its annotation, doubled twenty times
    shared = Lam("x", Record(Row((), "r")), Var("x"))
    for _ in range(20):
        shared = App(shared, shared)
    for t in (body, replacement, shared):
        free_vars(t), type_level_names(t)  # kept before the walks are counted
    entered = []
    for cls, shape in list(SHAPES.items()):
        counted = lambda node, real=shape.children: entered.append(node) or real(node)
        monkeypatch.setitem(SHAPES, cls, dataclasses.replace(shape, children=counted))
    out = subst_term(body, replacement, "x")
    assert len(entered) == len({id(node) for node in entered}) <= len(_distinct(body))
    assert len(_distinct(out)) <= len(_distinct(body)) + len(_distinct(replacement))
    # as a tree the body holds x 2**12 times, and each becomes the record
    assert term_size(out) == term_size(body) + 2**12 * (term_size(replacement) - 1)
    entered.clear()
    out = subst_type_in_term(shared, closed_row(("B", STR)), "r")
    # every node but the variable, whose names lack r, and no more in the image
    assert (len(entered), len(_distinct(shared)), len(_distinct(out))) == (21, 22, 22)
    lam = out
    while type(lam) is App:
        assert lam.fn is lam.arg
        lam = lam.fn
    assert lam.annot == record(("B", STR))


def _let_chain(n):
    """let x0 = 7 in let x1 = {A = x0}.A in ... in xn"""
    body = Var(f"x{n}")
    for i in range(n, 0, -1):
        body = Let(f"x{i}", Project(RecordLit((("A", Var(f"x{i - 1}")),)), "A"), body)
    return Let("x0", Lit(7), body)


def test_let_chain_substitutions_enter_linearly_many_nodes(monkeypatch):
    # each beta-let substitutes into the rest of the chain, whose one
    # occurrence of the bound name sits at its head: substitution walks that
    # path (and keeps the free variables of the nodes it builds), not the
    # whole body, so the nodes it enters grow linearly with the chain
    entered, inside = [], [False]
    for cls, shape in list(SHAPES.items()):

        def counted(node, real=shape.children):
            if inside[0]:
                entered.append(node)
            return real(node)

        monkeypatch.setitem(SHAPES, cls, dataclasses.replace(shape, children=counted))
    real_subst = dynamics.subst_term

    def subst(*args):
        inside[0] = True
        try:
            return real_subst(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(dynamics, "subst_term", subst)
    counts = []
    for n in (50, 100):
        entered.clear()
        assert normalize(_let_chain(n), RelationSet()) == Lit(7)
        counts.append(len(entered))
    assert counts[0] > 50 and counts[1] <= 2.2 * counts[0], counts


# ---------------------------------------------------------------------------
# the node base: equality, hash and repr as frozen dataclasses had them, a
# hash of any depth, and facts that a node made anew does not share


def _node_parts(node):
    """The nodes among ``node``'s field values, those in tuples included: a
    term's children, type-level parts and kinds, or a part's own parts."""
    values, out = [getattr(node, f) for f in node._fields], []
    while values:
        value = values.pop()
        if type(value) is tuple:
            values += value
        elif isinstance(value, Node):
            out.append(value)
    return out


def test_nodes_rebuilt_from_their_fields_are_equal_copies_without_facts():
    # a scheme brings in the kinds no term holds
    scheme = TypeScheme((("a", KType()), ("p", KPre())), Arrow(TyVar("a"), INT))
    seen, stack = {}, [*_terms_and_reducts(), scheme]
    while stack:
        node = stack.pop()
        if id(node) not in seen and (not isinstance(node, Term) or term_size(node) <= 300):
            seen[id(node)] = node
            stack += _node_parts(node)
    forms = set()
    for node in seen.values():
        hash(node)
        if isinstance(node, Term):
            free_vars(node), type_level_names(node)
        copy = type(node)(*(getattr(node, f) for f in node._fields))
        assert [getattr(copy, fact) for fact in copy._facts] == [None] * len(copy._facts)
        assert copy == node and node == copy and copy is not node
        assert hash(copy) == hash(node) and repr(copy) == repr(node)
        forms.add(type(node))
    parts = {Absent, Present, PresVar, Row, TyVar, Base, Arrow, Variant, Record, ForallRow}
    assert forms == set(SHAPES) | parts | {ForallPres, KType, KRow, KPre, TypeScheme}
    assert len(seen) > 2000


def test_node_equality_keeps_the_class_and_the_python_values():
    assert Absent() != Present() and Absent() == Absent()
    assert TyVar("a") != PresVar("a") and TyVar("a") != Var("a")
    assert KType() != KPre() and KRow(frozenset()) != KRow(frozenset("A"))
    # leaf values are equal only of one type, as the search's keys have them
    assert Lit(True) != Lit(1) and Lit(1) == Lit(1)
    assert Lit(1) != Lit("1") and Lam("x", None, Lit(1)) != Lam("y", None, Lit(1))
    assert (Var("x") == "x") is False and Var("x") != ("x",)


def test_node_reprs_are_the_dataclass_ones():
    # these texts appear in messages such as TypeError("not a type: ...")
    pins = {
        KType(): "KType()",
        KRow(frozenset({"A"})): "KRow(lacks=frozenset({'A'}))",
        Absent(): "Absent()",
        PresVar("p"): "PresVar(name='p')",
        Row((("A", Present(), INT),), "r"):
            "Row(entries=(('A', Present(), Base(tag='Int')),), tail='r')",
        Arrow(TyVar("a"), INT): "Arrow(dom=TyVar(name='a'), cod=Base(tag='Int'))",
        ForallRow("r", KRow(frozenset()), Record(Row((), "r"))):
            "ForallRow(var='r', kind=KRow(lacks=frozenset()), "
            "body=Record(row=Row(entries=(), tail='r')))",
        TypeScheme((("a", KType()),), TyVar("a")):
            "TypeScheme(quants=(('a', KType()),), body=TyVar(name='a'))",
        Lam("x", None, Var("x")): "Lam(var='x', annot=None, body=Var(name='x'))",
        RowApp(Var("f"), Row(())):
            "RowApp(term=Var(name='f'), row=Row(entries=(), tail=None), origin='source')",
        RecordLit((("A", Lit(1)),)): "RecordLit(fields=(('A', Lit(value=1)),), annot=None)",
        Case(Var("s"), (("A", "a", Lit("s")),)):
            "Case(scrutinee=Var(name='s'), branches=(('A', 'a', Lit(value='s')),))",
        Prim("+", (Lit(1), Lit(2))): "Prim(op='+', args=(Lit(value=1), Lit(value=2)))",
    }
    for node, text in pins.items():
        assert repr(node) == text
    with pytest.raises(TypeError, match=r"^not a type: Lam\(var='x', annot=None"):
        type_key(Lam("x", None, Var("x")))


def _nodes(*tops):
    """Every node object in ``tops`` and under them, once, through fields
    and tuples."""
    stack, met = list(tops), set()
    while stack:
        y = stack.pop()
        if isinstance(y, Node) and id(y) not in met:
            met.add(id(y))
            yield y
            stack += [getattr(y, f) for f in y._fields]
        elif type(y) is tuple:
            stack += y


def test_every_node_repr_is_the_dataclass_text_of_its_fields():
    # the dataclass rule at each node, children shown by repr: with the
    # pins above, every repr is the recursive dataclass text
    forms = set()
    for x in _nodes(*_generated_term_list()):
        if isinstance(x, Term) and term_size(x) > 300:
            continue  # a translation's tree, exponential in its casts
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
        assert repr(x) == f"{type(x).__qualname__}({fields})"
        forms.add(type(x))
    assert len(forms) > 20


def test_repr_of_deep_nests_returns():
    lam, arrow = Var("x"), INT
    for _ in range(100_000):
        lam, arrow = Lam("x", None, lam), Arrow(arrow, INT)
    text = repr(lam)
    assert text.startswith("Lam(var='x', annot=None, body=Lam(var='x'")
    assert text.endswith("body=Var(name='x')" + ")" * 100_000)
    assert len(text) == 100_000 * len("Lam(var='x', annot=None, body=)") + len("Var(name='x')")
    text = repr(arrow)
    assert text.startswith("Arrow(dom=Arrow(dom=") and text.endswith("cod=Base(tag='Int'))")
    assert len(text) == 100_000 * len("Arrow(dom=, cod=Base(tag='Int'))") + len("Base(tag='Int')")


def test_show_type_of_a_deep_term_says_it_is_not_a_type():
    m = Var("x")
    for _ in range(3_000):
        m = Lam("x", None, m)
    with pytest.raises(TypeError, match=r"^not a type: Lam\(var='x', annot=None, body=Lam\("):
        show_type(m)


def test_hash_of_a_deep_lambda_nest_returns():
    a, b = Var("x"), Var("x")
    for i in range(100_000):
        a, b = Lam(f"x{i % 7}", None, a), Lam(f"x{i % 7}", None, b)
    assert hash(a) == hash(b) and hash(a) == a._hash
    assert hash(Lam("x", None, a)) != hash(Lam("x", INT, a))


def test_equality_of_deep_nests_returns():
    a, b = Var("x"), Var("x")
    for i in range(100_000):
        a, b = Lam(f"x{i % 7}", None, a), Lam(f"x{i % 7}", None, b)
    assert a == b and not a != b and Lam("x", None, a) != Lam("x", None, Lam("x", None, b))
    m, n = Var("x0"), Var("y0")
    for i in range(3_000):
        m, n = Lam(f"x{i}", INT, m), Lam(f"y{i}", INT, n)
    assert alpha_eq(m, n) and not alpha_eq(m, Lam("z", INT, n))


def test_hash_of_a_deep_arrow_type_returns():
    a, b = INT, INT
    for i in range(100_000):
        a, b = Arrow(a, TyVar(f"a{i % 5}")), Arrow(b, TyVar(f"a{i % 5}"))
    assert hash(a) == hash(b) and hash(Record(Row((("A", Present(), a),)))) == hash(
        Record(Row((("A", Present(), b),)))
    )
