"""Oracles for the syntax layer: the term shape table, substitution, row
algebra, equality."""

from __future__ import annotations

from typing import get_args

import pytest
from hypothesis import given, strategies as st

from rowlab.config import PRESETS, preset
from rowlab.harness import GenError, GenSpec, gen_typed_term
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
    KRow,
    Lam,
    Let,
    Lit,
    MalformedRowError,
    NameSupply,
    PresAbs,
    PresApp,
    PresVar,
    Present,
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
    alpha_eq,
    children,
    closed_row,
    free_vars,
    normalize_row,
    rebuild,
    record,
    row_dom,
    scheme_alpha_eq,
    subst_term,
    subst_type_in_term,
    subst_type_in_type,
    type_equal,
    variant,
)
from rowlab.translate import TRANSLATIONS, run_translation

A0 = TyVar("a0")
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
    assert normalize_row(row, presence_aware=True) == Row((), None)
    assert normalize_row(row, presence_aware=False) == row


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
    assert set(get_args(Term)) == set(SHAPES)


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
