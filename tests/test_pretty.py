"""The one printer against recursive reference printers: the term printer
of before the layout table, and the type printers of before types joined
it (without the text they kept on each type)."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from rowlab import pretty
from rowlab.config import PRESETS, preset
from rowlab.dynamics import relations_for, step_all
from rowlab.harness import (
    GenError,
    GenSpec,
    _Gen,
    ambient_delta,
    ambient_gamma,
    gen_subst_pair,
    gen_typed_term,
)
from rowlab.infer import infer
from rowlab.parser import parse_file_str, parse_term_str
from rowlab.pretty import show_kind, show_presence, show_scheme, show_term, show_type
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
    Node,
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
    TypeScheme,
    TyVar,
    Upcast,
    Var,
    Variant,
    alpha_eq,
    children,
    rebuild,
    record,
    variant,
)
from rowlab.translate import TRANSLATIONS, run_translation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PRETTY = Path(__file__).resolve().parent.parent / "src" / "rowlab" / "pretty.py"


def _reference_show_kind(kind):
    if isinstance(kind, KType):
        return "Type"
    if isinstance(kind, KPre):
        return "Pre"
    if isinstance(kind, KRow):
        return "Row!{" + ",".join(sorted(kind.lacks)) + "}"
    raise TypeError(f"not a kind: {kind!r}")


def _reference_show_presence(pres):
    if isinstance(pres, Present):
        return "*"
    if isinstance(pres, Absent):
        return "o"
    if isinstance(pres, PresVar):
        return pres.name
    raise TypeError(f"not a presence: {pres!r}")


def _reference_show_row(row):
    parts = []
    for label, pres, ty in row.entries:
        if isinstance(pres, Present):
            parts.append(f"{label}:{_reference_show_type(ty)}")
        else:
            parts.append(f"{label}^{_reference_show_presence(pres)}:{_reference_show_type(ty)}")
    if row.tail is not None:
        parts.append(row.tail)
    return "; ".join(parts)


# the highest prec each form prints at without parentheses
_PREC = {ForallRow: 0, ForallPres: 0, Arrow: 1}


def _reference_show_type(ty, prec=0):
    if isinstance(ty, (ForallRow, ForallPres)):
        binders = []
        body = ty
        while isinstance(body, (ForallRow, ForallPres)):
            kind = body.kind if isinstance(body, ForallRow) else KPre()
            binders.append(f"{body.var}:{_reference_show_kind(kind)}")
            body = body.body
        out = f"forall {' '.join(binders)}. {_reference_show_type(body)}"
    elif isinstance(ty, Arrow):
        out = f"{_reference_show_type(ty.dom, 2)} -> {_reference_show_type(ty.cod, 1)}"
    elif isinstance(ty, TyVar):
        out = ty.name
    elif isinstance(ty, Base):
        out = ty.tag
    elif isinstance(ty, Variant):
        out = f"[{_reference_show_row(ty.row)}]"
    elif isinstance(ty, Record):
        out = "{" + _reference_show_row(ty.row) + "}"
    else:
        raise TypeError(f"not a type: {ty!r}")
    return f"({out})" if prec > _PREC.get(type(ty), 2) else out


def _reference_show_scheme(scheme):
    if not scheme.quants:
        return _reference_show_type(scheme.body)
    binders = " ".join(f"{name}:{_reference_show_kind(kind)}" for name, kind in scheme.quants)
    return f"forall {binders}. {_reference_show_type(scheme.body)}"


def _reference_show_term(term, prec=0):
    # prec 0: binders/case/let, 1: upcast chains, 2: additive, 3: application,
    # 4: postfix (project, type application), 5: atoms
    ref = _reference_show_term
    if isinstance(term, Lam):
        annot = f":{_reference_show_type(term.annot)}" if term.annot is not None else ""
        out = f"\\{term.var}{annot}. {ref(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, RowAbs):
        out = f"/\\{term.var}:{_reference_show_kind(term.kind)}. {ref(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, PresAbs):
        out = f"/\\{term.var}. {ref(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Let):
        out = f"let {term.var} = {ref(term.bound)} in {ref(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Case):
        scrut = ref(term.scrutinee, 1)
        if isinstance(term.scrutinee, RecordLit):
            scrut = f"({scrut})"
        branches = "; ".join(
            f"{label} {binder} -> {ref(body)}" for label, binder, body in term.branches
        )
        out = f"case {scrut} {{ {branches} }}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, Upcast):
        out = f"{ref(term.term, 1)} :> {_reference_show_type(term.target)}"
        return f"({out})" if prec > 1 else out
    if isinstance(term, Prim):
        left, right = term.args
        out = f"{ref(left, 2)} {term.op} {ref(right, 3)}"
        return f"({out})" if prec > 2 else out
    if isinstance(term, App):
        out = f"{ref(term.fn, 3)} {ref(term.arg, 4)}"
        return f"({out})" if prec > 3 else out
    if isinstance(term, Project):
        return f"{ref(term.term, 4)}.{term.label}"
    if isinstance(term, RowApp):
        sep = "@@" if term.origin == "upcast" else "@"
        return f"{ref(term.term, 4)} {sep} [{_reference_show_row(term.row)}]"
    if isinstance(term, PresApp):
        sep = "@@" if term.origin == "upcast" else "@"
        return f"{ref(term.term, 4)} {sep} {_reference_show_presence(term.presence)}"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        if isinstance(term.value, int):
            # a negative literal is parenthesized where "-" would read as
            # a subtraction: as an argument, an operand on the right or
            # the target of a postfix form
            return f"({term.value})" if term.value < 0 and prec > 2 else str(term.value)
        escaped = term.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(term, Inject):
        out = f"<{term.label} {ref(term.payload, 4)}>"
        if term.annot is not None:
            out = f"{out} : {_reference_show_type(term.annot)}"
            return f"({out})" if prec > 4 else out
        return out
    if isinstance(term, RecordLit):
        fields = ", ".join(f"{label} = {ref(sub)}" for label, sub in term.fields)
        out = "{" + fields + "}"
        if term.annot is not None:
            out = f"{out} : {_reference_show_type(term.annot)}"
            return f"({out})" if prec > 4 else out
        return out
    raise TypeError(f"not a term: {term!r}")


EMPTY = record()  # a short annotation
AB = variant(("A", record()), ("B", record()))
_CORNERS = [
    # a case on a record, bare and annotated, and on a projection of one
    Case(RecordLit((("A", Lit(1)),)), (("A", "a", Var("a")),)),
    Case(RecordLit((("A", Lit(1)),), record(("A", EMPTY))), ()),
    Case(Project(RecordLit((("A", Var("x")),)), "A"), (("A", "a", Var("a")), ("B", "b", Var("b")))),
    # annotated injections and records as arguments, payloads and operands
    App(Var("f"), Inject("A", RecordLit(()), AB)),
    App(Inject("A", Var("x"), AB), Inject("B", Var("y"), None)),
    Inject("A", Inject("B", RecordLit((), EMPTY), AB), AB),
    Project(RecordLit((("A", Lit(1)),), record(("A", EMPTY))), "A"),
    Prim("+", (Inject("A", Lit(1), AB), RecordLit((), EMPTY))),
    # chained casts, and casts in every position
    Upcast(Upcast(Upcast(Var("x"), EMPTY), EMPTY), EMPTY),
    App(Upcast(Var("f"), EMPTY), Upcast(Var("x"), EMPTY)),
    Upcast(App(Var("f"), Var("x")), EMPTY),
    Upcast(Lam("x", None, Var("x")), EMPTY),
    Project(Upcast(Var("r"), EMPTY), "A"),
    Prim("+", (Upcast(Lit(1), EMPTY), Prim("-", (Lit(2), Upcast(Lit(3), EMPTY))))),
    Case(Upcast(Var("v"), AB), (("A", "a", Upcast(Var("a"), EMPTY)),)),
    # binders, lets and type application under every other form
    App(Lam("x", EMPTY, Var("x")), Let("y", Lit(1), Var("y"))),
    Prim("++", (Lit('say "hi" \\ bye'), Let("y", Lit("s"), Var("y")))),
    RowApp(RowAbs("r", KRow(frozenset({"A"})), Var("x")), record().row, "upcast"),
    PresApp(PresAbs("p", Var("x")), Present(), "source"),
    Project(RowApp(Var("f"), record(("A", EMPTY)).row), "A"),
    RecordLit((("A", Lam("x", None, Var("x"))), ("B", Case(Var("v"), ())))),
]


def _subterms(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack += [child for _, child, _ in children(node)]


def _generated(name):
    """Generated terms of the preset, their translations and reducts."""
    cfg = preset(name)
    for size in (8, 12):
        spec = GenSpec(cfg, max_size=size, seed=3)
        for i in range(6):
            try:
                term, deriv = gen_typed_term(spec, i)
                dm, dn, _ = gen_subst_pair(spec, i)
                yield from (dm.term, dn.term)
            except GenError:
                continue
            yield term
            yield from (s.term for s in step_all(term, relations_for(cfg, full_upcast=True))[:2])
            for tid, t in sorted(TRANSLATIONS.items()):
                if deriv is not None and t.pairs[0][0] == name:
                    yield run_translation(tid, deriv)


def _check(terms):
    printed = 0
    for term in terms:
        for sub in _subterms(term):
            for prec in range(6):
                assert show_term(sub, prec) == _reference_show_term(sub, prec)
                printed += 1
    return printed


def _type_parts(top):
    """``top`` and every type, row and presence in it."""
    stack = [top]
    while stack:
        part = stack.pop()
        yield part
        if isinstance(part, Arrow):
            stack += [part.dom, part.cod]
        elif isinstance(part, (Variant, Record)):
            stack.append(part.row)
        elif isinstance(part, (ForallRow, ForallPres)):
            stack.append(part.body)
        elif isinstance(part, Row):
            stack += [p for _, pres, ty in part.entries for p in (pres, ty)]


def _check_types(tops):
    """Compare every type (at each precedence), row, presence and scheme in
    ``tops`` with the reference printers."""
    printed = 0
    for top in tops:
        if isinstance(top, TypeScheme):
            assert show_scheme(top) == _reference_show_scheme(top)
            for _, kind in top.quants:
                assert show_kind(kind) == _reference_show_kind(kind)
            top = top.body
        for part in _type_parts(top):
            if isinstance(part, Row):  # a row prints inside a type or a term
                assert show_type(Record(part)) == "{" + _reference_show_row(part) + "}"
            elif isinstance(part, (Present, Absent, PresVar)):
                assert show_presence(part) == _reference_show_presence(part)
            else:
                for prec in (0, 1, 2):
                    assert show_type(part, prec) == _reference_show_type(part, prec)
            printed += 1
    return printed


def _generated_types(name):
    """The types, rows, presences and schemes of the preset's generated terms
    and their translations: sampled goal types, annotations, cast targets,
    row and presence arguments, derivation types, translated types and
    inferred schemes."""
    cfg = preset(name)
    gen = _Gen(random.Random(0), GenSpec(cfg, max_size=10, seed=4))
    yield from (gen.sample_type(size) for size in range(1, 8))
    for term in _generated(name):
        for sub in _subterms(term):
            for field in SHAPES[type(sub)].types:
                if getattr(sub, field) is not None:
                    yield getattr(sub, field)
    spec = GenSpec(cfg, max_size=12, seed=3)
    for i in range(6):
        try:
            term, deriv = gen_typed_term(spec, i)
        except GenError:
            continue
        if cfg.rank1:
            yield infer(cfg, ambient_delta(), ambient_gamma(), term)
        if deriv is None:
            continue
        yield deriv.type
        for t in TRANSLATIONS.values():
            if t.pairs[0][0] == name and t.type_map is not None:
                yield t.type_map(deriv.type)


INT = Base("Int")
_HAND_TYPES = [
    # presence marks, open tails and runs of nested quantifiers of both sorts
    ForallRow("r", KRow(frozenset({"A", "B"})), ForallPres("p", ForallRow(
        "s", KRow(frozenset()),
        Arrow(Record(Row((("A", PresVar("p"), INT), ("B", Absent(), Arrow(INT, INT))), "r")),
              Variant(Row((), "s"))),
    ))),
    Arrow(ForallPres("p", TyVar("a")), Arrow(Arrow(TyVar("a"), TyVar("b")), ForallRow(
        "r", KRow(frozenset()), Record(Row((), "r"))
    ))),
    Record(Row((("A", Present(), ForallPres("p", Record(Row((("B", PresVar("p"), INT),))))),
                ("C", Absent(), Variant(Row((), None)))), "r")),
    ForallPres("p", Arrow(ForallPres("q", Record(Row((("A", PresVar("q"), INT),)))), INT)),
    # a duplicate label inside an absent entry, a shadowed quantifier and a
    # free name next to a bound one: printed as written
    Record(Row((
        ("m", Present(), Base("String")),
        ("l", Absent(), Record(Row((("l", Present(), INT), ("l", Present(), INT))))),
    ), "r")),
    ForallRow("r", KRow(frozenset()), ForallRow("r", KRow(frozenset()), Record(Row((), "r")))),
    ForallPres("q", Arrow(TyVar("q"), Record(Row((("A", PresVar("p"), INT),), "q")))),
    TypeScheme((), Arrow(INT, INT)),
    TypeScheme((("a", KType()), ("p", KPre()), ("r", KRow(frozenset({"A"})))),
               ForallRow("s", KRow(frozenset()), Arrow(TyVar("a"), Record(Row((), "r"))))),
]


def test_every_form_has_one_printing_rule():
    concrete, classes = set(), [Node]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if not cls.__subclasses__():
            concrete.add(cls)
    assert set(pretty._LAYOUT) == concrete


def test_printing_matches_the_reference_on_corner_cases():
    assert _check(_CORNERS) > 300
    assert show_term(_CORNERS[0]) == "case ({A = 1}) { A a -> a }"
    assert show_term(_CORNERS[8]) == "x :> {} :> {} :> {}"


def test_printing_matches_the_reference_on_generated_terms():
    printed = sum(_check(_generated(name)) for name in sorted(PRESETS))
    assert printed > 20_000


def test_printing_matches_the_reference_on_the_corpus():
    terms = [parse_file_str(p.read_text(encoding="utf-8"))[2] for p in sorted(CORPUS.glob("*.row"))]
    assert _check(terms) > 500


def test_type_printing_matches_the_reference():
    assert _check_types(_HAND_TYPES) > 40
    assert show_type(_HAND_TYPES[0]) == (
        "forall r:Row!{A,B} p:Pre s:Row!{}. {A^p:Int; B^o:Int -> Int; r} -> [s]"
    )
    assert show_scheme(_HAND_TYPES[-1]).startswith("forall a:Type p:Pre r:Row!{A}. forall s:")


def test_type_printing_matches_the_reference_on_generated_terms():
    printed = sum(_check_types(_generated_types(name)) for name in sorted(PRESETS))
    assert printed > 10_000


def test_each_entry_point_refuses_another_family():
    row = Row((("A", Present(), INT),))
    for show, junk, what in [
        (show_type, row, "type"), (show_term, INT, "term"), (show_kind, Present(), "kind"),
        (show_presence, KPre(), "presence"), (show_scheme, INT, "scheme"),
    ]:
        with pytest.raises(TypeError) as e:
            show(junk)
        assert str(e.value) == f"not a {what}: {junk!r}"


def test_the_printer_calls_no_entry_point_by_name():
    # tracing and the work budget wrap show_type and show_term wherever they
    # are bound, pretty included: a call by name inside pretty would be
    # charged as a call of its own
    tree = ast.parse(PRETTY.read_text(encoding="utf-8"))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    assert not loaded & {"show_type", "show_term"}


def test_a_deep_term_prints():
    term = Lit(0)
    for i in range(20_000):
        term = Prim("+", (term, Lit(i))) if i % 2 else Lam("x", None, App(term, Var("x")))
    out = show_term(term)
    assert out.startswith("(\\x. (") and out.endswith(" + 19999")


def test_a_deep_type_prints():
    left = right = INT
    for i in range(100_000):
        left, right = Arrow(left, TyVar("a")), Arrow(TyVar("a"), right)
    out = show_type(left)
    assert out == "(" * 99_999 + "Int -> a" + ") -> a" * 99_999
    assert show_type(right) == "a -> " * 100_000 + "Int"
    annot = INT
    for i in range(3_000):
        annot = Record(Row((("A", Present(), annot),)))
    out = show_term(Lam("x", annot, Var("x")))
    assert out == "\\x:" + "{A:" * 3_000 + "Int" + "}" * 3_000 + ". x"


# ---------------------------------------------------------------------------
# negative literals: "-2" where an argument or a right operand goes would
# read back as a subtraction


def _one_of_each_form():
    """A term of each form with children, every child the variable x."""
    x = Var("x")
    return [
        Lam("x", EMPTY, x), App(x, x), Inject("A", x, AB), Case(x, (("A", "a", x),)),
        RecordLit((("A", x), ("B", x))), Project(x, "A"), Upcast(x, EMPTY),
        RowAbs("r", KRow(frozenset()), x), RowApp(x, EMPTY.row, "upcast"), PresAbs("p", x),
        PresApp(x, Present()), Let("y", x, x), Prim("-", (x, x)),
    ]


def test_a_negative_literal_round_trips_in_every_child_position():
    forms = _one_of_each_form()
    assert {type(t) for t in forms} == {cls for cls in SHAPES if cls not in (Var, Lit)}
    positions = []
    for form in forms:
        kids = [child for _, child, _ in children(form)]
        for i in range(len(kids)):
            term = rebuild(form, kids[:i] + [Lit(-2)] + kids[i + 1:])
            positions.append(term)
            assert alpha_eq(parse_term_str(show_term(term)), term), show_term(term)
    assert len(positions) == 18
    assert _check(positions) > 18 * 6
    assert show_term(App(Var("f"), Lit(-2))) == "f (-2)"
    assert show_term(Prim("-", (Lit(1), Lit(-2)))) == "1 - (-2)"
    assert show_term(Prim("-", (Lit(-2), Lit(1)))) == "-2 - 1"
    assert parse_term_str("x -2") == Prim("-", (Var("x"), Lit(2)))


def test_reducts_of_generated_terms_round_trip():
    negative = 0
    for name in sorted(PRESETS):
        cfg = preset(name)
        rels = relations_for(cfg, full_upcast=True)
        spec = GenSpec(cfg, max_size=12, seed=3)
        for i in range(12):
            try:
                term, _ = gen_typed_term(spec, i)
            except GenError:
                continue
            while True:
                assert alpha_eq(parse_term_str(show_term(term)), term), (name, i)
                negative += any(
                    type(s) is Lit and type(s.value) is int and s.value < 0
                    for s in _subterms(term)
                )
                steps = step_all(term, rels)
                if not steps:
                    break
                term = steps[-1].term
    assert negative > 0
