"""The term printer against a recursive reference printer."""

from __future__ import annotations

from pathlib import Path

from rowlab import pretty
from rowlab.config import PRESETS, preset
from rowlab.dynamics import relations_for, step_all
from rowlab.harness import GenError, GenSpec, gen_subst_pair, gen_typed_term
from rowlab.parser import parse_file_str
from rowlab.pretty import show_kind, show_presence, show_row, show_term, show_type
from rowlab.syntax import (
    SHAPES,
    App,
    Case,
    Inject,
    KRow,
    Lam,
    Let,
    Lit,
    PresAbs,
    PresApp,
    Present,
    Prim,
    Project,
    RecordLit,
    RowAbs,
    RowApp,
    Upcast,
    Var,
    children,
    record,
    variant,
)
from rowlab.translate import TRANSLATIONS, run_translation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _reference_show_term(term, prec=0):
    # prec 0: binders/case/let, 1: upcast chains, 2: additive, 3: application,
    # 4: postfix (project, type application), 5: atoms
    ref = _reference_show_term
    if isinstance(term, Lam):
        annot = f":{show_type(term.annot)}" if term.annot is not None else ""
        out = f"\\{term.var}{annot}. {ref(term.body)}"
        return f"({out})" if prec > 0 else out
    if isinstance(term, RowAbs):
        out = f"/\\{term.var}:{show_kind(term.kind)}. {ref(term.body)}"
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
        out = f"{ref(term.term, 1)} :> {show_type(term.target)}"
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
        return f"{ref(term.term, 4)} {sep} [{show_row(term.row)}]"
    if isinstance(term, PresApp):
        sep = "@@" if term.origin == "upcast" else "@"
        return f"{ref(term.term, 4)} {sep} {show_presence(term.presence)}"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        if isinstance(term.value, int):
            return str(term.value)
        escaped = term.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(term, Inject):
        out = f"<{term.label} {ref(term.payload, 4)}>"
        if term.annot is not None:
            out = f"{out} : {show_type(term.annot)}"
            return f"({out})" if prec > 4 else out
        return out
    if isinstance(term, RecordLit):
        fields = ", ".join(f"{label} = {ref(sub)}" for label, sub in term.fields)
        out = "{" + fields + "}"
        if term.annot is not None:
            out = f"{out} : {show_type(term.annot)}"
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


def test_every_form_has_one_printing_rule():
    assert set(pretty._LAYOUT) == set(SHAPES)


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


def test_a_deep_term_prints():
    term = Lit(0)
    for i in range(20_000):
        term = Prim("+", (term, Lit(i))) if i % 2 else Lam("x", None, App(term, Var("x")))
    out = show_term(term)
    assert out.startswith("(\\x. (") and out.endswith(" + 19999")
