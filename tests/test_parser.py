"""Grammar round-trips, the binder-kind recovery rules, and the tokenizer
and error positions against a character-by-character reference."""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rowlab import parser, syntax
from rowlab.config import PRESETS, preset
from rowlab.harness import GenSpec, gen_typed_term
from rowlab.parser import (
    KEYWORDS,
    SYMBOLS,
    ParseError,
    Parser,
    Token,
    parse_file_str,
    parse_term_str,
    parse_type_str,
    tokenize,
)
from rowlab.pretty import show_scheme, show_term, show_type
from rowlab.syntax import (
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
    TyVar,
    TypeScheme,
    Upcast,
    Var,
    Variant,
    alpha_eq,
    type_equal,
)

INT = Base("Int")
STR = Base("String")


def test_parse_variant_type():
    ty = parse_type_str("[Age:Int; Year:Int]")
    assert ty == Variant(Row((("Age", Present(), INT), ("Year", Present(), INT)), None))


def test_parse_record_with_tail_and_presence():
    ty = parse_type_str("{Name^p0:String; Age^o:Int; r0}")
    assert ty == Record(
        Row((("Name", PresVar("p0"), STR), ("Age", Absent(), INT)), "r0")
    )


def test_parse_forall_row_explicit_kind():
    ty = parse_type_str("forall r0:Row!{Age,Year}. [Age:Int; Year:Int; r0]")
    assert isinstance(ty, ForallRow)
    assert ty.kind == KRow(frozenset({"Age", "Year"}))


def test_parse_forall_kind_recovery_row():
    ty = parse_type_str("forall r0. [Age:Int; r0]")
    assert isinstance(ty, ForallRow)
    assert ty.kind == KRow(frozenset({"Age"}))


def test_parse_forall_kind_recovery_pres():
    ty = parse_type_str("forall p0. {Name^p0:String}")
    assert isinstance(ty, ForallPres)


def test_an_unused_binder_takes_its_default_kind_without_a_walk(monkeypatch):
    assert parser.free_type_names is syntax.free_type_names
    walked = []
    real = syntax.free_type_names
    monkeypatch.setattr(parser, "free_type_names", lambda x: walked.append(x) or real(x))
    ty = parse_type_str("forall " + " ".join(f"r{i}" for i in range(1000)) + ". Int")
    kinds = []
    while isinstance(ty, ForallRow):
        kinds.append(ty.kind)
        ty = ty.body
    assert kinds == [KRow(frozenset())] * 1000 and ty == INT
    term = parse_term_str("/\\r0. /\\r1. x")
    assert isinstance(term, PresAbs) and isinstance(term.body, PresAbs)
    assert walked == []
    # a binder used as a row tail is still walked for its lacks set
    ty = parse_type_str("forall r0 r1. {A:Int; r0}")
    assert (ty.kind, ty.body.kind) == (KRow(frozenset({"A"})), KRow(frozenset()))
    term = parse_term_str("/\\r0. <Year 1984> : [Year:Int; r0]")
    assert term.kind == KRow(frozenset({"Year"}))
    assert len(walked) == 2
    # a binder group of any size costs at most one walk
    for n in (1, 2, 10, 300):
        walked.clear()
        binders = " ".join(f"p{i} r{i}" for i in range(n))
        row = "; ".join(f"L{i}^p{i}:{{A:Int; r{i}}}" for i in range(n))
        ty = parse_type_str(f"forall {binders} p{n}:Pre. {{{row}}}")
        assert len(walked) == 1
        for i in range(n):
            assert isinstance(ty, ForallPres) and ty.body.kind == KRow(frozenset({"A"}))
            ty = ty.body.body
        assert isinstance(ty, ForallPres) and isinstance(ty.body, Record)
        # and so does a chain of type abstractions
        walked.clear()
        binders = "".join(f"/\\p{i}. /\\r{i}. " for i in range(n))
        term = parse_term_str(binders + "x" + "".join(f" @@ [A:Int; r{i}]" for i in range(n)))
        assert len(walked) == 1
        for i in range(n):
            assert isinstance(term, PresAbs) and term.body.kind == KRow(frozenset({"A"}))
            term = term.body.body


def test_a_large_binder_group_parses_in_one_walk():
    # every binder used to walk the body under it: quadratic time, and a
    # RecursionError at 1,000 binders
    for n in (1000, 5000):
        binders = " ".join(f"p{i}" for i in range(n))
        row = "; ".join(f"L{i}^p{i}:Int" for i in range(n))
        start = time.perf_counter()
        ty = parse_type_str(f"forall {binders}. {{{row}}}")
        elapsed = time.perf_counter() - start
        count = 0
        while isinstance(ty, ForallPres):
            count += 1
            ty = ty.body
        assert count == n and isinstance(ty, Record)
        assert elapsed < 1.0, (n, elapsed)
    # directly nested quantifiers, and a chain of type abstractions, are one
    # group too
    row = "{" + "; ".join(f"L{i}^p{i}:Int" for i in range(1000)) + "}"
    presences = "".join(f" @ p{i}" for i in range(1000))
    for parse, text, form in [
        (parse_type_str, "".join(f"forall p{i}. " for i in range(1000)) + row, ForallPres),
        (parse_term_str, "".join(f"/\\p{i}. " for i in range(1000)) + "x" + presences, PresAbs),
    ]:
        start = time.perf_counter()
        x = parse(text)
        elapsed = time.perf_counter() - start
        for _ in range(1000):
            assert isinstance(x, form)
            x = x.body
        assert elapsed < 1.0, elapsed


def test_a_row_kind_header_needs_row_then_bang():
    delta, gamma, _ = parse_file_str(
        "-- env: x : Rowan -> Int\n-- env: y : Row\n-- env: r : Row !{A}\nx"
    )
    assert gamma == {"x": Arrow(TyVar("Rowan"), INT), "y": TyVar("Row")}
    assert delta == {"r": KRow(frozenset({"A"}))}
    with pytest.raises(ParseError, match="^1:17: expected '{'"):
        parse_file_str("-- env: r : Row!Age\nx")


def test_parse_arrow_right_assoc():
    ty = parse_type_str("a0 -> a1 -> a0")
    assert ty == Arrow(TyVar("a0"), Arrow(TyVar("a1"), TyVar("a0")))


def test_parse_getage():
    term = parse_term_str(
        "\\x:[Age:Int; Year:Int]. case x { Age y -> y; Year y -> 2023 - y }"
    )
    assert isinstance(term, Lam)
    assert isinstance(term.body, Case)
    (_, _, age_body), (_, _, year_body) = term.body.branches
    assert age_body == Var("y")
    assert year_body == Prim("-", (Lit(2023), Var("y")))


def test_parse_inject_annot_and_upcast():
    term = parse_term_str("<Year 1984> : [Year:Int] :> [Age:Int; Year:Int]")
    assert isinstance(term, Upcast)
    assert isinstance(term.term, Inject)
    assert term.term.annot == Variant(Row((("Year", Present(), INT),), None))


def test_parse_record_literal_annot():
    term = parse_term_str('{Name = "Alice", Age = 9} : {Name^p:String; Age^q:Int}')
    assert isinstance(term, RecordLit)
    assert term.fields == (("Name", Lit("Alice")), ("Age", Lit(9)))
    assert term.annot is not None


def test_parse_rowapp_origins():
    src = parse_term_str("x @ [Age:Int; r0]")
    up = parse_term_str("x @@ [Age:Int; r0]")
    assert isinstance(src, RowApp) and src.origin == "source"
    assert isinstance(up, RowApp) and up.origin == "upcast"


def test_parse_presapp_literals():
    assert parse_term_str("x @ o") == PresApp(Var("x"), Absent(), "source")
    assert parse_term_str("x @ *") == PresApp(Var("x"), Present(), "source")
    assert parse_term_str("x @@ p0") == PresApp(Var("x"), PresVar("p0"), "upcast")


def test_parse_type_abstraction_kinds():
    row = parse_term_str("/\\r0:Row!{Year}. <Year 1984> : [Year:Int; r0]")
    assert isinstance(row, RowAbs)
    pres = parse_term_str("/\\p0. x @ p0")
    assert isinstance(pres, PresAbs)
    recovered = parse_term_str("/\\r0. <Year 1984> : [Year:Int; r0]")
    assert isinstance(recovered, RowAbs)
    assert recovered.kind == KRow(frozenset({"Year"}))


def test_parse_case_rowapp_scrutinee_without_parens():
    term = parse_term_str("case x @ [] { Age y -> y }")
    assert isinstance(term, Case)
    assert isinstance(term.scrutinee, RowApp)


def test_parse_projection_binds_tighter_than_app():
    term = parse_term_str("f x.Name")
    assert term == App(Var("f"), Project(Var("x"), "Name"))


def test_parse_let():
    term = parse_term_str("let x = {Name = \"A\"} in x.Name")
    assert isinstance(term, Let)
    assert isinstance(term.body, Project)


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        parse_term_str("   -- nothing here\n")


def test_parse_file_env_headers():
    delta, gamma, term = parse_file_str(
        "-- env: a0 : Type\n-- env: y : a0\n{l = y} :> {}\n"
    )
    assert delta == {"a0": KType()}
    assert gamma == {"y": TyVar("a0")}
    assert isinstance(term, Upcast)


def test_parse_file_row_kind_header():
    delta, _, _ = parse_file_str("-- env: r0 : Row!{Age}\nx @ [r0]\n")
    assert delta == {"r0": KRow(frozenset({"Age"}))}


def test_parse_file_kind_header_is_read_to_its_end():
    with pytest.raises(ParseError, match="^1:24: trailing input 'junk'"):
        parse_file_str("-- env: r0 : Row!{Age} junk here\nx")
    with pytest.raises(ParseError, match="^2:18: trailing input 'Type'"):
        parse_file_str("x\n-- env: a0 : Pre Type\n")


def test_parse_file_header_errors_are_placed_in_the_file():
    with pytest.raises(ParseError, match="^3:19: expected ';' or '}' in row"):
        parse_file_str("x\n\n-- env: y : {A:Int\n")
    with pytest.raises(ParseError, match="^2:22: expected identifier"):
        parse_file_str("-- env: a0 : Type\n\t-- env:  r : Row!{A,}\r\nx")
    with pytest.raises(ParseError, match="^2:3: malformed env header"):
        parse_file_str("x\n  -- env: y\n")



def test_a_name_has_one_header_of_each_sort():
    # Delta and Gamma are separate, so a kind and a type header may share a
    # name; a second header of one sort is placed at its name
    with pytest.raises(ParseError, match="^2:10: duplicate env header for x$"):
        parse_file_str("-- env: x : Int\n-- env:  x : String\nx\n")
    with pytest.raises(ParseError, match="^3:9: duplicate env header for a$"):
        parse_file_str("-- env: a : Type\n-- env: x : a\n-- env: a : Pre\nx\n")
    delta, gamma, _ = parse_file_str("-- env: x : Type\n-- env: x : x\nx\n")
    assert (delta, gamma) == ({"x": KType()}, {"x": TyVar("x")})


@pytest.mark.parametrize("name", ["x y", "let", "1x"])
def test_a_header_name_is_one_identifier(name):
    # no term could use such a name, so the header is refused at it
    message = f"^2:10: env header name '{name}' is not an identifier$"
    with pytest.raises(ParseError, match=message):
        parse_file_str(f"-- env: y : Int\n-- env:  {name} : Int\ny\n")


ROUND_TRIP_TERMS = [
    "\\x:[Age:Int; Year:Int]. case x { Age y -> y; Year y -> 2023 - y }",
    "(\\x:{Name:String}. x.Name) ({Name = \"Alice\", Age = 9} :> {Name:String})",
    "/\\r0:Row!{Year}. <Year 1984> : [Year:Int; r0]",
    "/\\p0. /\\p1. {Name = \"Alice\", Age = 9} : {Age^p0:Int; Name^p1:String}",
    "\\x:forall r0:Row!{Age,Year}. [Age:Int; Year:Int; r0]. case x @ [] { Age y -> y }",
    "let getName = \\x. x.Name in getName {Name = \"Alice\", Age = 9}",
    "x @@ [Age:Int; r0] @ * @@ o",
    "f (x - 1) + g 2 ++ \"s\"",
    "<Raw (<Year 1984> : [Year:Int])> : [Raw:[Year:Int]]",
    "case (x :> [l:Int]) { l z -> z }",
]


@pytest.mark.parametrize("src", ROUND_TRIP_TERMS)
def test_round_trip_terms(src):
    term = parse_term_str(src)
    assert alpha_eq(parse_term_str(show_term(term)), term)


ROUND_TRIP_TYPES = [
    "forall r0:Row!{Age,Year}. [Age:Int; Year:Int; r0] -> Int",
    "{Name^p0:String; Age^o:Int} -> forall p1:Pre. {l^p1:Int}",
    "(a0 -> a1) -> {f:a0 -> a1; g:[x:a0; y:a1]}",
]


@pytest.mark.parametrize("src", ROUND_TRIP_TYPES)
def test_round_trip_types(src):
    ty = parse_type_str(src)
    assert type_equal(parse_type_str(show_type(ty)), ty)


def test_show_scheme():
    scheme = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        Arrow(Record(Row((("Name", Present(), TyVar("a0")),), "r0")), TyVar("a0")),
    )
    text = show_scheme(scheme)
    assert text == "forall a0:Type r0:Row!{Name}. {Name:a0; r0} -> a0"


def test_round_trip_generated_terms_of_every_preset():
    for name in sorted(PRESETS):
        spec = GenSpec(preset(name), max_size=10, seed=0)
        for i in range(8):
            term, deriv = gen_typed_term(spec, i)
            assert alpha_eq(parse_term_str(show_term(term)), term), (name, i)
            if deriv is not None:
                assert type_equal(parse_type_str(show_type(deriv.type)), deriv.type)


# ---------------------------------------------------------------------------
# the tokenizer against the character loop it replaced, which tries each rule
# in turn, with two fixes: the column moves through a comment, and only
# decimal digits start a number (another `isalnum` character such as `²`
# starts an identifier; `int("²")` raised ValueError)


def _reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'$"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as e:
        return str(e)


def _assert_same_tokens(text):
    assert _outcome(tokenize, text) == _outcome(_reference_tokenize, text), text


TESTS = Path(__file__).resolve().parent


def test_tokens_match_the_reference_on_the_corpus_and_the_tests():
    files = sorted((TESTS.parent / "corpus").glob("*.row")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 20
    for path in files:
        text = path.read_text()
        _assert_same_tokens(text)
        for line in text.splitlines():
            _assert_same_tokens(line)


_PIECES = (
    SYMBOLS + sorted(KEYWORDS)
    + ["x", "r0", "p0", "o", "Int", "Row", "Type", "Age", "12", "0", "x'", "f$", "_y"]
    + ['"s"', '"a\\"b"', '"\\n"', '"a\nb"', "--", "-- c\n", "-- env: a0 : Type\n"]
    + [" ", "\n", "\r", "\t", '"', "\\", "#", "é", "٣"]
)


_FUZZ = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FUZZ)
def test_tokens_match_the_reference_on_fuzz(text):
    _assert_same_tokens(text)
    # a file with no headers parses as its text does
    tokens = _outcome(tokenize, text)
    if isinstance(tokens, list) and tokens[0].kind != "eof" and "-- env:" not in text:
        file = _outcome(parse_file_str, text)
        term = _outcome(parse_term_str, text)
        assert file == term if isinstance(term, str) else file == ({}, {}, term)


# Error positions, worked out only for an error, and identifier characters


def _assert_error_at_the_reference_token(parse, text):
    """A ParseError from ``parse(text)`` is placed where the reference puts
    the token the parser stopped at (the end of input included), or is the
    reference's own error for a character that starts no token."""
    stops = []
    real = Parser.fail

    def fail(self, message, index=None):
        stops.append((self.text, self.pos if index is None else index))
        real(self, message, index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Parser, "fail", fail)
        try:
            parse(text)
        except ParseError as e:
            error = e
        else:
            return
    if not stops:  # an empty or malformed header, placed by parse_file_str
        return
    stopped_in, index = stops[-1]
    tokens = _outcome(_reference_tokenize, stopped_in)
    if isinstance(tokens, str):
        assert str(error) == tokens, text
    else:
        assert (error.line, error.col) == tokens[index][2:], text


def test_error_positions_match_the_reference_on_every_corpus_prefix():
    for path in sorted((TESTS.parent / "corpus").glob("*.row")):
        text = path.read_text()
        for end in range(len(text) + 1):
            _assert_error_at_the_reference_token(parse_file_str, text[:end])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FUZZ)
def test_error_positions_match_the_reference_on_fuzz(text):
    for parse in (parse_file_str, parse_term_str, parse_type_str):
        _assert_error_at_the_reference_token(parse, text)


def test_a_parse_works_out_positions_only_for_its_error(monkeypatch):
    calls = []
    real = Parser.positions
    monkeypatch.setattr(Parser, "positions", lambda self: calls.append(1) or real(self))
    binders = " ".join(f"r{i}:Row!{{}}" for i in range(4000))
    assert isinstance(parse_type_str(f"forall {binders}. Int"), ForallRow)
    assert isinstance(parse_term_str(" + ".join(["1"] * 100_000)), Prim)
    assert calls == []
    where = len(f"forall {binders} ") + 1
    with pytest.raises(ParseError, match=f"^1:{where}: binder r3999 cannot have kind Type"):
        parse_type_str(f"forall {binders} r3999:Type. Int")
    assert calls == [1]


def test_end_of_input_after_a_comment_has_its_column():
    with pytest.raises(ParseError, match=r"^1:11: expected '\)', found 'end of input'"):
        parse_term_str("(x -- note")


def test_file_end_of_input_is_where_the_text_ends():
    for parse in (parse_term_str, lambda text: parse_file_str(text)[2]):
        with pytest.raises(ParseError, match=r"^2:1: expected identifier"):
            parse("let \n")


@pytest.mark.parametrize(
    "parse, text, where",
    [(parse_term_str, "/\\a:Type. x", "1:3"), (parse_type_str, "forall a:Type. Int", "1:8"),
     (parse_type_str, "forall r p\n  a:Type. Int", "2:3")],
)
def test_binder_kind_errors_point_at_the_binder(parse, text, where):
    with pytest.raises(ParseError, match=f"^{where}: binder a cannot have kind Type"):
        parse(text)


def test_non_decimal_numerals_are_identifier_characters():
    assert parse_term_str("f ² x²") == App(App(Var("f"), Var("²")), Var("x²"))
    assert parse_term_str("٣") == Lit(3)
