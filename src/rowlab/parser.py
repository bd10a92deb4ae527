"""Parser for the workbench's concrete grammar.

Types:   a0, Int, String, A -> B, [l1:A1; l2:A2; r0], {l^o:A; l2^p:B},
         forall r0:Row!{l1,l2}. A, forall p0:Pre. A
Terms:   \\x:A. M, M N, <l M> : T, case M { l x -> N; ... },
         {l1 = M1, l2 = M2} : T, M.l, M :> A, /\\r0:Row!{}. M, M @ [R],
         M @@ [R], /\\p0. M, M @ o, M @ *, M @ p0, let x = M in N,
         integer and string literals, M - N, M + N, M ++ N

Tokens come from one pattern (``_TOKEN``).  `--` starts a line comment.
Files may open with `-- env: name : sig` headers declaring type-level names
(sig = Type, Row!{...}, Pre) or term variables (sig = a type); the
tokenizer skips them as the comments they are, and ``parse_file_str`` reads
them line by line.  Quantifier binders may omit their kind; it is recovered
from how the name is used in the body (row tail vs presence position).

In presence positions the identifier `o` means absent and `*` means present.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple

from .syntax import (
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
    Kind,
    Lam,
    Let,
    Lit,
    PresAbs,
    PresApp,
    PresVar,
    Presence,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    RowAbs,
    RowApp,
    Term,
    Type,
    TyVar,
    Upcast,
    Var,
    Variant,
    free_type_names,
    row_use_lacks,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # ident | int | string | sym | eof
    text: str
    line: int
    col: int


KEYWORDS = {"forall", "let", "in", "case"}
SYMBOLS = [
    "->", ":>", "@@", "/\\", "++", "!", "^", ".", ",", ";", ":", "{", "}", "[",
    "]", "<", ">", "(", ")", "\\", "=", "@", "*", "+", "-",
]

# One alternative per token kind, tried in order: a comment before the
# symbols so that `--` and `-->` stay comments, and the symbols in SYMBOLS
# order so that two-character symbols win.  A string may span lines; only
# newlines outside strings start a new line for positions.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>--[^\n]*)"
    r'|(?P<string>"[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r"|(?P<int>\d+)|(?P<ident>[^\W\d][\w'$]*)"
    r"|(?P<sym>" + "|".join(map(re.escape, SYMBOLS)) + ")"
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            ch = text[pos]
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(message, line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "string":
            body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), m[0][1:-1])
            tokens.append(Token(kind, body, line, pos - line_start + 1))
        elif kind != "space" and kind != "comment":
            tokens.append(Token(kind, m[0], line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        """The next token, which its caller has checked is not the end."""
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, text: str) -> bool:
        """Whether the next token is this symbol or word (never a string
        literal that spells it); no symbol is spelled like a word."""
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind != "string"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def eat(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.peek().text or 'end of input'!r}")
        return self.next()

    def eat_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            self.fail(f"expected identifier, found {tok.text or 'end of input'!r}")
        return self.next().text

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- kinds -------------------------------------------------------------

    def parse_kind(self) -> Kind:
        if self.accept("Row"):
            self.eat("!")
            self.eat("{")
            labels: set[str] = set()
            if not self.at("}"):
                labels.add(self.eat_ident())
                while self.accept(","):
                    labels.add(self.eat_ident())
            self.eat("}")
            return KRow(frozenset(labels))
        if self.accept("Pre"):
            return KPre()
        if self.accept("Type"):
            return KType()
        self.fail("expected a kind (Type, Row!{...}, Pre)")

    def parse_binder(self) -> tuple[Token, Kind | None]:
        """A type-level binder ``name`` or ``name:kind``: its name token (for
        the position of a kind error) and its kind, if written."""
        tok = self.peek()
        self.eat_ident()
        return tok, self.parse_kind() if self.accept(":") else None

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        if self.accept("forall"):
            binders: list[tuple[Token, Kind | None]] = []
            while not self.at("."):
                binders.append(self.parse_binder())
            self.eat(".")
            body = self.parse_type()
            for binder, kind in reversed(binders):
                body = _bind_type_name(binder, kind, body)
            return body
        left = self.parse_atom_type()
        return Arrow(left, self.parse_type()) if self.accept("->") else left

    def parse_atom_type(self) -> Type:
        if self.accept("("):
            ty = self.parse_type()
            self.eat(")")
            return ty
        if self.accept("["):
            return Variant(self.parse_row("]"))
        if self.accept("{"):
            return Record(self.parse_row("}"))
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Base(tok.text) if tok.text in ("Int", "String") else TyVar(tok.text)
        self.fail("expected a type")

    def parse_row(self, closer: str) -> Row:
        """The entries and tail of a row, through its closing bracket."""
        entries: list[tuple[str, Presence, Type]] = []
        tail: str | None = None
        while not self.accept(closer):
            if tail is not None:
                self.fail("row tail must come last")
            name = self.eat_ident()
            if self.at("^") or self.at(":"):
                pres = self.parse_presence() if self.accept("^") else Present()
                self.eat(":")
                entries.append((name, pres, self.parse_type()))
            else:
                tail = name
            if not self.accept(";") and not self.at(closer):
                self.fail(f"expected ';' or {closer!r} in row")
        return Row(tuple(entries), tail)

    def parse_presence(self) -> Presence:
        if self.accept("*"):
            return Present()
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return Absent() if tok.text == "o" else PresVar(tok.text)
        self.fail("expected a presence (o, *, or a variable)")

    # -- terms -------------------------------------------------------------

    def parse_term(self, brace_stop: bool = False) -> Term:
        if self.accept("\\"):
            var = self.eat_ident()
            annot = self.parse_type() if self.accept(":") else None
            self.eat(".")
            return Lam(var, annot, self.parse_term())
        if self.accept("/\\"):
            binder, kind = self.parse_binder()
            self.eat(".")
            return _bind_type_name(binder, kind, self.parse_term())
        if self.accept("let"):
            var = self.eat_ident()
            self.eat("=")
            bound = self.parse_term()
            self.eat("in")
            return Let(var, bound, self.parse_term())
        if self.accept("case"):
            scrutinee = self.parse_term(brace_stop=True)
            self.eat("{")
            branches: list[tuple[str, str, Term]] = []
            while not self.accept("}"):
                label = self.eat_ident()
                binder = self.eat_ident()
                self.eat("->")
                branches.append((label, binder, self.parse_term()))
                self.accept(";")
            return Case(scrutinee, tuple(branches))
        term = self.parse_additive(brace_stop)
        while self.accept(":>"):
            term = Upcast(term, self.parse_type())
        return term

    def parse_additive(self, brace_stop: bool) -> Term:
        term = self.parse_app(brace_stop)
        while self.at("-") or self.at("+") or self.at("++"):
            op = self.next().text
            term = Prim(op, (term, self.parse_app(brace_stop)))
        return term

    def parse_app(self, brace_stop: bool) -> Term:
        term = self.parse_postfix(brace_stop)
        while self.starts_atom(brace_stop):
            term = App(term, self.parse_postfix(brace_stop))
        return term

    def starts_atom(self, brace_stop: bool) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return tok.text not in KEYWORDS
        if tok.kind == "sym":
            return tok.text in ("(", "<") or (tok.text == "{" and not brace_stop)
        return tok.kind in ("int", "string")

    def parse_postfix(self, brace_stop: bool) -> Term:
        term = self.parse_atom(brace_stop)
        while True:
            if self.accept("."):
                term = Project(term, self.eat_ident())
            elif self.at("@") or self.at("@@"):
                origin = "upcast" if self.next().text == "@@" else "source"
                if self.accept("["):
                    term = RowApp(term, self.parse_row("]"), origin)
                else:
                    term = PresApp(term, self.parse_presence(), origin)
            else:
                return term

    def parse_atom(self, brace_stop: bool) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            try:
                value = int(tok.text)
            except ValueError:  # longer than int() converts
                self.fail(f"integer literal of {len(tok.text)} digits is too long")
            self.next()
            return Lit(value)
        if tok.kind == "string":
            self.next()
            return Lit(tok.text)
        if self.accept("("):
            term = self.parse_term()
            self.eat(")")
            return term
        if self.accept("<"):
            label = self.eat_ident()
            payload = self.parse_term()
            self.eat(">")
            return Inject(label, payload, self.parse_type() if self.accept(":") else None)
        if self.accept("{"):
            fields: list[tuple[str, Term]] = []
            while not self.accept("}"):
                label = self.eat_ident()
                self.eat("=")
                fields.append((label, self.parse_term()))
                self.accept(",")
            return RecordLit(tuple(fields), self.parse_type() if self.accept(":") else None)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text)
        self.fail("expected a term")


# ---------------------------------------------------------------------------
# binder-kind recovery for omitted annotations


def _bind_type_name(binder: Token, kind: Kind | None, body: Type | Term) -> Type | Term:
    """Quantify a type, or abstract a term, over the binder's row or presence
    name; an omitted kind is recovered from the body."""
    name = binder.text
    term = type(body) in SHAPES
    if kind is None:
        kind = _infer_binder_kind_term(name, body) if term else _infer_binder_kind(name, body)
    if isinstance(kind, KRow):
        return RowAbs(name, kind, body) if term else ForallRow(name, kind, body)
    if isinstance(kind, KPre):
        return PresAbs(name, body) if term else ForallPres(name, body)
    raise ParseError(f"binder {name} cannot have kind Type", binder.line, binder.col)


def _infer_binder_kind(name: str, body: Type) -> Kind:
    lacks = row_use_lacks(name, body)
    if lacks is not None:
        return KRow(lacks)
    if free_type_names(body).get(name) is KPre:
        return KPre()
    return KRow(frozenset())


def _infer_binder_kind_term(var: str, body: Term) -> Kind:
    """A row kind lacking the labels beside the first use of ``var`` as a
    row tail in ``body``'s annotations and arguments; Pre when there is none."""

    def scan(sub: Term) -> frozenset[str] | None:
        shape = SHAPES[type(sub)]
        if shape.tybinder and sub.var == var:
            return None
        for name in shape.types:
            part = getattr(sub, name)
            found = row_use_lacks(var, Record(part) if isinstance(part, Row) else part)
            if found is not None:
                return found
        for _, child, _ in shape.children(sub):
            found = scan(child)
            if found is not None:
                return found
        return None

    lacks = scan(body)
    return KPre() if lacks is None else KRow(lacks)


# ---------------------------------------------------------------------------
# entry points

def _parse_all(text: str, method: Callable[[Parser], Any]) -> Any:
    """``method`` run on a parser over ``text``, which it must read to the end."""
    parser = Parser(text)
    out = method(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def parse_type_str(text: str) -> Type:
    return _parse_all(text, Parser.parse_type)


def parse_term_str(text: str) -> Term:
    return _parse_all(text, Parser.parse_term)


def parse_file_str(text: str) -> tuple[dict[str, Kind], dict[str, Type], Term]:
    """Parse a corpus file: optional `-- env:` headers, then one term.  The
    headers are comments to the term, which is parsed from ``text`` as is.
    A header is a line (as the tokenizer counts lines) that starts with
    `-- env:`; its signature is read to its end, and an error in it is
    reported at its place in the file."""
    delta: dict[str, Kind] = {}
    gamma: dict[str, Type] = {}
    for number, raw in enumerate(text.split("\n")):
        line = raw.strip()
        if not line.startswith("-- env:"):
            continue
        name, _, sig = line[len("-- env:"):].partition(":")
        name, sig = name.strip(), sig.strip()
        head = raw.index("-- env:")
        if not name or not sig:
            raise ParseError(f"malformed env header {raw!r}", number + 1, head + 1)
        # the signature alone, at its line and column in the file
        start = raw.index(":", head + len("-- env:")) + 1
        at = "\n" * number + " " * start + raw[start:]
        if sig in ("Type", "Pre") or sig.startswith("Row"):
            delta[name] = _parse_all(at, Parser.parse_kind)
        else:
            gamma[name] = _parse_all(at, Parser.parse_type)

    def term(parser: Parser) -> Term:
        if parser.peek().kind == "eof":
            raise ParseError("empty input", 1, 1)
        return parser.parse_term()

    return delta, gamma, _parse_all(text, term)
