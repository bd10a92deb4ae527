"""Parser for the workbench's concrete grammar.

Types:   a0, Int, String, A -> B, [l1:A1; l2:A2; r0], {l^o:A; l2^p:B},
         forall r0:Row!{l1,l2}. A, forall p0:Pre. A
Terms:   \\x:A. M, M N, <l M> : T, case M { l x -> N; ... },
         {l1 = M1, l2 = M2} : T, M.l, M :> A, /\\r0:Row!{}. M, M @ [R],
         M @@ [R], /\\p0. M, M @ o, M @ *, M @ p0, let x = M in N,
         integer (-2 too) and string literals, M - N, M + N, M ++ N

The text is scanned once, by one pattern (``_SCAN``), into flat lists of
token kinds, words and start and end offsets; the parser reads the words.
No line or column is worked out unless a ParseError is raised: then they
are counted from the offsets (``Parser.positions``).  `--` starts a line
comment.  Files may open with `-- env: name : sig` headers declaring
type-level names (sig = Type, Row!{...}, Pre) or term variables (sig = a
type); the scan skips them as the comments they are, and
``parse_file_str`` reads them line by line.

A `forall` or `/\\` binder may omit its kind.  It is recovered from the
uses of its name in the body, as ``syntax.free_type_names`` gives them in
one walk for a whole group (directly nested `forall`s, or `/\\`s).
A name used as a row tail gets the `Row!{...}` lacking the labels beside
its first use as one (a row's tail is taken before its entries).  Any
other name gets `Pre` on a `/\\` binder; on a `forall` binder, `Pre` if it
first occurs in a presence position and `Row!{}` if not or if unused.

In presence positions the identifier `o` means absent and `*` means present.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Any, Callable, Iterator, NamedTuple

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
    type_level_names,
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

_IDENT = r"[^\W\d][\w'$]*"

# Each match is one token with the spaces, newlines and comments before it,
# so a blank costs no match of its own.  The skip comes first, so that `--`
# and `-->` stay comments; symbols go in SYMBOLS order, so that two-character
# ones win; the end is a token of its own, and any other character an error.
_SCAN = re.compile(
    r"(?:[ \t\r\n]|--[^\n]*)*"
    r'(?:(?P<string>"[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r"|(?P<int>\d+)|(?P<ident>" + _IDENT + ")"
    r"|(?P<sym>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(?P<eof>\Z)|(?P<error>[\s\S]))"
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}

# the words that make a term or an operator start here
_TERM_HEADS = frozenset({"\\", "/\\", "let", "case"})
_ADDITIVE = frozenset({"-", "+", "++"})
_POSTFIX = frozenset({".", "@", "@@"})


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` with their positions, as the parser scans them."""
    p = Parser(text)
    return [Token(k, p.text_of(i), *at) for i, (k, at) in enumerate(zip(p.kinds, p.positions()))]


class Parser:
    def __init__(self, text: str):
        """Scan ``text`` into flat lists, one entry per token: its kind, its
        word (None for a string literal, whose value is in ``strings``) and
        its start and end offsets."""
        self.text, self.pos, self.strings = text, 0, {}
        self.kinds, self.words, self.starts, self.ends = kinds, words, starts, ends = [], [], [], []
        for m in _SCAN.finditer(text):
            kind = m.lastgroup
            start, end = m.span(kind)
            kinds.append(kind)
            starts.append(start)
            ends.append(end)
            if kind == "string":
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text[start + 1:end - 1])
                self.strings[len(words)] = body
                words.append(None)
                continue
            words.append(text[start:end])
            if kind == "eof":  # the end matches again after a skip that reaches it
                break
            if kind == "error":
                ch = text[start]
                message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
                self.fail(message, len(words) - 1)

    # -- token plumbing ----------------------------------------------------

    def positions(self) -> Iterator[tuple[int, int]]:
        """Line and column of each token in turn.  Only a newline between
        tokens starts a line: one inside a string literal does not."""
        text, line, line_start, end = self.text, 1, 0, 0
        for start, next_end in zip(self.starts, self.ends):
            newlines = text.count("\n", end, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", end, start) + 1
            yield line, start - line_start + 1
            end = next_end

    def fail(self, message: str, index: int | None = None):
        """Raise a ParseError at token ``index`` (by default the next one)."""
        line, col = next(islice(self.positions(), self.pos if index is None else index, None))
        raise ParseError(message, line, col)

    def text_of(self, index: int) -> str:
        word = self.words[index]
        return self.strings[index] if word is None else word

    def at(self, text: str) -> bool:
        """Whether the next token is this symbol or word (not a string literal)."""
        return self.words[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.words[self.pos] == text:
            self.pos += 1
            return True
        return False

    def eat(self, text: str) -> None:
        if self.words[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.text_of(self.pos) or 'end of input'!r}")
        self.pos += 1

    def eat_ident(self) -> str:
        i = self.pos
        word = self.words[i]
        if self.kinds[i] != "ident" or word in KEYWORDS:
            self.fail(f"expected identifier, found {self.text_of(i) or 'end of input'!r}")
        self.pos = i + 1
        return word

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

    def parse_binder(self) -> tuple[int, Kind | None]:
        """A type-level binder ``name`` or ``name:kind``: its name's token
        index (for the position of a kind error) and its kind, if written."""
        binder = self.pos
        self.eat_ident()
        return binder, self.parse_kind() if self.accept(":") else None

    def bind(self, binders: list[tuple[int, Kind | None]], body: Type | Term) -> Type | Term:
        """Quantify a type, or abstract a term, over each binder, the last
        innermost.  An omitted kind is recovered as the module says, from at
        most one walk of the body; a name a later binder rebinds has no use."""
        term = type(body) in SHAPES
        uses: dict[str, Kind] | None = None  # free_type_names(body), on first need
        inner: set[str] = set()
        out = body
        for binder, kind in reversed(binders):
            name = self.words[binder]
            if kind is None:
                use = None
                if name not in inner and name in type_level_names(body):
                    uses = free_type_names(body) if uses is None else uses
                    use = uses.get(name)
                if not isinstance(use, KRow):
                    use = KPre() if term or isinstance(use, KPre) else KRow(frozenset())
                kind = use
            inner.add(name)
            if isinstance(kind, KRow):
                out = RowAbs(name, kind, out) if term else ForallRow(name, kind, out)
            elif isinstance(kind, KPre):
                out = PresAbs(name, out) if term else ForallPres(name, out)
            else:
                self.fail(f"binder {name} cannot have kind Type", binder)
        return out

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        if self.accept("forall"):  # directly nested quantifiers are one binder group
            binders: list[tuple[int, Kind | None]] = []
            while True:
                while not self.at("."):
                    binders.append(self.parse_binder())
                self.eat(".")
                if not self.accept("forall"):
                    return self.bind(binders, self.parse_type())
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
        word = self.words[self.pos]
        if self.kinds[self.pos] == "ident" and word not in KEYWORDS:
            self.pos += 1
            return Base(word) if word in ("Int", "String") else TyVar(word)
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
        word = self.words[self.pos]
        if self.kinds[self.pos] == "ident":
            self.pos += 1
            return Absent() if word == "o" else PresVar(word)
        self.fail("expected a presence (o, *, or a variable)")

    # -- terms -------------------------------------------------------------

    def parse_term(self, brace_stop: bool = False) -> Term:
        head = self.words[self.pos]
        if head not in _TERM_HEADS:
            term = self.parse_additive(brace_stop)
            while self.accept(":>"):
                term = Upcast(term, self.parse_type())
            return term
        self.pos += 1
        if head == "\\":
            var = self.eat_ident()
            annot = self.parse_type() if self.accept(":") else None
            self.eat(".")
            return Lam(var, annot, self.parse_term())
        if head == "/\\":  # a chain of them is one binder group
            binders = []
            while not binders or self.accept("/\\"):
                binders.append(self.parse_binder())
                self.eat(".")
            return self.bind(binders, self.parse_term())
        if head == "let":
            var = self.eat_ident()
            self.eat("=")
            bound = self.parse_term()
            self.eat("in")
            return Let(var, bound, self.parse_term())
        # case
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

    def parse_additive(self, brace_stop: bool) -> Term:
        term = self.parse_app(brace_stop)
        while (op := self.words[self.pos]) in _ADDITIVE:
            self.pos += 1
            term = Prim(op, (term, self.parse_app(brace_stop)))
        return term

    def parse_app(self, brace_stop: bool) -> Term:
        term = self.parse_postfix(brace_stop)
        while self.starts_atom(brace_stop):
            term = App(term, self.parse_postfix(brace_stop))
        return term

    def starts_atom(self, brace_stop: bool) -> bool:
        kind, word = self.kinds[self.pos], self.words[self.pos]
        if kind == "ident":
            return word not in KEYWORDS
        if kind == "sym":
            return word == "(" or word == "<" or (word == "{" and not brace_stop)
        return kind == "int" or kind == "string"

    def parse_postfix(self, brace_stop: bool) -> Term:
        term = self.parse_atom(brace_stop)
        while (op := self.words[self.pos]) in _POSTFIX:
            self.pos += 1
            origin = "upcast" if op == "@@" else "source"
            if op == ".":
                term = Project(term, self.eat_ident())
            elif self.accept("["):
                term = RowApp(term, self.parse_row("]"), origin)
            else:
                term = PresApp(term, self.parse_presence(), origin)
        return term

    def parse_atom(self, brace_stop: bool) -> Term:
        i = self.pos
        kind, word = self.kinds[i], self.words[i]
        if word == "-" and self.kinds[i + 1] == "int" and self.ends[i] == self.starts[i + 1]:
            self.pos = i + 1  # a negative literal: "-" directly before the digits
            return Lit(-self.parse_atom(brace_stop).value)
        if kind == "int":
            try:
                value = int(word)
            except ValueError:  # longer than int() converts
                self.fail(f"integer literal of {len(word)} digits is too long")
            self.pos = i + 1
            return Lit(value)
        if kind == "string":
            self.pos = i + 1
            return Lit(self.strings[i])
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
        if kind == "ident" and word not in KEYWORDS:
            self.pos = i + 1
            return Var(word)
        self.fail("expected a term")


# ---------------------------------------------------------------------------
# entry points

def _parse_all(parser: Parser, method: Callable[[Parser], Any]) -> Any:
    """``method`` run on ``parser``, which it must read to the end."""
    out = method(parser)
    if parser.kinds[parser.pos] != "eof":
        parser.fail(f"trailing input {parser.text_of(parser.pos)!r}")
    return out


def parse_type_str(text: str) -> Type:
    return _parse_all(Parser(text), Parser.parse_type)


def parse_term_str(text: str) -> Term:
    return _parse_all(Parser(text), Parser.parse_term)


def parse_file_str(text: str) -> tuple[dict[str, Kind], dict[str, Type], Term]:
    """Parse a corpus file: optional `-- env:` headers, then one term.  The
    headers are comments to the term, which is parsed from ``text`` as is.
    A header is a line (as the tokenizer counts lines) that starts with
    `-- env:`; its signature is read to its end, and an error in it is
    reported at its place in the file.  The signature is a kind when it is
    `Type` or `Pre` or its first two tokens are `Row !`, and a type
    otherwise (a type variable may be named `Rowan`).  A name is one
    identifier, with at most one kind header and one type header."""
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
        parser = Parser("\n" * number + " " * start + raw[start:])
        kind = sig in ("Type", "Pre") or parser.words[:2] == ["Row", "!"]
        env = delta if kind else gamma
        col = raw.index(name, head + len("-- env:")) + 1
        if not re.fullmatch(_IDENT, name) or name in KEYWORDS:
            raise ParseError(f"env header name {name!r} is not an identifier", number + 1, col)
        if name in env:
            raise ParseError(f"duplicate env header for {name}", number + 1, col)
        env[name] = _parse_all(parser, Parser.parse_kind if kind else Parser.parse_type)

    parser = Parser(text)
    if parser.kinds[0] == "eof":
        raise ParseError("empty input", 1, 1)
    return delta, gamma, _parse_all(parser, Parser.parse_term)
