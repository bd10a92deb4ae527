"""Parser for the workbench's concrete grammar.

Types:   a0, Int, String, A -> B, [l1:A1; l2:A2; r0], {l^o:A; l2^p:B},
         forall r0:Row!{l1,l2}. A, forall p0:Pre. A
Terms:   \\x:A. M, M N, <l M> : T, case M { l x -> N; ... },
         {l1 = M1, l2 = M2} : T, M.l, M :> A, /\\r0:Row!{}. M, M @ [R],
         M @@ [R], /\\p0. M, M @ o, M @ *, M @ p0, let x = M in N,
         integer and string literals, M - N, M + N, M ++ N

`--` starts a line comment. Files may open with `-- env: name : sig` headers
declaring type-level names (sig = Type, Row!{...}, Pre) or term variables
(sig = a type). Quantifier binders may omit their kind; it is recovered from
how the name is used in the body (row tail vs presence position).

In presence positions the identifier `o` means absent and `*` means present.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | sym | eof
    text: str
    line: int
    col: int


KEYWORDS = {"forall", "let", "in", "case"}
SYMBOLS = [
    "->", ":>", "@@", "/\\", "++", "!", "^", ".", ",", ";", ":", "{", "}", "[",
    "]", "<", ">", "(", ")", "\\", "=", "@", "*", "+", "-",
]


def tokenize(text: str) -> list[Token]:
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
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


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def eat_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            tok = self.peek()
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def eat_word(self, text: str) -> Token:
        if not self.at_word(text):
            tok = self.peek()
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def eat_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise ParseError(f"expected identifier, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next().text

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- kinds -------------------------------------------------------------

    def parse_kind(self) -> Kind:
        if self.at_word("Row"):
            self.next()
            self.eat_sym("!")
            self.eat_sym("{")
            labels: set[str] = set()
            if not self.at_sym("}"):
                labels.add(self.eat_ident())
                while self.at_sym(","):
                    self.next()
                    labels.add(self.eat_ident())
            self.eat_sym("}")
            return KRow(frozenset(labels))
        if self.at_word("Pre"):
            self.next()
            return KPre()
        if self.at_word("Type"):
            self.next()
            return KType()
        self.fail("expected a kind (Type, Row!{...}, Pre)")

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        if self.at_word("forall"):
            self.next()
            binders: list[tuple[str, Kind | None]] = []
            while not self.at_sym("."):
                name = self.eat_ident()
                kind: Kind | None = None
                if self.at_sym(":"):
                    self.next()
                    kind = self.parse_kind()
                binders.append((name, kind))
            self.eat_sym(".")
            body = self.parse_type()
            for name, kind in reversed(binders):
                body = _quantify(name, kind, body)
            return body
        return self.parse_arrow()

    def parse_arrow(self) -> Type:
        left = self.parse_atom_type()
        if self.at_sym("->"):
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_atom_type(self) -> Type:
        if self.at_sym("("):
            self.next()
            ty = self.parse_type()
            self.eat_sym(")")
            return ty
        if self.at_sym("["):
            self.next()
            row = self.parse_row("]")
            self.eat_sym("]")
            return Variant(row)
        if self.at_sym("{"):
            self.next()
            row = self.parse_row("}")
            self.eat_sym("}")
            return Record(row)
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.next().text
            if name in ("Int", "String"):
                return Base(name)
            return TyVar(name)
        self.fail("expected a type")

    def parse_row(self, closer: str) -> Row:
        entries: list[tuple[str, Presence, Type]] = []
        tail: str | None = None
        while not self.at_sym(closer):
            if tail is not None:
                self.fail("row tail must come last")
            name = self.eat_ident()
            if self.at_sym("^") or self.at_sym(":"):
                pres: Presence = Present()
                if self.at_sym("^"):
                    self.next()
                    pres = self.parse_presence()
                self.eat_sym(":")
                entries.append((name, pres, self.parse_type()))
            else:
                tail = name
            if self.at_sym(";"):
                self.next()
            elif not self.at_sym(closer):
                self.fail(f"expected ';' or {closer!r} in row")
        return Row(tuple(entries), tail)

    def parse_presence(self) -> Presence:
        if self.at_sym("*"):
            self.next()
            return Present()
        tok = self.peek()
        if tok.kind == "ident":
            name = self.next().text
            return Absent() if name == "o" else PresVar(name)
        self.fail("expected a presence (o, *, or a variable)")

    # -- terms -------------------------------------------------------------

    def parse_term(self, brace_stop: bool = False) -> Term:
        if self.at_sym("\\"):
            self.next()
            var = self.eat_ident()
            annot: Type | None = None
            if self.at_sym(":"):
                self.next()
                annot = self.parse_type()
            self.eat_sym(".")
            return Lam(var, annot, self.parse_term())
        if self.at_sym("/\\"):
            self.next()
            var = self.eat_ident()
            kind: Kind | None = None
            if self.at_sym(":"):
                self.next()
                kind = self.parse_kind()
            self.eat_sym(".")
            body = self.parse_term()
            return _type_abstract(var, kind, body)
        if self.at_word("let"):
            self.next()
            var = self.eat_ident()
            self.eat_sym("=")
            bound = self.parse_term()
            self.eat_word("in")
            return Let(var, bound, self.parse_term())
        if self.at_word("case"):
            self.next()
            scrutinee = self.parse_term(brace_stop=True)
            self.eat_sym("{")
            branches: list[tuple[str, str, Term]] = []
            while not self.at_sym("}"):
                label = self.eat_ident()
                binder = self.eat_ident()
                self.eat_sym("->")
                branches.append((label, binder, self.parse_term()))
                if self.at_sym(";"):
                    self.next()
            self.eat_sym("}")
            return Case(scrutinee, tuple(branches))
        return self.parse_cast(brace_stop)

    def parse_cast(self, brace_stop: bool) -> Term:
        term = self.parse_additive(brace_stop)
        while self.at_sym(":>"):
            self.next()
            term = Upcast(term, self.parse_type())
        return term

    def parse_additive(self, brace_stop: bool) -> Term:
        term = self.parse_app(brace_stop)
        while self.at_sym("-") or self.at_sym("+") or self.at_sym("++"):
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
        if tok.kind in ("int", "string"):
            return True
        if tok.kind == "ident":
            return tok.text not in KEYWORDS and tok.text != "in"
        if tok.kind == "sym":
            if tok.text == "{":
                return not brace_stop
            return tok.text in ("(", "<")
        return False

    def parse_postfix(self, brace_stop: bool) -> Term:
        term = self.parse_atom(brace_stop)
        while True:
            if self.at_sym("."):
                self.next()
                term = Project(term, self.eat_ident())
            elif self.at_sym("@") or self.at_sym("@@"):
                origin = "upcast" if self.next().text == "@@" else "source"
                if self.at_sym("["):
                    self.next()
                    row = self.parse_row("]")
                    self.eat_sym("]")
                    term = RowApp(term, row, origin)
                else:
                    term = PresApp(term, self.parse_presence(), origin)
            else:
                return term

    def parse_atom(self, brace_stop: bool) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            return Lit(int(self.next().text))
        if tok.kind == "string":
            return Lit(self.next().text)
        if self.at_sym("("):
            self.next()
            term = self.parse_term()
            self.eat_sym(")")
            return term
        if self.at_sym("<"):
            self.next()
            label = self.eat_ident()
            payload = self.parse_term()
            self.eat_sym(">")
            annot = None
            if self.at_sym(":"):
                self.next()
                annot = self.parse_type()
            return Inject(label, payload, annot)
        if self.at_sym("{"):
            self.next()
            fields: list[tuple[str, Term]] = []
            while not self.at_sym("}"):
                label = self.eat_ident()
                self.eat_sym("=")
                fields.append((label, self.parse_term()))
                if self.at_sym(","):
                    self.next()
            self.eat_sym("}")
            annot = None
            if self.at_sym(":"):
                self.next()
                annot = self.parse_type()
            return RecordLit(tuple(fields), annot)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return Var(self.next().text)
        self.fail("expected a term")


# ---------------------------------------------------------------------------
# binder-kind recovery for omitted annotations


def _quantify(name: str, kind: Kind | None, body: Type) -> Type:
    if kind is None:
        kind = _infer_binder_kind(name, body)
    if isinstance(kind, KRow):
        return ForallRow(name, kind, body)
    if isinstance(kind, KPre):
        return ForallPres(name, body)
    raise ParseError(f"binder {name} cannot have kind Type", 0, 0)


def _type_abstract(var: str, kind: Kind | None, body: Term) -> Term:
    if kind is None:
        kind = _infer_binder_kind_term(var, body)
    if isinstance(kind, KRow):
        return RowAbs(var, kind, body)
    if isinstance(kind, KPre):
        return PresAbs(var, body)
    raise ParseError(f"binder {var} cannot have kind Type", 0, 0)


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


def parse_type_str(text: str) -> Type:
    parser = Parser(text)
    ty = parser.parse_type()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return ty


def parse_term_str(text: str) -> Term:
    parser = Parser(text)
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return term


def parse_file_str(text: str) -> tuple[dict[str, Kind], dict[str, Type], Term]:
    """Parse a corpus file: optional `-- env:` headers, then one term."""
    delta: dict[str, Kind] = {}
    gamma: dict[str, Type] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("-- env:"):
            continue
        decl = line[len("-- env:"):].strip()
        name, _, sig = decl.partition(":")
        name = name.strip()
        sig = sig.strip()
        if not name or not sig:
            raise ParseError(f"malformed env header {raw!r}", 1, 1)
        if sig == "Type":
            delta[name] = KType()
        elif sig == "Pre":
            delta[name] = KPre()
        elif sig.startswith("Row"):
            parser = Parser(sig)
            delta[name] = parser.parse_kind()
        else:
            gamma[name] = parse_type_str(sig)
    body = "\n".join(
        line if not line.strip().startswith("-- env:") else "" for line in text.splitlines()
    )
    stripped = body.strip()
    if not stripped or all(l.strip().startswith("--") or not l.strip() for l in body.splitlines()):
        raise ParseError("empty input", 1, 1)
    return delta, gamma, parse_term_str(body)
