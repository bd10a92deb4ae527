"""``syntax.free_type_names`` and the parser's binder-kind recovery against
the recursive walkers they replaced, kept here as the reference: the free
names of a type with the kind class of their first occurrence, the lacks set
of a name's first use as a row tail, and the kind a binder with an omitted
kind got from one walk of its body per binder."""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

from rowlab import infer as infer_module
from rowlab.config import preset
from rowlab.harness import GenError, GenSpec, _Gen, ambient_delta, ambient_gamma, gen_typed_term
from rowlab.infer import InferError, infer
from rowlab.parser import ParseError, Parser, parse_file_str, parse_term_str, parse_type_str
from rowlab.pretty import show_scheme
from rowlab.statics import StaticError
from rowlab.syntax import (
    SHAPES,
    Arrow,
    Base,
    ForallPres,
    ForallRow,
    KPre,
    KRow,
    KType,
    PresAbs,
    PresVar,
    Record,
    Row,
    RowAbs,
    TypeScheme,
    TyVar,
    Variant,
    free_type_names,
    type_level_names,
)
from rowlab.translate import TRANSLATIONS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
RANK1 = ("var-row1", "var-pre1", "rec-row1", "rec-pre1")


# ---------------------------------------------------------------------------
# the reference walkers


def ref_free_type_names(ty) -> dict[str, type]:
    out: dict[str, type] = {}

    def go(t, bound):
        if isinstance(t, TyVar):
            if t.name not in bound:
                out.setdefault(t.name, KType)
        elif isinstance(t, (Variant, Record)):
            for _, pres, a in t.row.entries:
                if isinstance(pres, PresVar) and pres.name not in bound:
                    out.setdefault(pres.name, KPre)
                go(a, bound)
            if t.row.tail is not None and t.row.tail not in bound:
                out.setdefault(t.row.tail, KRow)
        elif isinstance(t, Arrow):
            go(t.dom, bound)
            go(t.cod, bound)
        elif isinstance(t, (ForallRow, ForallPres)):
            go(t.body, bound | {t.var})
        elif not isinstance(t, Base):
            raise TypeError(f"not a type: {t!r}")

    go(ty, frozenset())
    return out


def ref_row_use_lacks(name, ty):
    if isinstance(ty, Arrow):
        found = ref_row_use_lacks(name, ty.dom)
        return found if found is not None else ref_row_use_lacks(name, ty.cod)
    if isinstance(ty, (Variant, Record)):
        if ty.row.tail == name:
            return frozenset(ty.row.labels())
        for _, _, sub in ty.row.entries:
            found = ref_row_use_lacks(name, sub)
            if found is not None:
                return found
        return None
    if isinstance(ty, (ForallRow, ForallPres)):
        return None if ty.var == name else ref_row_use_lacks(name, ty.body)
    return None


def ref_binder_kind(name, body):
    lacks = ref_row_use_lacks(name, body)
    if lacks is not None:
        return KRow(lacks)
    if ref_free_type_names(body).get(name) is KPre:
        return KPre()
    return KRow(frozenset())


def ref_term_lacks(var, term):
    """The lacks set of the first use of ``var`` as a row tail in a term's
    annotations and arguments, each node's before its children's."""
    shape = SHAPES[type(term)]
    if shape.tybinder and term.var == var:
        return None
    for name in shape.types:
        part = getattr(term, name)
        found = ref_row_use_lacks(var, Record(part) if isinstance(part, Row) else part)
        if found is not None:
            return found
    for _, child, _ in shape.children(term):
        found = ref_term_lacks(var, child)
        if found is not None:
            return found
    return None


def ref_binder_kind_term(var, body):
    lacks = ref_term_lacks(var, body)
    return KPre() if lacks is None else KRow(lacks)


class RefParser(Parser):
    """The parser as it was: every binder walks the body under it."""

    def bind(self, binders, body):
        for binder, kind in reversed(binders):
            name = self.words[binder]
            term = type(body) in SHAPES
            if kind is None and name not in type_level_names(body):
                kind = KPre() if term else KRow(frozenset())
            elif kind is None:
                kind = ref_binder_kind_term(name, body) if term else ref_binder_kind(name, body)
            if isinstance(kind, KRow):
                body = RowAbs(name, kind, body) if term else ForallRow(name, kind, body)
            elif isinstance(kind, KPre):
                body = PresAbs(name, body) if term else ForallPres(name, body)
            else:
                self.fail(f"binder {name} cannot have kind Type", binder)
        return body


def _ref_parse(text, method):
    p = RefParser(text)
    out = method(p)
    if p.kinds[p.pos] != "eof":
        p.fail(f"trailing input {p.text_of(p.pos)!r}")
    return out


# ---------------------------------------------------------------------------
# generated texts: omitted kinds, repeated and shadowed binders, names used
# both as a tail and as a presence, and `/\` term binders

NAMES = ("r0", "r1", "p0", "p1", "a0")
LABELS = ("A", "B", "C")


class _Texts:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def binder(self) -> str:
        name = self.rng.choice(NAMES)
        written = self.rng.choice(["", "", "", ":Pre", ":Row!{}", ":Row!{A,B}", ":Type"])
        return name + written

    def row(self, depth: int) -> str:
        labels = self.rng.sample(LABELS, self.rng.randint(0, 3))
        parts = []
        for label in labels:
            pres = self.rng.choice(["", "", "^o", "^*"] + [f"^{n}" for n in NAMES])
            parts.append(f"{label}{pres}:{self.type(depth - 1)}")
        if self.rng.random() < 0.6:
            parts.append(self.rng.choice(NAMES))
        return "; ".join(parts)

    def type(self, depth: int) -> str:
        pick = self.rng.random() if depth > 0 else self.rng.random() * 0.3
        if pick < 0.15:
            return self.rng.choice(["Int", "String"])
        if pick < 0.3:
            return self.rng.choice(NAMES)
        if pick < 0.45:
            return f"({self.type(depth - 1)} -> {self.type(depth - 1)})"
        if pick < 0.6:
            return f"[{self.row(depth)}]"
        if pick < 0.8:
            return f"{{{self.row(depth)}}}"
        prefix = ""
        for _ in range(self.rng.randint(1, 2)):  # directly nested: one group
            prefix += "forall " + " ".join(self.binder() for _ in range(self.rng.randint(0, 3))) + ". "
        return f"({prefix}{self.type(depth - 1)})"

    def term(self, depth: int) -> str:
        pick = self.rng.random() if depth > 0 else self.rng.random() * 0.1
        if pick < 0.1:
            return self.rng.choice(["x", "1"])
        if pick < 0.35:
            chain = "".join(f"/\\{self.binder()}. " for _ in range(self.rng.randint(1, 3)))
            return f"({chain}{self.term(depth - 1)})"
        if pick < 0.45:
            return f"(\\x:{self.type(2)}. {self.term(depth - 1)})"
        if pick < 0.55:
            return f"({self.term(depth - 1)} @ [{self.row(2)}])"
        if pick < 0.62:
            return f"({self.term(depth - 1)} @ {self.rng.choice(NAMES + ('o', '*'))})"
        if pick < 0.72:
            return f"<A {self.term(depth - 1)}> : [{self.row(2)}]"
        if pick < 0.82:
            return f"{{A = {self.term(depth - 1)}}} : {{{self.row(2)}}}"
        if pick < 0.92:
            return f"({self.term(depth - 1)} :> {self.type(2)})"
        return f"({self.term(depth - 1)} {self.term(depth - 1)})"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


def _binder_kinds(x):
    """A name for each binder down the left spine of quantifiers and type
    abstractions: its form, marked ``!`` for a row kind with labels."""
    out = []
    while isinstance(x, (ForallRow, ForallPres, RowAbs, PresAbs)):
        lacks = isinstance(x, (ForallRow, RowAbs)) and x.kind.lacks
        out.append(type(x).__name__ + ("!" if lacks else ""))
        x = x.body
    return out


def test_parsing_matches_the_reference_on_generated_texts():
    texts = _Texts(0)
    seen = Counter()
    for _ in range(1500):
        for text, parse, method in [
            (texts.type(4), parse_type_str, Parser.parse_type),
            (texts.term(4), parse_term_str, Parser.parse_term),
        ]:
            new = _outcome(parse, text)
            assert new == _outcome(lambda t: _ref_parse(t, method), text), text
            seen.update(["error"] if isinstance(new, str) else _binder_kinds(new))
    # every outcome of the recovery, and errors, came up many times
    for key in ["error", "ForallPres", "ForallRow", "ForallRow!", "PresAbs", "RowAbs", "RowAbs!"]:
        assert seen[key] >= 20, (key, seen)


def test_shadowed_and_repeated_binders_match_the_reference():
    for text in [
        "forall r0 r0. {A:Int; r0}",
        "forall p0 r0 p0. {A^p0:Int; r0}",
        "forall r0. {A^r0:Int; r0}",
        "forall r0. {A^r0:{B:Int; r0}}",
        "forall r0. (forall r0. {A:Int; r0}) -> [B:Int; r0]",
        "forall p0. (forall p0:Pre. {A^p0:Int}) -> {B^p0:Int}",
        "forall r0 p0:Pre r1. {A^p0:{C:Int; r1}; r0}",
    ]:
        assert parse_type_str(text) == _ref_parse(text, Parser.parse_type), text
    for text in [
        "/\\r0. /\\r0. x @ [A:Int; r0]",
        "/\\r0. (\\x:{A^r0:Int}. x) :> {B:Int; r0}",
        "/\\r0. (/\\r0. x @ [r0]) @ [A:Int; r0]",
    ]:
        assert parse_term_str(text) == _ref_parse(text, Parser.parse_term), text


# ---------------------------------------------------------------------------
# free names of sampled types


def _sub_types(ty):
    stack = [ty]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Arrow):
            stack += [t.cod, t.dom]
        elif isinstance(t, (Variant, Record)):
            stack += [a for _, _, a in reversed(t.row.entries)]
        elif isinstance(t, (ForallRow, ForallPres)):
            stack.append(t.body)


def _check_free_names(ty):
    new = free_type_names(ty)
    ref = ref_free_type_names(ty)
    assert list(new) == list(ref), ty
    assert [type(kind) for kind in new.values()] == list(ref.values()), ty
    for name, kind in new.items():
        if isinstance(kind, KRow):
            assert kind.lacks == ref_row_use_lacks(name, ty), (ty, name)


def test_free_names_match_the_reference_on_sampled_types():
    sources = sorted({source for t in TRANSLATIONS.values() for source, _ in t.pairs})
    free = 0
    for source in sources:
        gen = _Gen(random.Random(1), GenSpec(preset(source), max_size=10, seed=1))
        maps = [t.type_map for t in TRANSLATIONS.values()
                if t.type_map is not None and source in dict(t.pairs)]
        for i in range(1000):
            ty = gen.sample_type(1 + i % 8)
            images = [ty] + [type_map(ty) for type_map in maps]
            for image in [m.body if isinstance(m, TypeScheme) else m for m in images]:
                for sub in _sub_types(image):
                    _check_free_names(sub)
                    free += len(ref_free_type_names(sub))
    assert free > 10_000


def test_term_free_names_give_the_reference_binder_kinds():
    checked = 0
    for name in ("rec-row", "rec-pre", "rec-row-pre", "var-row", "var-pre", "var-row-pre"):
        spec = GenSpec(preset(name), max_size=10, seed=2)
        for i in range(60):
            try:
                term, _ = gen_typed_term(spec, i)
            except GenError:
                continue
            uses = free_type_names(term)
            for var in type_level_names(term):
                want = ref_binder_kind_term(var, term)
                got = uses.get(var)
                assert (got if isinstance(got, KRow) else KPre()) == want, (term, var)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# rank-1 schemes of the corpus


def _ref_uses(ty):
    return {name: KRow(frozenset()) if cls is KRow else cls()
            for name, cls in ref_free_type_names(ty).items()}


def _schemes():
    """The scheme, or the error, of every corpus file under each rank-1
    preset, then those of 100 generated bare terms of each."""
    out = []
    for path in sorted(CORPUS.glob("*.row")):
        delta, gamma, term = parse_file_str(path.read_text())
        for name in RANK1:
            try:
                out.append(show_scheme(infer(preset(name), delta, gamma, term)))
            except (InferError, StaticError) as e:
                out.append(f"{type(e).__name__}: {e}")
    for name in RANK1:
        spec = GenSpec(preset(name), max_size=10, seed=3)
        for i in range(100):
            term, _ = gen_typed_term(spec, i)
            out.append(show_scheme(infer(spec.config, ambient_delta(), ambient_gamma(), term)))
    return out


def test_rank1_schemes_match_the_reference(monkeypatch):
    schemes = _schemes()
    monkeypatch.setattr(infer_module, "free_type_names", _ref_uses)
    assert schemes == _schemes()
    corpus = schemes[:4 * len(list(CORPUS.glob("*.row")))]
    assert sum(not s.startswith(("InferError", "StaticError")) for s in corpus) == 10
    assert sum("forall" in s for s in schemes) > 100


def test_a_tail_use_gives_the_row_kind_after_a_presence_use():
    ty = Record(Row((("A", PresVar("r0"), Base("Int")),), "r0"))
    assert ref_free_type_names(ty) == {"r0": KPre}
    assert free_type_names(ty) == {"r0": KRow(frozenset({"A"}))}


def test_free_names_of_a_deep_type_need_no_recursion():
    # each arrow's domain nests the next: 10,000 deep on the left spine
    ty = TyVar("a0")
    for i in range(1, 10_001):
        ty = Arrow(ty, Record(Row((("A", PresVar(f"p{i}"), TyVar(f"a{i}")),), f"r{i}")))
    names = free_type_names(ty)
    assert len(names) == 1 + 3 * 10_000
    assert list(names)[:4] == ["a0", "p1", "a1", "r1"]
    assert names["r10000"] == KRow(frozenset({"A"})) and names["p1"] == KPre()
    # and as deep under quantifiers that bind every other name
    for i in range(10_000):
        ty = ForallPres(f"p{i}", ty) if i % 2 else ForallRow(f"r{i}", KRow(frozenset()), ty)
    names = free_type_names(ty)
    assert "p1" not in names and "r2" not in names and "p2" in names and "r1" in names
