"""Kinding, subtyping, rank predicates, and the type checker."""

import collections
import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rowlab.config import PRESETS, preset
from rowlab.infer import RULES as INFERENCE_RULES
from rowlab.infer import InferError, infer
from rowlab.parser import parse_term_str, parse_type_str
from rowlab.pretty import show_term
from rowlab import statics
from rowlab.statics import (
    FeatureError,
    KindError,
    RankError,
    TypingError,
    check_rank_limit,
    check_type_features,
    derivations,
    kind_check,
    rank_ok,
    refuse_missing,
    row_check,
    subtype,
    type_check,
)
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
    PresAbs,
    PresApp,
    Present,
    Prim,
    Project,
    Record,
    RecordLit,
    Row,
    RowAbs,
    RowApp,
    TyVar,
    Upcast,
    Var,
    Variant,
    children,
    rebuild,
    term_size,
    type_equal,
)
from rowlab.translate import run_translation

T = parse_type_str
M = parse_term_str


def check(cfg_name, src, delta=None, gamma=None):
    return type_check(preset(cfg_name), delta or {}, gamma or {}, M(src))


# ---------------------------------------------------------------------------
# Kinding


def test_kind_closed_variant():
    assert kind_check({}, T("[Age:Int; Year:Int]")) == KType()


def test_kind_open_row_needs_matching_lacks():
    delta = {"r0": KRow(frozenset({"l"})), "a0": KType()}
    assert kind_check(delta, T("[l:a0; r0]")) == KType()


def test_kind_open_row_wrong_lacks():
    delta = {"r0": KRow(frozenset()), "a0": KType()}
    with pytest.raises(KindError):
        kind_check(delta, T("[l:a0; r0]"))


def test_kind_duplicate_label():
    with pytest.raises(KindError):
        kind_check({}, T("{Age:Int; Age:String}"))


def test_kind_unbound_tail():
    with pytest.raises(KindError):
        kind_check({}, T("[Year:Int; r9]"))


def test_kind_unbound_type_var():
    with pytest.raises(KindError):
        kind_check({}, T("a0 -> a0"))


def test_kind_presence_var():
    assert kind_check({"p0": KPre()}, T("{Name^p0:String}")) == KType()
    with pytest.raises(KindError):
        kind_check({}, T("{Name^p0:String}"))


def test_kind_quantifiers():
    assert kind_check({}, T("forall r0:Row!{Year}. [Year:Int; r0] -> Int")) == KType()
    assert kind_check({}, T("forall p0:Pre. {l^p0:Int}")) == KType()


def test_kind_shadowed_quantifier():
    with pytest.raises(KindError):
        kind_check({"r0": KRow(frozenset())}, T("forall r0:Row!{}. [l:Int; r0]"))


def test_row_check_closed_row_any_disjoint_lacks():
    row = T("{Age:Int}").row
    row_check({}, row, frozenset())
    row_check({}, row, frozenset({"Name"}))
    with pytest.raises(KindError):
        row_check({}, row, frozenset({"Age"}))


# ---------------------------------------------------------------------------
# Subtyping


def test_simple_variant_width():
    ev = subtype("simple", T("[Year:Int]"), T("[Age:Int; Year:Int]"))
    assert ev is not None and ev.rule == "SVariant"
    assert subtype("simple", T("[Age:Int; Year:Int]"), T("[Year:Int]")) is None


def test_simple_record_width():
    ev = subtype("simple", T("{Age:Int; Year:Int}"), T("{Year:Int}"))
    assert ev is not None and ev.rule == "SRecord"
    assert subtype("simple", T("{Year:Int}"), T("{Age:Int; Year:Int}")) is None


def test_simple_restriction_must_agree():
    assert subtype("simple", T("[Year:String]"), T("[Age:Int; Year:Int]")) is None


def test_simple_refl_on_arrows():
    ev = subtype("simple", T("Int -> Int"), T("Int -> Int"))
    assert ev is not None and ev.rule == "SRefl"
    assert subtype("simple", T("Int -> Int"), T("Int -> String")) is None


def test_depth_record_needs_covariant():
    a = T("{Name:String; Child:{Name:String; Age:Int}}")
    b = T("{Child:{Name:String}}")
    assert subtype("simple", a, b) is None
    ev = subtype("covariant", a, b)
    assert ev is not None and ev.rule == "FRecord"
    (label, inner), = ev.premises
    assert label == "Child" and inner.rule == "FRecord"


def test_covariant_arrow_keeps_domain():
    a = T("{} -> {Age:Int; Name:String}")
    b = T("{} -> {Name:String}")
    ev = subtype("covariant", a, b)
    assert ev is not None and ev.rule == "CoFun"
    assert ev.premises[0].rule == "FRecord"


def test_contravariant_domain_needs_full():
    a = T("{Name:String} -> String")
    b = T("{Name:String; Age:Int} -> String")
    assert subtype("covariant", a, b) is None
    ev = subtype("full", a, b)
    assert ev is not None and ev.rule == "FFun"
    dom, cod = ev.premises
    assert dom.rule == "FRecord" and type_equal(dom.lhs, b.dom)
    assert cod.rule == "FBase"


def test_full_variant_depth_and_width():
    a = T("[Ok:{A:Int; B:Int}]")
    b = T("[Ok:{A:Int}; Err:String]")
    ev = subtype("full", a, b)
    assert ev is not None and ev.rule == "FVariant"
    (label, inner), = ev.premises
    assert label == "Ok" and inner.rule == "FRecord"


def test_subtype_rejects_open_rows():
    delta = {"r0": KRow(frozenset({"Year"}))}
    a = T("[Year:Int; r0]")
    kind_check(delta, a)
    b = T("[Age:Int; Year:Int]")
    assert subtype("simple", a, b) is None
    assert subtype("covariant", a, b) is None
    assert subtype("full", a, b) is None


def test_subtype_rejects_presence_marks():
    a = T("{Name^o:String; Age:Int}")
    b = T("{Age:Int}")
    assert subtype("full", a, b) is None


SAMPLE_TYPES = [
    "Int",
    "String",
    "Int -> String",
    "[Age:Int; Year:Int]",
    "{Name:String}",
    "{Name:String; Child:{Name:String; Age:Int}}",
    "([A:Int] -> Int) -> {B:String}",
]


@pytest.mark.parametrize("src", SAMPLE_TYPES)
@pytest.mark.parametrize("mode", ["simple", "covariant", "full"])
def test_subtype_reflexive_every_mode(src, mode):
    ty = T(src)
    assert subtype(mode, ty, ty) is not None


def _widen(rng, ty, polarity=1):
    """A random supertype (polarity 1) or subtype (polarity -1) in full mode."""
    from rowlab.syntax import Arrow

    if isinstance(ty, Arrow):
        return Arrow(_widen(rng, ty.dom, -polarity), _widen(rng, ty.cod, polarity))
    if isinstance(ty, Record):
        fields = list(ty.row.entries)
        if polarity > 0 and len(fields) > 1 and rng.random() < 0.5:
            fields = [f for f in fields if rng.random() < 0.7] or fields[:1]
        elif polarity < 0 and rng.random() < 0.5:
            fields = fields + [(f"X{rng.randrange(3)}", Present(), Base("Int"))]
            fields = list({l: (l, p, t) for l, p, t in fields}.values())
        fields = [(l, p, _widen(rng, t, polarity)) for l, p, t in fields]
        return Record(Row(tuple(sorted(fields)), None))
    if isinstance(ty, Variant):
        entries = list(ty.row.entries)
        if polarity > 0 and rng.random() < 0.5:
            entries = entries + [(f"Y{rng.randrange(3)}", Present(), Base("Int"))]
            entries = list({l: (l, p, t) for l, p, t in entries}.values())
        elif polarity < 0 and len(entries) > 1 and rng.random() < 0.5:
            entries = [e for e in entries if rng.random() < 0.7] or entries[:1]
        entries = [(l, p, _widen(rng, t, polarity)) for l, p, t in entries]
        return Variant(Row(tuple(sorted(entries)), None))
    return ty


@given(st.integers(0, 10_000))
def test_full_subtype_transitive_on_widening_chains(seed):
    rng = random.Random(seed)
    base = T(rng.choice(SAMPLE_TYPES))
    mid = _widen(rng, base)
    top = _widen(rng, mid)
    assert subtype("full", base, mid) is not None
    assert subtype("full", mid, top) is not None
    assert subtype("full", base, top) is not None


@given(st.integers(0, 10_000))
def test_mode_inclusion_simple_covariant_full(seed):
    rng = random.Random(seed)
    base = T(rng.choice(SAMPLE_TYPES))
    wide = _widen(rng, base)
    if subtype("simple", base, wide) is not None:
        assert subtype("covariant", base, wide) is not None
    if subtype("covariant", base, wide) is not None:
        assert subtype("full", base, wide) is not None


# ---------------------------------------------------------------------------
# Rank predicates


def test_record_rank_examples():
    assert rank_ok(Record, 2, T("{Name:String} -> String"))
    assert not rank_ok(Record, 2, T("({Name:String} -> String) -> String"))
    assert not rank_ok(Record, 1, T("{Name:String} -> String"))
    assert rank_ok(Record, 1, T("{Name:String}"))
    assert rank_ok(Record, 1, T("Int -> {Name:String}"))
    assert rank_ok(Record, 0, T("Int -> Int"))
    assert not rank_ok(Record, 0, T("{Name:String}"))


def test_variant_rank_examples():
    assert rank_ok(Variant, 2, T("[A:Int] -> Int"))
    assert not rank_ok(Variant, 2, T("([A:Int] -> Int) -> Int"))
    assert not rank_ok(Variant, 1, T("[A:Int] -> Int"))
    assert rank_ok(Variant, 1, T("Int -> [A:Int]"))


def test_rank_predicates_pass_through_other_connective():
    assert rank_ok(Record, 0, T("[Wrap:Int] -> Int"))
    assert rank_ok(Variant, 0, T("{Wrap:Int} -> Int"))


def test_check_rank_limit_uses_config():
    assert check_rank_limit(preset("rec-sub-full-rank2"), T("{Name:String} -> String"))
    assert not check_rank_limit(
        preset("rec-sub-full-rank2"), T("({Name:String} -> String) -> String")
    )
    assert not check_rank_limit(
        preset("rec-sub-full-rank1"), T("{Name:String} -> String")
    )
    assert check_rank_limit(preset("rec-sub-full"), T("({A:Int} -> Int) -> Int"))


# ---------------------------------------------------------------------------
# Type checking


GET_AGE = "\\x:[Age:Int; Year:Int]. case x {Age a -> a; Year y -> 2023 - y}"


def test_get_age_checks():
    d = check("var-sub", GET_AGE)
    assert type_equal(d.type, T("[Age:Int; Year:Int] -> Int"))
    assert d.rule == "TyLam"


def test_get_age_applied_to_upcast_year():
    src = f"({GET_AGE}) (<Year 1984> : [Year:Int] :> [Age:Int; Year:Int])"
    d = check("var-sub", src)
    assert type_equal(d.type, T("Int"))


def test_upcast_needs_subtyping_feature():
    src = "<Year 1984> : [Year:Int] :> [Age:Int; Year:Int]"
    with pytest.raises(FeatureError):
        check("var", src)


def test_application_without_upcast_fails():
    src = f"({GET_AGE}) (<Year 1984> : [Year:Int])"
    with pytest.raises(TypingError):
        check("var-sub", src)


def test_record_literal_infers_closed_type():
    d = check("rec", '{Name = "Alice", Age = 9}')
    assert type_equal(d.type, T("{Age:Int; Name:String}"))


def test_get_name_on_narrowed_record():
    src = '(\\x:{Name:String}. x.Name) ({Name = "Alice", Age = 9} :> {Name:String})'
    d = check("rec-sub", src)
    assert type_equal(d.type, T("String"))
    up = d.premises[1]
    assert up.rule == "TyUpcast" and up.evidence.rule == "SRecord"


def test_plain_lambda_with_type_var():
    d = check("lam", "\\x:a0. x", delta={"a0": KType()})
    assert type_equal(d.type, T("a0 -> a0"))


def test_unannotated_lambda_rejected():
    with pytest.raises(TypingError):
        check("lam", "\\x. x")


def test_inject_needs_annotation():
    with pytest.raises(TypingError):
        check("var", "<Year 1984>")


def test_case_exact_coverage():
    with pytest.raises(TypingError):
        check("var", "\\x:[A:Int; B:Int]. case x {A a -> a}")
    with pytest.raises(TypingError):
        check("var", "\\x:[A:Int]. case x {A a -> a; B b -> b}")


def test_case_branches_must_agree():
    with pytest.raises(TypingError):
        check("var", '\\x:[A:Int; B:String]. case x {A a -> a; B b -> b}')


def test_case_open_scrutinee_rejected():
    delta = {"r0": KRow(frozenset({"A"}))}
    with pytest.raises(TypingError):
        check("var-row", "\\x:[A:Int; r0]. case x {A a -> a}", delta=delta)


def test_case_absent_branch_optional():
    src = "\\x:[A:Int; B^o:String]. case x {A a -> a}"
    d = check("var-pre", src)
    assert type_equal(d.type, T("[A:Int; B^o:String] -> Int"))
    src_full = "\\x:[A:Int; B^o:String]. case x {A a -> a; B b -> 0}"
    d2 = check("var-pre", src_full)
    assert type_equal(d2.type, T("[A:Int; B^o:String] -> Int"))


def test_case_presence_var_branch_required():
    delta = {"p0": KPre()}
    with pytest.raises(TypingError):
        check("var-pre", "\\x:[A:Int; B^p0:String]. case x {A a -> a}", delta=delta)


def test_inject_requires_present_entry():
    with pytest.raises(TypingError):
        check("var-pre", "<B 1> : [A:Int; B^o:Int]")


def test_record_literal_needs_annotation_with_presence():
    with pytest.raises(TypingError):
        check("rec-pre", '{Name = "Alice"}')


def test_record_literal_absent_entry_field_optional():
    d = check("rec-pre", '{Name = "A"} : {Age^o:Int; Name:String}')
    assert type_equal(d.type, T("{Age^o:Int; Name:String}"))
    d2 = check("rec-pre", '{Name = "A", Age = 9} : {Age^o:Int; Name:String}')
    assert type_equal(d2.type, T("{Age^o:Int; Name:String}"))


def test_record_literal_missing_present_field():
    with pytest.raises(TypingError):
        check("rec-pre", '{Age = 9} : {Age:Int; Name:String}')


def test_project_needs_present():
    with pytest.raises(TypingError):
        check("rec-pre", '({Name = "A"} : {Age^o:Int; Name:String}).Age')
    d = check("rec-pre", '({Name = "A"} : {Age^o:Int; Name:String}).Name')
    assert type_equal(d.type, T("String"))


def test_row_abstraction_and_application():
    src = "/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x"
    d = check("var-row", src)
    assert type_equal(
        d.type, T("forall r0:Row!{Year}. [Year:Int; r0] -> [Year:Int; r0]")
    )
    d2 = check("var-row", f"({src}) @ [Age:Int]")
    assert type_equal(d2.type, T("[Age:Int; Year:Int] -> [Age:Int; Year:Int]"))


def test_row_application_kind_mismatch():
    src = "(/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @ [Year:String]"
    with pytest.raises(KindError):
        check("var-row", src)


def test_presence_abstraction_and_application():
    src = '/\\p0. {Name = "A"} : {Name^p0:String}'
    d = check("rec-pre", src)
    assert type_equal(d.type, T("forall p0:Pre. {Name^p0:String}"))
    d2 = check("rec-pre", f"({src}) @@ *")
    assert type_equal(d2.type, T("{Name:String}"))
    d3 = check("rec-pre", f"({src}) @@ o")
    assert type_equal(d3.type, T("{Name^o:String}"))


def test_let_only_where_enabled():
    src = 'let x = {Name = "A"} in x.Name'
    d = check("rec-sub-full-rank2", src)
    assert type_equal(d.type, T("String"))
    with pytest.raises(FeatureError):
        check("rec-sub", src)


def test_rank_limit_enforced_in_derivation():
    src = '(\\f:{Name:String} -> String. f {Name = "A"}) (\\x:{Name:String}. x.Name)'
    d = check("rec-sub-full", src)
    assert type_equal(d.type, T("String"))
    with pytest.raises(RankError):
        check("rec-sub-full-rank2", src)


@pytest.mark.parametrize("name,src", [
    ("rec-sub-full-rank1", "\\x:{Name:String}. 1"),
    ("rec-sub-full-rank2", "\\f:{Name:String} -> Int. 1"),
    ("var-sub-full-rank1", "\\x:[A:Int]. 1"),
    ("var-sub-full-rank2", "\\f:[A:Int] -> Int. 1"),
])
def test_an_annotation_over_the_rank_limit_is_refused(name, src):
    # the annotation is the domain of the lambda's own type, which is
    # checked against the limit like every derivation type
    with pytest.raises(RankError) as e:
        check(name, src)
    assert str(e.value).startswith("type ") and "exceeds the rank limit in" in str(e.value)


def test_rank_one_allows_flat_records():
    d = check("rec-sub-full-rank1", '{Name = "A"}.Name')
    assert type_equal(d.type, T("String"))
    with pytest.raises(RankError):
        check("rec-sub-full-rank1", '(\\x:{Name:String}. x.Name) {Name = "A"}')


def test_app_sub_folds_subsumption_into_application():
    cfg = preset("rec-sub-full").with_app_sub()
    term = M('(\\x:{Name:String}. x.Name) {Name = "A", Age = 9}')
    d = type_check(cfg, {}, {}, term)
    assert d.rule == "TyAppSub" and d.evidence.rule == "FRecord"
    with pytest.raises(TypingError):
        check("rec-sub-full", '(\\x:{Name:String}. x.Name) {Name = "A", Age = 9}')


def test_upcast_modes_differ():
    deep = '{Name = "A", Child = {Name = "B", Age = 9}} :> {Child:{Name:String}}'
    with pytest.raises(TypingError):
        check("rec-sub", deep)
    d = check("rec-sub-co", deep)
    assert d.evidence.rule == "FRecord"
    fn = "(\\x:{Name:String}. x.Name) :> ({Name:String; Age:Int} -> String)"
    with pytest.raises(TypingError):
        check("rec-sub-co", fn)
    d2 = check("rec-sub-full", fn)
    assert d2.evidence.rule == "FFun"


def test_shadowing_rejected():
    with pytest.raises(TypingError):
        check("lam", "\\x:Int. \\x:Int. x")


def test_feature_gates():
    with pytest.raises(FeatureError):
        check("var", '{Name = "A"}')
    with pytest.raises(FeatureError):
        check("rec", "<A 1> : [A:Int]")
    with pytest.raises(FeatureError):
        check("rec", "/\\r0:Row!{}. \\x:Int. x")
    with pytest.raises(FeatureError):
        check("rec-row", '/\\p0. {Name = "A"} : {Name^p0:String}')


def test_string_concat():
    d = check("lam", '"a" ++ "b"')
    assert type_equal(d.type, T("String"))
    with pytest.raises(TypingError):
        check("lam", '"a" ++ 1')


# ---------------------------------------------------------------------------
# The feature table against the gates it replaced.  The reference copies
# below are the checker's and inference's inline gates and the annotation
# scan as they were written before ``FEATURES``; every message must stay the
# same, except inference's injection refusal, which took the checker's text.


def _reference_type_features(config, ty):
    if isinstance(ty, (TyVar, Base)):
        return
    if isinstance(ty, Arrow):
        _reference_type_features(config, ty.dom)
        _reference_type_features(config, ty.cod)
        return
    if isinstance(ty, Variant):
        if not config.variants:
            raise FeatureError("variant types not available in this calculus")
        _reference_row_features(config, ty.row)
        return
    if isinstance(ty, Record):
        if not config.records:
            raise FeatureError("record types not available in this calculus")
        _reference_row_features(config, ty.row)
        return
    if isinstance(ty, ForallRow):
        if config.row_poly != "higher":
            raise FeatureError("row quantifiers not available in this calculus")
        _reference_type_features(config, ty.body)
        return
    if isinstance(ty, ForallPres):
        if config.pres_poly != "higher":
            raise FeatureError("presence quantifiers not available in this calculus")
        _reference_type_features(config, ty.body)
        return
    raise FeatureError(f"unhandled type form {type(ty).__name__}")


def _reference_row_features(config, row):
    if row.tail is not None and config.row_poly != "higher":
        raise FeatureError("open rows not available in this calculus")
    for _, pres, ty in row.entries:
        if not isinstance(pres, Present) and config.pres_poly != "higher":
            raise FeatureError("presence annotations not available in this calculus")
        _reference_type_features(config, ty)


def _reference_check_gate(config, term):
    """The refusal the checker's inline gate gave at the root of ``term``."""
    gates = [
        (Inject, config.variants, "variant injection"),
        (Case, config.variants, "case analysis"),
        (RecordLit, config.records, "record literals"),
        (Project, config.records, "record projection"),
        (Upcast, config.subtyping != "none", "upcasts"),
        (RowAbs, config.row_poly == "higher", "row abstraction"),
        (RowApp, config.row_poly == "higher", "row application"),
        (PresAbs, config.pres_poly == "higher", "presence abstraction"),
        (PresApp, config.pres_poly == "higher", "presence application"),
        (Let, config.allows_let, "let bindings"),
    ]
    for form, present, what in gates:
        if isinstance(term, form) and not present:
            return f"{what} not available in this calculus"
    return None


def _reference_infer_gate(config, term):
    """The refusal inference's inline gates gave at the root of ``term``."""
    if not config.rank1:
        return f"calculus {config.name} does not support inference"
    inferred = (Var, Lam, App, Let, Lit, Prim, RecordLit, Project, Inject, Case)
    if not isinstance(term, inferred):
        return f"inference input must not contain {type(term).__name__} nodes"
    gates = [
        (Let, config.allows_let, "let bindings"),
        (RecordLit, config.records, "record literals"),
        (Project, config.records, "record projection"),
        (Inject, config.variants, "injection"),
        (Case, config.variants, "case analysis"),
    ]
    for form, present, what in gates:
        if isinstance(term, form) and not present:
            return f"{what} not available in this calculus"
    return None


# the one message that changed: inference now says what the checker says
_RENAMED = {
    "injection not available in this calculus":
        "variant injection not available in this calculus",
}

GATED_TYPES = [
    "Int", "a0", "[A:Int]", "{A:Int}", "{A:Int; r0}", "{A^o:Int}", "{A^p0:Int}",
    "Int -> {A:Int}", "forall r0:Row!{}. {A:Int; r0}", "forall p0. {A^p0:Int}",
]
ONE = Lit(1)
REC = RecordLit((("A", ONE),))
# forms both sides see alike; the checker's terms carry annotations, the
# inferred ones do not
_BOTH = [
    Var("x"), REC, Project(REC, "A"),
    Upcast(REC, Record(Row((("A", Present(), Base("Int")),)))),
    RowAbs("r0", KRow(frozenset()), ONE), RowApp(Var("f"), Row((), None)),
    PresAbs("p0", ONE), PresApp(Var("f"), Present()), M("let x = 1 in x"),
    ONE, M("1 + 2"),
]
CHECKED = _BOTH + [
    Lam("x", Base("Int"), Var("x")), App(Var("x"), ONE),
    M("<A 1> : [A:Int]"), M("case <A 1> : [A:Int] {A a -> a}"),
]
INFERRED = _BOTH + [
    M("\\x. x"), M("(\\x. x) 1"), M("<A 1>"), M("case <A 1> {A a -> a}"),
]


def _refusal(run, error):
    try:
        run()
    except error as e:
        return str(e)
    return None


@pytest.mark.parametrize(
    "config", [PRESETS[name] for name in sorted(PRESETS)], ids=lambda c: c.name
)
def test_feature_table_refuses_as_the_inline_gates_did(config):
    for src in GATED_TYPES:
        ty = T(src)
        want = _refusal(lambda: _reference_type_features(config, ty), FeatureError)
        assert _refusal(lambda: check_type_features(config, ty), FeatureError) == want
    gamma = {"x": Base("Int")}
    for term in CHECKED:
        want = _reference_check_gate(config, term)
        if want is None:
            refuse_missing(config, term)
        else:
            got = _refusal(lambda: type_check(config, {}, gamma, term), FeatureError)
            assert got == want
    for term in INFERRED:
        want = _reference_infer_gate(config, term)
        got = _refusal(lambda: infer(config, {}, {"x": Base("Int")}, term), InferError)
        if want is None:
            assert got is None
        elif want.startswith("calculus "):
            assert got == want
        else:
            assert got == f"{_RENAMED.get(want, want)} (while typing {show_term(term)})"


# ---------------------------------------------------------------------------
# Shared terms: t3 copies a cast's operand into every field it keeps, so k
# stacked casts give O(k) distinct nodes but a tree exponential in k


INT = Base("Int")


def _t3_stack(k):
    """The t3 translation of ``({L0 = 1, ..., Lk = k+1} :> ... ).L0`` with k
    casts, each dropping the last field."""
    labels = [f"L{i}" for i in range(k + 1)]
    src = "{" + ", ".join(f"{l} = {i + 1}" for i, l in enumerate(labels)) + "}"
    for kept in range(k, 0, -1):
        src += " :> {" + "; ".join(f"{l}:Int" for l in labels[:kept]) + "}"
    return run_translation("rec-sub-to-rec", check("rec-sub", f"({src}).L0"))


def _unshared(term):
    """An equal copy in which no node object occurs twice."""
    kids = [_unshared(child) for _, child, _ in children(term)]
    return rebuild(term, kids) if kids else dataclasses.replace(term)


def _distinct(term):
    seen, stack = {}, [term]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(child for _, child, _ in children(t))
    return len(seen)


def test_shared_cast_stacks_check_in_their_distinct_subterms():
    for k in range(4, 13):
        out = _t3_stack(k)
        d = type_check(preset("rec"), {}, {}, out)
        assert type_equal(d.type, INT)
        assert _distinct(out) == (k + 2) * (k + 3) // 2
        if k <= 5:
            copy = _unshared(out)
            assert _distinct(copy) == term_size(copy) == term_size(out)
            assert type_check(preset("rec"), {}, {}, copy) == d
    assert term_size(out) > 7 * 10**9  # the tree of k = 12


def _count_entries(monkeypatch):
    """A counter of rule entries by (node, delta, gamma) object."""
    entered = collections.Counter()

    def counting(rule):
        def counted(checker, delta, gamma, term):
            entered[id(term), id(delta), id(gamma)] += 1
            return rule(checker, delta, gamma, term)

        return counted

    for cls, rule in list(statics.RULES.items()):
        monkeypatch.setitem(statics.RULES, cls, counting(rule))
    return entered


def test_each_node_is_checked_once_per_context(monkeypatch):
    entered = _count_entries(monkeypatch)
    for k in (6, 12):
        out = _t3_stack(k)
        entered.clear()
        d = type_check(preset("rec"), {}, {}, out)
        assert max(entered.values()) == 1
        assert len(entered) == _distinct(out)
        # one derivation per entry, a shared premise visited once
        assert len(list(derivations(d))) == len(entered)


def test_a_node_shared_under_another_context_is_checked_again(monkeypatch):
    entered = _count_entries(monkeypatch)
    cfg = preset("rec-sub-full-rank2")
    s = RecordLit((("C", Var("x")),))
    term = RecordLit((("A", Let("x", Lit(1), s)), ("B", Let("x", Lit("a"), s))))
    d = type_check(cfg, {}, {}, term)
    assert type_equal(d.type, T("{A:{C:Int}; B:{C:String}}"))
    a, b = (p.premises[1] for p in d.premises)
    assert a.term is b.term is s and a is not b
    # equal contexts in different objects: checked once per object
    entered.clear()
    lam = Lam("y", INT, s)
    d = type_check(cfg, {}, {"x": INT}, RecordLit((("A", lam), ("B", lam))))
    a, b = d.premises
    assert a is b and a.premises[0].term is s
    assert sum(n for (node, _, _), n in entered.items() if node == id(s)) == 1
    entered.clear()
    twin = Lam("y", INT, s)
    type_check(cfg, {}, {"x": INT}, RecordLit((("A", lam), ("B", twin))))
    assert sum(n for (node, _, _), n in entered.items() if node == id(s)) == 2


def test_a_failing_shared_subterm_fails_as_an_unshared_one():
    cfg = preset("rec-sub-full-rank2")
    bad = Prim("+", (Lit(1), Lit("a")))
    shared = RecordLit((("A", bad), ("B", bad)))
    messages = []
    for term in (shared, _unshared(shared)):
        with pytest.raises(TypingError) as e:
            type_check(cfg, {}, {}, term)
        messages.append(str(e.value))
    assert messages == ["primitive + applied at Int, String"] * 2
    # checks under the first context, fails under the second
    s = Prim("+", (Var("x"), Lit(1)))
    term = RecordLit((("A", Let("x", Lit(1), s)), ("B", Let("x", Lit("a"), s))))
    with pytest.raises(TypingError, match="^primitive \\+ applied at String, Int$"):
        type_check(cfg, {}, {}, term)


def test_every_form_has_a_checking_rule_and_inference_shares_them():
    assert set(statics.RULES) == set(SHAPES)
    assert set(INFERENCE_RULES) <= set(statics.RULES)


# ---------------------------------------------------------------------------
# Every refusal of the checker and of inference, one input per place that
# raises it, with its exact class and text


_EMPTY_VARIANT = Variant(Row((), None))

# (calculus, input, message): the input is source text or a built term
CHECK_MESSAGES = [
    ("lam", "x", "unbound variable x"),
    ("lam", Lam("x", None, Var("x")), "binder x needs a type annotation"),
    ("lam", "\\x:Int. \\x:Int. x", "binder x shadows an outer binder"),
    ("lam", "1 2", "applying a non-function of type Int"),
    ("lam", '(\\x:Int. x) "a"', "argument type String does not match domain Int"),
    ("var", Inject("A", Lit(1), None), "variant injection needs a type annotation"),
    ("var", "<A 1> : Int", "injection annotation must be a variant type, got Int"),
    ("var", "<B 1> : [A:Int]", "label B not in [A:Int]"),
    ("var-pre", "<A 1> : [A^o:Int]", "label A is not present in the annotation"),
    ("var", '<A "a"> : [A:Int]', "payload type String does not match Int for label A"),
    ("var", "case 1 {A a -> a}", "case scrutinee must have a variant type, got Int"),
    ("var-row", "/\\r0:Row!{A}. \\x:[A:Int; r0]. case x {A a -> a}",
     "case scrutinee type must be a closed variant"),
    ("var", "case <A 1> : [A:Int] {A a -> a; A b -> b}", "duplicate case branch labels"),
    ("var", "case <A 1> : [A:Int] {A a -> a; B b -> b}", "case branch B not in scrutinee type"),
    ("var", "case <A 1> : [A:Int; B:Int] {A a -> a}", "case does not cover label B"),
    ("var-pre", "/\\p0. case <A 1> : [A:Int; B^p0:Int] {A a -> a}",
     "case must cover label B with variable presence"),
    ("var", "\\a:Int. case <A 1> : [A:Int] {A a -> a}", "binder a shadows an outer binder"),
    ("var", 'case <A 1> : [A:Int; B:Int] {A a -> a; B b -> "s"}',
     "case branches disagree: Int vs String"),
    ("var", Case(Var("v"), ()), "case needs at least one branch"),
    ("rec", "{A = 1, A = 2}", "duplicate record field labels"),
    ("rec", "{A = 1} : Int", "record annotation must be a record type, got Int"),
    ("rec-row", "/\\r0:Row!{A}. {A = 1} : {A:Int; r0}",
     "record literal annotation must be a closed row"),
    ("rec", "{A = 1, B = 2} : {A:Int}", "field B not in {A:Int}"),
    ("rec", "{A = 1} : {A:Int; B:Int}", "record literal is missing field B"),
    ("rec", '{A = "a"} : {A:Int}', "field A has type String, annotation says Int"),
    ("rec-pre", "{A = 1}", "record literal needs a type annotation here"),
    ("rec", "(1).A", "projecting from a non-record of type Int"),
    ("rec", "{A = 1}.B", "label B not in {A:Int}"),
    ("rec-pre", "({A = 1} : {A:Int; B^o:Int}).B", "label B is not present, cannot project"),
    ("rec-sub", "{A = 1} :> {B:Int}", "{A:Int} is not a subtype of {B:Int}"),
    ("rec-row", "/\\r0:Row!{}. /\\r0:Row!{}. 1", "binder r0 shadows an outer binder"),
    ("rec-row", "1 @ [A:Int]", "row-applying a term of type Int"),
    ("rec-pre", "/\\p0. /\\p0. 1", "binder p0 shadows an outer binder"),
    ("rec-pre", "1 @ *", "presence-applying a term of type Int"),
    ("rec-sub-full-rank2", "let x = 1 in let x = 2 in x", "binder x shadows an outer binder"),
    ("lam", Prim("*", (Lit(1), Lit(2))), "unknown primitive *"),
    ("lam", Prim("+", (Lit(1),)), "primitive + takes two arguments"),
    ("lam", '1 + "a"', "primitive + applied at Int, String"),
    ("lam", Base("Int"), "unhandled term form Base"),
]

INFER_MESSAGES = [
    ("var-row1", "1 :> Int", "inference input must not contain Upcast nodes"),
    ("var-row1", "x", "unbound variable x"),
    ("var-row1", "\\x:Int. x", "inference input must not carry annotations"),
    ("var-row1", Prim("*", (Lit(1), Lit(2))), "unknown primitive *"),
    ("rec-row1", "{A = 1} : {A:Int}", "inference input must not carry annotations"),
    ("rec-row1", "{A = 1, A = 2}", "duplicate record field labels"),
    ("var-row1", "<A 1> : [A:Int]", "inference input must not carry annotations"),
    ("var-row1", "case <A 1> {A a -> a; A b -> b}", "duplicate case branch labels"),
]


def _term(src):
    return M(src) if isinstance(src, str) else src


@pytest.mark.parametrize("name,src,message", CHECK_MESSAGES, ids=range(len(CHECK_MESSAGES)))
def test_checker_messages_are_pinned(name, src, message):
    with pytest.raises(TypingError) as e:
        type_check(preset(name), {}, {"v": _EMPTY_VARIANT}, _term(src))
    assert type(e.value) is TypingError
    assert str(e.value) == message


@pytest.mark.parametrize("name,src,message", INFER_MESSAGES, ids=range(len(INFER_MESSAGES)))
def test_inference_messages_are_pinned(name, src, message):
    term = _term(src)
    with pytest.raises(InferError) as e:
        infer(preset(name), {}, {}, term)
    assert type(e.value) is InferError
    assert str(e.value) == f"{message} (while typing {show_term(term)})"


# A row argument is a type-level part like an annotation: the calculus must
# have every constructor in its entries
@pytest.mark.parametrize("name,src,message", [
    ("var-row", "(/\\r:Row!{A}. \\x:[A:Int; r]. x) @ [B:{C:Int}]",
     "record types not available in this calculus"),
    ("var-row", "(/\\r:Row!{A}. \\x:[A:Int; r]. x) @ [B^o:Int]",
     "presence annotations not available in this calculus"),
    ("rec-row", "(/\\r:Row!{A}. \\x:{A:Int; r}. x) @ [B:[C:Int]]",
     "variant types not available in this calculus"),
])
def test_row_arguments_pass_the_feature_gate(name, src, message):
    with pytest.raises(FeatureError) as e:
        check(name, src)
    assert str(e.value) == message
