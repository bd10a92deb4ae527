"""Golden and structural tests for the derivation-directed encodings."""

import pytest

from rowlab.config import preset
from rowlab.dynamics import RelationSet, erase, normalize, relations_for
from rowlab.harness import GenSpec, gen_typed_term
from rowlab.infer import infer
from rowlab.parser import parse_term_str, parse_type_str
from rowlab.pretty import show_scheme
from rowlab.statics import kind_check, subtype, type_check
from rowlab.syntax import (
    App,
    Arrow,
    Base,
    KRow,
    KType,
    Lit,
    NameSupply,
    Present,
    Record,
    Row,
    TypeScheme,
    TyVar,
    Upcast,
    alpha_eq,
    rename_type_name,
    strip,
    type_equal,
)
from rowlab.translate import (
    PAIR_INDEX,
    TRANSLATIONS,
    TranslationError,
    coerce,
    pres_arity,
    pres_seq,
    run_translation,
    t1,
    t2,
    t3,
    t4,
    t5,
    t6,
    t7,
    trans_a,
    trans_b,
    translation_for,
    type_translate2,
    type_translate4,
    type_translate6,
    weak_sub_instance,
)

T = parse_type_str
M = parse_term_str

BETA = RelationSet()


def deriv(cfg_name, src, delta=None, gamma=None):
    return type_check(preset(cfg_name), delta or {}, gamma or {}, M(src))


def translated(tid, src, delta=None, gamma=None):
    """Translate src and check the output against the mapped type."""
    t = TRANSLATIONS[tid]
    source_name, target_name = t.pairs[0]
    d = deriv(source_name, src, delta, gamma)
    out = run_translation(tid, d)
    od = type_check(preset(target_name), delta or {}, {}, out)
    if t.type_map is not None:
        assert type_equal(od.type, t.type_map(d.type))
    return out


YEAR = "<Year 1984> : [Year:Int]"
YEAR_UP = "<Year 1984> : [Year:Int] :> [Age:Int; Year:Int]"
GET_AGE = "\\x:[Age:Int; Year:Int]. case x {Age a -> a; Year y -> y}"
ALICE = '{Name = "Alice", Age = 9}'
ALICE_UP = '{Name = "Alice", Age = 9} :> {Name:String}'
GET_NAME = "\\x:{Name:String}. x.Name"
CAROL = '{Name = "Carol", Child = {Name = "Alice", Age = 9}}'
CAROL_TY = "{Child:{Age:Int; Name:String}; Name:String}"
CAROL_UP = CAROL + " :> {Child:{Name:String}}"


# ---------------------------------------------------------------------------
# t1


def test_t1_identity_without_casts():
    assert alpha_eq(translated("var-sub-to-var", YEAR), M(YEAR))


def test_t1_upcast_becomes_case_reinject():
    out = translated("var-sub-to-var", YEAR_UP)
    want = M(
        "case (<Year 1984> : [Year:Int]) "
        "{Year y -> <Year y> : [Age:Int; Year:Int]}"
    )
    assert alpha_eq(out, want)


def test_t1_reinject_has_one_branch_per_source_label():
    src = "(<A 1> : [A:Int; B:Int; C:Int]) :> [A:Int; B:Int; C:Int; D:Int]"
    out = translated("var-sub-to-var", src)
    assert len(out.branches) == 3


def test_t1_whole_program_still_evaluates():
    out = translated("var-sub-to-var", f"({GET_AGE}) ({YEAR_UP})")
    assert normalize(out, relations_for(preset("var"))) == Lit(1984)


# ---------------------------------------------------------------------------
# t2


def test_type_translate2_wraps_variants_with_open_tails():
    got = type_translate2(T("[Age:Int; Year:Int]"))
    assert type_equal(got, T("forall r0:Row!{Age,Year}. [Age:Int; Year:Int; r0]"))


def test_type_translate2_nested():
    got = type_translate2(T("[Ok:[A:Int]] -> Int"))
    want = T("(forall r0:Row!{Ok}. [Ok:forall r1:Row!{A}. [A:Int; r1]; r0]) -> Int")
    assert type_equal(got, want)


def test_t2_inject_generalizes():
    out = translated("var-sub-to-row", YEAR)
    assert alpha_eq(out, M("/\\r0:Row!{Year}. <Year 1984> : [Year:Int; r0]"))


def test_t2_upcast_instantiates_missing_labels():
    out = translated("var-sub-to-row", YEAR_UP)
    want = M(
        "/\\r0:Row!{Age,Year}. "
        "(/\\r1:Row!{Year}. <Year 1984> : [Year:Int; r1]) @@ [Age:Int; r0]"
    )
    assert alpha_eq(out, want)


def test_t2_case_applies_empty_row():
    out = translated("var-sub-to-row", GET_AGE)
    want = M(
        "\\x:forall r0:Row!{Age,Year}. [Age:Int; Year:Int; r0]. "
        "case x @ [] {Age a -> a; Year y -> y}"
    )
    assert alpha_eq(out, want)


def test_t2_whole_program_still_evaluates():
    out = translated("var-sub-to-row", f"({GET_AGE}) ({YEAR_UP})")
    assert normalize(out, relations_for(preset("var-row"))) == Lit(1984)


# ---------------------------------------------------------------------------
# t3


def test_t3_identity_without_casts():
    assert alpha_eq(translated("rec-sub-to-rec", ALICE), M(ALICE))


def test_t3_upcast_projects_fieldwise():
    out = translated("rec-sub-to-rec", ALICE_UP)
    assert alpha_eq(out, M('{Name = {Name = "Alice", Age = 9}.Name}'))


def test_t3_duplicates_source_once_per_kept_field():
    out = translated("rec-sub-to-rec", "{A = 1, B = 2, C = 3} :> {A:Int; B:Int}")
    assert len(out.fields) == 2
    assert alpha_eq(out.fields[0][1].term, out.fields[1][1].term)


def test_t3_whole_program_still_evaluates():
    out = translated("rec-sub-to-rec", f"({GET_NAME}) ({ALICE_UP})")
    assert normalize(out, relations_for(preset("rec"))) == Lit("Alice")


# ---------------------------------------------------------------------------
# t4


def test_type_translate4_one_quantifier_per_field():
    got = type_translate4(T("{Age:Int; Name:String}"))
    assert type_equal(got, T("forall p0 p1. {Age^p0:Int; Name^p1:String}"))


def test_t4_record_literal_generalizes():
    out = translated("rec-sub-to-pre", ALICE)
    want = M('/\\p0. /\\p1. {Name = "Alice", Age = 9} : {Age^p0:Int; Name^p1:String}')
    assert alpha_eq(out, want)


def test_t4_upcast_marks_dropped_fields_absent():
    out = translated("rec-sub-to-pre", ALICE_UP)
    want = M(
        '/\\p0. (/\\p1. /\\p2. {Name = "Alice", Age = 9} '
        ": {Age^p1:Int; Name^p2:String}) @@ o @@ p0"
    )
    assert alpha_eq(out, want)


def test_t4_projection_picks_one_field():
    out = translated("rec-sub-to-pre", GET_NAME)
    want = M("\\x:forall p0:Pre. {Name^p0:String}. (x @ *).Name")
    assert alpha_eq(out, want)


def test_t4_whole_program_still_evaluates():
    out = translated("rec-sub-to-pre", f"({GET_NAME}) ({ALICE_UP})")
    assert normalize(out, relations_for(preset("rec-pre"))) == Lit("Alice")


# ---------------------------------------------------------------------------
# t5


def test_coerce_normal_form_is_nested_projection():
    ev = subtype("full", T(CAROL_TY), T("{Child:{Name:String}}"))
    fn = normalize(coerce(ev, NameSupply()), BETA)
    assert alpha_eq(erase(fn), M("\\x. {Child = {Name = x.Child.Name}}"))
    want = "\\x:" + CAROL_TY + ". {Child = {Name = x.Child.Name}}"
    assert alpha_eq(fn, M(want))


def test_t5_upcast_applies_coercion():
    out = translated("full-sub-coerce", CAROL_UP)
    reduced = normalize(out, BETA)
    assert alpha_eq(reduced, M('{Child = {Name = "Alice"}}'))


def test_t5_function_coercion_contravariant():
    src = (
        "(\\x:{Name:String; Age:Int}. x.Name) "
        ":> ({Age:Int; Name:String; Zip:Int} -> String)"
    )
    out = translated("full-sub-coerce", src)
    arg = M('{Name = "Ada", Age = 3, Zip = 9}')
    assert normalize(App(out, arg), BETA) == Lit("Ada")


def test_t5_variant_coercion_retags():
    src = "(<Ok 5> : [Ok:Int]) :> [Err:String; Ok:Int]"
    out = translated("full-sub-coerce", src)
    reduced = normalize(out, BETA)
    assert alpha_eq(reduced, M("<Ok 5> : [Err:String; Ok:Int]"))


# ---------------------------------------------------------------------------
# t6


def test_pres_arity_counts_heads_and_deep_fields():
    assert pres_arity(T("Int")) == 0
    assert pres_arity(T("{Name:String}")) == 1
    assert pres_arity(T(CAROL_TY)) == 4
    assert pres_arity(T("Int -> {A:Int}")) == 1


def test_type_translate6_hoists_nested_quantifiers():
    got = type_translate6(T(CAROL_TY))
    want = T(
        "forall q0 q1 q2 q3. "
        "{Child^q0:{Age^q2:Int; Name^q3:String}; Name^q1:String}"
    )
    assert type_equal(got, want)


def test_type_translate6_arrow_prefix_from_codomain():
    got = type_translate6(T("{Name:String} -> {Name:String}"))
    want = T(
        "forall q0. (forall q1:Pre. {Name^q1:String}) -> {Name^q0:String}"
    )
    assert type_equal(got, want)


def test_pres_seq_constant():
    assert pres_seq(Present(), T(CAROL_TY)) == [Present()] * 4


def test_t6_record_literal_hoists_child_quantifiers():
    out = translated("rec-co-to-pre", CAROL)
    want = M(
        '/\\p0. /\\p1. /\\p2. /\\p3. '
        '{Name = "Carol", Child = '
        '(/\\p4. /\\p5. {Name = "Alice", Age = 9} : {Age^p4:Int; Name^p5:String})'
        " @ p2 @ p3} "
        ": {Child^p0:{Age^p2:Int; Name^p3:String}; Name^p1:String}"
    )
    assert alpha_eq(out, want)


def test_t6_upcast_instantiates_source_prefix():
    out = translated("rec-co-to-pre", CAROL_UP)
    want = M(
        "/\\p0. /\\p1. "
        '((/\\p2. /\\p3. /\\p4. /\\p5. {Name = "Carol", Child = '
        '(/\\p6. /\\p7. {Name = "Alice", Age = 9} : {Age^p6:Int; Name^p7:String})'
        " @ p4 @ p5} "
        ": {Child^p2:{Age^p4:Int; Name^p5:String}; Name^p3:String}) "
        "@@ p0 @@ o @@ o @@ p1)"
    )
    assert alpha_eq(out, want)


def test_t6_projection_selects_one_field():
    src = "\\x:" + CAROL_TY + ". x.Name"
    out = translated("rec-co-to-pre", src)
    want = M(
        "\\x:forall q0 q1 q2 q3. "
        "{Child^q0:{Age^q2:Int; Name^q3:String}; Name^q1:String}. "
        "(x @ o @ * @ o @ o).Name"
    )
    assert alpha_eq(out, want)


def test_t6_whole_program_still_evaluates():
    src = "(\\x:{Child:{Name:String}}. x.Child) (" + CAROL_UP + ")"
    out = translated("rec-co-to-pre", src)
    reduced = normalize(out, relations_for(preset("rec-pre")))
    assert alpha_eq(erase(reduced), M('{Name = "Alice", Age = 9}'))


def test_t6_erasure_law():
    for src in (CAROL, CAROL_UP, "\\x:" + CAROL_TY + ". x.Name"):
        d = deriv("rec-sub-co", src)
        assert alpha_eq(erase(t6(d)), erase(d.term))


# ---------------------------------------------------------------------------
# t7


def test_t7_erases_casts():
    out = translated("erase-upcasts", ALICE_UP)
    assert alpha_eq(out, M('{Name = "Alice", Age = 9}'))


def test_t7_rejects_types_beyond_rank():
    d = deriv("var-rec-sub-full", GET_NAME)
    with pytest.raises(TranslationError):
        t7(d, preset("rec-sub-full-rank1"))
    assert t7(d, preset("rec-sub-full-rank2")) is not None


def test_strip_upcasts_keeps_annotations():
    out = strip(M(ALICE_UP), (Upcast,))
    assert alpha_eq(out, M(ALICE))
    lam = strip(M("\\x:{Name:String}. x :> {}"), (Upcast,))
    assert lam.annot is not None


# ---------------------------------------------------------------------------
# scheme translation and the weakening preorder


def test_trans_a_opens_function_domains():
    scheme = trans_a(T("{Name:String} -> String"))
    assert len(scheme.quants) == 1
    assert scheme.quants[0][1] == KRow(frozenset({"Name"}))
    assert type_equal(scheme.body, T("{Name:String; r0} -> String"))


def test_trans_a_keeps_result_records_closed():
    scheme = trans_a(T("{Name:String}"))
    assert scheme.quants == ()
    assert type_equal(scheme.body, T("{Name:String}"))


def test_trans_b_leaves_domains_verbatim():
    scheme = trans_b(T("({Name:String} -> String) -> Int"))
    assert scheme.quants == ()
    assert type_equal(scheme.body, T("({Name:String} -> String) -> Int"))


def test_trans_b_opens_every_record_with_head_tail_first():
    scheme = trans_b(T("{Child:{Name:String}}"))
    assert [k for _, k in scheme.quants] == [
        KRow(frozenset({"Child"})),
        KRow(frozenset({"Name"})),
    ]
    assert type_equal(scheme.body, T("{Child:{Name:String; r1}; r0}"))


def test_row_seq_lengths():
    assert len(trans_a(T("{Name:String} -> String")).quants) == 1
    assert len(trans_a(T("Int")).quants) == 0
    assert len(trans_b(T("{Child:{Name:String}}")).quants) == 2
    assert len(trans_b(T("({Name:String} -> String) -> Int")).quants) == 0


def test_trans_a_gives_every_tail_its_own_well_kinded_name():
    # two tails in one field's scheme: renaming a sub-scheme's names one
    # after another onto a later block would merge them
    s = trans_a(T("{A:{B:Int} -> Int; C:{X:Int} -> {Y:Int} -> Int}"))
    kind_check(dict(s.quants), s.body)
    assert show_scheme(s) == (
        "forall r0:Row!{B} r1:Row!{X} r2:Row!{Y}. "
        "{A:{B:Int; r0} -> Int; C:{X:Int; r1} -> {Y:Int; r2} -> Int}"
    )


def test_weak_sub_instance_allows_more_general_principal():
    principal = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        T("{Name:a0; r0} -> a0"),
    )
    goal = trans_a(T("{Name:String} -> String"))
    assert weak_sub_instance(principal, goal)


def test_weak_sub_instance_rejects_wrong_field_type():
    principal = TypeScheme(
        (("r0", KRow(frozenset({"Name"}))),), T("{Name:Int; r0} -> Int")
    )
    goal = trans_a(T("{Name:String} -> String"))
    assert not weak_sub_instance(principal, goal)


def test_weak_sub_instance_weakens_in_result_positions_only():
    # a domain pins the tail it shares with the result to the empty row
    principal = TypeScheme(
        (("r0", KRow(frozenset({"A"}))),), T("{A:Int; r0} -> {A:Int; r0}")
    )
    assert weak_sub_instance(principal, TypeScheme((), T("{A:Int} -> {A:Int}")))
    wider = TypeScheme((), T("{A:Int} -> {A:Int; B:Int}"))
    assert not weak_sub_instance(principal, wider)


def test_weak_sub_instance_literal_match():
    goal = trans_a(T("{Name:String}"))
    assert weak_sub_instance(TypeScheme((), T("{Name:String}")), goal)
    assert not weak_sub_instance(TypeScheme((), T("{Name:Int}")), goal)


# ---------------------------------------------------------------------------
# substitution lemma spot checks


def test_t1_substitution_commutes():
    from rowlab.syntax import subst_term

    gamma = {"x": T("[Year:Int]")}
    open_d = deriv("var-sub", "x :> [Age:Int; Year:Int]", gamma=gamma)
    arg_d = deriv("var-sub", YEAR)
    lhs = subst_term(t1(open_d), t1(arg_d), "x")
    closed_d = deriv("var-sub", YEAR_UP)
    assert alpha_eq(lhs, t1(closed_d))


def test_t4_substitution_commutes():
    from rowlab.syntax import subst_term

    gamma = {"x": T("{Age:Int; Name:String}")}
    open_d = deriv("rec-sub", "x :> {Name:String}", gamma=gamma)
    arg_d = deriv("rec-sub", ALICE)
    lhs = subst_term(t4(open_d), t4(arg_d), "x")
    closed_d = deriv("rec-sub", ALICE_UP)
    assert alpha_eq(lhs, t4(closed_d))


# ---------------------------------------------------------------------------
# registry


def test_registry_ids_and_pairs():
    assert set(TRANSLATIONS) == {
        "var-sub-to-var",
        "var-sub-to-row",
        "rec-sub-to-rec",
        "rec-sub-to-pre",
        "full-sub-coerce",
        "rec-co-to-pre",
        "erase-upcasts",
    }
    assert len(PAIR_INDEX) == 10
    assert PAIR_INDEX[("rec-sub-full-rank2", "rec-row1")] == "erase-upcasts"


def test_translation_for_refuses_unknown_pairs():
    assert translation_for("var-sub", "var").tid == "var-sub-to-var"
    with pytest.raises(TranslationError):
        translation_for("var-sub", "rec")


# the matcher as two mutually recursive functions, before ``weaken`` made
# them one; kept as the reference the new one must agree with


def _reference_weak_sub_instance(principal, goal):
    body = principal.body
    flex = set()
    for i, (name, kind) in enumerate(principal.quants):
        meta = f"?m{i}"
        flex.add(meta)
        body = rename_type_name(body, name, kind, meta)

    subst = {}

    def resolve(ty):
        while isinstance(ty, TyVar) and ty.name in subst:
            ty = subst[ty.name]
        return ty

    def row_parts(row):
        entries = {l: t for l, _, t in row.entries}
        tail = row.tail
        while tail is not None and tail in subst:
            rep = subst[tail]
            for l, _, t in rep.entries:
                entries[l] = t
            tail = rep.tail
        return entries, tail

    def unify(a, b):
        a, b = resolve(a), resolve(b)
        if isinstance(a, TyVar) and a.name in flex:
            subst[a.name] = b
            return True
        if isinstance(a, (TyVar, Base)):
            return a == b
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return unify(a.dom, b.dom) and unify(a.cod, b.cod)
        if isinstance(a, Record) and isinstance(b, Record):
            ea, ta = row_parts(a.row)
            eb, tb = row_parts(b.row)
            if set(ea) != set(eb):
                missing = {l: eb[l] for l in set(eb) - set(ea)}
                if missing and ta in flex and not (set(ea) - set(eb)):
                    subst[ta] = Row(
                        tuple((l, Present(), t) for l, t in sorted(missing.items())),
                        tb,
                    )
                    return all(unify(ea[l], eb[l]) for l in ea)
                return False
            if ta in flex:
                subst[ta] = Row((), tb)
                return all(unify(ea[l], eb[l]) for l in ea)
            if ta != tb:
                return False
            return all(unify(ea[l], eb[l]) for l in ea)
        return False

    def match(a, b):
        a, b = resolve(a), resolve(b)
        if isinstance(a, TyVar) and a.name in flex:
            subst[a.name] = b
            return True
        if isinstance(a, (TyVar, Base)):
            return a == b
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return unify(a.dom, b.dom) and match(a.cod, b.cod)
        if isinstance(a, Record) and isinstance(b, Record):
            ea, ta = row_parts(a.row)
            eb, tb = row_parts(b.row)
            if tb is not None:
                return unify(a, b)
            if set(ea) != set(eb):
                if ta in flex and not (set(ea) - set(eb)):
                    missing = {l: eb[l] for l in set(eb) - set(ea)}
                    subst[ta] = Row(
                        tuple((l, Present(), t) for l, t in sorted(missing.items())),
                        None,
                    )
                    return all(match(ea[l], eb[l]) for l in ea)
                return False
            return all(match(ea[l], eb[l]) for l in ea)
        return False

    return match(body, goal.body)


def test_weak_matcher_agrees_with_the_reference_on_generated_pairs():
    # principals: the inferred schemes of erased rank-2 terms and both scheme
    # translations of their types; bounds: both translations of every type
    # (trans_b's leave open tails in result positions), so most pairs come
    # from different terms and do not match
    principals, bounds = [], []
    for size in (8, 12):
        spec = GenSpec(preset("rec-sub-full-rank2"), max_size=size, seed=5)
        for i in range(20):
            _, d = gen_typed_term(spec, i)
            schemes = [trans_a(d.type), trans_b(d.type)]
            bounds += schemes
            bare = erase(d.term)
            principals += schemes
            principals.append(infer(preset("rec-row1"), d.delta, d.gamma, bare))
    verdicts = []
    for p in principals:
        for b in bounds:
            verdicts.append(weak_sub_instance(p, b))
            assert verdicts[-1] == _reference_weak_sub_instance(p, b), (
                show_scheme(p), show_scheme(b)
            )
    assert 0 < sum(verdicts) < len(verdicts) // 2
