"""Reduction, cast evaluation, erasure, and the approximation preorder."""

import sys
import tracemalloc

import pytest

from rowlab.config import PRESETS, preset
from rowlab.dynamics import (
    OutOfFuel,
    RelationSet,
    erase,
    normalize,
    on_spine,
    reduction_trace,
    relations_for,
    step_all,
    step_once,
    term_preorder,
)
from rowlab.harness import GenError, GenSpec, gen_typed_term
from rowlab.infer import infer
from rowlab.parser import parse_term_str
from rowlab.pretty import show_term, show_type
from rowlab.statics import type_check
from rowlab.syntax import App, Base, Lam, Lit, Prim, Upcast, Var, alpha_eq, children
from rowlab.translate import TRANSLATIONS, run_translation

M = parse_term_str

BETA = RelationSet()
SIMPLE = RelationSet(upcast=True)
FULL = RelationSet(upcast=True, full_upcast=True)
POLY = RelationSet(type_redex=True)


def nf(src, rels=BETA):
    return normalize(M(src), rels)


def tags(src, rels=BETA):
    return reduction_trace(M(src), rels)[1]


# ---------------------------------------------------------------------------
# Relation selection per configuration


def test_relations_for_presets():
    assert relations_for(preset("var")) == RelationSet()
    assert relations_for(preset("var-sub")) == SIMPLE
    assert relations_for(preset("rec-sub-full")) == RelationSet()
    assert relations_for(preset("rec-sub-full"), full_upcast=True) == FULL
    assert relations_for(preset("var-row")) == RelationSet(type_redex=True)
    assert relations_for(preset("rec-pre")) == RelationSet(type_redex=True)
    assert relations_for(preset("var-sub"), full_upcast=True) == SIMPLE


# ---------------------------------------------------------------------------
# Beta steps


def test_beta_lam():
    assert nf("(\\x:Int. x) 5") == Lit(5)
    assert tags("(\\x:Int. x) 5") == ["beta-lam"]


def test_call_by_name_outermost_first():
    term = M("(\\x:Int. 1) ((\\y:Int. y) 2)")
    step = step_once(term, BETA)
    assert step.tag == "beta-lam" and step.path == ()
    assert step.term == Lit(1)


def test_step_all_lists_every_redex():
    term = M("(\\x:Int. x) ((\\y:Int. y) 2)")
    steps = step_all(term, BETA)
    assert [s.path for s in steps] == [(), ("arg",)]


def test_get_age_pipeline_simple_casts():
    src = (
        "(\\x:[Age:Int; Year:Int]. case x {Age a -> a; Year y -> 2023 - y}) "
        "(<Year 1984> : [Year:Int] :> [Age:Int; Year:Int])"
    )
    assert tags(src, SIMPLE) == ["beta-lam", "upcast-variant", "beta-case", "beta-prim"]
    assert nf(src, SIMPLE) == Lit(39)


def test_get_name_pipeline_simple_casts():
    src = (
        '(\\x:{Name:String}. x.Name) '
        '({Name = "Alice", Age = 9} :> {Name:String})'
    )
    assert tags(src, SIMPLE) == ["beta-lam", "upcast-record", "beta-project"]
    assert nf(src, SIMPLE) == Lit("Alice")


def test_beta_let():
    assert nf("let x = 1 in x + x") == Lit(2)
    assert tags("let x = 1 in x + x") == ["beta-let", "beta-prim"]


def test_beta_prim_strings():
    assert nf('"Al" ++ "ice"') == Lit("Alice")


def test_beta_case_drops_annotation():
    src = "case (<A 1> : [A:Int; B:Int]) {A a -> a; B b -> b}"
    assert nf(src) == Lit(1)


def test_beta_project():
    assert nf('{Name = "Alice", Age = 9}.Age') == Lit(9)


def test_stuck_terms_do_not_step():
    assert step_all(M("case (<A 1> : [A:Int]) {B b -> b}"), BETA) == []
    assert step_all(M("{Name = 1}.Age"), BETA) == []
    assert step_all(M("x y"), BETA) == []


# ---------------------------------------------------------------------------
# Cast rules


def test_upcast_variant_relabels_annotation():
    src = "<Year 1984> : [Year:Int] :> [Age:Int; Year:Int]"
    out = nf(src, SIMPLE)
    assert alpha_eq(out, M("<Year 1984> : [Age:Int; Year:Int]"))


def test_upcast_record_drops_fields():
    src = '{Name = "Alice", Age = 9} :> {Name:String}'
    out = nf(src, SIMPLE)
    assert alpha_eq(out, M('{Name = "Alice"} : {Name:String}'))


def test_nested_upcast_collapses():
    src = '{A = 1, B = 2, C = 3} :> {A:Int; B:Int} :> {A:Int}'
    assert tags(src, SIMPLE) == ["nested-upcast", "upcast-record"]
    assert alpha_eq(nf(src, SIMPLE), M("{A = 1} : {A:Int}"))


def test_full_cast_at_base_vanishes():
    assert nf("5 :> Int", FULL) == Lit(5)
    assert tags("5 :> Int", FULL) == ["upcast-var"]


def test_full_cast_function_rebinds():
    src = '(\\x:{Name:String; Age:Int}. x.Name) :> ({Age:Int; Name:String; Zip:Int} -> String)'
    step = step_once(M(src), FULL)
    assert step.tag == "upcast-lam"
    want = M(
        "\\x:{Age:Int; Name:String; Zip:Int}. "
        "((x :> {Name:String; Age:Int}).Name :> String)"
    )
    assert alpha_eq(step.term, want)


def test_full_cast_function_then_beta():
    src = (
        '((\\x:{Name:String}. x.Name) '
        ':> ({Age:Int; Name:String} -> String)) {Name = "Alice", Age = 9}'
    )
    assert nf(src, FULL) == Lit("Alice")


def test_full_cast_variant_deep():
    src = "(<Ok {A = 1, B = 2}> : [Ok:{A:Int; B:Int}]) :> [Err:String; Ok:{A:Int}]"
    out = nf(src, FULL)
    assert alpha_eq(out, M("<Ok {A = 1} : {A:Int}> : [Err:String; Ok:{A:Int}]"))


def test_full_cast_record_deep():
    src = "{P = {A = 1, B = 2}, Q = 3} :> {P:{A:Int}}"
    out = nf(src, FULL)
    assert alpha_eq(out, M("{P = {A = 1} : {A:Int}} : {P:{A:Int}}"))


def test_cast_rules_off_without_relation():
    assert step_all(M("5 :> Int"), BETA) == []
    assert step_all(M('{A = 1} :> {A:Int}'), BETA) == []


# ---------------------------------------------------------------------------
# Type-level redexes


def test_row_beta_source_tag():
    src = "(/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @ [Age:Int]"
    term = M(src)
    step = step_once(term, POLY)
    assert step.tag == "tau-row"
    assert alpha_eq(step.term, M("\\x:[Age:Int; Year:Int]. x"))


def test_row_beta_upcast_tag():
    term = M("(/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @@ [Age:Int]")
    step = step_once(term, POLY)
    assert step.tag == "nu-row"


def test_presence_beta():
    src = '(/\\p0. {Name = "A"} : {Name^p0:String}) @ *'
    step = step_once(M(src), POLY)
    assert step.tag == "tau-pres"
    assert alpha_eq(step.term, M('{Name = "A"} : {Name:String}'))
    src2 = '(/\\p0. {Name = "A"} : {Name^p0:String}) @ o'
    out = normalize(M(src2), POLY)
    assert alpha_eq(out, M('{Name = "A"} : {Name^o:String}'))
    src3 = '(/\\p0. {Name = "A"} : {Name^p0:String}) @@ o'
    assert step_once(M(src3), POLY).tag == "nu-pres"


def test_fuel_runs_out_on_loops():
    loop = M("(\\x. x x) (\\x. x x)")
    with pytest.raises(OutOfFuel):
        normalize(loop, BETA, fuel=50)


def test_fuel_counts_steps_allowed():
    src = '(\\x:{Name:String}. x.Name) ({Name = "Alice", Age = 9} :> {Name:String})'
    assert normalize(M(src), SIMPLE, fuel=3) == Lit("Alice")
    with pytest.raises(OutOfFuel, match='within 2 steps: .*"Alice"'):
        normalize(M(src), SIMPLE, fuel=2)
    assert normalize(Lit(1), BETA, fuel=0) == Lit(1)


def test_deep_prim_chain_normalizes():
    term = Lit(1)
    for _ in range(5000):
        term = Prim("+", (term, Lit(1)))
    result, steps = reduction_trace(term, BETA)
    assert result == Lit(5001)
    assert len(steps) == 5000


def test_a_trace_keeps_no_path_per_step():
    # a path per step would hold depth x steps slot names: 8M at this size
    term = Lit(1)
    for _ in range(3999):
        term = Prim("+", (term, Lit(1)))
    tracemalloc.start()
    try:
        result, steps = reduction_trace(term, BETA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == Lit(4000) and steps == ["beta-prim"] * 3999
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# The machine behind step_once/normalize/reduction_trace against iterating
# the reference relation step_all(...)[0]


def _reference(term, rels, fuel):
    """Iterate step_all's first redex; checks step_once at every term."""
    steps = []
    for _ in range(fuel):
        listed = step_all(term, rels)
        assert step_once(term, rels) == (listed[0] if listed else None)
        if not listed:
            return term, steps
        steps.append(listed[0].tag)
        term = listed[0].term
    if step_all(term, rels):
        return term, None
    return term, steps


def _assert_machine_matches(term, rels, fuel=60):
    want, want_steps = _reference(term, rels, fuel)
    if want_steps is None:
        with pytest.raises(OutOfFuel) as exc:
            reduction_trace(term, rels, fuel)
        assert str(exc.value) == f"no normal form within {fuel} steps: {show_term(want)}"
        return
    got, got_steps = reduction_trace(term, rels, fuel)
    assert got_steps == want_steps
    assert got == want
    assert normalize(term, rels, fuel) == want


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("full_upcast", [False, True])
def test_machine_matches_reference(name, full_upcast):
    cfg = preset(name)
    rels = relations_for(cfg, full_upcast=full_upcast)
    spec = GenSpec(cfg, max_size=10, seed=2)
    for i in range(10):
        _assert_machine_matches(gen_typed_term(spec, i)[0], rels)


@pytest.mark.parametrize("src", [
    "(\\x. x x) (\\x. x x)",
    "(\\f. f (f 1)) ((\\g. g) (\\y. y + (1 + 1)))",
    "(/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @ [Age:Int]",
    "((/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @@ [Age:Int]) (<Age 1> : [Age:Int; Year:Int])",
    '((/\\p0. {Name = "A"} : {Name^p0:String}) @ *).Name ++ "B"',
    "{P = (1 + 2) + 3, Q = {A = 1 + 1, B = 2} :> {A:Int}} :> {P:Int; Q:{A:Int}}",
    "case (<A (\\x:Int. x) 1> : [A:Int; B:Int]) {A a -> a + a; B b -> b}",
])
@pytest.mark.parametrize("rels", [BETA, SIMPLE, FULL, POLY], ids=["beta", "simple", "full", "poly"])
def test_machine_matches_reference_by_hand(src, rels):
    _assert_machine_matches(M(src), rels)


# ---------------------------------------------------------------------------
# The spine mode of step_all against filtering the reference relation


def _on_spine(x, path):
    """True when every hop of path sits in a head slot (``on_spine``)."""
    node = x
    for slot in path:
        if not on_spine(node, slot):
            return False
        node = next(child for s, child, _ in children(node) if s == slot)
    return True


def _spine_cases(name):
    """Generated terms of the preset under its relations, and their
    translations under the target's relations, with a few reducts of each."""
    cfg = preset(name)
    spec = GenSpec(cfg, max_size=10, seed=5)
    for i in range(6):
        try:
            term, deriv = gen_typed_term(spec, i)
        except GenError:
            continue
        cases = [(term, relations_for(cfg, full_upcast=True))]
        for tid, t in sorted(TRANSLATIONS.items()):
            if deriv is not None and t.pairs[0][0] == name:
                cases.append((run_translation(tid, deriv), relations_for(preset(t.pairs[0][1]))))
        for t, rels in cases:
            yield t, rels
            for s in step_all(t, rels)[:3]:
                yield s.term, rels


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_spine_mode_is_the_reference_filtered_to_the_spine(name):
    listed = 0
    for term, rels in _spine_cases(name):
        want = [
            (s.tag, s.path, s.term) for s in step_all(term, rels) if _on_spine(term, s.path)
        ]
        got = [(s.tag, s.path, s.term) for s in step_all(term, rels, spine=True)]
        assert got == want, show_term(term)
        listed += len(got)
    assert listed > 0


# ---------------------------------------------------------------------------
# Erasure


def test_erase_drops_casts_and_annotations():
    src = "<Year 1984> : [Year:Int] :> [Age:Int; Year:Int]"
    assert alpha_eq(erase(M(src)), M("<Year 1984>"))


def test_erase_drops_type_abstractions():
    src = "(/\\r0:Row!{Year}. \\x:[Year:Int; r0]. x) @ [Age:Int]"
    assert alpha_eq(erase(M(src)), M("\\x. x"))


def test_erase_keeps_let_and_prims():
    src = "let x = 1 + 2 in x"
    assert alpha_eq(erase(M(src)), M(src))


def test_erase_homomorphic_under_binders():
    src = "\\x:[A:Int]. case x {A a -> {V = a} :> {V:Int}}"
    assert alpha_eq(erase(M(src)), M("\\x. case x {A a -> {V = a}}"))


def test_erase_at_any_depth():
    shared = M("\\x:{A:Int}. x :> {}")
    out = erase(App(shared, shared))
    assert out.fn == out.arg and alpha_eq(out.fn, M("\\x. x"))
    deep = Var("x")
    for _ in range(20_000):
        deep = Upcast(Lam("x", Base("Int"), deep), Base("Int"))
    out = erase(deep)
    for _ in range(20_000):
        assert type(out) is Lam and out.annot is None
        out = out.body
    assert out == Var("x")


# ---------------------------------------------------------------------------
# Approximation preorder


def test_preorder_alpha():
    assert term_preorder(M("\\x. x"), M("\\y. y"))
    assert not term_preorder(M("\\x. x"), M("\\y. \\z. y"))


def test_preorder_record_width():
    assert term_preorder(M("{A = 1, B = 2}"), M("{A = 1}"))
    assert not term_preorder(M("{A = 1}"), M("{A = 1, B = 2}"))
    assert term_preorder(M("{A = 1, B = 2}"), M("{A = 1, B = 2}"))


def test_preorder_congruence():
    assert term_preorder(M("\\x. {A = x, B = 1}"), M("\\y. {A = y}"))
    assert term_preorder(
        M("case z {A a -> {V = a, W = 1}}"), M("case z {A a -> {V = a}}")
    )
    assert term_preorder(M("let x = {A = 1, B = 2} in x.A"), M("let x = {A = 1} in x.A"))
    assert not term_preorder(M("1"), M("2"))
    assert not term_preorder(M("x y"), M("x"))


def test_preorder_respects_binding():
    assert not term_preorder(M("\\x. \\y. x"), M("\\a. \\b. b"))


def test_preorder_free_name_never_matches_a_bound_one():
    # a free y on one side is not the bound y on the other, either way round
    assert not term_preorder(M("\\x. y"), M("\\y. y"))
    assert not term_preorder(M("\\y. y"), M("\\x. y"))
    assert not term_preorder(M("let x = 1 in y"), M("let y = 1 in y"))
    assert not term_preorder(M("let y = 1 in y"), M("let x = 1 in y"))
    assert not term_preorder(
        M("case z {A x -> {V = y, W = 1}}"), M("case z {A y -> {V = y}}")
    )
    assert not term_preorder(M("case z {A y -> {V = y}}"), M("case z {A x -> {V = y}}"))
    assert term_preorder(M("\\x. y"), M("\\z. y"))


def test_preorder_is_false_on_casts_and_type_level_forms():
    assert not term_preorder(M("x :> {A:Int}"), M("x :> {A:Int}"))
    src = "(/\\r:Row!{Name}. \\x:{Name:String; r}. x.Name) @ [Age:Int]"
    assert not term_preorder(M(src), M(src))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_300_operand_sum_checks_in_two_frames_per_operand():
    # the largest `+` chain the eval-scale benchmark decides under Python's
    # default limit of 1,000 frames; checking walks it two frames per
    # operand, so a walker that added a frame per nesting level fails here
    ops = [i % 9 + 1 for i in range(300)]
    term = M(" + ".join(map(str, ops)))
    cfg = preset("lam")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 2 * len(ops) + 50)
    try:
        ty = type_check(cfg, {}, {}, term).type
        result, steps = reduction_trace(term, relations_for(cfg))
    finally:
        sys.setrecursionlimit(limit)
    assert show_type(ty) == "Int"
    assert result == Lit(sum(ops)) and len(steps) == 299


def test_a_300_operand_sum_infers_in_two_frames_per_operand():
    # inference walks a term as checking does: ``rec`` and the form's rule
    ops = [i % 9 + 1 for i in range(300)]
    term = M(" + ".join(map(str, ops)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 2 * len(ops) + 50)
    try:
        scheme = infer(preset("rec-row1"), {}, {}, term)
    finally:
        sys.setrecursionlimit(limit)
    assert show_type(scheme.body) == "Int"
