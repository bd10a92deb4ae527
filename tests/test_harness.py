"""Term generator, property checkers, and the report plumbing around them."""

import collections
import dataclasses
import functools
import hashlib
import math
import random
import sys
from pathlib import Path

import pytest

from rowlab import (
    cli,
    dynamics,
    harness,
    infer as infer_module,
    parser,
    pretty,
    statics,
    syntax,
    translate,
)

from rowlab.config import PRESETS, UsageError, preset
from rowlab.dynamics import erase, relations_for, step_all
from rowlab.harness import (
    GenError,
    GenSpec,
    PropertyReport,
    _Memo,
    _Reach,
    ambient_delta,
    ambient_gamma,
    check_erasure,
    check_preorder_correspondence,
    check_reflection,
    check_simulation,
    check_subject_reduction,
    check_subst_lemma,
    check_type_preservation,
    check_weak_preservation,
    gen_subst_pair,
    gen_typed_term,
    run_property,
    term_size,
)
from rowlab.infer import infer
from rowlab.parser import parse_term_str, parse_type_str
from rowlab.pretty import show_scheme, show_term, show_type
from rowlab.statics import RankError, type_check
from rowlab.syntax import (
    SHAPES,
    Arrow,
    Base,
    ForallRow,
    KRow,
    Lit,
    Node,
    Present,
    Record,
    Row,
    TyVar,
    Upcast,
    Variant,
    alpha_eq,
    children,
    match_node,
)
from rowlab.translate import TRANSLATIONS, TranslationError, run_translation, trans_a, trans_b

M = parse_term_str


def deriv(cfg_name, src):
    cfg = preset(cfg_name)
    return type_check(cfg, ambient_delta(), ambient_gamma(), M(src))


def contains_upcast(term):
    if isinstance(term, Upcast):
        return True
    return any(
        contains_upcast(getattr(term, f))
        for f in ("fn", "arg", "body", "payload", "scrutinee", "term", "bound")
        if hasattr(term, f)
    ) or any(
        contains_upcast(v)
        for f in ("fields",)
        if hasattr(term, f)
        for _, v in getattr(term, f)
    ) or any(
        contains_upcast(b) for _, _, b in getattr(term, "branches", ())
    )


# ---------------------------------------------------------------------------
# Generator


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generated_terms_typecheck(name):
    cfg = preset(name)
    spec = GenSpec(cfg, max_size=8, seed=1)
    for i in range(8):
        term, d = gen_typed_term(spec, i)
        if cfg.rank1:
            assert d is None
            # bare term: inference is the only typing story
            infer(cfg, ambient_delta(), ambient_gamma(), term)
        else:
            assert d is not None
            assert alpha_eq(d.term, term)


def test_generator_is_deterministic():
    spec = GenSpec(preset("var-sub"), max_size=8, seed=9)
    for i in range(6):
        a, _ = gen_typed_term(spec, i)
        b, _ = gen_typed_term(spec, i)
        assert show_term(a) == show_term(b)


def test_distinct_indices_vary():
    spec = GenSpec(preset("rec-sub"), max_size=8, seed=9)
    shown = {show_term(gen_typed_term(spec, i)[0]) for i in range(12)}
    assert len(shown) > 6


def test_upcast_density_on_subtyped_config():
    # at least 30% of size-8-or-larger terms must exercise a cast
    spec = GenSpec(preset("var-sub"), max_size=8, seed=0)
    big = []
    for i in range(150):
        term, _ = gen_typed_term(spec, i)
        if term_size(term) >= 8:
            big.append(contains_upcast(term))
    assert len(big) >= 25
    assert sum(big) / len(big) >= 0.30


def test_rank1_terms_are_bare():
    spec = GenSpec(preset("rec-row1"), max_size=8, seed=3)
    for i in range(6):
        term, _ = gen_typed_term(spec, i)
        assert not contains_upcast(term)
        assert alpha_eq(erase(term), term)


def test_term_size_counts_nodes():
    assert term_size(M("x")) == 1
    assert term_size(M("\\x:Int. x")) == 2
    assert term_size(M("{Age = 1, Name = y}")) == 3
    assert term_size(M("(\\x:Int. x) 3")) == 4


def test_bad_spec_rejected():
    with pytest.raises(UsageError):
        gen_typed_term(GenSpec(preset("var"), max_size=0))


def test_subst_pair_is_well_typed():
    spec = GenSpec(preset("rec-sub"), max_size=8, seed=4)
    for i in range(5):
        dm, dn, var = gen_subst_pair(spec, i)
        assert var not in ambient_gamma()
        # n fills m's hole at the right type
        rep = check_subst_lemma("rec-sub-to-rec", dm, dn, var)
        assert rep.passed, rep.failures[:1]


def test_subst_pairs_refuse_rank1_presets():
    # their generated terms are bare: there is no derivation to pair
    for name in ("var-row1", "rec-pre1"):
        with pytest.raises(GenError, match=f"in {name}: its terms are bare"):
            gen_subst_pair(GenSpec(preset(name), max_size=8, seed=0), 0)


@pytest.fixture
def term_for_calls(monkeypatch):
    """Count ``_Gen.term_for`` calls per generator, that is per attempt."""
    calls = collections.Counter()
    real = harness._Gen.term_for

    def counted(self, *args):
        calls[self] += 1
        return real(self, *args)

    monkeypatch.setattr(harness._Gen, "term_for", counted)
    return calls


@pytest.mark.parametrize("size", (8, 12, 16))
def test_no_generation_attempt_exceeds_its_bound(term_for_calls, size):
    # the call that finds the bound spent raises before it draws anything
    bound = harness._GEN_CALLS_PER_NODE * size
    for name in sorted(PRESETS):
        spec = GenSpec(preset(name), max_size=size, seed=0)
        for i in range(40):
            for gen in (gen_typed_term, gen_subst_pair):
                term_for_calls.clear()
                try:
                    gen(spec, i)
                except GenError:
                    pass
                assert max(term_for_calls.values(), default=0) <= bound + 1, (name, i)


def test_slow_generation_tail_is_retried_within_its_bound(term_for_calls):
    # without the bound, its first attempt makes 374,175 calls (about 4 s)
    spec = GenSpec(preset("rec-sub"), max_size=16, seed=0)
    term, _ = gen_typed_term(spec, 26)
    assert sum(term_for_calls.values()) <= 10 * harness._GEN_CALLS_PER_NODE * 16
    type_check(spec.config, ambient_delta(), ambient_gamma(), term)


def test_abandoned_attempts_stay_cheap(term_for_calls):
    # at 64 calls per node these 400 terms took 30,092 calls, 19,994 of them
    # in attempts that were abandoned; at 24, 17,501
    for name in ("rec-sub", "var-rec-sub-full"):
        spec = GenSpec(preset(name), max_size=12, seed=0)
        for i in range(200):
            gen_typed_term(spec, i)
    assert sum(term_for_calls.values()) <= 18_000


def _scanned(gamma, goal):
    """The variables ``term_for`` once found by comparing every one."""
    return [x for x in gamma if syntax.type_equal(gamma[x], goal)]


def _hand_made_types():
    a, b, i = TyVar("a0"), TyVar("a1"), Base("Int")
    row = Row((("Name", Present(), i), ("Age", Present(), a)))
    dup = Row((("Age", Present(), i), ("Age", Present(), i)))
    return [
        ForallRow("r", KRow(frozenset()), Record(Row((("Age", Present(), a),), "r"))),
        ForallRow("s", KRow(frozenset()), Record(Row((("Age", Present(), a),), "s"))),
        ForallRow("r", KRow(frozenset()), Record(Row((("Age", Present(), b),), "r"))),
        Record(row),
        Variant(row),
        Record(Row(tuple(reversed(row.entries)))),
        Record(dup),
        Variant(dup),
        Arrow(Record(dup), i),
        i,
        a,
    ]


def test_scope_index_finds_the_variables_a_scan_finds():
    hand = _hand_made_types()
    cases = [(dict(zip((f"h{k}" for k in range(len(hand))), hand)), hand)]
    for k in range(60):
        gen = harness._Gen(random.Random(k), GenSpec(preset("var-rec-sub-full")))
        gamma = {**ambient_gamma(), **{f"v{j}": gen._raw_type(1 + j % 4) for j in range(8)}}
        cases.append((gamma, [gen._raw_type(1 + j % 4) for j in range(8)] + hand))
    for gamma, goals in cases:
        # built whole, and one binder at a time
        stepwise = harness._Scope()
        for name, ty in gamma.items():
            stepwise = stepwise.bind(name, ty)
        for scope in (harness._Scope(gamma), stepwise):
            assert dict(scope) == gamma
            for goal in [*gamma.values(), *goals]:
                assert list(scope.names_of(goal)) == _scanned(gamma, goal), goal
    # a rebound name keeps its place in scope order
    scope = harness._Scope(cases[0][0]).bind("h0", Base("Int"))
    want = {**cases[0][0], "h0": Base("Int")}
    assert list(scope.names_of(Base("Int"))) == _scanned(want, Base("Int"))
    assert list(scope.names_of(hand[0])) == _scanned(want, hand[0]) == ["h1"]


def test_generation_compares_and_prints_no_types(monkeypatch):
    # variables come from the scope's index, and a dead end's text is only
    # formatted when read: none of the retried dead ends is read here
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(harness, "type_equal", counting("type_equal", harness.type_equal))
    for mod in (harness, statics, infer_module):
        monkeypatch.setattr(mod, "show_type", counting("show_type", mod.show_type))
    for name in ("rec-sub", "var-rec-sub-full"):
        spec = GenSpec(preset(name), max_size=12, seed=0)
        for i in range(40):
            gen_typed_term(spec, i)
            gen_subst_pair(spec, i)
    assert calls == {}


def test_dead_end_text_is_unchanged_once_read(monkeypatch, capsys):
    goal = Arrow(Base("Int"), TyVar("a0"))
    gen = harness._Gen(random.Random(0), GenSpec(preset("rec-sub")))
    with pytest.raises(GenError) as dead_end:
        gen.term_for(goal, 1, {})  # too small for a lambda, and no variable
    assert str(dead_end.value) == f"no production inhabits {show_type(goal)}"
    # every attempt ends in a dead end: the CLI prints the last one's text
    goals = []
    real = harness._Gen.term_for

    def recorded(self, goal, size, gamma):
        goals.append(goal)
        return real(self, goal, size, gamma)

    def no_production(self, *args):
        raise GenError("no such production")

    # no variable is offered, and every production of the table fails
    productions = harness._productions
    monkeypatch.setattr(harness._Gen, "term_for", recorded)
    monkeypatch.setattr(harness._Scope, "names_of", lambda self, goal: ())
    monkeypatch.setattr(harness, "_productions", lambda config: {
        form: [(*p[:-1], no_production) for p in table]
        for form, table in productions(config).items()
    })
    code = cli.run(["verify", "--property", "subject-reduction", "--calculus", "rec-sub",
                    "--count", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "rowlab: error: generation budget exhausted: "
        f"no production inhabits {show_type(goals[-1])}\n"
    )


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_tally_and_merge():
    a = PropertyReport("demo")
    a.tally("c1", Lit(1), True, "x", "y")
    a.tally("c2", Lit(2), False, "wanted", "got")
    b = PropertyReport("demo")
    b.tally("c3", Lit(3), True, "x", "y")
    m = a.merge(b)
    assert m.cases == 3
    assert not m.passed
    assert m.failures == [("c2", "2", "wanted", "got")]
    assert "FAIL" in m.summary()
    assert b.passed and "pass" in b.summary()
    data = m.to_json()
    assert data["cases"] == 3 and data["passed"] is False


def test_report_text_is_rendered_only_for_a_failure():
    rendered = []

    def text(s):
        return lambda: rendered.append(s) or s

    rep = PropertyReport("demo")
    rep.tally("c1", Lit(1), True, text("x"), text("y"))
    assert rendered == []
    rep.tally("c2", Lit(2), False, text("wanted"), "got")
    assert rendered == ["wanted"]
    assert rep.failures == [("c2", "2", "wanted", "got")]


@pytest.mark.parametrize("prop", ["erasure", "substitution"])
def test_passing_sweeps_render_no_terms(prop, monkeypatch):
    rendered = []
    show = harness.show_term
    monkeypatch.setattr(harness, "show_term", lambda t: rendered.append(t) or show(t))
    rep = run_property(prop, translation="rec-sub-to-pre", count=20, seed=3)
    assert rep.passed and rep.cases == 20
    assert rendered == []


def test_forced_failures_report_the_text_they_did(monkeypatch):
    """Each one-case check, made to fail, reports the text it rendered
    eagerly before: both sides of the failed comparison, printed."""
    spec = GenSpec(preset("rec-sub"), max_size=8, seed=3)
    d = gen_typed_term(spec, 4)[1]
    monkeypatch.setattr(harness, "alpha_eq", lambda *args: False)
    monkeypatch.setattr(harness, "type_equal", lambda *args: False)
    rep = check_erasure("rec-sub-to-pre", d, "e")
    lhs = erase(run_translation("rec-sub-to-pre", d))
    assert rep.failures == [
        ("e", show_term(d.term), show_term(erase(d.term)), show_term(lhs))
    ]
    dm, dn, var = gen_subst_pair(spec, 4)
    rep = check_subst_lemma("rec-sub-to-rec", dm, dn, var, "s")
    tm, tn = (run_translation("rec-sub-to-rec", x) for x in (dm, dn))
    combined = harness.subst_term(dm.term, dn.term, var)
    gamma = {k: v for k, v in dm.gamma.items() if k != var}
    dc = type_check(preset("rec-sub"), dict(dm.delta), gamma, combined)
    assert rep.failures == [
        (
            "s", show_term(dm.term),
            show_term(harness.subst_term(tm, tn, var)),
            show_term(run_translation("rec-sub-to-rec", dc)),
        )
    ]
    t = TRANSLATIONS["rec-sub-to-rec"]
    rep = check_type_preservation("rec-sub-to-rec", d, "t")
    out = type_check(
        preset("rec"), dict(d.delta),
        {x: t.type_map(a) for x, a in d.gamma.items()},
        run_translation("rec-sub-to-rec", d),
    )
    assert rep.failures == [
        ("t", show_term(d.term), show_type(t.type_map(d.type)), show_type(out.type))
    ]
    # into a rank-1 target: the output's scheme against the row's map of the
    # cast-free type, both under the mapped context
    monkeypatch.setattr(harness, "weak_sub_instance", lambda *args: False)
    src = preset("rec-sub-full-rank2")
    dw = gen_typed_term(GenSpec(src, max_size=8, seed=3), 4)[1]
    t = TRANSLATIONS["erase-upcasts"]
    rep = check_type_preservation("erase-upcasts", dw, "w")
    tgamma = {x: t.type_map(a) for x, a in dw.gamma.items()}
    out = run_translation("erase-upcasts", dw)
    sigma = infer(preset("rec-row1"), dict(dw.delta), tgamma, out)
    bare = syntax.strip(dw.term, (Upcast,))
    bound = t.type_map(type_check(src.with_app_sub(), dict(dw.delta), dw.gamma, bare).type)
    assert rep.failures == [("w", show_term(dw.term), show_scheme(bound), show_scheme(sigma))]
    rep = check_subject_reduction(preset("rec-sub"), d, 1, "r")
    got = [
        ("r@0", show_term(d.term), show_type(d.type), show_type(nd.type))
        for s in step_all(d.term, relations_for(preset("rec-sub")))
        for nd in [type_check(preset("rec-sub"), d.delta, d.gamma, s.term)]
    ]
    assert got and rep.failures == got


def test_report_merge_requires_same_property():
    with pytest.raises(ValueError):
        PropertyReport("a").merge(PropertyReport("b"))


def test_run_property_argument_checks():
    with pytest.raises(UsageError):
        run_property("simulation")
    with pytest.raises(UsageError):
        run_property("subject-reduction")
    with pytest.raises(UsageError):
        run_property("no-such-property", count=1)
    for depth in (0, -3):
        with pytest.raises(UsageError, match="depth must be at least 1"):
            run_property(
                "simulation", translation="rec-sub-to-rec", count=1, depth=depth
            )


@pytest.mark.parametrize(
    "prop,tid",
    [
        ("erasure", "var-sub-to-var"),
        ("erasure", "rec-sub-to-rec"),
        ("erasure", "full-sub-coerce"),
        ("simulation", "full-sub-coerce"),
        ("reflection", "rec-co-to-pre"),
        ("preorder-correspondence", "rec-sub-to-rec"),
        ("simulation", "no-such-translation"),
    ],
)
def test_run_property_refuses_pairs_no_theorem_covers(prop, tid):
    with pytest.raises(UsageError, match=f"no theorem covers {prop} on {tid}"):
        run_property(prop, translation=tid, count=1)


def _registry_accepts(prop: str, subject: str) -> bool:
    """Whether ``run_property`` runs ``prop`` on ``subject``: a row must list
    the property, and a calculus must pass the property's gate."""
    if subject in TRANSLATIONS:
        return prop in TRANSLATIONS[subject].properties
    checks = harness.CALCULUS_CHECKS
    return prop in checks and checks[prop][0](preset(subject))


def test_benchmark_pairs_are_ones_the_registry_accepts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    for prop, subject in workloads.SEARCH_PAIRS + workloads.SWEEP_PAIRS:
        assert _registry_accepts(prop, subject), (prop, subject)
    # a pair the gate refuses, though its subject is a preset
    assert not _registry_accepts("preorder-correspondence", "rec-row1")
    with pytest.raises(UsageError):
        run_property("preorder-correspondence", config="rec-row1", count=1)


RECORD_SRC = ("rec-sub", "{Age = 1}.Age")
VARIANT_SRC = ("var-sub", "case (<Year 1984> : [Year:Int]) {Year y -> y}")
ROW_ABS_SRC = ("rec-row", "/\\r:Row!{Name}. \\x:{Name:String; r}. x.Name")


# a derivation from outside each translation's source family
WRONG_FAMILY = {
    "var-sub-to-var": RECORD_SRC,
    "var-sub-to-row": RECORD_SRC,
    "rec-sub-to-rec": VARIANT_SRC,
    "rec-sub-to-pre": VARIANT_SRC,
    "full-sub-coerce": ROW_ABS_SRC,
    "rec-co-to-pre": VARIANT_SRC,
}


@pytest.mark.parametrize("tid", list(WRONG_FAMILY))
def test_mismatched_derivation_fails_loudly(tid):
    d = deriv(*WRONG_FAMILY[tid])
    with pytest.raises(TranslationError, match="unexpected rule"):
        TRANSLATIONS[tid].term(d)
    with pytest.raises(TranslationError, match=f"not from {d.calculus}$"):
        check_simulation(tid, d)


def test_a_derivation_from_another_calculus_is_refused():
    # var-rec-sub-full checks the cast, but no pair of erase-upcasts (or of
    # rec-sub-to-rec, for the checks only it lists) starts there
    d = deriv("var-rec-sub-full", RECORD_UP)
    assert d.calculus == "var-rec-sub-full"
    gamma = {**ambient_gamma(), "z0": parse_type_str("{Age:Int}")}
    hole = {
        name: type_check(preset(name), ambient_delta(), gamma, M("z0.Age"))
        for name in ("var-rec-sub-full", "rec-sub")
    }
    refusals = [
        lambda: run_translation("erase-upcasts", d),
        lambda: check_type_preservation("erase-upcasts", d),
        lambda: check_weak_preservation("erase-upcasts", d),
        lambda: check_erasure("erase-upcasts", d),
        lambda: check_simulation("rec-sub-to-rec", d),
        lambda: check_reflection("rec-sub-to-rec", d),
        lambda: check_subst_lemma("rec-sub-to-rec", hole["var-rec-sub-full"], d, "z0"),
        lambda: check_subst_lemma("rec-sub-to-rec", hole["rec-sub"], d, "z0"),
    ]
    for refused in refusals:
        with pytest.raises(TranslationError, match="not from var-rec-sub-full$"):
            refused()


# ---------------------------------------------------------------------------
# Step-pattern goldens

VARIANT_UP = "(<Year 1984> : [Year:Int]) :> [Age:Int; Year:Int]"
RECORD_UP = '({Name = "Alice", Age = 9} :> {Name:String}).Name'


def test_variant_upcast_maps_to_one_case_step():
    d = deriv("var-sub", VARIANT_UP)
    rels = relations_for(preset("var"))
    tgt = run_translation("var-sub-to-var", d)
    steps = list(step_all(tgt, rels))
    assert [s.tag for s in steps] == ["beta-case"]
    src_step = next(iter(step_all(d.term, relations_for(preset("var-sub")))))
    nd = deriv("var-sub", show_term(src_step.term))
    assert alpha_eq(steps[0].term, run_translation("var-sub-to-var", nd))


def test_row_translation_hides_beta_behind_an_administrative_step():
    d = deriv("var-sub", "case (<Year 1984> : [Year:Int]) {Year y -> y}")
    rels = relations_for(preset("var-row"))
    tgt = run_translation("var-sub-to-row", d)
    tags = [s.tag for s in step_all(tgt, rels)]
    assert "beta-case" not in tags
    assert tags.count("tau-row") == 1
    tau = next(s for s in step_all(tgt, rels) if s.tag == "tau-row")
    nd = deriv("var-sub", "1984")
    landed = [
        s.term for s in step_all(tau.term, rels) if s.tag == "beta-case"
    ]
    assert any(
        alpha_eq(t, run_translation("var-sub-to-row", nd)) for t in landed
    )


def test_record_upcast_expands_to_projection_that_beta_reaches():
    d = deriv("rec-sub", RECORD_UP)
    rels = relations_for(preset("rec"))
    tgt = run_translation("rec-sub-to-rec", d)
    assert alpha_eq(tgt, M('{Name = {Name = "Alice", Age = 9}.Name}.Name'))
    src_step = next(iter(step_all(d.term, relations_for(preset("rec-sub")))))
    nd = deriv("rec-sub", show_term(src_step.term))
    expected = run_translation("rec-sub-to-rec", nd)
    assert any(
        alpha_eq(s.term, expected)
        for s in step_all(tgt, rels)
        if s.tag.startswith("beta")
    )


def test_presence_translation_absorbs_upcast_into_nu_steps():
    d = deriv("rec-sub", RECORD_UP)
    rels = relations_for(preset("rec-pre"))
    tgt = run_translation("rec-sub-to-pre", d)
    nu_seen = 0
    cur = tgt
    while True:
        nus = [s for s in step_all(cur, rels) if s.tag == "nu-pres"]
        if not nus:
            break
        nu_seen += 1
        cur = nus[0].term
    assert nu_seen >= 1
    src_step = next(iter(step_all(d.term, relations_for(preset("rec-sub")))))
    nd = deriv("rec-sub", show_term(src_step.term))
    assert alpha_eq(cur, run_translation("rec-sub-to-pre", nd))


@pytest.mark.parametrize(
    "tid",
    ["var-sub-to-var", "var-sub-to-row", "rec-sub-to-rec", "rec-sub-to-pre"],
)
def test_golden_terms_pass_both_directions(tid):
    src = VARIANT_UP if tid.startswith("var") else RECORD_UP
    d = deriv(TRANSLATIONS[tid].pairs[0][0], src)
    assert check_simulation(tid, d, depth=3).passed
    assert check_reflection(tid, d, depth=3).passed


def test_preorder_golden():
    d = deriv("var-rec-sub-full", RECORD_UP)
    rep = check_preorder_correspondence(d, depth=3)
    assert rep.passed and rep.cases >= 2


def test_weak_preservation_golden():
    d = deriv(
        "rec-sub-full-rank2",
        '(\\x:{Name:String}. x.Name) ({Name = "Alice", Age = 9} :> {Name:String})',
    )
    rep = check_weak_preservation("erase-upcasts", d)
    assert rep.passed, rep.failures[:1]


def test_weak_preservation_maps_the_context():
    # inference sees y2 at its bound, forall r. {Age:Int; r} -> Int, so the
    # wider argument left by the erased cast fits; given the source context
    # unmapped, it fails with "label Name is present on one row but the
    # other row cannot contain it"
    cfg = preset("rec-sub-full-rank2")
    delta, gamma, term = parser.parse_file_str(
        "-- env: y2 : {Age:Int} -> Int\n"
        'y2 ({Age = 1, Name = "Ada"} :> {Age:Int})\n'
    )
    d = type_check(cfg, delta, gamma, term)
    rep = check_type_preservation("erase-upcasts", d)
    assert (rep.cases, rep.failures) == (1, [])


def _erase_upcasts_preservation(monkeypatch, **row):
    """type-preservation over 60 inputs of erase-upcasts with ``row``'s
    fields replaced."""
    t = dataclasses.replace(TRANSLATIONS["erase-upcasts"], **row)
    monkeypatch.setitem(TRANSLATIONS, "erase-upcasts", t)
    rep = run_property("type-preservation", translation="erase-upcasts", count=60, seed=0)
    assert rep.cases == 60
    return rep


@pytest.mark.parametrize("term", [
    lambda d: d.term,  # keeps every cast
    lambda d: erase((d.premises or (d,))[0].term),  # erases the wrong subterm
], ids=["keeps-casts", "first-premise"])
def test_weak_preservation_types_the_translations_output(monkeypatch, term):
    assert _erase_upcasts_preservation(monkeypatch, term=term).failures


def test_weak_preservation_bounds_by_the_rows_type_map(monkeypatch):
    # trans_b opens result records too, which a principal scheme with a
    # closed result record is not weakly below
    assert _erase_upcasts_preservation(monkeypatch, type_map=trans_b).failures
    assert _erase_upcasts_preservation(monkeypatch, type_map=trans_a).passed


# Terms past record rank 2, each with the counterexample that erasing its
# casts into rank-1 inference gives from unrestricted full subtyping: a
# lambda-bound function used at two record widths, and one passed where a
# wider domain is expected
RANK3_WITNESSES = [
    (
        "\\g:{A:Int} -> Int. {P = g ({A = 1, B = 2} :> {A:Int}), Q = g {A = 3}}",
        "inferred scheme weakly below the translated bound",
        "InferError: label B is present on one row but the other row cannot "
        "contain it (while typing g {A = 3})",
    ),
    (
        "\\f:({A:Int} -> Int) -> Int. \\g:{} -> Int. f (g :> {A:Int} -> Int)",
        "(({A:Int} -> Int) -> Int) -> ({} -> Int) -> Int",
        "forall a0:Type a1:Type. (a0 -> a1) -> a0 -> a1",
    ),
]


@pytest.mark.parametrize("src,expected,got", RANK3_WITNESSES, ids=["widths", "domain"])
def test_rank3_witnesses_fail_weak_preservation(monkeypatch, src, expected, got):
    term = parse_term_str(src)
    for name in ("rec-sub-full-rank2", "rec-sub-full-rank1"):
        with pytest.raises(RankError):
            type_check(preset(name), {}, {}, term)
    row = TRANSLATIONS["erase-upcasts"]
    unlimited = dataclasses.replace(row, pairs=(("rec-sub-full", "rec-row1"),))
    monkeypatch.setitem(TRANSLATIONS, "erase-upcasts", unlimited)
    d = type_check(preset("rec-sub-full"), {}, {}, term)
    rep = check_type_preservation("erase-upcasts", d, "w")
    assert rep.failures == [("w", src, expected, got)]


def test_every_row_states_substitution_and_t7_its_behaviour_theorem():
    assert all("substitution" in t.properties for t in TRANSLATIONS.values())
    assert sorted(
        tid for tid, t in TRANSLATIONS.items() if "preorder-correspondence" in t.properties
    ) == ["erase-upcasts", "erase-variant-upcasts"]


def test_the_check_tables_cover_exactly_what_the_registry_and_calculi_state():
    listed = {p for t in TRANSLATIONS.values() for p in t.properties}
    assert set(harness.ROW_CHECKS) == listed
    assert set(harness.CALCULUS_CHECKS) == {"subject-reduction", "preorder-correspondence"}


STRUCTURAL = sorted(n for n, c in PRESETS.items() if c.subtyping in ("covariant", "full"))


def test_the_structural_calculi_are_the_covariant_and_full_presets():
    assert STRUCTURAL == sorted(n for n, c in PRESETS.items() if c.structural_subtyping)
    assert len(STRUCTURAL) == 9 and "var-rec-sub-full" in STRUCTURAL


@pytest.mark.parametrize("name", STRUCTURAL)
def test_preorder_runs_on_every_structural_calculus(name):
    rep = run_property("preorder-correspondence", config=name, count=4, seed=0)
    assert rep.passed and rep.prop == "preorder-correspondence", rep.failures[:1]


@pytest.mark.parametrize("name", sorted(set(PRESETS) - set(STRUCTURAL)))
def test_preorder_refuses_every_other_calculus(name):
    with pytest.raises(UsageError, match=f"no theorem covers preorder-correspondence on {name}"):
        run_property("preorder-correspondence", config=name, count=1)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({}, "needs a translation id or a calculus id$"),
        ({"translation": "erase-upcasts", "config": "var-rec-sub-full"},
         "needs a translation id or a calculus id, not both"),
    ],
)
def test_preorder_takes_exactly_one_subject(kwargs, message):
    with pytest.raises(UsageError, match=message):
        run_property("preorder-correspondence", count=1, **kwargs)


def test_a_row_has_a_type_map_exactly_when_it_states_type_preservation():
    for t in TRANSLATIONS.values():
        assert (t.type_map is not None) == ("type-preservation" in t.properties), t.tid


def test_subject_reduction_golden():
    cfg = preset("rec-sub")
    rep = check_subject_reduction(cfg, deriv("rec-sub", RECORD_UP), depth=4)
    assert rep.passed and rep.cases >= 2


def test_erasure_golden():
    d = deriv("rec-sub", RECORD_UP)
    rep = check_erasure("rec-sub-to-pre", d)
    assert rep.passed
    tgt = run_translation("rec-sub-to-pre", d)
    assert alpha_eq(erase(tgt), erase(d.term))


def test_preservation_golden():
    d = deriv("var-sub", VARIANT_UP)
    assert check_type_preservation("var-sub-to-var", d).passed
    assert check_type_preservation("var-sub-to-row", d).passed


# ---------------------------------------------------------------------------
# The theorem patterns on the registry entries

VARIANT_CASE = "case <Year 1984> : [Year:Int] { Year y -> 1 + 2 }"
RECORD_WIDE = '{Age = 9, Name = "Alice", Size = 1} :> {Age:Int; Name:String}'
# the same cast with its fields out of label order: the search pairs the
# fields of two record literals by label, not by position
RECORD_UNSORTED = '{Name = "Alice", Age = 9, Size = 1} :> {Age:Int; Name:String}'
GOLDEN = {
    "var-sub": (VARIANT_UP, VARIANT_CASE),
    "rec-sub": (RECORD_UP, RECORD_WIDE, RECORD_UNSORTED),
}

# the class of every rewrite tag dynamics emits
STEP_CLASSES = {
    "beta-lam": "beta", "beta-case": "beta", "beta-project": "beta",
    "beta-let": "beta", "beta-prim": "beta", "nested-upcast": "nested",
    "upcast-variant": "upcast", "upcast-record": "upcast", "upcast-var": "upcast",
    "upcast-lam": "upcast", "tau-row": "tau", "tau-pres": "tau", "nu-row": "nu",
    "nu-pres": "nu",
}


def _stepped_tags():
    """The tags of the steps of generated terms of every preset and of
    their translations."""
    tags = set()
    for name in sorted(PRESETS):
        cfg = preset(name)
        spec = GenSpec(cfg, max_size=8, seed=0)
        for i in range(10):
            term, d = gen_typed_term(spec, i)
            subjects = [(term, cfg)]
            for tid, t in TRANSLATIONS.items():
                if d is not None and t.pairs[0][0] == name:
                    subjects.append((run_translation(tid, d), preset(t.pairs[0][1])))
            for u, c in subjects:
                for rels in (relations_for(c), relations_for(c, full_upcast=True)):
                    tags |= {s.tag for s in step_all(u, rels)}
    return tags


def test_patterns_name_step_classes_and_known_modes():
    tags = _stepped_tags()
    assert tags <= STEP_CLASSES.keys()
    assert all(harness._step_class(tag) == STEP_CLASSES[tag] for tag in tags)
    classes = {harness._step_class(tag) for tag in tags}
    assert classes == set(STEP_CLASSES.values())
    for t in TRANSLATIONS.values():
        runs = list(t.simulation.values()) + [run for run, _, _ in t.reflection]
        named = set(t.simulation).union(*(allowed for _, allowed, _ in t.reflection))
        named |= {token.rstrip("?*") for run in runs for token in run.split()}
        assert named <= classes, t.tid
        assert {mode for *_, mode in t.reflection} <= {"exact", "tau", "fwd"}, t.tid


@pytest.mark.parametrize("tid", sorted(TRANSLATIONS))
def test_step_properties_exactly_where_patterns_are(tid):
    t = TRANSLATIONS[tid]
    assert ("simulation" in t.properties) == bool(t.simulation)
    assert ("reflection" in t.properties) == bool(t.reflection)


def test_unknown_pattern_or_mode_is_refused(monkeypatch):
    t = TRANSLATIONS["rec-sub-to-rec"]
    d = deriv("rec-sub", RECORD_UP)
    monkeypatch.setitem(
        TRANSLATIONS, t.tid,
        dataclasses.replace(t, reflection=(("beta", {"beta"}, "near"),)),
    )
    with pytest.raises(ValueError, match="unknown match mode 'near'"):
        check_reflection(t.tid, d)
    monkeypatch.setitem(
        TRANSLATIONS, t.tid,
        dataclasses.replace(t, simulation={"upcast": "beta* nu"}),
    )
    with pytest.raises(ValueError, match="no search for the pattern 'beta\\* nu'"):
        check_simulation(t.tid, d)


# each mutant states a theorem the translation does not satisfy, and some
# golden input refutes it
PATTERN_MUTANTS = [
    ("var-sub-to-var", "simulation", {"beta": "beta", "upcast": "nu"}),
    ("var-sub-to-var", "reflection", (("beta", {"beta"}, "exact"),)),
    ("var-sub-to-row", "simulation", {"beta": "beta", "upcast": "nu"}),
    ("var-sub-to-row", "reflection", (
        ("tau? beta", {"beta"}, "exact"), ("nu", {"upcast", "nested"}, "exact"),
    )),
    ("rec-sub-to-rec", "simulation", {"beta": "beta", "upcast": "beta"}),
    ("rec-sub-to-rec", "reflection", (("beta", {"beta", "upcast", "nested"}, "exact"),)),
    ("rec-sub-to-pre", "simulation", {"beta": "tau* beta", "upcast": "nu"}),
    ("rec-sub-to-pre", "reflection", (
        ("tau* beta", {"beta"}, "tau"), ("nu", {"upcast", "nested"}, "exact"),
    )),
]


@pytest.mark.parametrize("tid,prop,mutant", PATTERN_MUTANTS)
def test_every_pattern_is_load_bearing(tid, prop, mutant, monkeypatch):
    t = TRANSLATIONS[tid]
    check = check_simulation if prop == "simulation" else check_reflection
    golden = [deriv(t.pairs[0][0], src) for src in GOLDEN[t.pairs[0][0]]]
    assert all(check(tid, d, depth=3).passed for d in golden)
    monkeypatch.setitem(TRANSLATIONS, tid, dataclasses.replace(t, **{prop: mutant}))
    assert not all(check(tid, d, depth=3).passed for d in golden)


# ---------------------------------------------------------------------------
# Randomized sweeps (small; the acceptance suite runs the big ones)


@pytest.mark.parametrize(
    "tid", sorted(t.tid for t in TRANSLATIONS.values() if "type-preservation" in t.properties)
)
def test_type_preservation_sweep(tid):
    rep = run_property("type-preservation", translation=tid, count=10, seed=2)
    assert rep.passed, rep.failures[:2]
    assert rep.cases == 10


@pytest.mark.parametrize(
    "tid,prop",
    [(tid, prop) for tid, t in sorted(TRANSLATIONS.items()) for prop in t.properties],
)
def test_every_pair_is_generated_from_and_checked(tid, prop, monkeypatch):
    # at count 2P, input i comes from pair i mod P: each pair's source
    # generates twice, and each generated input is checked
    sources = [source for source, _ in TRANSLATIONS[tid].pairs]
    made = []
    for name in ("gen_typed_term", "gen_subst_pair"):
        real = getattr(harness, name)

        def recorded(spec, index, real=real):
            made.append(spec.config.name)
            return real(spec, index)

        monkeypatch.setattr(harness, name, recorded)
    rep = run_property(prop, translation=tid, count=2 * len(sources), seed=0, depth=1)
    assert made == sources * 2
    assert rep.passed, rep.failures[:1]
    if prop in ("type-preservation", "erasure", "substitution"):
        assert rep.cases == 2 * len(sources)


def test_case_ids_name_the_source_when_there_are_two_pairs(monkeypatch):
    def failing(tid, deriv, cid):
        rep = harness.PropertyReport(f"erasure[{tid}]")
        rep.tally(cid, deriv.term, False, "", "")
        return rep

    monkeypatch.setattr(harness, "check_erasure", failing)
    ids = {
        tid: [f[0] for f in run_property("erasure", translation=tid, count=2).failures]
        for tid in ("erase-upcasts", "rec-sub-to-pre")
    }
    assert ids == {
        "erase-upcasts": [
            "seed=0 index=0 from=rec-sub-full-rank2",
            "seed=0 index=1 from=rec-sub-full-rank1",
        ],
        "rec-sub-to-pre": ["seed=0 index=0", "seed=0 index=1"],
    }


@pytest.mark.parametrize(
    "prop,tid",
    [
        (p, t)
        for p in ("simulation", "reflection")
        for t in (
            "var-sub-to-var", "var-sub-to-row", "rec-sub-to-rec", "rec-sub-to-pre",
        )
    ],
)
def test_correspondence_sweep(prop, tid):
    rep = run_property(prop, translation=tid, count=10, seed=2, depth=2)
    assert rep.passed, rep.failures[:2]
    # one case per proof obligation, so redex-free inputs contribute none
    assert rep.cases >= 1


@pytest.mark.parametrize(
    "tid", sorted(t.tid for t in TRANSLATIONS.values() if "erasure" in t.properties)
)
def test_erasure_sweep(tid):
    rep = run_property("erasure", translation=tid, count=10, seed=3)
    assert rep.passed, rep.failures[:2]


@pytest.mark.parametrize(
    "tid",
    ["var-sub-to-var", "var-sub-to-row", "rec-sub-to-rec", "rec-sub-to-pre"],
)
def test_substitution_sweep(tid):
    rep = run_property("substitution", translation=tid, count=10, seed=3)
    assert rep.passed, rep.failures[:2]


@pytest.mark.parametrize("cfg", ["var-sub", "rec-sub-co", "var-rec", "rec-row1"])
def test_subject_reduction_sweep(cfg):
    rep = run_property("subject-reduction", config=cfg, count=10, seed=2, depth=3)
    assert rep.passed, rep.failures[:2]


def test_preorder_sweep():
    rep = run_property(
        "preorder-correspondence", config="var-rec-sub-full", count=10, seed=2, depth=2
    )
    assert rep.passed, rep.failures[:2]


# ---------------------------------------------------------------------------
# The search on shared terms: structural keys, spine-only steps and a
# breadth-first source search for reflection


@functools.lru_cache(maxsize=None)
def rec_sub_input(index):
    """The derivation of the rec-sub term at ``index`` (size 8, seed 0)."""
    return gen_typed_term(GenSpec(preset("rec-sub"), max_size=8, seed=0), index)[1]


def unshared(term):
    """A copy of the term in which no two term nodes are one object."""
    shape = SHAPES[type(term)]
    parts = shape.children(term)
    if not parts:
        return type(term)(*(getattr(term, f) for f in term._fields))
    return shape.rebuild(term, [unshared(child) for _, child, _ in parts])


def subterms(term):
    yield term
    for _, child, _ in children(term):
        yield from subterms(child)


def key_pool():
    """Generated terms, their translations and every subterm of those, and
    small terms that differ only in a binder name, an origin mark or a
    literal's type."""
    pool = [Lit(1), Lit(0), Lit("1"), Lit(True)]
    pool += [M("(\\x:Int. x) 1"), M("(\\y:Int. y) 1"), M("\\x. x"), M("\\y. y")]
    pool += [M("\\x:{A:Int}. \\y:Int. x"), M("\\y:{A:Int}. \\x:Int. y")]
    pool += [M("f @ [A:Int]"), M("f @@ [A:Int]"), M("f @ *"), M("f @@ *")]
    pool += [M("/\\r:Row!{}. x"), M("/\\s:Row!{}. x")]
    for name in ("rec-sub", "var-sub"):
        spec = GenSpec(preset(name), max_size=8, seed=1)
        for i in range(8):
            _, d = gen_typed_term(spec, i)
            for tid, t in sorted(TRANSLATIONS.items()):
                if t.pairs[0][0] == name and tid != "erase-upcasts":
                    pool.append(run_translation(tid, d))
            pool.append(d.term)
    return [sub for t in pool for sub in subterms(t) if term_size(sub) <= 300]


def structure(x):
    """A reference for node equality: ``x`` as nested tuples, a node as its
    class and its fields, each leaf value with its type."""
    if isinstance(x, Node):
        return (type(x), *(structure(getattr(x, f)) for f in x._fields))
    if type(x) is tuple:
        return (tuple, *map(structure, x))
    return (type(x), x)


def test_search_keys_are_equal_exactly_when_the_terms_are():
    # the memos and seen sets of a check key terms by themselves: ``==`` and
    # ``hash`` must tell terms apart exactly as their structure does
    assert "__call__" not in vars(_Memo)
    pool = key_pool()
    keys = [structure(t) for t in pool]
    equal_pairs = 0
    for i, (a, ka) in enumerate(zip(pool, keys)):
        for b, kb in zip(pool[i + 1:], keys[i + 1:]):
            assert (ka == kb) == (a == b), (a, b)
            assert ka != kb or hash(a) == hash(b), (a, b)
            equal_pairs += ka == kb
    assert equal_pairs > 100 and len(set(pool)) == len(set(keys)) > 200
    assert Lit(True) != Lit(1) and len({Lit(True), Lit(1)}) == 2


def test_alpha_variants_share_a_hash_and_stay_distinct_keys():
    # a term's hash leaves out names: alpha-variants share a bucket of a
    # memo, and ``==`` keeps them apart
    pool = key_pool()
    buckets = collections.defaultdict(list)
    for t in pool:
        buckets[hash(t)].append(t)
    variants = 0
    for a in pool:
        for b in buckets[hash(a)]:
            if a != b and alpha_eq(a, b):
                assert len({a, b}) == 2 and {a: 1, b: 2}[a] == 1, (a, b)
                variants += 1
    assert variants >= 6
    # and an alpha-equal pair is never in two buckets
    assert all(hash(a) == hash(b) for a, b in zip(pool, pool[1:]) if alpha_eq(a, b))


def test_search_keys_do_not_depend_on_sharing():
    d = rec_sub_input(86)
    tm = run_translation("rec-sub-to-rec", d)
    copy = unshared(tm)
    assert term_size(tm) > 2000 and len({id(t) for t in subterms(tm)}) < 40
    assert len({id(t) for t in subterms(copy)}) == term_size(copy)
    assert copy._hash is None  # hashed anew, not read from tm
    assert copy == tm and hash(copy) == hash(tm) and len({tm, copy}) == 1


def test_deep_terms_go_through_a_checks_table():
    # two distinct 10,000-deep application chains, equal: the search's memo
    # key, its comparison and the erasure memo walk no term recursively
    a, b = Lit(0), Lit(0)
    for i in range(10_000):
        a, b = syntax.App(a, Lit(i)), syntax.App(b, Lit(i))
    memo = _Memo()
    assert a is not b and _Reach(relations_for(preset("rec")), {"beta"}, memo).go(a, b)
    erased = memo.erased(a)
    assert erased == a and memo.erased(b) is erased  # b is a's key


def test_search_pairs_only_the_live_fields_of_a_record():
    # the state differs from its goal in a field that the annotation marks
    # absent, which alpha_eq ignores: the search must ignore it too
    x = M("{A = (\\y:Int. y) 1, B = 2} : {A:Int; B^o:Int}")
    g = M("{A = 1, B = 3} : {A:Int; B^o:Int}")
    rels = relations_for(preset("rec-pre"))
    assert not alpha_eq(x, g)
    assert [alpha_eq(s.term, g) for s in step_all(x, rels)] == [True]
    assert _Reach(rels, {"beta"}, _Memo()).go(x, g)


# states that do not reach their goals under rec's beta: a search that says
# yes too easily answers yes here.  A unit check of the search, not a verdict
# test (ROADMAP 10)
NO_REACH = [
    ("{A = (\\y:Int. y) 1, B = 2}", "{A = 1, B = 3}", False),
    ("{A = 1}", "{A = 1}", True),
    ("(\\y:Int. {A = y, B = 2}) 1", "{A = 1, B = 3}", False),
]


def _no_reach_answers():
    rels = relations_for(preset("rec"))
    return [_Reach(rels, {"beta"}, _Memo()).go(M(x), M(g), need_beta)
            for x, g, need_beta in NO_REACH]


def test_search_refuses_a_goal_it_cannot_reach(monkeypatch):
    assert _no_reach_answers() == [False, False, False]
    # mutant A: a descent accepts when any child reaches its goal
    with monkeypatch.context() as m:
        m.setattr(_Reach, "_descend", lambda self, pairs, need_beta: any(
            self.go(a, b, need_beta, e, t) for a, b, e, t in pairs))
        assert _no_reach_answers() == [True, False, True]
    # mutant B: the search says yes as soon as the two heads pair
    go = _Reach.go

    def yes_on_heads(self, x, g, need_beta=False, env=(), tyenv=((), ())):
        return match_node(x, g, env, tyenv) is not None or go(
            self, x, g, need_beta, env, tyenv)

    monkeypatch.setattr(_Reach, "go", yes_on_heads)
    assert _no_reach_answers() == [True, True, True]


def test_a_search_runs_to_its_end_and_later_searches_read_its_answers():
    # every field needs a beta step to meet its goal: the search settles two
    # questions per field and one for the record, 6,003 in all, and a search
    # that gave up after 6,000 would answer False
    ident = syntax.Lam("y", Base("Int"), syntax.Var("y"))
    x = syntax.RecordLit(tuple(
        (f"L{i}", syntax.App(ident, Lit(i))) for i in range(3001)))
    g = syntax.RecordLit(tuple((f"L{i}", Lit(i)) for i in range(3001)))
    rels, memo = relations_for(preset("rec")), _Memo()
    assert _Reach(rels, {"beta"}, memo).go(x, g)
    settled = memo.settled(rels, {"beta"})
    assert len(settled) == 6003 and all(settled.values())
    # a later search of the check reads those answers: field A is field L1's
    # question and field B field L2's last, so the record adds only itself
    x, g = M("{A = (\\y:Int. y) 1, B = 2}"), M("{A = 1, B = 2}")
    assert _Reach(rels, {"beta"}, memo).go(x.field("A"), g.field("A"))
    assert len(settled) == 6003
    assert _Reach(rels, {"beta"}, memo).go(x, g)
    assert len(settled) == 6004


def test_closure_collects_every_reduct():
    # each of the nine fields steps by tau on its own, so the closure holds
    # every choice of fields stepped: 2^9 terms
    fields = ", ".join(f"L{i} = (/\\p. 1) @ *" for i in range(9))
    out = harness._closure(
        M("{" + fields + "}"), relations_for(preset("rec-pre")), {"tau"}, _Memo())
    assert len(out) == len(set(out)) == 2 ** 9
    normal = M("{" + ", ".join(f"L{i} = 1" for i in range(9)) + "}")
    assert any(alpha_eq(u, normal) for u in out)


# the slowest verify-search inputs at seed 0, all rec-sub-to-pre
SLOWEST_SEARCH_INPUTS = (1063, 2975, 2207, 87, 3237)


def test_search_checks_do_their_type_level_work_once(monkeypatch):
    """A deterministic work guard, with no timing: in each simulation and
    reflection check of the slowest verify-search inputs, no type-level part
    is keyed twice under one binder stack, no type redex is contracted twice
    and no search question is settled twice."""
    keyed, contracted, settled = [], [], []
    for form, key in list(syntax._KEY_FORMS.items()):
        monkeypatch.setitem(
            syntax._KEY_FORMS, form,
            lambda t, names, key=key: keyed.append((t, names)) or key(t, names),
        )
    redexes = []
    type_app, subst = dynamics._type_app, dynamics.subst_type_in_term

    def app(t, *rest):
        redexes.append(t)
        try:
            return type_app(t, *rest)
        finally:
            redexes.pop()

    monkeypatch.setattr(dynamics, "_type_app", app)
    monkeypatch.setattr(
        dynamics, "subst_type_in_term",
        lambda *args: contracted.append(redexes[-1]) or subst(*args),
    )
    searches = []  # [search, question, whether it compared] per open go call
    go, compare = _Reach.go, harness.alpha_eq

    def counted_go(self, x, g, need_beta=False, env=(), tyenv=((), ())):
        searches.append([self, (x, g, need_beta, env, tyenv), False])
        try:
            return go(self, x, g, need_beta, env, tyenv)
        finally:
            searches.pop()

    def counted_alpha_eq(*args):
        if searches and not searches[-1][2]:  # the comparison that settles
            searches[-1][2] = True
            reach, (x, g, need_beta, env, tyenv), _ = searches[-1]
            settled.append((
                reach.rels, frozenset(reach.classes), x, g, need_beta, env, tyenv,
            ))
        return compare(*args)

    monkeypatch.setattr(_Reach, "go", counted_go)
    monkeypatch.setattr(harness, "alpha_eq", counted_alpha_eq)
    spec = GenSpec(preset("rec-sub"), max_size=8, seed=0)
    for index in SLOWEST_SEARCH_INPUTS:
        d = gen_typed_term(spec, index)[1]
        for check in (check_simulation, check_reflection):
            for log in (keyed, contracted, settled):
                log.clear()
            assert check("rec-sub-to-pre", d, 2).passed
            case = (index, check.__name__)
            assert keyed and contracted and settled, case
            twice = collections.Counter((id(t), names) for t, names in keyed)
            assert max(twice.values()) == 1, case
            assert max(collections.Counter(map(id, contracted)).values()) == 1, case
            assert max(collections.Counter(settled).values()) == 1, case


def same_steps(got, want):
    return [(s.tag, s.path) for s in got] == [(s.tag, s.path) for s in want] and all(
        alpha_eq(a.term, b.term) for a, b in zip(got, want)
    )


def test_memoized_steps_agree_with_step_all():
    """One table steps generated terms of every registry preset, and their
    translations, under both relation sets of a pair and in both modes, as
    reflection does: it answers each as ``step_all`` does."""
    differ = collections.Counter()
    for tid, t in sorted(TRANSLATIONS.items()):
        for src, tgt in t.pairs:
            all_rels = [relations_for(preset(src)), relations_for(preset(tgt))]
            for name in (src, tgt):
                memo = _Memo()
                spec = GenSpec(preset(name), max_size=8, seed=5)
                for i in range(6):
                    term, d = gen_typed_term(spec, i)
                    pool = [term]
                    if name == src and d is not None:
                        pool.append(run_translation(tid, d))
                    for u in pool:
                        answers = []
                        for rels in all_rels:
                            for spine in (False, True):
                                got = memo.steps(u, rels, spine)
                                want = step_all(u, rels, spine=spine)
                                assert same_steps(got, want), (tid, name, i)
                                answers.append(want)
                        differ["relations"] += not same_steps(answers[0], answers[2])
                        differ["spine"] += not same_steps(answers[0], answers[1])
    # a key without the relation set or the mode would answer wrongly here
    assert differ["relations"] > 5 and differ["spine"] > 20, differ


# cases of the simulation and reflection checks on index 86 at depth 2
REC_SUB_86_CASES = {"rec-sub-to-rec": [3, 384], "rec-sub-to-pre": [3, 10]}


@pytest.mark.parametrize("tid", ["rec-sub-to-rec", "rec-sub-to-pre"])
def test_passing_search_checks_render_and_rename_nothing(tid, monkeypatch):
    """A work guard on index 86: passing simulation and reflection checks
    key the terms they explore by the terms themselves, so they render
    none; the search compares a state with its goal under their binder
    pairs, so it substitutes nothing of its own; and each check steps a term
    under a relation set and mode once, and re-typechecks and translates it
    once under the same contexts."""
    calls = collections.Counter()
    for module, name in (
        (pretty, "show_term"), (syntax, "subst_term"), (syntax, "subst_type_in_term")
    ):
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counted, raising=False)
    # each check's calls into the stepper, the checker and the translator,
    # by the term and contexts
    work = collections.Counter()
    step, check_, translate_ = (
        harness.step_all, harness.type_check, harness.run_translation
    )

    def recorded_step_all(term, rels, spine=False):
        work["step", term, rels, spine] += 1
        return step(term, rels, spine=spine)

    def recorded_type_check(cfg, delta, gamma, term):
        work["check", term, id(delta), id(gamma), cfg] += 1
        return check_(cfg, delta, gamma, term)

    def recorded_translation(tid, d):
        work["translate", d.term, id(d.delta), id(d.gamma)] += 1
        return translate_(tid, d)

    monkeypatch.setattr(harness, "step_all", recorded_step_all)
    monkeypatch.setattr(harness, "type_check", recorded_type_check)
    monkeypatch.setattr(harness, "run_translation", recorded_translation)
    cases = []
    for check in (check_simulation, check_reflection):
        work.clear()
        rep = check(tid, rec_sub_input(86), 2)
        assert rep.passed and rep.failures == []
        cases.append(rep.cases)
        assert max(work.values()) == 1
        assert {k[0] for k in work} == {"step", "check", "translate"}
    assert calls == {}
    assert cases == REC_SUB_86_CASES[tid]


@pytest.mark.parametrize("tid", ["rec-sub-to-rec", "rec-sub-to-pre"])
def test_search_verdicts_do_not_depend_on_sharing(tid, monkeypatch):
    def verdicts():
        return [
            (rep.cases, rep.failures)
            for d in map(rec_sub_input, (86, 120, 3, 7, 11))
            for rep in (check_simulation(tid, d, 2), check_reflection(tid, d, 2))
        ]

    want = verdicts()
    translate = harness.run_translation
    monkeypatch.setattr(
        harness, "run_translation", lambda tid, d: unshared(translate(tid, d))
    )
    assert verdicts() == want


@pytest.mark.parametrize("index", [86, 120, 132, 1990])
def test_reflection_searches_source_reducts_until_one_matches(index):
    # each needs a source run longer than a fixed number of levels
    rep = check_reflection("rec-sub-to-rec", rec_sub_input(index), 2)
    assert rep.passed, rep.failures[:1]
    assert rep.cases > 0


def spine_nodes(term):
    """The term's nodes on its head spine, in preorder."""
    out = [term]
    for slot, child, _ in children(term):
        if dynamics.on_spine(term, slot):
            out += spine_nodes(child)
    return out


def test_search_renders_nothing_and_steps_only_the_spine(monkeypatch):
    """A deterministic work guard: on index 86 (a 16-node source term whose
    translations are trees of up to 2,051 nodes) the search never renders a
    term, and each of its step enumerations visits only the head spine."""
    depth = [0]
    go = _Reach.go

    def counted_go(self, *args, **kwargs):
        depth[0] += 1
        try:
            return go(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Reach, "go", counted_go)
    rendered = []
    for module in (harness, dynamics):
        show = module.show_term
        monkeypatch.setattr(
            module,
            "show_term",
            lambda t, *rest, show=show: (rendered.append(t) if depth[0] else None)
            or show(t, *rest),
        )
    visited = []
    rewrite = dynamics._rewrite_here
    monkeypatch.setattr(
        dynamics, "_rewrite_here", lambda t, rels: visited.append(t) or rewrite(t, rels)
    )
    enumerations = []
    step = harness.step_all

    def recorded_step_all(term, rels, spine=False):
        visited.clear()
        out = step(term, rels, spine=spine)
        if depth[0]:
            assert spine
            enumerations.append((term, list(visited)))
        return out

    monkeypatch.setattr(harness, "step_all", recorded_step_all)
    rep = check_reflection("rec-sub-to-rec", rec_sub_input(86), 2)
    assert rep.passed and rep.cases > 0
    assert rendered == []
    assert len(enumerations) > 100
    for term, seen in enumerations:
        assert [id(t) for t in seen] == [id(t) for t in spine_nodes(term)]
    walked = sum(len(seen) for _, seen in enumerations[:50])
    assert walked * 20 < sum(term_size(term) for term, _ in enumerations[:50])


# ---------------------------------------------------------------------------
# the generator's output, pinned: a change that moves the terms any seed
# generates (and so the benchmark's inputs) fails here and must update the
# hashes on purpose

GENERATED_SHA256 = {
    "lam": "87217346fe845a1c",
    "rec": "821f9b4691085830",
    "rec-pre": "56be93217ea6fdfc",
    "rec-pre1": "79a53bf96b730586",
    "rec-row": "821f9b4691085830",
    "rec-row-pre": "56be93217ea6fdfc",
    "rec-row1": "d9a835b8c4e2cc3c",
    "rec-sub": "0dafe50676f459cd",
    "rec-sub-co": "a226fc6724be5c11",
    "rec-sub-full": "35724f2ef8da0797",
    "rec-sub-full-rank1": "7a442ef468ef7d20",
    "rec-sub-full-rank2": "1231c85d1cb58d71",
    "var": "3b94d2e1aafe9dfd",
    "var-pre": "3b94d2e1aafe9dfd",
    "var-pre1": "d928877365ae6d38",
    "var-rec": "d2b273b391bcc064",
    "var-rec-sub-full": "bfe60b280f287e9f",
    "var-row": "3b94d2e1aafe9dfd",
    "var-row-pre": "3b94d2e1aafe9dfd",
    "var-row1": "cd6c728bd7dc75a9",
    "var-sub": "8462453585b2b0b3",
    "var-sub-co": "1d6574296f641352",
    "var-sub-full": "977a2dd8c1e49d29",
    "var-sub-full-rank1": "1d8e2e510915a31a",
    "var-sub-full-rank2": "1cd9ea6c59703d09",
}


def _generated_lines(name):
    """The printed terms of both generators, or their errors, for the first
    40 indices of ``name`` at sizes 8 and 12, seed 0."""
    for size in (8, 12):
        spec = GenSpec(preset(name), max_size=size, seed=0)
        for i in range(40):
            try:
                yield show_term(gen_typed_term(spec, i)[0])
            except GenError as e:
                yield f"GenError: {e}"
            try:
                dm, dn, var = gen_subst_pair(spec, i)
                yield f"{show_term(dm.term)} / {var} := {show_term(dn.term)}"
            except GenError as e:
                yield f"GenError: {e}"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generator_output_is_pinned(name):
    digest = hashlib.sha256()
    for line in _generated_lines(name):
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest()[:16] == GENERATED_SHA256[name]


# ---------------------------------------------------------------------------
# Reports and benchmark charges, pinned over one small sweep: every registry
# pair, subject reduction on every preset, and two inputs whose reflection
# steps the preorder check accepts only through the cast-normal form itself
# (ROADMAP 1b).  A change that moves a case count, a failure's (case, term,
# got) or a work-budget charge fails here and must update the pins on
# purpose.  ``expected`` is left out: it describes the pattern, not the
# verdict.

BENCH = Path(__file__).resolve().parent.parent / "bench"
ROWLAB = {
    "cli": cli, "dynamics": dynamics, "harness": harness, "infer": infer_module,
    "parser": parser, "pretty": pretty, "statics": statics, "syntax": syntax,
    "translate": translate,
}


def _pinned_sweep():
    groups = {"registry": [], "subject-reduction": [], "preorder": []}
    for tid, t in sorted(TRANSLATIONS.items()):
        for prop in t.properties:
            groups["registry"].append(
                run_property(prop, translation=tid, count=20, seed=0)
            )
    for name in sorted(PRESETS):
        groups["subject-reduction"].append(
            run_property("subject-reduction", config=name, count=5, seed=0)
        )
    spec = GenSpec(preset("var-rec-sub-full"), max_size=12, seed=0)
    for i in (158, 195):
        d = gen_typed_term(spec, i)[1]
        groups["preorder"].append(check_preorder_correspondence(d, case_id=f"{i}"))
    return groups


def _report_digest(reports):
    digest = hashlib.sha256()
    for rep in reports:
        digest.update(f"{rep.prop} {rep.cases}\n".encode("utf-8"))
        for case_id, term, _, got in rep.failures:
            digest.update(f"{case_id} | {term} | {got}\n".encode("utf-8"))
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def charged_sweep():
    """The pinned sweep run as the benchmark counts it: the report digests,
    the calls per ``tracing.LAYERS`` layer and the work-budget units spent."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import budget
        import tracing

        # the benchmark's self-tests re-import rowlab; count the modules
        # these tests call, and put every wrapped name back afterwards
        names = {fn for layer in tracing.LAYERS.values() for _, fn in layer}
        for name, mod in ROWLAB.items():
            mp.setitem(sys.modules, f"rowlab.{name}", mod)
            for fn in names & set(vars(mod)):
                mp.setattr(mod, fn, getattr(mod, fn))
        mp.setattr(harness._Gen, "term_for", budget.counted(harness._Gen.term_for))
        calls = collections.Counter()
        layers = list(tracing.LAYERS)

        def make(layer, fn):
            charged = budget.counted(fn)

            def counted(*args, **kwargs):
                calls[layers[layer]] += 1
                return charged(*args, **kwargs)

            return counted

        tracing.install(make)
        budget.start(2**50)
        try:
            groups = _pinned_sweep()
        finally:
            spent = 2**50 - budget.left
            budget.start(math.inf)
    return {g: _report_digest(r) for g, r in groups.items()}, dict(calls), spent


REPORT_SHA256 = {
    "registry": "56ce409cce4554cc",
    "subject-reduction": "7b8cb4bcba9c8b64",
    "preorder": "df071665708d6576",
}

LAYER_CALLS = {
    "dynamics.erase": 588,
    "dynamics.step_all": 1477,
    "dynamics.term_preorder": 492,
    "harness.check": 745,
    "harness.gen": 725,
    "infer.infer": 88,
    "pretty.show_term": 1,
    "statics.subtype": 950,
    "statics.type_check": 1619,
    "syntax.alpha_eq": 1030,
    "syntax.subst_term": 1014,
    "syntax.type_equal": 2773,
    "translate.run_translation": 1099,
}

UNITS_SPENT = 50682


# the layer functions ``tracing.install`` leaves unwrapped in their own
# module, because they call themselves by name: their inner calls are not
# counted.  A refactor that makes one recursive, or stops it being so,
# changes how its layer is charged and shows up here by name.  None is:
# ``subst_term`` recurses through ``syntax._subst``, which no layer wraps.
SELF_RECURSIVE_LAYERS = set()


def test_every_benchmark_layer_is_a_rowlab_function():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import tracing

        originals = {}
        for layer in tracing.LAYERS.values():
            for mod_name, fn_name in layer:
                fn = getattr(ROWLAB[mod_name], fn_name, None)
                assert callable(fn), (mod_name, fn_name)
                assert fn.__module__ == f"rowlab.{mod_name}", (mod_name, fn_name)
                originals[mod_name, fn_name] = fn
        for name, mod in ROWLAB.items():
            mp.setitem(sys.modules, f"rowlab.{name}", mod)
            for fn_name in {f for _, f in originals} & set(vars(mod)):
                mp.setattr(mod, fn_name, getattr(mod, fn_name))
        tracing.install(lambda layer, fn: lambda *args, **kwargs: fn(*args, **kwargs))
        unwrapped = {
            f"{mod_name}.{fn_name}" for (mod_name, fn_name), fn in originals.items()
            if getattr(ROWLAB[mod_name], fn_name) is fn
        }
    assert unwrapped == SELF_RECURSIVE_LAYERS


def test_reports_are_pinned(charged_sweep):
    assert charged_sweep[0] == REPORT_SHA256


def test_pinned_preorder_inputs_pass():
    # the untyped side beta-reduces inside a field that a cast drops: the
    # cast-normal form itself covers the reduct, with no typed beta step
    spec = GenSpec(preset("var-rec-sub-full"), max_size=12, seed=0)
    for i, cases in ((158, 6), (195, 24)):
        rep = check_preorder_correspondence(gen_typed_term(spec, i)[1])
        assert (rep.cases, rep.failures) == (cases, [])


def test_preorder_check_rejects_a_wrong_preorder(monkeypatch):
    # the preorder the wrong way round: the wider side taken as the narrower
    real = harness.term_preorder
    monkeypatch.setattr(harness, "term_preorder", lambda m, n: real(n, m))
    spec = GenSpec(preset("var-rec-sub-full"), max_size=12, seed=0)
    for i in (158, 195):
        rep = check_preorder_correspondence(gen_typed_term(spec, i)[1])
        assert "no typed counterpart found" in {got for _, _, _, got in rep.failures}


def test_benchmark_charges_are_pinned(charged_sweep):
    _, calls, spent = charged_sweep
    assert calls == LAYER_CALLS
    assert spent == UNITS_SPENT
