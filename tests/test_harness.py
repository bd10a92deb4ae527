"""Term generator, property checkers, and the report plumbing around them."""

from pathlib import Path

import pytest

from rowlab.config import PRESETS, preset
from rowlab.dynamics import erase, relations_for, step_all
from rowlab.harness import (
    GenSpec,
    PropertyReport,
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
from rowlab.parser import parse_term_str
from rowlab.pretty import show_term
from rowlab.statics import type_check
from rowlab.syntax import Lit, Upcast, alpha_eq
from rowlab.translate import TRANSLATIONS, TranslationError, run_translation

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
    with pytest.raises(ValueError):
        gen_typed_term(GenSpec(preset("var"), max_size=0))


def test_subst_pair_is_well_typed():
    spec = GenSpec(preset("rec-sub"), max_size=8, seed=4)
    for i in range(5):
        dm, dn, var = gen_subst_pair(spec, i)
        assert var not in ambient_gamma()
        # n fills m's hole at the right type
        rep = check_subst_lemma("rec-sub-to-rec", dm, dn, var)
        assert rep.passed, rep.failures[:1]


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


def test_report_merge_requires_same_property():
    with pytest.raises(ValueError):
        PropertyReport("a").merge(PropertyReport("b"))


def test_run_property_argument_checks():
    with pytest.raises(ValueError):
        run_property("simulation")
    with pytest.raises(ValueError):
        run_property("subject-reduction")
    with pytest.raises(ValueError):
        run_property("no-such-property", count=1)
    for depth in (0, -3):
        with pytest.raises(ValueError, match="depth must be at least 1"):
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
        ("substitution", "erase-upcasts"),
        ("simulation", "no-such-translation"),
    ],
)
def test_run_property_refuses_pairs_no_theorem_covers(prop, tid):
    with pytest.raises(ValueError, match=f"no theorem covers {prop} on {tid}"):
        run_property(prop, translation=tid, count=1)


def test_benchmark_pairs_are_ones_the_registry_accepts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    for prop, subject in workloads.SEARCH_PAIRS + workloads.SWEEP_PAIRS:
        if prop in ("subject-reduction", "preorder-correspondence"):
            assert subject in PRESETS
        else:
            assert prop in TRANSLATIONS[subject].properties, (prop, subject)


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
    with pytest.raises(TranslationError, match="unexpected rule"):
        check_simulation(tid, deriv(*WRONG_FAMILY[tid]))


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
    rep = check_weak_preservation(d)
    assert rep.passed, rep.failures[:1]


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
# Randomized sweeps (small; the acceptance suite runs the big ones)


@pytest.mark.parametrize("tid", sorted(TRANSLATIONS))
def test_type_preservation_sweep(tid):
    rep = run_property("type-preservation", translation=tid, count=10, seed=2)
    assert rep.passed, rep.failures[:2]
    assert rep.cases == 10


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
    "tid", ["var-sub-to-row", "rec-sub-to-pre", "rec-co-to-pre", "erase-upcasts"]
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
    rep = run_property("preorder-correspondence", count=10, seed=2, depth=2)
    assert rep.passed, rep.failures[:2]
