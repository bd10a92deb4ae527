"""Principal type inference for the rank-1 calculi."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rowlab import infer as infer_module
from rowlab.config import preset
from rowlab.dynamics import erase
from rowlab.harness import GenError, GenSpec, ambient_delta, ambient_gamma, gen_typed_term
from rowlab.infer import (
    InferError,
    _resolve,
    _State,
    infer,
    scheme_instance,
    unify_type,
    zonk_type,
)
from rowlab.parser import parse_file_str, parse_term_str, parse_type_str
from rowlab.pretty import show_scheme
from rowlab.statics import StaticError
from rowlab.syntax import (
    Absent,
    Arrow,
    Base,
    KPre,
    KRow,
    KType,
    Present,
    Record,
    Row,
    TypeScheme,
    TyVar,
    Variant,
    type_equal,
)
from test_syntax import scheme_alpha_eq

T = parse_type_str
M = parse_term_str
INT = Base("Int")
STRING = Base("String")


def run(cfg, src, gamma=None, delta=None):
    return infer(preset(cfg), delta or {}, gamma or {}, M(src))


def mono(ty):
    return TypeScheme((), ty)


# ---------------------------------------------------------------------------
# Unification


def test_unify_extends_open_row_with_missing_labels():
    state = _State()
    a = state.fresh_type()
    r = state.fresh_row_tail(frozenset({"Name"}))
    left = Record(Row((("Name", Present(), a),), r))
    unify_type(state, left, T("{Name:String; Age:Int}"))
    assert type_equal(zonk_type(state, left), T("{Age:Int; Name:String}"))


def test_unify_two_open_rows_shares_a_fresh_tail():
    state = _State()
    r0 = state.fresh_row_tail(frozenset({"Id"}))
    r1 = state.fresh_row_tail(frozenset())
    a = state.fresh_type()
    unify_type(
        state,
        Record(Row((), r0)),
        Record(Row((("Name", Present(), a),), r1)),
    )
    z = zonk_type(state, Record(Row((), r0)))
    assert [e[0] for e in z.row.entries] == ["Name"]
    assert z.row.tail is not None and z.row.tail.startswith("?r")
    assert state.lacks[z.row.tail] >= {"Id", "Name"}


def test_unify_absent_solution_reconciles_extra_entry():
    state = _State()
    p = state.fresh_pres()
    left = Record(Row((("Name", Present(), INT), ("Age", p, INT)), None))
    unify_type(state, left, T("{Name:Int}"))
    assert type_equal(zonk_type(state, left), T("{Name:Int}"))


def test_unify_closed_rows_with_disjoint_present_labels_fails():
    state = _State()
    with pytest.raises(InferError, match="present on one row"):
        unify_type(state, T("{Age:Int}"), T("{Year:Int}"))


def test_unify_lacks_constraint_blocks_extension():
    state = _State()
    r = state.fresh_row_tail(frozenset({"Name"}))
    with pytest.raises(InferError, match="lacks"):
        unify_type(state, Record(Row((), r)), T("{Name:Int}"))


def test_unify_occurs_check():
    state = _State()
    a = state.fresh_type()
    with pytest.raises(InferError, match="occurs"):
        unify_type(state, a, Record(Row((("Self", Present(), a),), None)))


def test_unify_constructor_clash():
    state = _State()
    with pytest.raises(InferError, match="cannot unify"):
        unify_type(state, INT, STRING)


def test_unify_record_never_matches_variant():
    state = _State()
    with pytest.raises(InferError):
        unify_type(state, T("{Age:Int}"), T("[Age:Int]"))


def test_unify_rigid_row_tails_must_match():
    state = _State()
    state.lacks["r0"] = frozenset()
    state.lacks["r1"] = frozenset()
    with pytest.raises(InferError, match="row tails differ"):
        unify_type(state, Record(Row((), "r0")), Record(Row((), "r1")))


def test_unify_meta_row_against_rigid_tail():
    state = _State()
    state.lacks["r0"] = frozenset({"Name"})
    r = state.fresh_row_tail(frozenset({"Name"}))
    left = Record(Row((("Name", Present(), INT),), r))
    unify_type(state, left, T("{Name:Int; r0}"))
    assert type_equal(zonk_type(state, left), T("{Name:Int; r0}"))


def test_unify_meta_row_needs_a_rigid_tail_that_lacks_as_much():
    state = _State()
    state.lacks["r0"] = frozenset()
    r = state.fresh_row_tail(frozenset({"Name"}))
    with pytest.raises(InferError, match="does not lack Name"):
        unify_type(state, Record(Row((), r)), Record(Row((), "r0")))
    with pytest.raises(InferError, match="does not lack Name"):
        unify_type(_State(lacks={"r0": frozenset(), r: frozenset({"Name"})}),
                   Record(Row((), "r0")), Record(Row((), r)))


def test_infer_respects_the_kind_of_a_rigid_row():
    # f needs a row lacking Name; y's row r may hold Name
    gamma = {
        "f": TypeScheme(
            (("s", KRow(frozenset({"Name"}))),), T("{s} -> Int")
        ),
        "y": T("{r}"),
    }
    with pytest.raises(InferError, match="does not lack Name"):
        run("rec-row1", "f y", gamma, {"r": KRow(frozenset())})
    # a rigid row that lacks Name is accepted
    ok = run("rec-row1", "f y", gamma, {"r": KRow(frozenset({"Name"}))})
    assert scheme_alpha_eq(ok, mono(INT))


# ---------------------------------------------------------------------------
# Inference goldens


def test_projection_scheme_in_row_calculus():
    got = run("rec-row1", "\\x. x.Name")
    want = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        T("{Name:a0; r0} -> a0"),
    )
    assert scheme_alpha_eq(got, want)


def test_record_literal_scheme_in_presence_calculus():
    got = run("rec-pre1", '{Name = "Alice", Age = 9}')
    want = TypeScheme(
        (("p0", KPre()), ("p1", KPre())),
        T("{Name^p0:String; Age^p1:Int}"),
    )
    assert scheme_alpha_eq(got, want)


def test_record_literal_in_row_calculus_is_closed_and_present():
    got = run("rec-row1", '{Name = "Alice", Age = 9}')
    assert got.quants == ()
    assert type_equal(got.body, T("{Age:Int; Name:String}"))


def test_application_resolves_open_tail():
    got = run("rec-row1", '(\\x. x.Name) {Name = "Alice", Age = 9}')
    assert got.quants == ()
    assert type_equal(got.body, STRING)


def test_projection_in_presence_calculus_uses_absent_slack():
    got = run("rec-pre1", '(\\x. x.Name) {Name = "Alice", Age = 9}')
    assert got.quants == ()
    assert type_equal(got.body, STRING)


def test_monomorphic_function_argument_rejects_mixed_records():
    src = (
        '(\\f. (f {Name = "Alice", Age = 9}) ++ (f {Name = "Bob", Year = 1984}))'
        " (\\x. x.Name)"
    )
    with pytest.raises(InferError):
        run("rec-row1", src)


def test_let_bound_projection_generalizes():
    src = (
        "let f = \\x. x.Name in"
        ' (f {Name = "Alice", Age = 9}) ++ (f {Name = "Bob", Year = 1984})'
    )
    got = run("rec-row1", src)
    assert got.quants == ()
    assert type_equal(got.body, STRING)


def test_let_polymorphism_at_different_result_types():
    got = run("rec-row1", 'let id = \\x. x in {A = id 1, B = id "s"}')
    assert got.quants == ()
    assert type_equal(got.body, T("{A:Int; B:String}"))


def test_inner_let_keeps_lambda_metas_monomorphic():
    got = run("rec-row1", "\\x. let y = x in {A = y.Name, B = y.Name}")
    want = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        T("{Name:a0; r0} -> {A:a0; B:a0}"),
    )
    assert scheme_alpha_eq(got, want)


def test_let_chains_zonk_linearly(monkeypatch):
    # generalize skips the environment's schemes that mention no meta, so a
    # closed let chain zonks a bounded number of types per let
    calls = []
    real = infer_module.zonk_type
    monkeypatch.setattr(
        infer_module, "zonk_type", lambda state, ty: calls.append(ty) or real(state, ty)
    )
    counts = []
    for n in (100, 200, 400):
        src = "let x0 = 1 in " + "".join(
            f"let x{i} = {{A = x{i - 1}}}.A in " for i in range(1, n + 1)
        )
        calls.clear()
        assert run("rec-row1", src + f"x{n}").body == INT
        counts.append(len(calls))
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])
    assert counts[2] <= 2 * 400


def test_erased_program_infers_like_the_annotated_one():
    src = '(\\x:{Name:String}. x.Name) ({Name = "Alice", Age = 9} :> {Name:String})'
    got = infer(preset("rec-row1"), {}, {}, erase(M(src)))
    assert got.quants == ()
    assert type_equal(got.body, STRING)


def test_inject_is_open_in_row_calculus():
    got = run("var-row1", "<Year 1984>")
    want = TypeScheme(
        (("r0", KRow(frozenset({"Year"}))),),
        T("[Year:Int; r0]"),
    )
    assert scheme_alpha_eq(got, want)


def test_inject_is_closed_in_presence_calculus():
    got = run("var-pre1", "<Year 1984>")
    assert got.quants == ()
    assert type_equal(got.body, T("[Year:Int]"))


def test_case_is_closed_all_present_in_row_calculus():
    got = run("var-row1", "\\x. case x {Age a -> a; Year y -> y + 1}")
    assert got.quants == ()
    assert type_equal(got.body, T("[Age:Int; Year:Int] -> Int"))


def test_case_presence_variables_generalize():
    got = run("var-pre1", "\\x. case x {Age a -> a; Year y -> y + 1}")
    want = TypeScheme(
        (("p0", KPre()), ("p1", KPre())),
        T("[Age^p0:Int; Year^p1:Int] -> Int"),
    )
    assert scheme_alpha_eq(got, want)


def test_case_of_inject_forces_other_branches_absent():
    got = run("var-pre1", "case <Year 1984> {Age a -> a; Year y -> y}")
    assert got.quants == ()
    assert type_equal(got.body, INT)


def test_inject_then_case_in_row_calculus():
    got = run("var-row1", "case <Year 1984> {Age a -> a; Year y -> y}")
    assert got.quants == ()
    assert type_equal(got.body, INT)


def test_environment_schemes_instantiate_fresh_at_each_use():
    getname = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        T("{Name:a0; r0} -> a0"),
    )
    got = run(
        "rec-row1",
        '{A = f {Name = 1, Age = 2}, B = f {Name = "s"}}',
        gamma={"f": getname},
    )
    assert got.quants == ()
    assert type_equal(got.body, T("{A:Int; B:String}"))


def test_plain_types_in_environment_stay_monomorphic():
    got = run("rec-row1", "x.Name", gamma={"x": T("{Name:Int}")})
    assert got.quants == ()
    assert type_equal(got.body, INT)


def test_generalization_avoids_rigid_names_free_in_the_result():
    delta = {"r0": KRow(frozenset({"Name"}))}
    gamma = {"x": T("{Name:Int; r0}")}
    got = infer(
        preset("rec-row1"), delta, gamma, M("\\y. {A = x, B = y.Name}")
    )
    assert "r0" not in [n for n, _ in got.quants]
    want = TypeScheme(
        (("a0", KType()), ("r9", KRow(frozenset({"Name"})))),
        T("{Name:a0; r9} -> {A:{Name:Int; r0}; B:a0}"),
    )
    assert scheme_alpha_eq(got, want)


def test_primitives_infer_their_signatures():
    got = run("rec-row1", "\\x. \\y. (x + y) - 1")
    assert got.quants == ()
    assert type_equal(got.body, T("Int -> Int -> Int"))


# ---------------------------------------------------------------------------
# Rejections


def test_inference_requires_a_rank1_calculus():
    with pytest.raises(InferError, match="does not support inference"):
        run("rec", '{Name = "Alice"}')


def test_lambda_annotations_are_rejected():
    with pytest.raises(InferError, match="annotations"):
        run("rec-row1", "\\x:Int. x")


def test_literal_annotations_are_rejected():
    with pytest.raises(InferError, match="annotations"):
        run("rec-row1", '{Name = "Alice"} : {Name:String}')


def test_casts_are_rejected():
    with pytest.raises(InferError, match="must not contain"):
        run("rec-row1", '{Name = "Alice"} :> {Name:String}')


def test_records_gated_by_calculus():
    with pytest.raises(InferError, match="not available"):
        run("var-row1", '{Name = "Alice"}')


def test_variants_gated_by_calculus():
    with pytest.raises(InferError, match="not available"):
        run("rec-row1", "<Year 1984>")


def test_unbound_variable():
    with pytest.raises(InferError, match="unbound variable"):
        run("rec-row1", "x")


def test_duplicate_record_labels_rejected():
    with pytest.raises(InferError, match="duplicate"):
        run("rec-row1", "{A = 1, A = 2}")


def test_duplicate_case_branches_rejected():
    with pytest.raises(InferError, match="duplicate"):
        run("var-row1", "\\x. case x {A a -> a; A b -> b}")


def test_errors_carry_the_offending_subterm():
    with pytest.raises(InferError, match="while typing"):
        run("rec-row1", "\\x. (x 1) ++ x")


# ---------------------------------------------------------------------------
# Scheme instances


def test_scheme_instance_specializes_rows_and_types():
    gen = TypeScheme(
        (("a0", KType()), ("r0", KRow(frozenset({"Name"})))),
        T("{Name:a0; r0} -> a0"),
    )
    spec = mono(T("{Name:Int; Age:Int} -> Int"))
    assert scheme_instance(gen, spec)
    assert not scheme_instance(spec, gen)


def test_scheme_instance_is_alpha_invariant():
    a = TypeScheme((("a0", KType()),), T("a0 -> a0"))
    b = TypeScheme((("b0", KType()),), T("b0 -> b0"))
    assert scheme_instance(a, b)
    assert scheme_instance(b, a)


def test_scheme_instance_can_keep_the_row_open():
    gen = TypeScheme(
        (("r0", KRow(frozenset({"Name"}))),), T("{Name:Int; r0}")
    )
    spec = TypeScheme(
        (("r0", KRow(frozenset({"Age", "Name"}))),), T("{Age:Int; Name:Int; r0}")
    )
    assert scheme_instance(gen, spec)
    assert not scheme_instance(spec, gen)


def test_scheme_instance_on_presence_quantifiers():
    gen = TypeScheme(
        (("p0", KPre()), ("p1", KPre())), T("{Name^p0:String; Age^p1:Int}")
    )
    assert scheme_instance(gen, mono(T("{Name:String; Age:Int}")))
    assert scheme_instance(gen, mono(T("{Name:String}")))
    assert not scheme_instance(mono(T("{Name:String}")), gen)


SELF_INSTANCE_CASES = [
    ("rec-row1", "\\x. x"),
    ("rec-row1", "\\x. x.Name"),
    ("rec-row1", "\\x. {A = x.Name, B = x.Age}"),
    ("rec-row1", "let f = \\x. x.Name in f {Name = 1}"),
    ("rec-row1", "\\x. \\y. {A = x.Name, B = y.Name}"),
    ("rec-pre1", '{Name = "Alice", Age = 9}'),
    ("rec-pre1", "\\x. x.Name"),
    ("var-row1", "<Year 1984>"),
    ("var-row1", "\\x. case x {Age a -> a; Year y -> y}"),
    ("var-pre1", "\\x. case x {Age a -> a + 1; Year y -> y}"),
    ("var-pre1", "<Year 1984>"),
]


@pytest.mark.parametrize("cfg,src", SELF_INSTANCE_CASES)
def test_inferred_schemes_are_their_own_instances(cfg, src):
    got = run(cfg, src)
    assert scheme_instance(got, got)
    again = run(cfg, src)
    assert scheme_alpha_eq(got, again)


# ---------------------------------------------------------------------------
# Unification properties

_LABELS = ["A", "B", "C", "D"]


def _pool(state):
    rows = []
    for lacks in [frozenset(), frozenset({"A"}), frozenset({"A", "B"}),
                  frozenset(_LABELS)]:
        rows.append(state.fresh_row_tail(lacks))
    return {"types": [state.fresh_type() for _ in range(3)], "rows": rows}


def _rand_type(rng, state, pool, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice([INT, STRING] + pool["types"])
    if roll < 0.6:
        return Arrow(
            _rand_type(rng, state, pool, depth - 1),
            _rand_type(rng, state, pool, depth - 1),
        )
    labels = rng.sample(_LABELS, rng.randint(0, 3))
    entries = []
    for label in sorted(labels):
        pres = Present() if rng.random() < 0.7 else state.fresh_pres()
        entries.append((label, pres, _rand_type(rng, state, pool, depth - 1)))
    tails = [None] + [
        t for t in pool["rows"] if set(labels) <= state.lacks[t]
    ]
    row = Row(tuple(entries), rng.choice(tails))
    return Record(row) if rng.random() < 0.5 else Variant(row)


def _build(seed):
    state = _State()
    pool = _pool(state)
    rng = random.Random(seed)
    a = _rand_type(rng, state, pool, 3)
    b = _rand_type(rng, state, pool, 3)
    return state, a, b


@given(st.integers(0, 10_000))
def test_successful_unification_makes_both_sides_equal(seed):
    state, a, b = _build(seed)
    try:
        unify_type(state, a, b)
    except InferError:
        return
    assert type_equal(zonk_type(state, a), zonk_type(state, b))


@given(st.integers(0, 10_000))
def test_unification_is_symmetric_in_success(seed):
    s1, a1, b1 = _build(seed)
    s2, a2, b2 = _build(seed)
    try:
        unify_type(s1, a1, b1)
        ok1 = True
    except InferError:
        ok1 = False
    try:
        unify_type(s2, b2, a2)
        ok2 = True
    except InferError:
        ok2 = False
    assert ok1 == ok2


@given(st.integers(0, 10_000))
def test_unification_is_stable_under_reapplication(seed):
    state, a, b = _build(seed)
    try:
        unify_type(state, a, b)
    except InferError:
        return
    za, zb = zonk_type(state, a), zonk_type(state, b)
    unify_type(state, za, zb)
    assert type_equal(zonk_type(state, za), zonk_type(state, zb))


# the row zonking inference used before it reused ``_expand_row``, kept as
# the reference the new one must agree with entry for entry


def _reference_zonk(state, ty):
    ty = _resolve(state, ty)
    if isinstance(ty, (TyVar, Base)):
        return ty
    if isinstance(ty, Arrow):
        return Arrow(_reference_zonk(state, ty.dom), _reference_zonk(state, ty.cod))
    return type(ty)(_reference_zonk_row(state, ty.row))


def _reference_zonk_row(state, row):
    out = []
    tail = row.tail
    pending = list(row.entries)
    while True:
        for label, pres, ty in pending:
            pres = _resolve(state, pres)
            if isinstance(pres, Absent):
                continue
            out.append((label, pres, _reference_zonk(state, ty)))
        if tail is None or tail not in state.subst:
            return Row(tuple(out), tail)
        rep = state.subst[tail]
        pending = list(rep.entries)
        tail = rep.tail


def test_zonking_agrees_with_the_reference_row_walk():
    solved = 0
    for seed in range(400):
        state, a, b = _build(seed)
        try:
            unify_type(state, a, b)
            solved += 1
        except InferError:
            pass  # a failed unification leaves a partial substitution
        for ty in (a, b):
            assert zonk_type(state, ty) == _reference_zonk(state, ty)
    assert solved > 50


# ---------------------------------------------------------------------------
# inferred schemes, pinned: a change that moves the scheme (or the error) of
# any generated term or corpus file under a rank-1 preset fails here and must
# update the hash on purpose

INFERRED_SHA256 = "0204d2fbf05606b1"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
RANK1 = ("rec-row1", "rec-pre1", "var-row1", "var-pre1")


def _inferred_lines():
    """``show_scheme`` of each inferred scheme, or the error's class and
    text: the first 40 generated terms of each rank-1 preset at sizes 8 and
    12, seed 0, under the ambient context, then every corpus file under each
    rank-1 preset."""
    for name in RANK1:
        for size in (8, 12):
            spec = GenSpec(preset(name), max_size=size, seed=0)
            for i in range(40):
                try:
                    term, _ = gen_typed_term(spec, i)
                    yield show_scheme(
                        infer(spec.config, ambient_delta(), ambient_gamma(), term)
                    )
                except (GenError, InferError, StaticError) as e:
                    yield f"{type(e).__name__}: {e}"
    for path in sorted(CORPUS.glob("*.row")):
        delta, gamma, term = parse_file_str(path.read_text())
        for name in RANK1:
            try:
                yield show_scheme(infer(preset(name), delta, gamma, term))
            except (InferError, StaticError) as e:
                yield f"{type(e).__name__}: {e}"


def test_inferred_schemes_are_pinned():
    digest = hashlib.sha256()
    for line in _inferred_lines():
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest()[:16] == INFERRED_SHA256
