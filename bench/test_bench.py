"""Self-tests of the benchmark: known-answer coverage and determinism.

    python3 -m pytest -q bench

Each workload runs twice at a tiny size with the same seed; the runs must
agree input by input.  The inputs keep their work budgets, which end the
same inputs on every run; the wall-clock backstop is raised, so that it
cannot stop an input in one run and not in the other.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import budget  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_SECONDS = 0.05


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "BACKSTOP_S", {w: 60.0 for w in workloads.WORKLOADS})
    monkeypatch.setattr(workloads, "PLUS_CHAIN", (5, 12))
    monkeypatch.setattr(workloads, "LET_CHAIN", (2, 4))
    monkeypatch.setattr(workloads, "CAST_STACK", (1, 3))
    run._load_rowlab()
    budget.install()


def test_every_corpus_file_has_a_known_answer():
    files = {p.name for p in workloads.corpus_dir().glob("*.row")}
    answers = workloads.load_answers()["corpus"]
    assert files, "no corpus files found"
    assert sorted(files - set(answers)) == []
    assert sorted(set(answers) - files) == []
    for name, ans in answers.items():
        assert {"calculus", "type", "value"} <= set(ans), name


def _outcomes(workload: str, seed: int):
    inputs = workloads.build_inputs(workload, seed, TINY_SECONDS)
    results = run.measure(inputs)
    return inputs, [(r.outcome, r.obligations, r.detail) for r in results]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_outcomes(tiny, workload):
    inputs_a, first = _outcomes(workload, 3)
    inputs_b, second = _outcomes(workload, 3)
    assert inputs_a == inputs_b
    assert first == second
    assert sum(o for _, o, _ in first) == sum(o for _, o, _ in second)


def _generated(inp) -> str:
    """The text of the term an input hands to rowlab."""
    from rowlab import harness, pretty
    from rowlab.config import preset

    if inp.workload == "eval-scale":
        return inp.source
    size = workloads.SEARCH_SIZE if inp.workload == "verify-search" else workloads.SWEEP_SIZE
    spec = harness.GenSpec(preset(inp.calculus), max_size=size, seed=inp.seed)
    if inp.prop == "substitution":
        dm, dn, _ = harness.gen_subst_pair(spec, inp.index)
        return pretty.show_term(dm.term) + " / " + pretty.show_term(dn.term)
    return pretty.show_term(harness.gen_typed_term(spec, inp.index)[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(tiny, workload):
    a = [_generated(i) for i in workloads.build_inputs(workload, 0, TINY_SECONDS)]
    b = [_generated(i) for i in workloads.build_inputs(workload, 1, TINY_SECONDS)]
    assert len(a) == len(b)
    assert a != b


def test_eval_answers_are_compared(tiny):
    inputs, outcomes = _outcomes("eval-scale", 0)
    corpus = [o for i, o in zip(inputs, outcomes) if i.prop == "corpus"]
    assert corpus and all(outcome == workloads.OK for outcome, _, _ in corpus)
    # a type and, for values, a normal form were compared for every file
    assert all(obligations >= 1 for _, obligations, _ in corpus)


def test_only_known_defects_count_as_correct(tiny):
    workloads.install_alarm()
    inp = next(i for i in workloads.build_inputs("eval-scale", 0, TINY_SECONDS)
               if i.prop == "corpus" and i.want_value != "null")
    wrong = dataclasses.replace(inp, want_value=json.dumps("not the answer"))
    r = workloads.run_input(wrong)
    assert r.outcome == workloads.FAILED
    assert workloads.known_defect(wrong, r) == ""
    # a stack overflow is the known defect only on a long enough `+` chain
    overflow = workloads.Result(workloads.FAILED, 0.01, 0, "RecursionError: too deep")
    chain = dataclasses.replace(inp, prop="plus-chain", subject="lam", index=600)
    assert workloads.known_defect(chain, overflow) == "4f"
    assert workloads.known_defect(dataclasses.replace(chain, index=300), overflow) == ""


def test_budget_charges_calls_and_shown_text(tiny):
    from rowlab.syntax import Lit

    def show_term(n):
        return "x" * n

    def step_all(term):
        return term

    def check(n):
        return n

    shown, step, plain = (budget.counted(f) for f in (show_term, step_all, check))
    budget.start(1 + 2 + 1 + 1 + 1)
    assert shown(2 * budget.CHARS_PER_UNIT) == "x" * 32  # 1 call + 2 units of text
    assert step(Lit(3)) == Lit(3)  # 1 call + 1 node
    assert plain(5) == 5  # 1 call
    with pytest.raises(budget.Exhausted):
        plain(5)
    budget.start(float("inf"))
