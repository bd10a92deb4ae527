"""Inputs, known answers and the per-input runner of the rowlab benchmark.

Every workload is a list of ``Input`` records built from the workload seed.
Running an input calls rowlab's public functions exactly as the CLI does and
compares what comes back with the input's known answer:

* verify workloads: the known answer is *pass*, because every (property,
  translation or calculus) pair they run is a theorem the paper proves;
* eval-scale: the known answers are the hand-written ``answers.json`` plus
  ladder answers computed here by arithmetic, never rowlab's own output.

Each input ends as exactly one outcome: ``ok``, ``failed`` (an exception, or
a verdict or result that differs from the known answer) or ``timeout`` (the
input ran out of its work budget or, rarely, its wall-clock backstop).

rowlab is reached through module attributes (``harness.check_reflection``,
not a name bound at import time), so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import budget

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"

# Per-input limits: the same on every commit.  The verify workloads' input
# times are heavy tailed (a few inputs run for minutes), so each verify
# input gets a work budget (budget.py) of about 0.1 s, which ends the same
# inputs on every run.  BACKSTOP_S is a wall-clock limit on every input, far
# above the time any input took on the machine the budgets were set on; it
# is there so that a run always ends, and an input it stops is listed.
# No eval-scale input comes near it, so eval-scale has no work budget (None).
BUDGET_UNITS = {"verify-search": 12000, "verify-sweep": 20000, "eval-scale": None}
BACKSTOP_S = {"verify-search": 2.0, "verify-sweep": 2.0, "eval-scale": 5.0}

VERIFY_DEPTH = 2  # the CLI default

# How many inputs one second of --seconds buys is fixed, so that the same
# --seconds gives the same inputs on every commit (and took about that long
# at the seed state).  A verify run needs thousands of distinct inputs for
# its tail and outcome counts to be steady from seed to seed, so it runs
# each input once.
SEARCH_SIZE = 8  # the CLI default
SEARCH_TERMS_PER_S = 45  # generated terms, each run by all four pairs
# the translations whose simulation and reflection patterns are decided by
# a bounded reachability search (harness._Reach)
SEARCH_TIDS = ("rec-sub-to-rec", "rec-sub-to-pre")
SEARCH_PAIRS = (
    ("simulation", "rec-sub-to-rec"),
    ("simulation", "rec-sub-to-pre"),
    ("reflection", "rec-sub-to-rec"),
    ("reflection", "rec-sub-to-pre"),
)

SWEEP_SIZE = 12
SWEEP_COUNT_PER_S = 8.5  # inputs of every pair
SWEEP_PAIRS = (
    *(
        ("type-preservation", tid)
        for tid in (
            "var-sub-to-var",
            "var-sub-to-row",
            "rec-sub-to-rec",
            "rec-sub-to-pre",
            "full-sub-coerce",
            "rec-co-to-pre",
            "erase-upcasts",
        )
    ),
    *(
        ("substitution", tid)
        for tid in ("var-sub-to-var", "var-sub-to-row", "rec-sub-to-rec", "rec-sub-to-pre")
    ),
    ("simulation", "var-sub-to-var"),
    ("simulation", "var-sub-to-row"),
    ("reflection", "var-sub-to-var"),
    ("reflection", "var-sub-to-row"),
    ("erasure", "var-sub-to-row"),
    ("erasure", "rec-sub-to-pre"),
    ("erasure", "rec-co-to-pre"),
    *(
        ("subject-reduction", calc)
        for calc in (
            "var-sub",
            "rec-sub",
            "var-rec-sub-full",
            "var-row",
            "rec-pre",
            "rec-row1",
            "rec-pre1",
            "var-row1",
        )
    ),
    ("preorder-correspondence", "var-rec-sub-full"),
)

# eval-scale ladders: operand counts of `+` chains, `let` chain lengths and
# numbers of stacked casts.  Checking a `+` chain of 500 operands or more
# raises RecursionError at the seed state; those points stay in and count
# as failed.  The largest points are left out (`+` chains of 350-450
# operands, t3 of 7 casts: 1.5 s each) so that a pass over them is short.
# These inputs have the same shape at every seed.  A run makes one pass over
# them per EVAL_PASS_S of --seconds, each pass drawing its literals from its
# own random stream, so each pass's ladder points are inputs of their own
# and the metrics are taken over all of them.  The smallest points (10
# operands, no cast) are there for the median: without them it fell
# between the passes of two cast stacks (3 casts under t3 and under t4,
# about 1.7 and 2.5 ms) and jumped between them from run to run; now it
# falls among several inputs of about 1.4 ms.
EVAL_PASS_S = 4.0
PLUS_CHAIN = (10, 50, 100, 150, 200, 250, 300, 500, 550, 600)
LET_CHAIN = tuple(range(10, 41, 5))
CAST_STACK = (0, 1, 2, 3, 4, 5, 6)
CAST_TARGETS = (("rec-sub-to-rec", "rec"), ("rec-sub-to-pre", "rec-pre"))
EVAL_FUEL = 10_000  # the CLI default

OK, FAILED, TIMEOUT = "ok", "failed", "timeout"
BACKSTOP = "backstop:"  # how the detail of an input the backstop stopped starts


class InputTimeout(BaseException):
    """Raised by the backstop alarm; a BaseException so no rowlab handler
    catches it."""


@dataclass(frozen=True)
class Input:
    """One benchmark input.

    ``prop`` is a property name or an eval-scale kind; ``subject`` a
    translation id, a calculus id or a corpus file; ``index`` the generator
    index (verify) or the ladder size (eval-scale).  An eval-scale input
    also carries its pass (``copy``, which picks its literals),
    its text and its known answer.
    """

    workload: str
    prop: str
    subject: str
    seed: int
    index: int
    calculus: str
    copy: int = 0
    source: str = ""
    want_type: str = ""
    want_value: str = "null"  # JSON

    def replay(self, outcome: str, detail: str) -> dict:
        return {
            "workload": self.workload,
            "property": self.prop,
            "subject": self.subject,
            "seed": self.seed,
            "index": self.index,
            "copy": self.copy,
            "outcome": outcome,
            "detail": detail,
        }


@dataclass
class Result:
    outcome: str
    seconds: float  # as measured
    obligations: int  # property cases, or known-answer comparisons
    detail: str
    reasons: tuple[str, ...] = ()  # what the failed obligations report
    scaled_s: float = 0.0  # ``seconds`` scaled to the reference speed (speed.py)


# ---------------------------------------------------------------------------
# Building the input lists


def build_inputs(workload: str, seed: int, seconds: float) -> list[Input]:
    """The workload's inputs for ``seed``, as many as ``seconds`` buys."""
    if workload == "verify-search":
        n = max(1, round(seconds * SEARCH_TERMS_PER_S))
        return _verify_inputs(workload, SEARCH_PAIRS, seed, n)
    if workload == "verify-sweep":
        n = max(1, round(seconds * SWEEP_COUNT_PER_S))
        return _verify_inputs(workload, SWEEP_PAIRS, seed, n)
    if workload == "eval-scale":
        passes = max(1, round(seconds / EVAL_PASS_S))
        return [inp for c in range(passes) for inp in _eval_inputs(seed, c)]
    raise ValueError(f"unknown workload {workload!r}")


def _verify_inputs(workload, pairs, seed, count) -> list[Input]:
    from rowlab.translate import TRANSLATIONS

    # Pair j of P takes generator indices j, j + P, j + 2P, ...: pairs that
    # generate from the same calculus then check different terms, so a run
    # sees count * P distinct terms.  The pairs take turns, so a stretch of
    # the run where the machine is slow falls on every pair alike.
    calcs = [
        subject if prop in ("subject-reduction", "preorder-correspondence")
        else TRANSLATIONS[subject].pairs[0][0]
        for prop, subject in pairs
    ]
    return [
        Input(workload, prop, subject, seed, len(pairs) * i + j, calc)
        for i in range(count)
        for j, ((prop, subject), calc) in enumerate(zip(pairs, calcs))
    ]


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def corpus_dir() -> Path:
    return HERE.parent / "corpus"


def unanswered_corpus_files() -> list[str]:
    """Corpus files that answers.json has no known answer for."""
    known = load_answers()["corpus"]
    return sorted(p.name for p in corpus_dir().glob("*.row") if p.name not in known)


def _eval_inputs(seed: int, copy: int) -> list[Input]:
    """One copy of the corpus and the ladders; ``copy`` picks the literals."""
    rng = random.Random(f"eval-scale:{seed}:{copy}")
    answers = load_answers()
    ladders = answers["ladders"]
    out = []
    for name, ans in sorted(answers["corpus"].items()):
        text = (corpus_dir() / name).read_text(encoding="utf-8")
        out.append(Input("eval-scale", "corpus", name, seed, 0, ans["calculus"],
                         copy, text, ans["type"], json.dumps(ans["value"])))

    plus = ladders["plus-chain"]
    for n in PLUS_CHAIN:
        ops = [rng.randint(1, 9) for _ in range(n)]
        out.append(Input("eval-scale", "plus-chain", plus["calculus"], seed, n,
                         plus["calculus"], copy, " + ".join(map(str, ops)),
                         plus["type"], json.dumps(sum(ops))))
    let = ladders["let-chain"]
    for n in LET_CHAIN:
        value = rng.randint(1, 99)
        text = f"let x0 = {value} in " + "".join(
            f"let x{i} = {{A = x{i - 1}}}.A in " for i in range(1, n + 1)
        ) + f"x{n}"
        out.append(Input("eval-scale", "let-chain", let["calculus"], seed, n,
                         let["calculus"], copy, text, let["type"], json.dumps(value)))
    cast = ladders["cast-stack"]
    for k in CAST_STACK:
        values = [rng.randint(1, 99) for _ in range(k + 1)]
        text = _cast_stack(values)
        for tid, target in CAST_TARGETS:
            out.append(Input("eval-scale", "cast-stack", tid, seed, k, target, copy,
                             text, cast["type"], json.dumps(values[0])))
    return out


def _cast_stack(values: list[int]) -> str:
    """len(values) - 1 narrowing casts (possibly none), each dropping the
    last field, then a projection of the field every cast keeps."""
    labels = [f"L{i}" for i in range(len(values))]
    text = "{" + ", ".join(f"{l} = {v}" for l, v in zip(labels, values)) + "}"
    for kept in range(len(values) - 1, 0, -1):
        text += " :> {" + "; ".join(f"{l}:Int" for l in labels[:kept]) + "}"
    return f"({text}).L0"


# ---------------------------------------------------------------------------
# Running one input


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def _on_alarm(signum, frame):
    raise InputTimeout


def run_input(inp: Input) -> Result:
    """Run ``inp`` under its workload's limits and classify the outcome."""
    units, backstop = BUDGET_UNITS[inp.workload], BACKSTOP_S[inp.workload]
    start = time.perf_counter()
    try:
        budget.start(math.inf if units is None else units)
        signal.setitimer(signal.ITIMER_REAL, backstop)
        try:
            outcome, obligations, detail, reasons = _RUNNERS[inp.workload](inp)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            budget.start(math.inf)
    except budget.Exhausted:
        return Result(TIMEOUT, time.perf_counter() - start, 0,
                      f"work budget of {units} units spent")
    except InputTimeout:
        return Result(TIMEOUT, time.perf_counter() - start, 0,
                      f"{BACKSTOP} no result within {backstop} s")
    except Exception as e:  # any exception is this input's outcome
        outcome, obligations, reasons = FAILED, 0, ()
        detail = f"{type(e).__name__}: {_first_line(e)}"
    return Result(outcome, time.perf_counter() - start, obligations, detail, reasons)


def known_defect(inp: Input, result: Result) -> str:
    """The ROADMAP item 4 defect that a failed input is an instance of, or "".

    The seed state fails in three known ways; any other failure is a wrong
    result, and the run reports it as incorrect.
    """
    if inp.workload == "eval-scale":
        # 4f: checking a long `+` chain overflows Python's stack
        deep = inp.prop == "plus-chain" and inp.index >= 500
        return "4f" if deep and result.detail.startswith("RecursionError") else ""
    if inp.prop == "preorder-correspondence":
        return "4d"  # the checker demands steps the theorem does not
    # 4e: on these pairs a bounded search decides each obligation, and one
    # that ends without a match counts as a counterexample
    searched = inp.prop in ("simulation", "reflection") and inp.subject in SEARCH_TIDS
    if searched and result.reasons and all(r.startswith("no ") for r in result.reasons):
        return "4e"
    return ""


def _first_line(e: BaseException) -> str:
    lines = str(e).splitlines()
    return lines[0][:200] if lines else ""


def _run_verify(inp: Input):
    from rowlab import harness
    from rowlab.config import preset

    spec = harness.GenSpec(
        preset(inp.calculus),
        max_size=SEARCH_SIZE if inp.workload == "verify-search" else SWEEP_SIZE,
        seed=inp.seed,
    )
    cid = f"seed={inp.seed} index={inp.index}"
    tid = inp.subject
    if inp.prop == "substitution":
        dm, dn, var = harness.gen_subst_pair(spec, inp.index)
        rep = harness.check_subst_lemma(tid, dm, dn, var, cid)
    else:
        term, deriv = harness.gen_typed_term(spec, inp.index)
        if inp.prop == "type-preservation":
            rep = harness.check_type_preservation(tid, deriv, cid)
        elif inp.prop == "simulation":
            rep = harness.check_simulation(tid, deriv, VERIFY_DEPTH, cid)
        elif inp.prop == "reflection":
            rep = harness.check_reflection(tid, deriv, VERIFY_DEPTH, cid)
        elif inp.prop == "erasure":
            rep = harness.check_erasure(tid, deriv, cid)
        elif inp.prop == "subject-reduction":
            subject = deriv if deriv is not None else term
            rep = harness.check_subject_reduction(spec.config, subject, VERIFY_DEPTH, cid)
        elif inp.prop == "preorder-correspondence":
            rep = harness.check_preorder_correspondence(deriv, VERIFY_DEPTH, cid)
        else:
            raise ValueError(f"unknown property {inp.prop!r}")
    if rep.passed:
        return OK, rep.cases, "", ()
    _, term_shown, _, _ = rep.failures[0]
    return (FAILED, rep.cases,
            f"{len(rep.failures)} of {rep.cases} obligations fail: {term_shown}",
            tuple(sorted({got for *_, got in rep.failures})))


def _run_eval(inp: Input):
    """The calls behind `rowlab check` and `rowlab eval`, then the comparison
    of the type and (for values) the normal form with the known answer."""
    from rowlab import dynamics, infer, parser, pretty, statics, syntax, translate
    from rowlab.config import preset

    delta, gamma, term = parser.parse_file_str(inp.source)
    if inp.prop == "cast-stack":
        source_cfg = preset(translate.TRANSLATIONS[inp.subject].pairs[0][0])
        deriv = statics.type_check(source_cfg, delta, gamma, term)
        term = translate.run_translation(inp.subject, deriv)
    cfg = preset(inp.calculus)
    if cfg.rank1:
        shown = pretty.show_scheme(infer.infer(cfg, delta, gamma, term))
        type_ok = _canonical_scheme(shown) == _canonical_scheme(inp.want_type)
    else:
        ty = statics.type_check(cfg, delta, gamma, term).type
        shown = pretty.show_type(ty)
        type_ok = syntax.type_equal(ty, parser.parse_type_str(inp.want_type))
    subject = dynamics.erase(term) if cfg.subtyping in ("covariant", "full") else term
    result, _ = dynamics.reduction_trace(subject, dynamics.relations_for(cfg), EVAL_FUEL)
    compared = 1
    value_ok = True
    want_value = json.loads(inp.want_value)
    if want_value is not None:
        compared += 1
        value_ok = decode_value(result) == want_value
    if type_ok and value_ok:
        return OK, compared, "", ()
    return FAILED, compared, f"type {shown}, result {pretty.show_term(result)}", ()


def _canonical_scheme(text: str) -> str:
    """A printed scheme with its quantified names replaced by q0, q1, ..."""
    text = " ".join(text.split())
    if not text.startswith("forall "):
        return text
    binders, _, body = text[len("forall "):].partition(". ")
    names = [b.split(":", 1)[0] for b in binders.split(" ")]
    out = f"forall {binders}. {body}"
    for i, name in enumerate(names):
        out = re.sub(rf"\b{re.escape(name)}\b", f"q{i}", out)
    return out


def decode_value(term):
    """A closed value as JSON data: literals as themselves, records as
    objects, injections as {"<Label>": payload}; anything else as None."""
    from rowlab import syntax

    if isinstance(term, syntax.Lit):
        return term.value
    if isinstance(term, syntax.RecordLit):
        return {label: decode_value(v) for label, v in term.fields}
    if isinstance(term, syntax.Inject):
        return {f"<{term.label}>": decode_value(term.payload)}
    return None


_RUNNERS = {
    "verify-search": _run_verify,
    "verify-sweep": _run_verify,
    "eval-scale": _run_eval,
}

WORKLOADS = tuple(_RUNNERS)
