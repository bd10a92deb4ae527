"""rowlab benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload verify-search --seed 0 --seconds 24 --trace 0

Workloads (see NOTES.md for why each was chosen):

* verify-search  simulation and reflection on rec-sub-to-rec/rec-sub-to-pre
                 at max_size 8, depth 2: step enumeration and _Reach search;
* verify-sweep   every other (property, pair) a theorem covers, max_size 12:
                 term generation;
* eval-scale     `rowlab check` + `rowlab eval` on the corpus and on `+`,
                 `let` and stacked-cast ladders: rewriting and translation.

The run is single threaded and starts no process.  It builds its inputs from
``--seed`` (as many as ``--seconds`` buys at a fixed rate, so the same
arguments give the same inputs on every commit), runs each under the
workload's per-input limits and compares each result with its known
answer.  A verify input's limit is a work budget (budget.py), so the
same inputs run out of it on every run; a wall-clock backstop stops any
input that runs far longer than the budget allows.  Every time metric is
scaled to the speed of a fixed reference computation timed beside the
inputs (speed.py), because the machine's own speed drifts by more than the
bounds allow.  The run is correct when every failure is one of the seed
state's known defects (``workloads.known_defect``).  Set-up (importing
rowlab and building the input list) is repeated SETUP_REPEATS times and its
median reported as ``setup_s``.

``--trace 0`` reports the end-to-end metrics.  The per-layer times of
``--trace 1`` are as measured.  ``--trace 1`` wraps rowlab's
layer functions (tracing.py), reports the per-layer metrics, the share of
traced time each layer's self time takes, and writes the spans to
``.bench_out/``.  Failed and timed-out inputs are printed as ``replay``
lines that name the (property, pair or calculus, seed, index) to rerun;
inputs the backstop stopped, whose outcome may differ between runs, are
also printed as ``backstop`` lines.
Each input's outcome and time go to ``.bench_out/inputs-*.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

# the layers each workload's "why" names as where its time goes
NAMED_LAYERS = {
    "verify-search": ("dynamics.step_all", "harness.check", "pretty.show_term",
                      "syntax.alpha_eq"),
    "verify-sweep": ("harness.gen", "syntax.type_equal", "pretty.show_type"),
    "eval-scale": ("dynamics.step_all", "syntax.subst_term", "translate.run_translation"),
}

END_TO_END = {
    "wall_s": "s",
    "input_ms_p50": "ms",
    "input_ms_tail": "ms",
    "decided_share": "ratio",
    "obligations": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _load_rowlab() -> None:
    """Import rowlab afresh (every module, as the CLI does)."""
    for name in [m for m in sys.modules if m == "rowlab" or m.startswith("rowlab.")]:
        del sys.modules[name]
    importlib.import_module("rowlab.cli")


def setup(workload: str, seed: int, seconds: float):
    """Median set-up time over SETUP_REPEATS (scaled to the reference
    speed), and the input list."""
    import speed
    import workloads

    times = []
    before = speed.reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _load_rowlab()
        inputs = workloads.build_inputs(workload, seed, seconds)
        took = time.perf_counter() - start
        after = speed.reference()
        times.append(took * speed.factor(before, after))
        before = after
    return statistics.median(times), inputs


def measure(inputs, tracer=None):
    """Run every input once; per-input results in input order, each with
    its time scaled to the reference speed of its stretch of the run."""
    import speed
    import workloads

    workloads.install_alarm()
    gc.collect()
    results = []
    chunk, chunk_s = [], 0.0
    before = speed.reference()
    for k, inp in enumerate(inputs):
        if tracer is not None:
            tracer.reset_stack()
        r = workloads.run_input(inp)
        results.append(r)
        chunk.append(r)
        chunk_s += r.seconds
        if chunk_s >= speed.CHUNK_S or k == len(inputs) - 1:
            after = speed.reference()
            f = speed.factor(before, after)
            for c in chunk:
                c.scaled_s = c.seconds * f
            chunk, chunk_s, before = [], 0.0, after
    return results


def summarize(inputs, results, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics and the facts printed beside them."""
    import workloads

    workload = inputs[0].workload
    times = sorted(r.scaled_s for r in results)
    # The tail is taken over inputs that reached a verdict or result: a
    # timed-out input has no time to a verdict (decided_share counts it).
    decided = sorted(r.scaled_s for r in results if r.outcome != workloads.TIMEOUT) or times
    tail_rank = max(0, len(decided) - 11)  # the 11th largest: 10 beyond it
    outcomes = [r.outcome for r in results]
    ok = outcomes.count(workloads.OK)
    failed = outcomes.count(workloads.FAILED)
    metrics = {
        "wall_s": sum(times),
        "input_ms_p50": 1000 * statistics.median(times),
        "input_ms_tail": 1000 * decided[tail_rank],
        "decided_share": ok / len(results),
        "obligations": sum(r.obligations for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    facts = {
        "attempted": len(results),
        # the inputs' time as measured, and the median scale factor
        "measured_s": sum(r.seconds for r in results),
        "speed_factor": statistics.median(r.scaled_s / r.seconds for r in results if r.seconds),
        "ok": ok,
        "failed": failed,
        "timeout": outcomes.count(workloads.TIMEOUT),
        "failed_share": failed / len(results),
        "tail_percentile": round(100 * (tail_rank + 1) / len(decided), 3),
        "decided_inputs": len(decided),
        "budget_units": workloads.BUDGET_UNITS[workload],
        "backstop_s": workloads.BACKSTOP_S[workload],
        # inputs the wall-clock backstop stopped: unlike the work budget, the
        # backstop may stop an input in one run and not in another
        "backstop": [
            inp.replay(r.outcome, r.detail)
            for inp, r in zip(inputs, results)
            if r.detail.startswith(workloads.BACKSTOP)
        ],
    }
    return metrics, facts


def write_times(path: Path, inputs, results) -> None:
    """Each input's outcome and scaled time, for report.py's tracing
    overhead."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[inp.prop, inp.subject, inp.index, inp.copy, r.outcome, r.scaled_s]
            for inp, r in zip(inputs, results)]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def layer_shares(tracer, traced_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the time every input took."""
    shares = {layer: (tracer.self_s[k] / traced_s if traced_s else 0.0)
              for k, layer in enumerate(tracer.layers)}
    return dict(sorted(shares.items(), key=lambda kv: kv[1], reverse=True))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "rowlab" / "__init__.py").is_file():
        print(f"bench: no rowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, inputs = setup(args.workload, args.seed, args.seconds)
    import budget

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    budget.install(tracer)
    results = measure(inputs, tracer)
    metrics, facts = summarize(inputs, results, setup_s)
    out_dir = ROOT / ".bench_out"
    write_times(out_dir / f"inputs-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                inputs, results)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": metrics["wall_s"],
        **{k: v for k, v in facts.items() if k != "backstop"},
        "backstop": len(facts["backstop"]),
    }
    if tracer is not None:
        values = tracer.metrics()
        report = {name: {"value": values[name], "unit": unit}
                  for name, unit in tracing.per_layer_names().items()}
        traced_s = sum(r.seconds for r in results)
        shares = layer_shares(tracer, traced_s)
        largest = next(iter(shares))
        named = largest in NAMED_LAYERS[args.workload]
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(spans)
        details.update(traced_s=traced_s, layer_self_share=shares, largest_layer=largest,
                       largest_layer_named=named, spans=len(tracer.span_layer))
    else:
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}

    # Known answers: every failure must be one of the seed state's known
    # defects.
    replay, unexpected = [], 0
    for inp, r in zip(inputs, results):
        if r.outcome == workloads.OK:
            continue
        entry = inp.replay(r.outcome, r.detail)
        if r.outcome == workloads.FAILED:
            entry["known_defect"] = workloads.known_defect(inp, r)
            unexpected += not entry["known_defect"]
        replay.append(entry)
    unanswered = workloads.unanswered_corpus_files() if args.workload == "eval-scale" else []
    for name in unanswered:
        print(f"bench: corpus/{name} has no known answer in answers.json", file=sys.stderr)
    if unexpected:
        print(f"bench: {unexpected} inputs failed in a way no known defect explains "
              "(replay lines with an empty known_defect)", file=sys.stderr)
    details["unexpected_failures"] = unexpected

    for entry in replay:
        print("replay " + json.dumps(entry))
    for entry in facts["backstop"]:
        print("backstop " + json.dumps(entry))
    if facts["backstop"]:
        print(f"bench: the {facts['backstop_s']} s backstop stopped "
              f"{len(facts['backstop'])} inputs; their outcome may differ between "
              "runs (backstop lines)", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{facts['attempted']} inputs, budget "
          f"{facts['budget_units']} units and backstop {facts['backstop_s']} s per "
          f"input, {facts['ok']} ok, {facts['failed']} failed, {facts['timeout']} "
          "timeout")
    units = dict(END_TO_END, failed_share="ratio")
    for name, value in dict(metrics, failed_share=facts["failed_share"]).items():
        print(f"  {name:14s} {value:14.6f} {units[name]}")
    print(f"  input_ms_tail is p{facts['tail_percentile']} of the "
          f"{facts['decided_inputs']} inputs that ended within their limits")
    if tracer is not None:
        for layer, share in shares.items():
            print(f"layer {layer:28s} self {share:7.2%} of the traced input time")
        if not named:
            print(f"note: the largest layer is {largest}, not one the workload's "
                  f"why names ({', '.join(NAMED_LAYERS[args.workload])})")
        print(f"spans: {len(tracer.span_layer)} written to {spans.relative_to(ROOT)}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not unanswered and not unexpected,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
