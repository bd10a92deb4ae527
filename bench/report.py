"""Run every workload over several seeds and write bench/baseline.json.

    python3 bench/report.py --seeds 0-9 --seconds 24

Each run is its own `bench/run.py` process, started one at a time.  For each
workload the report holds:

* every end-to-end metric's median, quartiles and spread (interquartile
  range over median) across the untraced runs, one per seed;
* the input count, the per-input limits, the tail percentile, the outcome
  counts per seed and the replay lines of the first seed;
* one traced run at the first seed: every per-layer metric, each layer's
  self time as a share of the time all the traced run's inputs took, and
  the tracing overhead: at that seed, the traced minus the untraced time of
  the inputs that both runs decided (the work budget ends the same inputs
  in both, at a point that does not depend on the time they took).

It also records the `src/` line count (informational, not gated) and the
machine the numbers were taken on.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-search", "verify-sweep", "eval-scale")
RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-", 1)
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's `details` line and result line, parsed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return [json.loads(l[len(tag) + 1:]) for l in lines if l.startswith(tag + " ")]

    return {
        "details": tagged("details")[0],
        "replay": tagged("replay"),
        "backstop": tagged("backstop"),
        "result": json.loads(lines[-1]),
    }


def tracing_overhead(workload: str, seed: int) -> tuple[float, int]:
    """Traced minus untraced seconds over the inputs both runs decided, and
    how many inputs that is (run.py writes each input's outcome and time)."""
    def decided(trace):
        path = ROOT / ".bench_out" / f"inputs-{workload}-seed{seed}-trace{trace}.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        return {tuple(row[:4]): row[5] for row in rows if row[4] != "timeout"}

    plain, traced = decided(0), decided(1)
    both = plain.keys() & traced.keys()
    return sum(traced[k] - plain[k] for k in both), len(both)


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(workloads, seeds, seconds) -> dict:
    out = {
        "seconds": seconds,
        "seeds": seeds,
        "src_lines": src_lines(),
        "machine": {"cpu": _cpu(), "python": platform.python_version(),
                    "system": platform.platform()},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        metrics = {
            name: _stats([r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]
        }
        for name, stats in metrics.items():
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        first = runs[0]["details"]
        traced = run_once(workload, seeds[0], seconds, 1)
        tdet = traced["details"]
        overhead_s, overhead_inputs = tracing_overhead(workload, seeds[0])
        out["workloads"][workload] = {
            "inputs": first["attempted"],
            "budget_units": first["budget_units"],
            "backstop_s": first["backstop_s"],
            "tail_percentile": first["tail_percentile"],
            "per_seed": [
                {**{key: r["details"][key] for key in
                    ("seed", "ok", "failed", "timeout", "failed_share",
                     "unexpected_failures", "measured_s", "speed_factor")},
                 "backstop": len(r["backstop"])}
                for r in runs
            ],
            "replay_first_seed": runs[0]["replay"],
            "end_to_end": metrics,
            "traced": {
                "seed": seeds[0],
                "wall_s": tdet["wall_s"],
                "input_time_s": tdet["traced_s"],
                "tracing_overhead_s": overhead_s,
                "tracing_overhead_inputs": overhead_inputs,
                "layer_self_share": tdet["layer_self_share"],
                "largest_layer": tdet["largest_layer"],
                "largest_layer_named_by_why": tdet["largest_layer_named"],
                "spans": tdet["spans"],
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            },
        }
        print(f"{workload} traced: done", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="a range, lo-hi")
    p.add_argument("--seconds", type=float, default=24)
    args = p.parse_args(argv)
    data = report(WORKLOADS, _seeds(args.seeds), args.seconds)
    (HERE / "baseline.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for workload, w in data["workloads"].items():
        print(f"{workload}: {w['inputs']} inputs, budget {w['budget_units']} units, "
              f"tail is p{w['tail_percentile']}")
        for name, s in w["end_to_end"].items():
            print(f"  {name:14s} median {s['median']:14.6f} {s['unit']:6s} "
                  f"spread {s['spread']:.3f}")
        t = w["traced"]
        print(f"  tracing overhead {t['tracing_overhead_s']:+.3f} s over the "
              f"{t['tracing_overhead_inputs']} inputs decided in both runs; "
              f"largest layer {t['largest_layer']}"
              + ("" if t["largest_layer_named_by_why"] else " (not named by its why)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
