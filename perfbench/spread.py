#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads all|NAME,...] [--seeds 1,2,...]
                                [--repeat N] [--record FILE --label NAME]
                                [--against LABEL]

Runs `run.py --workload W --seed S --trace 0`, each run in its own
process, and prints for every workload and end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.

Runs are interleaved in time: every workload runs once per seed before
any runs again, and --repeat N goes over the seed list N times. Two
views follow from the same command:

* --seeds 42 --repeat 10: ten runs of one seed, so the spread is the
  run-to-run noise of the same inputs and code, on which a bound is
  judged;
* --seeds 1,...,10: one run per seed, so the spread adds how the work
  itself varies between seeds' inputs.

--record stores the values and the summary under --label in FILE (JSON);
workloads recorded under the same label by separate calls are merged, so
one label can hold sets run one workload after another.
--against LABEL compares each median with the one recorded under LABEL
and flags a metric that got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "bound": bound}


def worse_by(spec, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if spec["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--record", type=Path)
    ap.add_argument("--label")
    ap.add_argument("--against")
    args = ap.parse_args()
    if args.record and not args.label:
        ap.error("--record needs --label")
    workloads = (harness.WORKLOADS if args.workloads == "all"
                 else args.workloads.split(","))
    seeds = [int(s) for s in args.seeds.split(",")] * args.repeat
    data = (json.loads(args.record.read_text())
            if args.record and args.record.exists() else {})
    baseline = data.get(args.against, {}) if args.against else {}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            t = time.monotonic()
            runs[w].append({"seed": seed, "metrics": run_once(w, seed)})
            print(f"{w} seed {seed}: {time.monotonic() - t:.1f} s wall",
                  flush=True)

    recorded = {}
    for w in workloads:
        summary = {}
        print(f"\n{w} ({len(seeds)} runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound/3':>7}"
              + (f" {'vs ' + args.against:>16}" if baseline else ""))
        for spec in harness.E2E:
            name = spec["name"]
            s = summarize([r["metrics"][name] for r in runs[w]],
                          spec["bound"])
            summary[name] = s
            line = (f"  {name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} "
                    f"{s['q3']:>12.6g} {s['spread']:>7.4f} "
                    f"{spec['bound'] / 3:>7.4f}"
                    + ("" if s["spread"] < spec["bound"] / 3 else " WIDE"))
            if w in baseline:
                worse = worse_by(spec, s["median"],
                                 baseline[w]["summary"][name]["median"])
                line += f" {worse:>+15.4f}" + (
                    " WORSE" if worse > spec["bound"] else "")
            print(line)
        recorded[w] = {"runs": runs[w], "summary": summary}
    if args.record:
        data.setdefault(args.label, {}).update(recorded)
        args.record.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    main()
