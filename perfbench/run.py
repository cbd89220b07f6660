#!/usr/bin/env python3
"""Run the repo benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                             [--record FILE]

Builds the dprank libraries and the workload driver from source into
.bench_build/ (first run only), generates the seeded inputs (cached per
seed), runs the workload in its own process, checks its outputs and
prints:

* a human-readable summary with every metric by name and unit, and the
  host/build stamp;
* as the last line, one JSON object {"correct", "attempted", "failed",
  "metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0,
  its per-layer metrics with --trace 1.

Each workload measures for BENCHMARK.json's run_seconds. --seconds is
accepted only with that value, the form in which the benchmark's callers
pass it. --trace 1 alternates windows with and without span recording
inside one run, so the tracing overhead is measured against untraced work
of the same process. --workload all runs every workload and prefixes each
metric with its workload name. --record writes the stamp and every
computed metric to FILE as JSON.

Exit status: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
INPUTS_DIR = BUILD_ROOT / "inputs"
RESULTS_DIR = BUILD_ROOT / "results"
DRIVER = CMAKE_DIR / "perfbench_driver"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no dprank sources at {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    build_log = BUILD_ROOT / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                raise BenchError(f"build failed ({' '.join(cmd[:2])}); "
                                 f"see {build_log}")


def driver(args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.run([str(DRIVER)] + args, capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"driver {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout


# ---- stamp ----------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def l3_size():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over src/ and the benchmark's own files (not its recorded
    results), so a stamp names the code even in a checkout without git
    metadata."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.glob("*"))
    for path in paths:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed):
    s = json.loads(driver(["stamp"]))
    s.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3": l3_size(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    })
    return s


# ---- one workload ---------------------------------------------------------

def inputs(workload, seed):
    """Seeded inputs, generated once per (driver source, workload, seed)
    and cached."""
    driver_sha = hashlib.sha256((BENCH_DIR / "driver.cpp").read_bytes())
    final = INPUTS_DIR / f"{workload}-seed{seed}-{driver_sha.hexdigest()[:12]}"
    if (final / "ready").is_file():
        return final
    tmp = INPUTS_DIR / f".{workload}-seed{seed}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    driver(["prepare", "--workload", workload, "--seed", str(seed),
            "--dir", str(tmp)], timeout=RUN_TIMEOUT_S)
    (tmp / "ready").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


def run_driver(workload, seed, trace, input_dir):
    out = driver(["run", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(harness.RUN_SECONDS),
                  "--trace", "1" if trace else "0", "--dir", str(input_dir)])
    return json.loads(out)


def check_digest(raw, input_dir, code):
    """The rank digest must not change between runs of the same code and
    seed: the first run records it, later runs compare."""
    path = input_dir / f"digest-{code}"
    if path.is_file():
        expected = path.read_text().strip()
        if raw["digest"] != expected:
            return [f"rank digest {raw['digest']} differs from the "
                    f"{expected} an earlier run of this seed produced"]
        return []
    path.write_text(raw["digest"] + "\n")
    return []


def run_workload(workload, seed, trace, code):
    """Run one workload; returns (record, attempted, failed)."""
    input_dir = inputs(workload, seed)
    raw = run_driver(workload, seed, trace, input_dir)
    digest_failures = check_digest(raw, input_dir, code)
    failures = raw["failures"] + digest_failures
    attempted = raw["attempted"] + 1
    failed = raw["failed"] + len(digest_failures)

    record = {"workload": workload, "seed": seed,
              "seconds": harness.RUN_SECONDS, "failures": failures}
    if failed == 0:
        record["path"] = harness.path_metrics(workload, raw)
        record["e2e"] = harness.e2e_metrics(workload, raw)
        if trace:
            record["layer"] = harness.layer_metrics(workload, raw)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json",
              "w") as f:
        json.dump(dict(record, raw=raw), f)
    return record, attempted, failed


# ---- output ---------------------------------------------------------------

def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def summarize(record, trace, l3):
    w = record["workload"]
    lines = [f"== {w} (seed {record['seed']}, {record['seconds']} s)"]
    for f in record["failures"]:
        lines.append(f"  FAILED: {f}")
    if "path" not in record:
        return lines
    path = record["path"]
    group = "rank" if w in harness.RANK else w
    lines.append("  path metrics:")
    for name in harness.PATH_METRICS[group]:
        extra = ""
        if name == "served_tail_ms":
            extra = (f"  (p{path['served_tail_percentile']} of "
                     f"{path['served_batches']} batches)")
        lines.append(f"    {name:<22} {fmt(path[name]):>14} "
                     f"{harness.PATH_UNITS[name]}{extra}")
    lines.append("  end-to-end (gated):")
    for spec in harness.E2E:
        name = spec["name"]
        lines.append(f"    {name:<22} {fmt(record['e2e'][name]):>14} "
                     f"{spec['unit']}")
    if trace:
        layer = record["layer"]
        lines.append("  per-layer (the end-to-end metric it should move; "
                     "workloads with the most / least of its work):")
        for spec in harness.PER_LAYER:
            name = spec["name"]
            if name.endswith(".self_s") or name.startswith("trace."):
                continue
            moves, most, least = harness.LAYER_MOVES[name]
            lines.append(f"    {name:<34} {fmt(layer[name]):>14} "
                         f"{spec['unit']:<7}  -> {moves}; {most} / {least}")
        lines.append("  self time by layer (recorded windows of the "
                     "traced run):")
        for l in harness.SPANNED_LAYERS:
            lines.append(f"    {l:<34} {fmt(layer[l + '.self_s']):>14} s")
        lines.append(f"    {'uncovered share':<34} "
                     f"{fmt(layer['trace.uncovered_share']):>14}")
        lines.append(f"    {'tracing overhead (traced/untraced)':<34} "
                     f"{fmt(layer['trace.overhead_ratio']):>14}")
        if w in harness.RANK:
            lines.append(
                "  fold probe: GB/s counts 8 computed (not measured) bytes "
                "per gathered edge; working set "
                f"{fmt(layer['common.fold_working_set_mb'])} MB against "
                f"L3 {l3}: a set that fits in L3 gives a "
                "cache-resident rate, not a DRAM one")
    return lines


def metrics_of(record, trace):
    specs = harness.PER_LAYER if trace else harness.E2E
    values = record["layer"] if trace else record["e2e"]
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in specs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=harness.RUN_SECONDS,
                    help="must equal run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    if args.seconds != harness.RUN_SECONDS:
        ap.error(f"the run length is BENCHMARK.json's run_seconds "
                 f"({harness.RUN_SECONDS}), not {args.seconds:g}")
    trace = args.trace == 1
    workloads = (list(harness.WORKLOADS) if args.workload == "all"
                 else [args.workload])
    try:
        build()
        host = stamp(args.seed)
        records = []
        attempted = failed = 0
        for w in workloads:
            t = time.monotonic()
            record, a, f = run_workload(w, args.seed, trace,
                                        host["source_sha256"])
            record["wall_s"] = time.monotonic() - t
            records.append(record)
            attempted += a
            failed += f
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    for record in records:
        for line in summarize(record, trace, host["l3"]):
            print(line)
    print("stamp: " + json.dumps(host))
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(
            {"stamp": host, "trace": args.trace, "workloads": records},
            indent=1, sort_keys=True) + "\n")

    metrics = {}
    for record in records:
        if "path" not in record:
            continue
        for name, m in metrics_of(record, trace).items():
            key = name if len(records) == 1 else f"{record['workload']}.{name}"
            metrics[key] = m
    correct = failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
