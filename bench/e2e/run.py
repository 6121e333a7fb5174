#!/usr/bin/env python3
"""Builds and runs the spauth end-to-end benchmark (bench/e2e).

One run, the form the benchmark contract fixes:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name, unit and sample count, and as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics with
--trace 1.

Sets of runs (seeds 1..N, then seed 1 again for the determinism check):

    python3 bench/e2e/run.py [--runs N] [--seconds S] [--trace] [--smoke]
    python3 bench/e2e/run.py --compare BASE.json NEW.json

The driver is built from source into build/e2e/ on first use; traces,
per-layer summaries and result files land under build/e2e/ too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "spauth_e2e")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 3

# Counts that must repeat exactly for a given seed (a later claim may rest
# on them as counts).
DETERMINISM_KEYS = [
    "proof_bytes_mean", "tuples_per_answer", "digests_per_answer",
    "rsa_verifies_per_answer", "rsa_signs_per_rotation",
    "wal_replayed_records", "cache_hit_ratio",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: the spauth sources (CMakeLists.txt, src/) are missing")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "spauth_e2e"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("run.py: %s failed: %s" % (" ".join(step), e))
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: %s failed" % " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_one(workload, seed, seconds, traced, smoke):
    """Runs one workload in its own process; returns its result dict (with
    "summary" added for traced runs), or None when it produced none."""
    tag = "%s-seed%d%s%s" % (workload, seed, "-traced" if traced else "",
                             "-smoke" if smoke else "")
    for sub in ("results", "traces", "scratch"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    out = os.path.join(BUILD, "results", tag + ".json")
    trace = os.path.join(BUILD, "traces", tag + ".trace.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", out,
           "--scratch-dir",
           os.path.join(BUILD, "scratch", "%s-%d" % (tag, os.getpid()))]
    if traced:
        cmd += ["--trace", trace]
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(out):
        os.remove(out)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % tag)
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    if not os.path.isfile(out):
        log("run.py: %s exited %d without a result" % (tag, done.returncode))
        return None
    with open(out) as f:
        result = json.load(f)
    result["exit_code"] = done.returncode
    if traced:
        try:
            with open(trace + ".summary.json") as f:
                result["summary"] = json.load(f)
        except (OSError, ValueError):
            result["summary"] = None
    return result


def run_ok(result):
    return (result is not None and result["exit_code"] == 0 and
            result["correct"] and result["ops_failed"] == 0)


def fmt(v):
    return "n/a" if v is None else "%.6g" % v


# ---------------------------------------------------------------------------
# The single-run contract
# ---------------------------------------------------------------------------

def contract_run(args, bench):
    traced = args.trace not in ("0", "false", "False")
    if not build():
        return 1
    result = run_one(args.workload, args.seed, args.seconds, traced, False)
    if result is None:
        return 1
    correct = run_ok(result)
    metrics = {}
    if traced:
        layers = (result.get("summary") or {}).get("layers", {})
        print("workload %s seed %d, traced: per-layer means" %
              (args.workload, args.seed))
        for m in bench["per_layer"]:
            layer = layers.get(m["name"])
            if layer is None or layer["n"] == 0:
                log("run.py: per-layer metric %s has no samples" % m["name"])
                correct = False
                continue
            metrics[m["name"]] = {"value": layer["mean"], "unit": m["unit"]}
            print("  %-40s %12s %-5s (n=%d)" % (m["name"], fmt(layer["mean"]),
                                                m["unit"], layer["n"]))
        for path, r in sorted(result.get("residuals", {}).items()):
            print("  residual %-12s %+.1f %% of its end-to-end mean" %
                  (path, 100 * r["share"]))
    else:
        print("workload %s seed %d: end-to-end metrics" %
              (args.workload, args.seed))
        for m in bench["end_to_end"]:
            got = result["metrics"].get(m["name"])
            if got is None or got["value"] is None:
                correct = False
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
            print("  %-18s %14s %-7s (n=%d)" % (m["name"], fmt(got["value"]),
                                               got["unit"], got["n"]))
        print("  not bounded (moves with the host's load and clock speed):")
        for name, got in result["unbounded"].items():
            print("  %-18s %14s %-7s (n=%d)" % (name, fmt(got["value"]),
                                               got["unit"], got["n"]))
        print("  slo_met=%s (query p99 within 5 ms)" % result["slo_met"])
        print("  fail_ratio %s (%d of %d operations failed), valid=%s" % (
            fmt(result["fail_ratio"]), result["ops_failed"],
            result["ops_attempted"], result["valid"]))
    for failure in result.get("failures", []):
        print("  FAILED: %s" % failure)
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["ops_attempted"]),
                      "failed": int(result["ops_failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Sets of runs
# ---------------------------------------------------------------------------

def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a value list."""
    values = [v for v in values if v is not None]
    if not values:
        return None, None, None, None
    med = statistics.median(values)
    if len(values) < 2:
        return med, None, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else None


def summarize(runs, bench):
    rows = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, share = spread(values)
        rows[m["name"]] = {
            "unit": m["unit"], "bound": m["bound"], "median": med, "q1": q1,
            "q3": q3, "spread": share, "values": values,
            "n": [r["metrics"][m["name"]]["n"] for r in runs]}
    return rows


def print_rows(workload, rows):
    print("\n%s (%d runs)" % (workload, len(next(iter(rows.values()))["values"])))
    print("  %-18s %-5s %14s %12s %12s %8s %6s %s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound", "n"))
    for name, r in rows.items():
        flag = ""
        if r["spread"] is not None and name != "setup_s":
            if r["spread"] > r["bound"]:
                flag = "  WIDER THAN BOUND"
            elif r["spread"] > r["bound"] / 3:
                flag = "  above bound/3"
        print("  %-18s %-5s %14s %12s %12s %8s %6s %s%s" % (
            name, r["unit"], fmt(r["median"]), fmt(r["q1"]), fmt(r["q3"]),
            "n/a" if r["spread"] is None else "%.2f%%" % (100 * r["spread"]),
            "%g" % r["bound"], r["n"][0], flag))


def print_breakdown(result, bench):
    layers = (result.get("summary") or {}).get("layers", {})
    print("  per-layer (traced, seed %d): mean / p50 / p99" % result["seed"])
    for name in sorted(layers):
        layer = layers[name]
        print("    %-40s %-5s n=%-7d %10s %10s %10s" % (
            name, layer["unit"], layer["n"], fmt(layer["mean"]),
            fmt(layer["p50"]), fmt(layer["p99"])))
    for path, r in sorted(result.get("residuals", {}).items()):
        print("    residual of %-12s %+.1f %% of its end-to-end mean" %
              (path, 100 * r["share"]))


def set_run(args, bench):
    if args.smoke and args.seconds is None:
        args.seconds = SMOKE_SECONDS
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if not build():
        return 1
    traced = args.trace not in ("0", "false", "False")
    # Smoke runs skip the seed-1 repeat unless traced: they check plumbing.
    repeat = traced or not args.smoke
    ok = True
    report = {"seconds": args.seconds, "smoke": args.smoke,
              "runs": args.runs, "workloads": {}}
    started = time.time()
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_one(name, seed, args.seconds, False, args.smoke)
            if not run_ok(result):
                log("run.py: %s seed %d FAILED: %s" % (
                    name, seed, result and result.get("failures")))
                ok = False
            if result is not None:
                runs.append(result)
        entry = {"runs": runs}
        if runs and len(runs) == args.runs:
            entry["metrics"] = summarize(runs, bench)
            print_rows(name, entry["metrics"])
            invalid = [r["seed"] for r in runs if not r["valid"]]
            if invalid:
                print("  generator lateness over 500 us (runs flagged "
                      "invalid): seeds %s" % invalid)
        # Seed 1 again: traced when asked, so the same repeat also yields
        # the per-layer breakdown and the tracing overhead.
        if runs and repeat:
            again = run_one(name, 1, args.seconds, traced, args.smoke)
            if not run_ok(again):
                ok = False
            if again is not None:
                diffs = [k for k in DETERMINISM_KEYS
                         if again["determinism"][k] != runs[0]["determinism"][k]]
                entry["determinism_ok"] = not diffs
                if diffs:
                    print("  DETERMINISM: %s differ between two seed-1 runs" %
                          diffs)
                    ok = False
                else:
                    print("  determinism: %d counts repeat exactly" %
                          len(DETERMINISM_KEYS))
                if traced:
                    entry["traced"] = again
                    overhead = {}
                    for m in bench["end_to_end"]:
                        base = runs[0]["metrics"][m["name"]]["value"]
                        t = again["metrics"][m["name"]]["value"]
                        if base and t is not None:
                            overhead[m["name"]] = (t - base) / base
                    entry["tracing_overhead"] = overhead
                    print("  tracing overhead (traced vs untraced, seed 1): " +
                          ", ".join("%s %+.1f%%" % (k, 100 * v)
                                    for k, v in overhead.items()))
                    print_breakdown(again, bench)
        report["workloads"][name] = entry
    report["ok"] = ok
    report["elapsed_s"] = time.time() - started
    out = os.path.join(BUILD, "results",
                       "e2e-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nresult JSON: %s (%.0f s)" % (out, report["elapsed_s"]))
    if not ok:
        print("FAILED")
    else:
        print("all runs correct" + (" and deterministic" if repeat else ""))
    return 0 if ok else 1


def compare(base_path, new_path, bench):
    """Per workload and end-to-end metric: the new median against the base
    median and the metric's bound."""
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worse_any = False
    for name, entry in new["workloads"].items():
        if name not in base["workloads"] or "metrics" not in entry:
            continue
        print("\n%s" % name)
        for m in bench["end_to_end"]:
            b = base["workloads"][name]["metrics"][m["name"]]
            n = entry["metrics"][m["name"]]
            if not b["median"]:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            worse = -change if m["better"] == "higher" else change
            verdict = "worse than bound" if worse > m["bound"] else "within bound"
            if b["spread"] is not None and b["spread"] > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            worse_any |= verdict == "worse than bound"
            print("  %-18s %14s -> %14s %+7.2f%%  bound %g  %s" % (
                m["name"], fmt(b["median"]), fmt(n["median"]), 100 * change,
                m["bound"], verdict))
    return 1 if worse_any else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log("run.py: cannot read BENCHMARK.json: %s" % e)
        return 1
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    if args.workload:
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return contract_run(args, bench)
    return set_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
