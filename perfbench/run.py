#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload serve-churn --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The program is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build).  Lines before the last one
are a human summary (host, every end-to-end metric with its unit and
sample counts, the gate, tracing overhead); the last line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A run whose correctness gate fails
prints correct=false with no metrics and exits 1.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("serve-churn", "serve-capstorm", "cluster-10k")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the harness; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no library sources under %s/src" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def parse_document(stdout):
    """The harness prints exactly one JSON line and nothing else."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if len(lines) != 1:
        raise ValueError("expected one JSON line from the harness, got %d"
                         % len(lines))
    doc = json.loads(lines[0])
    for key in ("correct", "gate", "attempted", "failed", "end_to_end",
                "per_layer", "info", "build"):
        if key not in doc:
            raise ValueError("harness document lacks %r" % key)
    return doc


def run_harness(binary, workload, seed, seconds, trace, corrupt=False):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", results]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    doc = parse_document(proc.stdout)
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == doc["correct"]:
        raise ValueError("harness exit code %d disagrees with correct=%s"
                         % (proc.returncode, doc["correct"]))
    return doc


def result_line(doc, spec, trace):
    """The final line: the contract's four keys, metrics from the spec."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    section = doc["per_layer" if trace else "end_to_end"]
    correct = bool(doc["correct"])
    metrics = {}
    for m in wanted if correct else []:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            correct = False
            doc["gate"] = "metric %s missing or in the wrong unit" % m["name"]
            break
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]),
            "metrics": metrics if correct else {}}


def summary(doc, args, host, spec):
    info = doc["info"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("host: nproc=%s cpu=%r compiler=%r build=%s optimized=%s commit=%s "
          "pool_width=%s loadavg_at_start=%.2f"
          % (host["nproc"], host["cpu"], doc["build"]["compiler"],
             doc["build"]["build_type"], doc["build"]["optimized"],
             host["commit"], info.get("pool_width", "?"), host["loadavg"]))
    if not doc["build"]["optimized"]:
        print("WARNING: the harness build is not optimised; timings are "
              "not comparable")
    print("workload=%s seed=%s seconds=%s trace=%s gate=%s attempted=%s "
          "failed=%s" % (args.workload, args.seed, args.seconds, args.trace,
                         doc["gate"], doc["attempted"], doc["failed"]))
    for name, m in sorted(doc["end_to_end"].items()):
        extra = ""
        base = name.rsplit("_p", 1)[0]
        if name.startswith("decision_p") or name.startswith("stats_p"):
            extra = "  (samples=%s, highest honest percentile p%s)" % (
                info.get(base + "_samples", "?"),
                info.get(base + "_highest_honest_percentile", "?"))
        bound = ("  [bound %g]" % bounds[name]) if name in bounds else ""
        print("  %-22s %14.6g %s%s%s" % (name, m["value"], m["unit"], bound,
                                         extra))
    if "decision_failed_frac" in info:
        print("  %-22s %14s ratio  (shed+expired+unanswered / attempted)"
              % ("failed_frac", info["decision_failed_frac"]))
    if args.trace:
        for name, m in sorted(doc["per_layer"].items()):
            print("  layer %-36s %14.6g %s" % (name, m["value"], m["unit"]))


def last_run_path(workload, seed, trace):
    return os.path.join(build_dir(), "results",
                        "last-%s-seed%d-trace%d.json" % (workload, seed, trace))


def tracing_overhead(doc, workload, seed):
    """Traced end-to-end numbers against an untraced run of the same seed."""
    path = last_run_path(workload, seed, 0)
    if not os.path.isfile(path):
        print("tracing overhead: no untraced run of %s seed %d in this "
              "checkout yet" % (workload, seed))
        return
    with open(path) as f:
        base = json.load(f)["end_to_end"]
    for name, m in sorted(doc["end_to_end"].items()):
        b = base.get(name, {}).get("value")
        if b:
            print("  overhead %-22s %+8.2f%% (traced %.6g vs untraced %.6g)"
                  % (name, 100.0 * (m["value"] - b) / b, m["value"], b))


def run_once(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    host = {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "commit": git_commit(), "loadavg": os.getloadavg()[0]}
    binary = build()
    doc = run_harness(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    summary(doc, args, host, spec)
    if doc["correct"]:
        with open(last_run_path(args.workload, args.seed, args.trace),
                  "w") as f:
            json.dump(doc, f)
        if args.trace:
            tracing_overhead(doc, args.workload, args.seed)
    line = result_line(doc, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def self_test():
    """Parse our own output and prove every gate can fail.

    A good run must yield every end_to_end metric of BENCHMARK.json in
    its unit; a run against a deliberately wrong reference must fail its
    gate and yield no metrics at all.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = sorted(m["name"] for m in spec["end_to_end"])
    binary = build()
    ok = True
    for w in WORKLOADS:
        for corrupt in (False, True):
            t0 = time.time()
            doc = run_harness(binary, w, 7, 6, False, corrupt)
            line = result_line(doc, spec, 0)
            if corrupt:
                good = (not doc["correct"] and not line["correct"]
                        and line["metrics"] == {}
                        and doc["end_to_end"] == {} and doc["per_layer"] == {})
            else:
                good = (doc["correct"] and line["correct"]
                        and sorted(line["metrics"]) == wanted)
            ok &= good
            log("self-test %-15s corrupt=%-5s correct=%-5s gate=%r %.0fs %s"
                % (w, corrupt, doc["correct"], doc["gate"], time.time() - t0,
                   "ok" if good else "FAIL"))
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
