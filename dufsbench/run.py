#!/usr/bin/env python3
"""The DUFS benchmark: one workload, one seed, one JSON result line.

    python3 dufsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the repository's
modules, the dufsbench driver and the trace analyzers into
.bench_build/dufsbench (CMake, RelWithDebInfo).

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics BENCHMARK.json lists. --trace 1 runs it twice with the same seed:
untraced with the per-layer replays (counters, registry and host time of
single layers), then with the span log and the count-mode profiler on; the
span log goes through `tracestats --json` and the profile through
`profstats --json`. It reports the per-layer metrics BENCHMARK.json lists.

Every metric the driver prints is echoed as `<name> <value> <unit>`; the last
line of standard output is the JSON result. The exit status is 0 only when
every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dufsbench")
RUN_TIMEOUT_S = 170
TRACE_CATEGORIES = ("client", "rpc_wait", "backend", "nic_wait", "wire",
                    "zk_queue", "quorum", "fsync")


def log(message):
    print(f"dufsbench: {message}", file=sys.stderr, flush=True)


def confine_tmp():
    """Points TMPDIR (compiler temporaries) into the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def build():
    """Configures and builds incrementally; False on any failure.

    Holds a lock on the build tree, so concurrent runs in one checkout build
    it once.
    """
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked()


def build_locked():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "dufsbench",
              "tracestats", "profstats"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_driver(args):
    """Runs the driver; returns (exit code, metrics, absent, result)."""
    cmd = [os.path.join(BUILD, "dufsbench")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    metrics, absent, result = {}, {}, {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 5:
            metrics[fields[2]] = (float(fields[3]), fields[4], fields[1])
        elif fields[:1] == ["absent"] and len(fields) >= 2:
            absent[fields[1]] = " ".join(fields[2:])
        elif fields[:1] == ["result"]:
            result = dict(f.split("=", 1) for f in fields[1:])
        else:
            print(line)
    return proc.returncode, metrics, absent, result


def run_tool(tool, args):
    out = subprocess.run([os.path.join(BUILD, tool, tool)] + args,
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{tool} exited {out.returncode}")
    return json.loads(out.stdout)


def trace_shares(trace_json):
    """trace.share.<category>: share of simulated op latency (tracestats)."""
    report = run_tool("tracestats", [f"--trace={trace_json}", "--json"])
    total = sum(c["total_ns"] for c in report["classes"].values())
    shares = {}
    for cat in TRACE_CATEGORIES:
        ns = sum(c["by_category"].get(cat, 0) for c in report["classes"].values())
        shares["trace.share." + cat] = (ns / total if total else None, "ratio")
    shares["trace.ops"] = (float(report["total_ops"]), "count")
    return shares


def prof_shares(folded):
    """prof.share.engine / .unattributed: self-sample shares (profstats)."""
    report = run_tool("profstats", [folded, "--json", "--top=1000000"])
    samples = report["samples"]
    engine = sum(f["self"] for f in report["frames"]
                 if f["name"].startswith("engine."))
    unattributed = sum(f["self"] for f in report["frames"]
                       if f["name"] == "unattributed")
    return {
        "prof.samples": (float(samples), "count"),
        "prof.share.engine": (engine / samples if samples else None, "ratio"),
        "prof.share.unattributed":
            (unattributed / samples if samples else None, "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {opts.workload}")
        return 2
    confine_tmp()
    if not build():
        return 1

    base = [f"--workload={opts.workload}", f"--seed={opts.seed}",
            f"--seconds={opts.seconds}"]
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    code, metrics, absent, result = run_driver(base + (["--layers"] if opts.trace else []))
    correct = code == 0 and result.get("correct") == "1"

    if opts.trace:
        scratch = os.path.join(BUILD, f"traced-{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        try:
            trace_json = os.path.join(scratch, "trace.json")
            folded = os.path.join(scratch, "prof.folded")
            traced_code, traced, _, traced_result = run_driver(
                base + [f"--trace-out={trace_json}", f"--profile-out={folded}"])
            correct = correct and traced_code == 0 and traced_result.get("correct") == "1"
            extra = {}
            extra.update(trace_shares(trace_json))
            extra.update(prof_shares(folded))
            untraced_ns = metrics["host_ns_per_op.p50"][0]
            extra["trace.overhead_ratio"] = (
                traced["host_ns_per_op.p50"][0] / untraced_ns - 1, "ratio")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for name, (value, unit) in extra.items():
            if value is None:
                absent[name] = "zero denominator"
            else:
                metrics[name] = (value, unit, "trace")

    for name in sorted(metrics):
        value, unit, kind = metrics[name]
        print(f"{name} {value!r} {unit} ({kind})")
    for name in sorted(absent):
        print(f"{name} absent: {absent[name]}")

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            log(f"metric {m['name']} missing: {absent.get(m['name'], 'not printed')}")
            return 1
        out[m["name"]] = {"value": metrics[m["name"]][0], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
