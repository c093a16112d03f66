#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ together with the
library sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and prints the result JSON
as the last line of stdout. With --trace 0 the result holds every
end-to-end metric BENCHMARK.json names; with --trace 1 every per-layer
metric, a layer the workload does not exercise reading 0 (with a
sample count of 0 for timings). The full report, with the host
fingerprint and the traced run's spans, goes to .bench_out/.

Exit status is nonzero, with no result printed, when the build fails,
the binary refuses the build (sanitized or unoptimised), or a run
breaks the result contract.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("icd-cosim", "fault-campaign", "oracle-fuzz", "concolic")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary."""
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    bdir = os.path.join(os.path.abspath(base), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed:", e)
            return None
        if p.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def source_id():
    """The commit when the tree is a git checkout, plus a digest of the
    sources the benchmark compiles (a checkout need not be a repo)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "%s+src:%s" % (commit, h.hexdigest()[:12])


def conform(result, trace, spec):
    """Check the binary's result against BENCHMARK.json and complete
    the per-layer set; returns an error string or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        return "result has no attempted operations"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, m in got.items():
        if name not in want:
            return "metric %s is not in BENCHMARK.json" % name
        if m["unit"] != want[name]:
            return "metric %s unit %s, BENCHMARK.json says %s" % (
                name, m["unit"], want[name])
    if not trace and set(got) != set(want):
        return "missing end-to-end metrics %s" % sorted(set(want) - set(got))
    for name, unit in want.items():
        got.setdefault(name, {"value": 0, "unit": unit})
    result["metrics"] = {n: got[n] for n in want}
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--defect", default="none",
                    help="seeded defect for the self-tests")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120 or args.seed < 0:
        ap.error("--seconds must be 1..120 and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    exe = build()
    if not exe:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--defect", args.defect,
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        log("perfbench: binary exited with %d" % p.returncode)
        return p.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    err = conform(result, args.trace == 1, spec)
    if err:
        log("perfbench: " + err)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
