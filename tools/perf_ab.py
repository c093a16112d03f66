#!/usr/bin/env python3
"""Paired A/B comparison of two revisions on the repository benchmark.

    python3 tools/perf_ab.py --base REV [--head REV] --workload W
        [--seed N] [--pairs P] [--seconds S] [--trace 0|1] [--json FILE]
    python3 tools/perf_ab.py --self-test

Run from the repository root. Each revision is extracted with
`git archive` into .bench_build/ab/<commit>/; `--head .` (the default)
is the working tree as it stands. The two trees' perfbench/run.py then
run alternately, the base first on odd pairs and the head first on
even ones, each building into its own CARGO_TARGET_DIR
(.bench_build/ab/target-<name>). One untimed warm-up run of each side
builds it first. Use an even number of pairs, so that each side runs
first equally often: a one-sample metric such as `setup_s` favours the
side that runs second.

Per metric the report gives each side's median and quartiles, the
median and interquartile range of the paired ratios head/base, the
pairs the head won (by the metric's `better` direction in
BENCHMARK.json), and whether the medians differ by more than the
base's interquartile range. It ends with the host fingerprint of both
sides' perfbench reports. A host drifts between fast and slow phases,
so only alternating pairs compare; a compare of a revision against
itself should show every ratio IQR containing 1.0.

`--self-test` checks the statistics on fixed inputs. It builds and
times nothing.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no values")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs):
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def compare(base, head, better):
    """Statistics of one metric over paired runs: lists of equal length,
    base[i] and head[i] from pair i."""
    if len(base) != len(head) or not base:
        raise ValueError("need equal, non-empty pair lists")
    ratios = [h / b if b else float("inf") if h else 1.0
              for b, h in zip(base, head)]
    if better == "higher":
        wins = sum(h > b for b, h in zip(base, head))
    else:
        wins = sum(h < b for b, h in zip(base, head))
    bq = quartiles(base)
    hq = quartiles(head)
    rq = quartiles(ratios)
    return {
        "pairs": len(base),
        "base": bq,
        "head": hq,
        "ratio": rq,
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "wins": wins,
        "ratio_iqr_has_1": rq[0] <= 1.0 <= rq[2],
        "resolved": abs(hq[1] - bq[1]) > bq[2] - bq[0],
    }


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def tree_for(rev):
    """The source tree of a revision: the working tree for '.', else
    a git archive extraction under .bench_build/ab/."""
    if rev == ".":
        return ROOT, "worktree"
    commit = git("rev-parse", "--short=12", rev + "^{commit}")
    dest = os.path.join(ROOT, ".bench_build", "ab", commit)
    if not os.path.exists(os.path.join(dest, "BENCHMARK.json")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit("perf_ab: git archive %s failed" % commit)
    return dest, commit


def run_side(tree, name, args, seconds):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, ".bench_build", "ab",
                                           "target-" + name)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit("perf_ab: %s run failed (%d)" % (name,
                                                          p.returncode))
    result = json.loads(lines[-1])
    report = os.path.join(tree, ".bench_out", "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    fingerprint = {}
    if os.path.exists(report):
        with open(report) as fh:
            fingerprint = json.load(fh).get("fingerprint", {})
    return result, fingerprint


def fmt(x):
    return "%.4g" % x


def report(stats, fingerprints):
    out = []
    for name, s in stats.items():
        b, h, r = s["base"], s["head"], s["ratio"]
        out.append(
            "%s: base %s/%s/%s  head %s/%s/%s  (q1/median/q3)\n"
            "  ratio head/base median %s, IQR %s-%s (range %s-%s), "
            "head better in %d/%d%s" %
            (name, fmt(b[0]), fmt(b[1]), fmt(b[2]), fmt(h[0]), fmt(h[1]),
             fmt(h[2]), fmt(r[1]), fmt(r[0]), fmt(r[2]),
             fmt(s["ratio_min"]), fmt(s["ratio_max"]), s["wins"],
             s["pairs"],
             ", medians differ by more than the base IQR"
             if s["resolved"] else ""))
    for side, fp in fingerprints.items():
        out.append("host (%s): %s" % (side, json.dumps(fp, sort_keys=True)))
    return "\n".join(out)


def self_test():
    def close(a, b):
        return abs(a - b) < 1e-9

    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([7]) == (7, 7, 7)
    q = quartiles([1, 2, 3, 4])
    assert close(q[0], 1.75) and close(q[1], 2.5) and close(q[2], 3.25)
    assert close(quantile([10, 0], 0.1), 1.0)

    s = compare([100, 100, 100, 100], [200, 300, 100, 400], "higher")
    assert s["wins"] == 3
    assert s["ratio"] == (1.75, 2.5, 3.25)
    assert s["ratio_min"] == 1.0 and s["ratio_max"] == 4.0
    assert not s["ratio_iqr_has_1"]
    assert s["resolved"]
    s = compare([4.0, 5.0, 6.0], [2.0, 5.0, 9.0], "lower")
    assert s["wins"] == 1 and s["ratio"][1] == 1.0
    assert s["ratio_iqr_has_1"]
    assert not s["resolved"]
    # Identical sides: every ratio 1, no wins either way.
    s = compare([3.0, 1.0, 2.0], [3.0, 1.0, 2.0], "higher")
    assert s["wins"] == 0 and s["ratio"] == (1.0, 1.0, 1.0)
    assert s["ratio_iqr_has_1"] and not s["resolved"]
    # Pairs are kept: a shuffled head is not the same comparison.
    s = compare([1.0, 2.0], [2.0, 1.0], "higher")
    assert s["ratio"][0] == 0.875 and s["wins"] == 1
    for bad in (([], []), ([1.0], [1.0, 2.0])):
        try:
            compare(bad[0], bad[1], "higher")
        except ValueError:
            continue
        raise AssertionError("compare accepted %r" % (bad,))
    text = report({"ops_per_s": compare([1.0, 2.0], [2.0, 4.0], "higher")},
                  {"base": {"cpu": "x"}})
    assert "head better in 2/2" in text and '"cpu": "x"' in text
    print("perf_ab self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--base")
    ap.add_argument("--head", default=".")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json", help="also write the statistics here")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.workload or args.pairs < 1:
        ap.error("--base, --workload and --pairs >= 1 are required")
    if args.pairs % 2:
        print("perf_ab: an odd pair count lets one side run first more "
              "often", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"base": tree_for(args.base), "head": tree_for(args.head)}
    if sides["base"][1] == sides["head"][1]:
        # A revision against itself: two copies, two build directories.
        sides["head"] = (sides["head"][0], sides["head"][1] + "-b")
    for side, (tree, name) in sides.items():
        print("warm-up %s (%s)" % (side, name), file=sys.stderr,
              flush=True)
        run_side(tree, name, args, 1)

    values = {"base": {}, "head": {}}
    fingerprints = {}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            tree, name = sides[side]
            result, fp = run_side(tree, name, args, args.seconds)
            if result["failed"] or not result["correct"]:
                raise SystemExit("perf_ab: %s pair %d reported failures"
                                 % (side, i + 1))
            fingerprints[side] = fp
            for metric, m in result["metrics"].items():
                values[side].setdefault(metric, []).append(m["value"])
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr,
              flush=True)

    stats = {}
    for metric in values["base"]:
        if metric in values["head"] and metric in better:
            stats[metric] = compare(values["base"][metric],
                                    values["head"][metric], better[metric])
    print("%s seed %d, %d pairs of %d s, trace %d: base %s, head %s" %
          (args.workload, args.seed, args.pairs, args.seconds, args.trace,
           sides["base"][1], sides["head"][1]))
    print(report(stats, fingerprints))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"values": values, "stats": stats,
                       "fingerprints": fingerprints}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
