"""Collect result lines and compare two sets of them against the bounds.

    python3 perfbench/compare.py collect --workload sweep-c9 --seeds 1-10 >> a.txt
    python3 perfbench/compare.py diff a.txt [b.txt]

``collect`` runs ``run.py`` once per seed from the checkout root and
appends ``<workload> <result JSON>`` lines.  ``diff`` prints, for every
workload and metric, the median and quartiles of each set, the spread
(interquartile distance over the median) and, with two sets, the change of
the median against the metric's bound in BENCHMARK.json.  It exits 1 when
a spread (other than set-up time) or a change exceeds its bound, or when
the share of failed operations differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNBOUNDED_SPREAD = ("setup_s",)   # one cold start per run; judged by its median


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args):
    spec = load_spec()
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit("run failed: %s" % " ".join(cmd))
        print("%s %s" % (args.workload, lines[-1]), flush=True)
    return 0


def read_set(path):
    """{workload: [result, ...]} from a file of ``<workload> <json>`` lines."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            workload, _, doc = line.partition(" ")
            out.setdefault(workload, []).append(json.loads(doc))
    return out


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(results):
    return Fraction(sum(r["failed"] for r in results),
                    sum(r["attempted"] for r in results))


def diff(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [read_set(p) for p in args.sets]
    ok = True
    print("%-12s %-24s %12s %12s %12s %8s %8s %9s  %s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "bound",
             "change", "verdict"))
    for workload in sorted(set.intersection(*(set(s) for s in sets))):
        runs = [s[workload] for s in sets]
        shares = [failed_share(r) for r in runs]
        if any(not r["correct"] for rs in runs for r in rs):
            print("%-12s some runs report incorrect outputs" % workload)
            ok = False
        if len(set(shares)) > 1:
            print("%-12s failed share differs: %s" % (workload, shares))
            ok = False
        names = sorted(set.intersection(*(set(r["metrics"]) for rs in runs for r in rs)))
        for name in names:
            meta = bounds.get(name)
            rows = []
            for rs in runs:
                rows.append(stats([r["metrics"][name]["value"] for r in rs]))
            verdict, change = "", ""
            if meta:
                bound = meta["bound"]
                for med, q1, q3, spread in rows:
                    if name not in UNBOUNDED_SPREAD and spread > bound:
                        verdict = "SPREAD>BOUND"
                        ok = False
                if len(rows) == 2:
                    worse = (rows[1][0] - rows[0][0]) / rows[0][0]
                    if meta["better"] == "higher":
                        worse = -worse
                    change = "%+8.3f" % worse
                    if worse > bound:
                        verdict = (verdict + " WORSE").strip()
                        ok = False
                verdict = verdict or "within"
            for k, (med, q1, q3, spread) in enumerate(rows):
                print("%-12s %-24s %12.6g %12.6g %12.6g %8.4f %8s %9s  %s"
                      % (workload if k == 0 else "", name if k == 0 else "",
                         med, q1, q3, spread,
                         meta["bound"] if meta and k == 0 else "",
                         change if k == len(rows) - 1 else "",
                         verdict if k == len(rows) - 1 else ""))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark for a range of seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("diff", help="medians, quartiles and bounds of result sets")
    p.add_argument("sets", nargs="+", help="one or two files of result lines")
    args = ap.parse_args(argv)
    if args.cmd == "diff" and len(args.sets) > 2:
        ap.error("diff takes one or two sets")
    return collect(args) if args.cmd == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
