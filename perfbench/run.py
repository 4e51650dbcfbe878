"""End-to-end and per-layer benchmark of the hankelspectra CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-c9 --seed 1 --seconds 20 --trace 0

Each run imports the package from ``src/`` of the checkout (set-up), then
repeats whole rounds of the workload's CLI commands in this process through
``hankelspectra.figio.cli`` until ``--seconds`` of rounds have been
measured, checks the outputs against the oracles in ``oracles.py``, and
prints one JSON result line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the same operations with timing wrappers around the
package's public functions and reports the per-layer metrics instead.
See README.md for the workloads, metrics and tolerances.
"""

import time

T0 = time.perf_counter()      # set-up is timed from here, before any import

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def call_cli(argv):
    """Run one CLI command in-process; returns (exit code, stderr text)."""
    import hankelspectra.figio as figio   # attribute looked up per call
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = figio.cli(argv)
    return rc, err.getvalue()


# ---------------------------------------------------------------------------
# workloads


class SweepC9:
    """`sweep` of a seeded criterion-9 user-moments stream, one op per m."""

    name = "sweep-c9"
    M = 24
    DIGITS = 77
    outputs = ("c9.csv", "c9.csv.manifest.json")

    def __init__(self, seed, jobs):
        rng = random.Random(seed)
        # the recipe of acceptance criterion 9: uniform(-1, 1) as decimal strings
        self.moments = [str(rng.uniform(-1, 1)) for _ in range(self.M + 1)]
        self.func = "user-moments:" + ",".join(self.moments)
        self.jobs = jobs

    def run_round(self, rdir, jobs=None):
        out = rdir / "c9.csv"
        rc, err = call_cli(["sweep", "--func", self.func, "--l", "1",
                            "--m-max", str(self.M), "--digits", str(self.DIGITS),
                            "--jobs", str(jobs or self.jobs), "--out", str(out)])
        reported = {int(x) for x in re.findall(r"^m=(\d+) failed", err, re.M)}
        present = set()
        if out.exists():
            present = {int(row.split(",")[1])
                       for row in out.read_text().splitlines()[1:]}
        failed = {m for m in range(1, self.M + 1)
                  if m in reported or m not in present}
        return self.M, len(failed)

    def check(self, rdir):
        if not (rdir / "c9.csv").exists():
            return []
        text = (rdir / "c9.csv").read_text()
        problems = checks.check_sweep(text, self.moments, 1,
                                      set(range(1, self.M + 1)), self.DIGITS)
        man = json.loads((rdir / "c9.csv.manifest.json").read_text())
        digest = hashlib.sha256(text.encode()).hexdigest()
        if [f["sha256"] for f in man["files"]] != [digest]:
            problems.append("manifest hash does not match the CSV")
        return problems


class ZetaChecks:
    """Checks 2A-2E on zeta-star over one dyadic grid with a fresh cache."""

    name = "zeta-checks"
    M = 32          # 2C needs m and 2m on three levels above 4: m_max >= 32
    DIGITS = 30
    jobs = 1
    COMMANDS = (("2A", "1"), ("2B", "1"), ("2C", "1"), ("2D", "1"), ("2E", "1,2"))
    outputs = tuple("%s.json" % cid for cid, _ in COMMANDS)

    def __init__(self, seed, jobs):
        pass                # zeta-star has no free inputs

    def run_round(self, rdir, jobs=None):
        failed = 0
        for cid, ls in self.COMMANDS:
            out = rdir / ("%s.json" % cid)
            rc, _ = call_cli(["check", cid, "--func", "zeta-star", "--l", ls,
                              "--m-max", str(self.M), "--digits", str(self.DIGITS),
                              "--jobs", str(self.jobs), "--cache-dir", str(rdir / "cache"),
                              "--out", str(out)])
            failed += rc not in (0, 1) or not out.exists()
        return len(self.COMMANDS), failed

    def check(self, rdir):
        caches = sorted((rdir / "cache").glob("*.jsonl"))
        if len(caches) != 1:
            return ["expected one cached stream, found %d" % len(caches)]
        coeffs, bits = checks.parse_cache(caches[0].read_text())
        problems = checks.check_zeta_coeffs(coeffs, bits)
        paths = [rdir / ("%s.json" % cid) for cid, _ in self.COMMANDS]
        if not all(p.exists() for p in paths):
            return problems     # a failed command: its operation is counted
        if len(coeffs) < 2 + self.M:
            return problems + ["cached stream ends at index %d" % (len(coeffs) - 1)]
        reports = {cid: json.loads(p.read_text())
                   for (cid, _), p in zip(self.COMMANDS, paths)}
        grid = [2 ** k for k in range(1, self.M.bit_length())]
        return problems + checks.check_zeta_reports(reports, coeffs, 1, grid,
                                                    self.DIGITS)


class GradedV5:
    """`check v5` on the graded 1/k! matrices, m = 1..M, sequential."""

    name = "graded-v5"
    M = 20
    DIGITS = 30
    jobs = 1
    outputs = ("v5.json",)

    def __init__(self, seed, jobs):
        pass                # the 1/k! stream has no free inputs

    def run_round(self, rdir, jobs=None):
        out = rdir / "v5.json"
        rc, _ = call_cli(["check", "v5", "--func", "exponential", "--l", "1",
                          "--m-max", str(self.M), "--digits", str(self.DIGITS),
                          "--jobs", str(self.jobs), "--out", str(out)])
        return 1, int(rc not in (0, 1) or not out.exists())

    def check(self, rdir):
        if not (rdir / "v5.json").exists():
            return []
        report = json.loads((rdir / "v5.json").read_text())
        return checks.check_v5(report, 1, self.M, self.DIGITS)


WORKLOADS = {w.name: w for w in (SweepC9, ZetaChecks, GradedV5)}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hankelspectra" / "__init__.py").is_file():
        print("benchmark: no src/hankelspectra in %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("HANKELSPECTRA_CACHE", None)
    import hankelspectra
    import hankelspectra.figio   # noqa: F401  (the CLI: part of set-up)
    if Path(hankelspectra.__file__).resolve().parent != ROOT / "src" / "hankelspectra":
        print("benchmark: imported hankelspectra from outside the checkout",
              file=sys.stderr)
        return 2

    jobs = min(2, len(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload](args.seed, jobs)
    setup_s = time.perf_counter() - T0
    run_dir = OUT / ("%s-s%d" % (workload.name, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    attempted = failed = 0
    reference = tracer = None
    if args.trace:
        if workload.jobs > 1:
            # one untraced round with the pool: the traced rounds run with
            # --jobs 1 and must reproduce its outputs byte for byte
            reference = run_dir / "reference"
            reference.mkdir()
            attempted, failed = workload.run_round(reference)
        tracer = spans.Tracer()
        tracer.install(hankelspectra)
    timed = []          # (dir, wall_s, cpu_s, (first span, end span))
    while not timed or sum(r[1] for r in timed) < args.seconds:
        rdir = run_dir / ("r%d" % len(timed))
        rdir.mkdir()
        lo = len(tracer.spans) if tracer else 0
        c0, w0 = cpu_seconds(), time.perf_counter()
        a, f = workload.run_round(rdir, 1 if tracer else None)
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        attempted, failed = attempted + a, failed + f
        timed.append((rdir, wall, cpu, (lo, len(tracer.spans) if tracer else 0)))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    dirs = ([reference] if reference else []) + [r[0] for r in timed]
    problems = workload.check(dirs[0])
    for rdir in dirs[1:]:
        for name in workload.outputs:
            a, b = dirs[0] / name, rdir / name
            if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
                problems.append("%s of %s differs from %s"
                                % (name, rdir.name, dirs[0].name))
    round_log = [{"wall_s": w, "cpu_s": c} for _, w, c, _ in timed]
    (run_dir / "rounds.json").write_text(json.dumps(round_log) + "\n")
    if tracer:
        per_round = []
        for *_, (lo, hi) in timed:
            m, p = spans.layer_metrics(tracer.spans, lo, hi,
                                       hankelspectra.coeffs.QUAD_NODE_FACTOR)
            per_round.append(m)
            problems += p
        metrics = {name: {"value": statistics.median(r[name] for r in per_round),
                          "unit": unit}
                   for name, unit in layer_units()}
        tracer.dump(run_dir / "trace.json", {"workload": workload.name,
                                              "seed": args.seed, "rounds": round_log})
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r[1] for r in timed), "unit": "s"},
            "cpu_s": {"value": statistics.median(r[2] for r in timed), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
