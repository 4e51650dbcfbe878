#!/usr/bin/env python3
"""Empirical distributions and the trend harness: means, tails,
sup distances, growth-rate extrapolation, and JSON reports.

Run:  python demos/03_distributions_and_checks.py [outdir]
"""

import io
import sys

from mpmath import mp

import hankelspectra as hs
from hankelspectra.figio import render_distribution


def main(outdir="demo_out"):
    stream = hs.generate(hs.analytic_spec("zeta-star"), 40, 256)
    dyadic = (4, 8, 16, 32)
    records = {m: hs.compute_spectrum(stream, 1, m, 30) for m in dyadic}
    dists = {m: hs.from_log_spectrum(hs.log_spectrum(r))
             for m, r in records.items()}

    print("= distribution summaries =")
    for m in dyadic:
        F = dists[m]
        ts = hs.tail_sums(F)
        print("m=%2d  mean=%-12s  neg tail=%-12s  pos tail=%s"
              % (m, mp.nstr(hs.mean(F), 6), mp.nstr(ts.neg, 6),
                 mp.nstr(ts.pos, 6)))

    print("\n= sup distances between consecutive dyadic levels =")
    for m in dyadic[:-1]:
        d = hs.sup_distance(dists[m], dists[2 * m])
        print("d(F_%d, F_%d) = %s" % (m, 2 * m, d))

    print("\n= growth-rate extrapolation from determinants =")
    dets = [(r.m, r.det) for r in records.values()]
    dets += [(m, hs.det_lu(hs.signed_hankel(stream, 1, m).matrix, 256))
             for m in range(1, 33) if m not in dyadic]
    rep = hs.estimate_growth_rate(sorted(dets))
    print("verdict:", rep.verdict)
    if rep.limit is not None:
        print("extrapolated m-th root limit:", mp.nstr(rep.limit, 10))
    buf = io.StringIO()
    hs.write_report(rep, buf)
    print("\nreport JSON (first lines):")
    print("\n".join(buf.getvalue().splitlines()[:8]), "...")

    print("\n= limit-behaviour trend checks on the surrogate =")
    spectra = [hs.log_spectrum(r) for r in records.values()]
    upper, lower = hs.check_spectrum_divergence(spectra)
    print("upper end diverging? ", upper.verdict)
    print("lower end diverging? ", lower.verdict)
    conv = hs.check_distribution_convergence(dists)
    print("dyadic convergence?  ", conv.verdict)

    out = "%s/distribution_l1_m32.svg" % outdir
    render_distribution(dists[32], out)
    print("\nstep-function figure written to", out)


if __name__ == "__main__":
    main(*sys.argv[1:2])
