#!/usr/bin/env python3
"""Eigenvalue spectra: adaptive solves, logarithmic spectra, the
electron/train split, pairing statistics, and an SVG scatter figure.

Run:  python demos/02_spectra_and_splitting.py [outdir]
"""

import sys

from mpmath import mp

import hankelspectra as hs
from hankelspectra.figio import render_spectra


def main(outdir="demo_out"):
    stream = hs.generate(hs.analytic_spec("zeta-star"), 40, 256)
    print("stream:", stream.spec.name)
    print("provenance:", stream.provenance, "\n")

    print("sweeping m = 1..24 (each size solved independently) ...")
    result = hs.sweep(stream, l=1, m_range=range(1, 25), target_digits=30,
                      jobs=2)
    assert not result.failures

    for rec in result.records:
        if rec.m % 6 == 0:
            ls = hs.log_spectrum(rec)
            print("m=%2d  precision=%4d bits  det=%-16s  log-range [%s, %s]"
                  % (rec.m, rec.precision_used, mp.nstr(rec.det, 8),
                     mp.nstr(ls.points[0], 6), mp.nstr(ls.points[-1], 6)))

    # split the largest spectrum into its lower and upper parts
    ls = hs.log_spectrum(result.records[-1])
    sp = hs.split(ls)                      # largest-gap policy
    print("\nsplit at x = %s: %d electrons / %d trains"
          % (mp.nstr(sp.cut, 6), len(sp.electrons), len(sp.trains)))
    if len(sp.trains) >= 4:
        stats = hs.pairing_stats(sp.trains)
        print("train pairing: intra %s / inter %s -> ratio %s"
              % (mp.nstr(stats.intra_median, 6),
                 mp.nstr(stats.inter_median, 6), mp.nstr(stats.ratio, 6)))

    out = "%s/spectra_l1.svg" % outdir
    render_spectra(result.records, out, split_policy="largest-gap")
    print("\nscatter figure written to", out)


if __name__ == "__main__":
    main(*sys.argv[1:2])
