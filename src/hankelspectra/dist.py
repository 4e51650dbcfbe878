"""Empirical step distributions over logarithmic spectra.

Each point of a logarithmic spectrum receives weight 1/m, giving a
right-continuous non-decreasing step function F.  Mass excluded because of
zero eigenvalues is *reported* as missing, never renormalised away: the
mean identity  mean(F) = (1/m) * ln|det|  only holds with the original
weights.  Cumulative values are exact rationals (count/m), so the
Kolmogorov-Smirnov sup distance is computed exactly over the merged jump
set.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from mpmath import mpf, workprec

from .mpnum import to_decimal
from .spectra import LogSpectrum


@dataclass(frozen=True)
class StepDistribution:
    """Jump locations (sorted mpfs), each carrying weight 1/m."""

    jumps: tuple
    m: int
    precision_bits: int = 256

    @property
    def total_mass(self) -> Fraction:
        return Fraction(len(self.jumps), self.m)

    @property
    def missing_mass(self) -> Fraction:
        return Fraction(self.m - len(self.jumps), self.m)


@dataclass(frozen=True)
class TailSums:
    neg: mpf
    pos: mpf


def step_distribution(points, m: int, precision_bits: int = 256) -> StepDistribution:
    if m < 1:
        raise ValueError("m must be >= 1")
    jumps = tuple(sorted(x if isinstance(x, mpf) else
                         mpf(x, prec=precision_bits) for x in points))
    if len(jumps) > m:
        raise ValueError("more jump points than total weight 1 allows")
    return StepDistribution(jumps=jumps, m=m, precision_bits=precision_bits)


def from_log_spectrum(ls: LogSpectrum) -> StepDistribution:
    if ls.zero_count:
        warnings.warn(
            "distribution for l=%d m=%d is missing mass %d/%d from "
            "zero eigenvalues" % (ls.l, ls.m, ls.zero_count, ls.m)
        )
    return StepDistribution(jumps=ls.points, m=ls.m,
                            precision_bits=ls.precision_bits)


def evaluate(F: StepDistribution, x) -> Fraction:
    """F(x): fraction of weighted points <= x, an exact rational; an ``x``
    that is not an mpf is parsed at the precision of ``F``."""
    if not isinstance(x, mpf):
        x = mpf(x, prec=F.precision_bits)
    return Fraction(bisect_right(F.jumps, x), F.m)


def tail_sums(F: StepDistribution) -> TailSums:
    """Separate negative- and positive-axis contributions to the mean."""
    wp = F.precision_bits + 32
    with workprec(wp):
        neg = mpf(0)
        pos = mpf(0)
        for x in F.jumps:
            if x < 0:
                neg += x
            elif x > 0:
                pos += x
        return TailSums(neg=+(neg / F.m), pos=+(pos / F.m))


def mean(F: StepDistribution) -> mpf:
    """Integral of x dF, i.e. (1/m) * sum of jump locations.

    Computed as tail_sums.neg + tail_sums.pos so the additivity identity is
    bit-exact.
    """
    ts = tail_sums(F)
    with workprec(F.precision_bits + 32):
        return +(ts.neg + ts.pos)


def sup_distance(F: StepDistribution, G: StepDistribution) -> Fraction:
    """Kolmogorov-Smirnov statistic, exact over the merged jump set."""
    xs = sorted(set(F.jumps) | set(G.jumps))
    best = Fraction(0)
    ci = cj = 0
    for x in xs:
        ci = bisect_right(F.jumps, x, lo=ci)
        cj = bisect_right(G.jumps, x, lo=cj)
        d = abs(Fraction(ci, F.m) - Fraction(cj, G.m))
        if d > best:
            best = d
    return best


def distribution_csv(F: StepDistribution, fh):
    """Sorted jump locations with exact cumulative values.

    ``x`` round-trips bit-exactly; ``cumulative`` is count/m rendered to 30
    significant decimal digits (deterministic).
    """
    fh.write("x,cumulative\n")
    count = 0
    with localcontext() as ctx:
        ctx.prec = 30
        for i, x in enumerate(F.jumps):
            count += 1
            # emit one row per distinct x, carrying the post-jump value
            if i + 1 < len(F.jumps) and F.jumps[i + 1] == x:
                continue
            cum = Decimal(count) / Decimal(F.m)
            fh.write("%s,%s\n" % (to_decimal(x, F.precision_bits), cum))
