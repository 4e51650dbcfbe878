"""Trend checks over sweep outputs: growth rates, constants, divergences.

Every check is a pure function of its input sequences and the documented
thresholds, reports its estimator id, and returns one deterministic
TrendReport, so re-running a report on cached data is byte-identical.
Limits cannot be verified at a desk, only trends can: SUPPORTED always
means "the finite-m data moves the expected way across dyadic
checkpoints", never "proved".  The checkpoints are the dyadic tail
m_max, m_max/2, m_max/4, ... of the available m (``_dyadic_tail``, which
also gives the CLI its m grids).  Monotone checks fold one verdict per
step between checkpoints with ``_combine``; shrinking distances use
``_shrink_verdict``, which contradicts only values that never decrease
and end above their start.

Growth-rate extrapolation applies the Aitken delta-squared transform to
the sequence y_m = ln|d_m| / m sampled on the dyadic tail.  On that grid
the leading deviation of y from its limit is geometric in the level index,
which is exactly the error shape Aitken annihilates; for perfectly
geometric input d_m = c * W^m the transform recovers W to full working
precision.

Reference growth constants are external configuration (JSON); when absent
the checks that need them report UNAVAILABLE instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mpmath import mp, mpf, workprec

from .dist import mean, sup_distance, tail_sums
from .mpnum import IDENTITY_REL_EXP, IdentityError, _identity_state, to_decimal

SUPPORTED = "SUPPORTED"
INCONCLUSIVE = "INCONCLUSIVE"
CONTRADICTED = "CONTRADICTED"
UNAVAILABLE = "UNAVAILABLE"

# documented thresholds; every report embeds the ones it used
RATE_CONTRACTION_MAX = 0.75      # |second diff ratio| for a converging tail
RATE_FLAT_EPS = 1e-9             # treat smaller y-increments as converged
CONST_DRIFT_TOL = 0.01           # |ln step ratio| beyond this is geometric drift
CONST_DISPERSION_TOL = 0.05      # relative tail dispersion for a stable constant
DIVERGENCE_DELTA = 0.5           # min growth per dyadic checkpoint (2A/2B)
MIN_DETERMINANTS = 4             # fewest d_m a rate or constant is fit to


class ZeroDeterminantError(ValueError):
    def __init__(self, m):
        super().__init__("determinant at m=%d is zero" % m)
        self.m = m


@dataclass(frozen=True)
class TrendReport:
    check_id: str
    l: object
    m_grid: tuple
    estimator_id: str
    verdict: str
    series: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    limit: mpf | None = None
    notes: tuple = ()

    def to_json(self) -> dict:
        def dec(x):
            if isinstance(x, mpf):
                return to_decimal(x, max(64, x._mpf_[3] + 8))
            return x
        return {
            "check": self.check_id,
            "l": self.l,
            "m_grid": list(self.m_grid),
            "series": {
                name: [[m, dec(v)] for m, v in vals]
                for name, vals in sorted(self.series.items())
            },
            "estimator": self.estimator_id,
            "thresholds": {k: str(v) for k, v in sorted(self.thresholds.items())},
            "verdict": self.verdict,
            "limit": dec(self.limit),
            "notes": list(self.notes),
        }


def write_report(report: TrendReport, fh):
    json.dump(report.to_json(), fh, sort_keys=True, indent=2)
    fh.write("\n")


def load_reference_constants(path: str) -> dict:
    """Growth rates ``{l: W}`` from JSON ``{"1": {"W": "3.7"}, ...}``; other
    keys of an entry are ignored."""
    with open(path) as fh:
        raw = json.load(fh)
    growth = {}
    with workprec(256):
        for key, entry in raw.items():
            l = int(key)
            if not isinstance(entry, dict):
                raise ValueError("reference entry for l=%d is not a JSON "
                                 "object: %r" % (l, entry))
            if "W" in entry:
                w = mpf(entry["W"])
                if not w > 0:
                    raise ValueError("growth rate for l=%d must be positive" % l)
                growth[l] = w
    return growth


# ---------------------------------------------------------------------------
# helpers


def _dyadic_tail(ms):
    """Longest chain m_max, m_max/2, m_max/4 ... present in ms, ascending."""
    have = set(ms)
    chain = [max(ms)]
    while chain[-1] % 2 == 0 and chain[-1] // 2 in have:
        chain.append(chain[-1] // 2)
    return list(reversed(chain))


def _step(up, down):
    """The verdict of one step: SUPPORTED if ``up``, CONTRADICTED if ``down``."""
    return SUPPORTED if up else CONTRADICTED if down else INCONCLUSIVE


def _combine(verdicts, any_contradicts=False):
    """SUPPORTED if every verdict is; CONTRADICTED if every one is, or with
    ``any_contradicts`` if any one is; INCONCLUSIVE otherwise."""
    verdicts = list(verdicts)
    if all(v == SUPPORTED for v in verdicts):
        return SUPPORTED
    if (any if any_contradicts else all)(v == CONTRADICTED for v in verdicts):
        return CONTRADICTED
    return INCONCLUSIVE


def _shrink_verdict(vals):
    """SUPPORTED if vals never increase, CONTRADICTED if they never decrease
    and end above their start, INCONCLUSIVE otherwise."""
    steps = list(zip(vals, vals[1:]))
    if all(b <= a for a, b in steps):
        return SUPPORTED
    if all(b >= a for a, b in steps) and vals[-1] > vals[0]:
        return CONTRADICTED
    return INCONCLUSIVE


def _unavailable(check_id, l, m_grid, estimator_id):
    return TrendReport(
        check_id=check_id, l=l, m_grid=tuple(m_grid),
        estimator_id=estimator_id, verdict=UNAVAILABLE,
        notes=("no reference growth rate configured",),
    )


def _sign_notes(signs):
    if all(s > 0 for s in signs):
        return []
    if all(s < 0 for s in signs):
        return ["all determinants negative; magnitudes used"]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    if flips == len(signs) - 1:
        return ["alternating determinant signs; magnitudes used"]
    return ["mixed determinant signs; magnitudes used"]


def estimate_growth_rate(dets) -> TrendReport:
    """Extrapolate lim |d_m|^(1/m) from a (m, determinant) sequence."""
    dets = sorted(dets, key=lambda t: t[0])
    if len(dets) < MIN_DETERMINANTS:
        raise ValueError("need at least %d determinants" % MIN_DETERMINANTS)
    for m, d in dets:
        if d == 0:
            raise ZeroDeterminantError(m)
    wp = 64 + max(x._mpf_[3] if isinstance(x, mpf) else 53 for _, x in dets)
    notes = _sign_notes([1 if d > 0 else -1 for _, d in dets])
    with workprec(wp):
        roots = [(m, +(abs(mpf(d)) ** (mpf(1) / m))) for m, d in dets]
        ys = {m: mp.log(abs(mpf(d))) / m for m, d in dets}
        chain = _dyadic_tail([m for m, _ in dets])
        thresholds = {
            "contraction_max": RATE_CONTRACTION_MAX,
            "flat_eps": RATE_FLAT_EPS,
        }
        limit, verdict = None, INCONCLUSIVE
        if len(chain) < 3:
            notes.append("dyadic tail too short to extrapolate")
        else:
            y = [ys[m] for m in chain]
            d1 = y[-2] - y[-3]
            d2 = y[-1] - y[-2]
            dd = d2 - d1
            if abs(d2) <= RATE_FLAT_EPS and abs(d1) <= RATE_FLAT_EPS:
                limit, verdict = +mp.e ** y[-1], SUPPORTED
                notes.append("stability: log-root increments below %g"
                             % RATE_FLAT_EPS)
            elif dd == 0:
                notes.append("second difference vanished without convergence")
            else:
                limit = +mp.e ** (y[-1] - d2 * d2 / dd)
                if abs(d1) > RATE_FLAT_EPS:
                    q = abs(d2) / abs(d1)
                    notes.append("stability: tail contraction ratio %s"
                                 % mp.nstr(q, 6))
                    if q <= RATE_CONTRACTION_MAX:
                        verdict = SUPPORTED
                    elif q > 1:
                        # no reference value exists to contradict; growing
                        # increments just mean no finite limit is apparent
                        limit = None
                        notes.append("log-root increments grow with m; "
                                     "no finite positive limit apparent")
    return TrendReport(
        check_id="growth-rate", l=None, m_grid=tuple(m for m, _ in dets),
        series={"mth_root": tuple(roots)},
        estimator_id="aitken-d2-dyadic-log-root",
        thresholds=thresholds, verdict=verdict, limit=limit,
        notes=tuple(notes),
    )


def estimate_constant_factor(dets, growth_rate) -> TrendReport:
    """Estimate the constant in d_m ~ W^m * R from the tail of d_m / W^m."""
    if growth_rate is None:
        return _unavailable("constant-factor", None, (), "tail-mean-normalized")
    dets = sorted(dets, key=lambda t: t[0])
    if len(dets) < MIN_DETERMINANTS:
        raise ValueError("need at least %d determinants" % MIN_DETERMINANTS)
    for m, d in dets:
        if d == 0:
            raise ZeroDeterminantError(m)
    wp = 96 + max(x._mpf_[3] if isinstance(x, mpf) else 53 for _, x in dets)
    thresholds = {"drift_tol": CONST_DRIFT_TOL,
                  "dispersion_tol": CONST_DISPERSION_TOL}
    notes = []
    with workprec(wp):
        W = mp.convert(growth_rate)     # an mpf as it is, else read at wp
        if not W > 0:
            raise ValueError("growth rate must be positive")
        seq = [(m, +(mpf(d) / W ** m)) for m, d in dets]
        tail = seq[-max(3, len(seq) // 4):]
        est = +(mp.fsum(v for _, v in tail) / len(tail))
        dispersion = (+max(abs(v - est) / abs(est) for _, v in tail)
                      if est != 0 else mp.inf)
        m0, c0 = tail[0]
        m1, c1 = tail[-1]
        drift = (+(mp.log(abs(c1) / abs(c0)) / (m1 - m0))
                 if c0 != 0 and c1 != 0 and m1 > m0 else None)
        if dispersion != mp.inf:
            notes.append("tail dispersion: %s" % mp.nstr(dispersion, 6))
        if drift is not None and abs(drift) > CONST_DRIFT_TOL:
            verdict = CONTRADICTED
            notes.append(
                "normalized sequence drifts geometrically (per-step log "
                "%s); the reference growth rate looks misspecified"
                % mp.nstr(drift, 6)
            )
        elif dispersion != mp.inf and dispersion <= CONST_DISPERSION_TOL:
            verdict = SUPPORTED
        else:
            verdict = INCONCLUSIVE
    return TrendReport(
        check_id="constant-factor", l=None, m_grid=tuple(m for m, _ in dets),
        series={"normalized": tuple(seq)},
        estimator_id="tail-mean-normalized", thresholds=thresholds,
        verdict=verdict, limit=est, notes=tuple(notes),
    )


def check_eigenvalue_product_rate(records) -> TrendReport:
    """Cross-check prod mu against det per record, then rate-extrapolate.

    Each record is judged by the identity rule it was accepted under,
    ``mpnum._identity_state`` with its own determinant and zero floor.
    The product/determinant equality is algebraic at every finite m, so a
    violation signals insufficient precision and raises ``IdentityError``
    rather than producing a misleading trend.  A record with
    zeros-at-precision counts as product 0, so a trend over 4 or more
    records raises ``ZeroDeterminantError`` naming its m.
    """
    if not records:
        raise ValueError("no records")
    records = sorted(records, key=lambda r: r.m)
    pairs = []
    roots = []
    for rec in records:
        ok, zeros, prod = _identity_state(rec.eigenvalues, rec.det,
                                          rec.zero_threshold,
                                          rec.precision_used)
        if not ok:
            raise IdentityError(
                "l=%d m=%d: eigenvalue product and determinant disagree at "
                "%d bits" % (rec.l, rec.m, rec.precision_used))
        if zeros:
            prod = mpf(0)
        with workprec(rec.precision_used + 32):
            root = +(abs(prod) ** (mpf(1) / rec.m))
        pairs.append((rec.m, prod))
        roots.append((rec.m, root))
    if len(pairs) < MIN_DETERMINANTS:
        thresholds, verdict, limit = {}, INCONCLUSIVE, roots[-1][1]
        notes = ("fewer than 4 records; identity verified, no trend",)
    else:
        base = estimate_growth_rate(pairs)
        thresholds, verdict, limit = base.thresholds, base.verdict, base.limit
        notes = base.notes
    return TrendReport(
        check_id="v5", l=records[0].l, m_grid=tuple(m for m, _ in pairs),
        series={"product_mth_root": tuple(roots)},
        estimator_id="aitken-d2-dyadic-log-root",
        thresholds=dict(thresholds, identity_exp=IDENTITY_REL_EXP),
        verdict=verdict, limit=limit, notes=notes,
    )


def check_mean_trend(dists_by_m, growth_rate, l=None) -> TrendReport:
    """Distribution means versus the log of the reference growth rate.

    With no growth rate the report is UNAVAILABLE and reads only the keys
    of ``dists_by_m``.
    """
    if growth_rate is None:
        return _unavailable("v6", l, sorted(dists_by_m), "dyadic-gap-monotone")
    ms = sorted(dists_by_m)
    wp = 64 + max(d.precision_bits for d in dists_by_m.values())
    with workprec(wp):
        target = mp.log(mp.convert(growth_rate))
        means = [(m, mean(dists_by_m[m])) for m in ms]
        gaps = [(m, +abs(v - target)) for m, v in means]
        gd = dict(gaps)
        tail = [gd[m] for m in _dyadic_tail(ms)]
        verdict = _shrink_verdict(tail) if len(tail) >= 2 else INCONCLUSIVE
    return TrendReport(
        check_id="v6", l=l, m_grid=tuple(ms),
        series={"mean": tuple(means), "gap_to_log_rate": tuple(gaps)},
        estimator_id="dyadic-gap-monotone", verdict=verdict, limit=target,
    )


def check_spectrum_divergence(log_spectra):
    """Upper/lower divergence of log-spectra: max to +inf, min to -inf.

    Uses the last three dyadic checkpoints; each step must grow by at
    least ``DIVERGENCE_DELTA``.  Returns (upper_report, lower_report).
    """
    by_m = {ls.m: ls for ls in log_spectra}
    usable = {m: ls for m, ls in by_m.items() if ls.points}
    if not usable:
        raise ValueError("no nonempty log spectra")
    chain = _dyadic_tail(sorted(usable))[-3:]
    wp = 64 + max(ls.precision_bits for ls in usable.values())
    notes = (() if len(chain) >= 3
             else ("fewer than 3 dyadic checkpoints available",))
    l = next(iter(usable.values())).l
    reports = []
    with workprec(wp):
        delta = mpf(DIVERGENCE_DELTA)
        for cid, name, end, sign in (("2A", "max_point", -1, 1),
                                     ("2B", "min_point", 0, -1)):
            points = [(m, usable[m].points[end]) for m in sorted(usable)]
            vals = [sign * usable[m].points[end] for m in chain]
            steps = (_step(b - a >= delta, b - a <= -delta)
                     for a, b in zip(vals, vals[1:]))
            verdict = (_combine(steps, any_contradicts=True)
                       if len(chain) >= 3 else INCONCLUSIVE)
            reports.append(TrendReport(
                check_id=cid, l=l, m_grid=tuple(sorted(usable)),
                series={name: tuple(points)}, estimator_id="dyadic-increment",
                thresholds={"delta": DIVERGENCE_DELTA}, verdict=verdict,
                notes=notes,
            ))
    return tuple(reports)


def check_distribution_convergence(dists_by_m, l=None) -> TrendReport:
    """Sup distances between F_m and F_2m across dyadic levels."""
    ms = sorted(dists_by_m)
    levels = [(m, 2 * m) for m in ms if 2 * m in dists_by_m]
    if len(levels) < 3:
        raise ValueError("need distributions at m and 2m for >= 3 levels")
    seq = []
    for m, m2 in levels:
        d = sup_distance(dists_by_m[m], dists_by_m[m2])
        seq.append((m, mpf(d.numerator) / d.denominator))
    return TrendReport(
        check_id="2C", l=l, m_grid=tuple(m for m, _ in levels),
        series={"sup_distance_m_2m": tuple(seq)},
        estimator_id="dyadic-sup-distance-monotone",
        verdict=_shrink_verdict([v for _, v in seq]),
    )


def check_tail_divergence(dists_by_m, l=None) -> TrendReport:
    """Both mean tails must grow in magnitude across dyadic levels."""
    ms = _dyadic_tail(sorted(dists_by_m))
    if len(ms) < 3:
        raise ValueError("need >= 3 dyadic levels")
    wp = 64 + max(d.precision_bits for d in dists_by_m.values())
    with workprec(wp):
        tails = [(m, tail_sums(dists_by_m[m])) for m in ms]
        negs = [(m, +abs(ts.neg)) for m, ts in tails]
        poss = [(m, ts.pos) for m, ts in tails]
        sub = {}
        for name, tail in (("neg_tail", negs), ("pos_tail", poss)):
            vals = [v for _, v in tail]
            sub[name] = _combine(_step(b > a, b < a)
                                 for a, b in zip(vals, vals[1:]))
    return TrendReport(
        check_id="2D", l=l, m_grid=tuple(ms),
        series={"neg_tail_abs": tuple(negs), "pos_tail": tuple(poss)},
        estimator_id="dyadic-tail-monotone", verdict=_combine(sub.values()),
        notes=tuple("%s: %s" % (k, v) for k, v in sorted(sub.items())),
    )


def check_distribution_coincidence(dists_by_l) -> TrendReport:
    """Pairwise distances between the distributions of different l values.

    SUPPORTED when every pairwise sup distance shrinks along the m grid.
    """
    ls = sorted(dists_by_l)
    if len(ls) < 2:
        raise ValueError("need at least two l values")
    ms = sorted(set.intersection(*(set(dists_by_l[l]) for l in ls)))
    if len(ms) < 2:
        raise ValueError("need at least two common m values")
    series = {}
    pair_verdicts = {}
    for i, l1 in enumerate(ls):
        for l2 in ls[i + 1:]:
            seq = []
            for m in ms:
                d = sup_distance(dists_by_l[l1][m], dists_by_l[l2][m])
                seq.append((m, mpf(d.numerator) / d.denominator))
            key = "l%d-l%d" % (l1, l2)
            series[key] = tuple(seq)
            pair_verdicts[key] = _shrink_verdict([v for _, v in seq])
    return TrendReport(
        check_id="2E", l=tuple(ls), m_grid=tuple(ms), series=series,
        estimator_id="pairwise-sup-distance-monotone",
        verdict=_combine(pair_verdicts.values(), any_contradicts=True),
        notes=tuple("%s: %s" % (k, v) for k, v in sorted(pair_verdicts.items())),
    )
