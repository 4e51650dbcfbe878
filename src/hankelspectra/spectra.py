"""Eigenvalue spectra of the signed Hankel matrices and sweeps over m.

``compute_spectrum`` builds one (l, m) matrix and makes one call to
``mpnum.adaptive_solve``, whose single precision ladder accepts a level
only when two consecutive levels agree and the product identity

    mu_1 * mu_2 * ... * mu_m  =  det(matrix)

holds to 10^-30 relative.  Eigenvalues whose magnitude falls below the
roundoff floor ||A||_F * 2^-(prec-16) cannot be certified nonzero at the
working precision; they are treated as zeros-at-precision.  For every
stream, a level with zeros-at-precision is accepted only when their count
equals the exact nullity of the matrix, so a reported zero is a proved
one; otherwise the same ladder continues until the small eigenvalues
resolve.

With a cache directory, ``sweep`` stores each record it computes under
``<cache_dir>/records``, keyed by everything the record depends on down to
the bits of the coefficients its matrix reads, and judges each stored
record again by ``mpnum.accept_level`` when it loads it, so commands that
share (l, m) pairs compute each one once.

Logarithmic spectra collect ln|mu| of the resolved nonzero eigenvalues
(zeros are counted, not fatal), and are split into a lower ("electrons")
and an upper ("trains") part by a configurable policy; the formal split
criterion is deliberately a policy object because no canonical definition
exists.  Figure placement contract: a point x of the m-th logarithmic
spectrum is drawn at (x, m).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp

from . import mpnum
from .coeffs import CacheCorruptionError, CoeffStream, _atomic_write, theta
from .hankel import coefficient_window, sign_prefactor, signed_hankel
from .mpnum import (
    ConvergenceError,
    IdentityError,
    PrecisionCapError,
    accept_level,
    adaptive_solve,
    ladder,
    to_decimal,
)

RECORD_FORMAT = 2   # part of every record key: another format never matches
PAIRING_PREC = 128  # pairing_stats works at this precision plus 16 bits


@dataclass(frozen=True)
class SpectrumRecord:
    l: int
    m: int
    function_id: str
    eigenvalues: tuple
    precision_used: int
    target_digits: int
    det: mpf
    zero_threshold: mpf

    @property
    def sign(self) -> int:
        return sign_prefactor(self.m)

    @property
    def zero_count(self) -> int:
        thr = self.zero_threshold
        return sum(1 for mu in self.eigenvalues if abs(mu) <= thr)


@dataclass(frozen=True)
class LogSpectrum:
    l: int
    m: int
    points: tuple
    zero_count: int
    precision_bits: int


@dataclass(frozen=True)
class SplitSpectrum:
    electrons: tuple
    trains: tuple
    policy_id: str
    cut: mpf | None
    warning: str | None = None


@dataclass(frozen=True)
class PairingStats:
    intra_median: mpf
    inter_median: mpf
    ratio: mpf


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    failures: dict


def compute_spectrum(stream: CoeffStream, l: int, m: int,
                     target_digits: int) -> SpectrumRecord:
    """Eigenvalues of the (l, m) signed Hankel matrix, identity-validated."""
    res = adaptive_solve(signed_hankel(stream, l, m), target_digits)
    return SpectrumRecord(
        l=l, m=m, function_id=stream.spec.name, eigenvalues=res.eigenvalues,
        precision_used=res.precision_used, target_digits=target_digits,
        det=res.det, zero_threshold=res.zero_floor,
    )


def log_spectrum(rec: SpectrumRecord) -> LogSpectrum:
    """ln|mu| of the nonzero eigenvalues; zeros counted, not dropped."""
    pts = []
    with workprec(rec.precision_used):
        for mu in rec.eigenvalues:
            if abs(mu) > rec.zero_threshold:
                pts.append(+mp.log(abs(mu)))
    return LogSpectrum(l=rec.l, m=rec.m, points=tuple(sorted(pts)),
                       zero_count=rec.m - len(pts),
                       precision_bits=rec.precision_used)


def split(ls: LogSpectrum, policy: str = "largest-gap",
          value=None) -> SplitSpectrum:
    """Partition a logarithmic spectrum into electrons (low) and trains (high).

    Policies: ``largest-gap`` cuts at the widest gap between consecutive
    sorted points (ties resolved at the first such gap), ``threshold`` cuts
    at fixed x = value, ``quantile`` puts the lowest floor(q*n) points into
    the electron part.  Degenerate inputs (single point, all points equal)
    land everything in the train part with a warning.
    """
    pts = ls.points
    if not pts:
        raise ValueError("cannot split an empty spectrum")
    wp = ls.precision_bits + 16

    if policy == "largest-gap":
        policy_id = "largest-gap"
        if len(pts) == 1:
            return _degenerate_split(pts, policy_id, "single point")
        with workprec(wp):
            gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
            widest = max(gaps)
            if widest == 0:
                return _degenerate_split(pts, policy_id, "all points equal")
            idx = gaps.index(widest)
            cut = +((pts[idx] + pts[idx + 1]) / 2)
        return SplitSpectrum(electrons=pts[: idx + 1], trains=pts[idx + 1:],
                             policy_id=policy_id, cut=cut)

    if policy == "threshold":
        if value is None:
            raise ValueError("threshold policy needs a cut value")
        cut = mpf(value, prec=wp)
        policy_id = "threshold:%s" % value
        electrons = tuple(x for x in pts if x < cut)
        trains = tuple(x for x in pts if x >= cut)
        return SplitSpectrum(electrons=electrons, trains=trains,
                             policy_id=policy_id, cut=cut)

    if policy == "quantile":
        if value is None:
            raise ValueError("quantile policy needs a fraction")
        q = float(value)
        if not 0 < q < 1:
            raise ValueError("quantile fraction must be in (0, 1)")
        policy_id = "quantile:%s" % value
        k = int(q * len(pts))
        while k > 0 and pts[k - 1] == pts[k]:
            k -= 1
        if k == 0:
            return _degenerate_split(pts, policy_id,
                                     "quantile cut collapsed to zero points")
        with workprec(wp):
            cut = +((pts[k - 1] + pts[k]) / 2)
        return SplitSpectrum(electrons=pts[:k], trains=pts[k:],
                             policy_id=policy_id, cut=cut)

    raise ValueError("unknown split policy %r" % policy)


def _degenerate_split(pts, policy_id, why):
    msg = "degenerate split (%s): all points assigned to trains" % why
    warnings.warn(msg)
    return SplitSpectrum(electrons=(), trains=tuple(pts),
                         policy_id=policy_id, cut=None, warning=msg)


def _median(vals, wp):
    vals = sorted(vals)
    n = len(vals)
    with workprec(wp):
        if n % 2:
            return +vals[n // 2]
        return +((vals[n // 2 - 1] + vals[n // 2]) / 2)


def pairing_stats(trains) -> PairingStats:
    """Quantify pair structure: consecutive disjoint pairs after sorting.

    intra gaps are within pairs (1,2), (3,4), ...; inter gaps separate
    consecutive pairs.  A ratio well below 1 means the points travel in
    pairs.
    """
    pts = sorted(trains)
    if len(pts) < 4:
        raise ValueError("pairing needs at least 4 points")
    wp = PAIRING_PREC + 16
    with workprec(wp):
        npairs = len(pts) // 2
        intra = [pts[2 * i + 1] - pts[2 * i] for i in range(npairs)]
        inter = [pts[2 * i + 2] - pts[2 * i + 1] for i in range(npairs - 1)]
        intra_med = _median(intra, wp)
        inter_med = _median(inter, wp)
        ratio = intra_med / inter_med if inter_med != 0 else mp.inf
        return PairingStats(intra_median=intra_med, inter_median=inter_med,
                            ratio=+ratio)


def _sweep_worker(args):
    stream, l, m, target_digits = args
    try:
        rec = compute_spectrum(stream, l, m, target_digits)
        return m, rec, None
    except (IdentityError, PrecisionCapError, ConvergenceError,
            ValueError) as exc:
        return m, None, "%s: %s" % (type(exc).__name__, exc)


def sweep(stream: CoeffStream, l: int, m_range, target_digits: int,
          jobs: int = 1, cache_dir: str | None = None) -> SweepResult:
    """Spectrum records for every m in m_range; failures recorded per m.

    Each (l, m) is pure and independent, so the output, ordered by m, is the
    same for every job count.  A pool starts, and its modules load, only for
    ``jobs`` > 1 and at least two records to compute, with at most one worker
    per record.  An m that no level up to ``mpnum.DEFAULT_PREC_CAP`` bits
    accepts is a failure.  With ``cache_dir`` set, records stored under
    ``<cache_dir>/records`` are loaded first, each one judged again by
    ``accept_level``; only the rest are computed, and each new record is
    stored.  A stored record that fails the rule is computed again and
    overwritten; one that cannot be read raises ``CacheCorruptionError``.
    """
    ms = sorted(set(int(m) for m in m_range))
    if not ms:
        raise ValueError("empty m range")
    coefficient_window(stream, l, ms[-1])   # a short stream raises here
    results, paths = {}, {}
    if cache_dir:
        for m in ms:
            paths[m] = _record_path(stream, l, m, target_digits, cache_dir)
            rec = _load_record(stream, l, m, target_digits, paths[m])
            if rec is not None:
                results[m] = (rec, None)
    tasks = [(stream, l, m, target_digits) for m in ms if m not in results]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        run = pool.map if workers > 1 else map
        for m, rec, err in run(_sweep_worker, tasks):
            results[m] = (rec, err)
            if rec is not None and cache_dir:
                _store_record(rec, paths[m])
    records = tuple(results[m][0] for m in ms if results[m][0] is not None)
    failures = {m: results[m][1] for m in ms if results[m][1] is not None}
    return SweepResult(records=records, failures=failures)


# ---------------------------------------------------------------------------
# record store: <cache_dir>/records/<sha256 of the key>.json


def _raw_json(raw):
    sign, man, exp, bc = raw
    return [sign, format(int(man), "x"), exp, bc]


def _raw_mpf(item):
    """The mpf of a stored (sign, hex mantissa, exp, bc) list; ValueError
    unless it is a normalised finite binary value."""
    sign, hexman, exp, bc = item
    man = int(hexman, 16)
    raw = from_man_exp(-man if sign else man, exp)
    if raw != (sign, man, exp, bc):
        raise ValueError("%r is not a normalised binary value" % (item,))
    return mp.make_mpf(raw)


def _record_path(stream, l, m, target_digits, cache_dir):
    """Where the (l, m) record of ``stream`` is stored.

    The key hashes everything the record depends on, the precision cap
    ``mpnum.DEFAULT_PREC_CAP`` included, down to the exact binary value of
    each coefficient the matrix reads, so a stream that differs in any bit
    misses instead of reading a stale record.
    """
    coeffs = [_raw_json(theta(stream, k)._mpf_)
              for k in coefficient_window(stream, l, m)]
    key = json.dumps([RECORD_FORMAT, stream.spec.spec_hash(),
                      stream.precision_bits, l, m, target_digits,
                      mpnum.DEFAULT_PREC_CAP, coeffs])
    return os.path.join(cache_dir, "records",
                        hashlib.sha256(key.encode()).hexdigest() + ".json")


def _store_record(rec: SpectrumRecord, path: str):
    doc = {"precision_used": rec.precision_used,
           "eigenvalues": [_raw_json(mu._mpf_) for mu in rec.eigenvalues]}
    _atomic_write(path, json.dumps(doc, sort_keys=True) + "\n")


def _load_record(stream, l, m, target_digits, path):
    """The record stored at ``path``, or None if there is none or it fails
    ``accept_level`` at its precision.

    The determinant and zero floor are computed again, never read.  A file
    this program cannot have written (malformed JSON, an eigenvalue that
    is not a normalised binary value, a wrong count or order, a precision
    not in ``ladder(target_digits)``) raises ``CacheCorruptionError``.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        prec = doc["precision_used"]
        eigs = tuple(_raw_mpf(item) for item in doc["eigenvalues"])
        if type(prec) is not int or prec not in ladder(target_digits):
            raise ValueError("precision %r is not a level of the ladder"
                             % (prec,))
        if len(eigs) != m or any(b < a for a, b in zip(eigs, eigs[1:])):
            raise ValueError("expected %d eigenvalues in ascending order" % m)
    except (ValueError, KeyError, TypeError) as exc:
        # malformed JSON is a ValueError; JSON of the wrong shape gives a
        # KeyError, or a TypeError or ValueError from indexing or unpacking
        raise CacheCorruptionError("unreadable record %s: %s" % (path, exc))
    det, floor, reason = accept_level(signed_hankel(stream, l, m), eigs, prec)
    if reason is not None:
        return None
    return SpectrumRecord(
        l=l, m=m, function_id=stream.spec.name, eigenvalues=eigs,
        precision_used=prec, target_digits=target_digits, det=det,
        zero_threshold=floor,
    )


def spectra_csv(records, fh):
    """CSV rows (l, m, n, mu, ln_abs_mu, precision_bits), one per eigenvalue.

    ``ln_abs_mu`` is the literal string ZERO for zeros-at-precision.
    Decimal serialisation is bit-exact, so repeated exports of equal data
    are byte-identical.
    """
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["l", "m", "n", "mu", "ln_abs_mu", "precision_bits"])
    for rec in records:
        with workprec(rec.precision_used):
            for n, mu in enumerate(rec.eigenvalues, start=1):
                if abs(mu) <= rec.zero_threshold:
                    lnabs = "ZERO"
                else:
                    lnabs = to_decimal(+mp.log(abs(mu)), rec.precision_used)
                w.writerow([rec.l, rec.m, n,
                            to_decimal(mu, rec.precision_used), lnabs,
                            rec.precision_used])
