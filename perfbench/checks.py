"""Checks of the program's output files against the oracles.

Each ``check_*`` function takes the text of the files a workload wrote and
the inputs the benchmark generated, and returns a list of problems (empty
when every check holds).  Tolerances derive from the requested digits d:

* an eigenvalue is trusted to 10^-d relative, or 10^-d absolute when its
  magnitude is at most 10^-d (the agreement rule of the adaptive solver),
  widened by 2^-(b-1) * ||A||_F for the rounding of the input coefficients
  to the stream precision b;
* quantities the program validates through its own product/determinant
  identities (means of log spectra, m-th roots of determinants) are
  compared at 10^-(d-5), the margin the trend harness itself allows;
* analytic coefficients are compared at 2^-(b/2) relative to max(1, |c|),
  the half precision to which the ring quadrature validates a stream.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from math import isqrt

from mpmath import mp, mpf, workprec

import oracles

CHECK_PREC = 2048   # bits for transcendental oracle values


def stream_bits(digits):
    """Coefficient precision the CLI uses for --digits (its documented floor)."""
    return max(256, math.ceil(digits * math.log2(10)) + 64)


def _sqrt_upper(x):
    """A rational upper bound on sqrt(x) for a nonnegative Fraction x."""
    scale = 10 ** 40
    return Fraction(isqrt(math.ceil(x * scale * scale)) + 1, scale)


def _decimal(s):
    with workprec(CHECK_PREC):
        return mpf(s)


# ---------------------------------------------------------------------------
# sweep CSV (sweep-c9)


def parse_sweep_csv(text):
    """{m: [(n, mu, ln_abs_mu, precision_bits), ...]} from a spectra CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["l", "m", "n", "mu", "ln_abs_mu",
                               "precision_bits"]:
        raise ValueError("unexpected spectra CSV header")
    by_m = {}
    for l, m, n, mu, ln, bits in rows[1:]:
        by_m.setdefault(int(m), []).append((int(n), mu, ln, int(bits)))
    return by_m


def eigen_tolerances(mus, digits, norm_bound, input_bits):
    tiny = Fraction(1, 10 ** digits)
    eps_in = norm_bound / 2 ** (input_bits - 1)
    return [(tiny * abs(mu) if abs(mu) > tiny else tiny) + eps_in
            for mu in mus]


def check_spectrum(A, mus, digits, input_bits, label):
    """Sum, sum of squares and product of the eigenvalues against A exactly."""
    problems = []
    tr = oracles.trace(A)
    fro2 = oracles.frobenius_sq(A)
    det = oracles.exact_det(A)
    errs = eigen_tolerances(mus, digits, _sqrt_upper(fro2), input_bits)
    if abs(sum(mus) - tr) > 2 * sum(errs):
        problems.append("%s: sum of eigenvalues differs from the trace" % label)
    sq_tol = 2 * sum(2 * abs(mu) * e + e * e for mu, e in zip(mus, errs))
    if abs(sum(mu * mu for mu in mus) - fro2) > sq_tol:
        problems.append("%s: sum of squared eigenvalues differs from "
                        "||A||_F^2" % label)
    prod, prod_abs, prod_hi = Fraction(1), Fraction(1), Fraction(1)
    for mu, e in zip(mus, errs):
        prod *= mu
        prod_abs *= abs(mu)
        prod_hi *= abs(mu) + e
    if abs(prod - det) > 2 * (prod_hi - prod_abs):
        problems.append("%s: eigenvalue product differs from the exact "
                        "determinant" % label)
    return problems


def check_sweep(csv_text, moments, l, ms, digits):
    """Every m of a spectra CSV against the exact matrix of its moments.

    ``moments`` are the decimal strings given to ``user-moments``; sizes
    missing from the CSV are failed operations, not problems.
    """
    problems = []
    by_m = parse_sweep_csv(csv_text)
    coeffs = [Fraction(v) for v in moments]
    bits_in = stream_bits(digits)
    for m in sorted(by_m):
        rows = by_m[m]
        label = "m=%d" % m
        if m not in ms or [r[0] for r in rows] != list(range(1, m + 1)):
            problems.append("%s: rows are not n = 1..m" % label)
            continue
        mus = [Fraction(r[1]) for r in rows]
        if mus != sorted(mus):
            problems.append("%s: eigenvalues not ascending" % label)
        A = oracles.signed_hankel(coeffs, l, m)
        problems += check_spectrum(A, mus, digits, bits_in, label)
        fro = _sqrt_upper(oracles.frobenius_sq(A))
        for n, mu_s, ln_s, bits in rows:
            mu = Fraction(mu_s)
            if ln_s == "ZERO":
                if abs(mu) > fro / 2 ** (bits - 16):
                    problems.append("%s n=%d: ZERO above the zero floor"
                                    % (label, n))
                continue
            with workprec(bits + 64):
                ref = oracles.ln_abs(mu, bits + 64)
                if abs(_decimal(ln_s) - ref) > mpf(2) ** (4 - bits) * max(1, abs(ref)):
                    problems.append("%s n=%d: ln_abs_mu differs from ln|mu|"
                                    % (label, n))
    return problems


# ---------------------------------------------------------------------------
# trend reports


def series(report, name):
    """{m: decimal string} of one named series of a report document."""
    return {m: v for m, v in report["series"][name]}


def parse_cache(text):
    """Exact binary coefficients and their precision from a cache .jsonl."""
    vals, bits = [], None
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["k"] != len(vals):
            raise ValueError("cache indices are not contiguous")
        bits = rec["bits"]
        vals.append((rec["v"], bits))
    return [oracles.binary_fraction(v, b) for v, b in vals], bits


def check_zeta_coeffs(coeffs, bits):
    problems = []
    ref = oracles.zeta_star_coeffs(len(coeffs) - 1, bits)
    with workprec(bits + 64):
        tol = mpf(2) ** (-(bits // 2))
        for k, (c, r) in enumerate(zip(coeffs, ref)):
            if abs(oracles.to_mpf(c, bits + 64) - r) > tol * max(1, abs(r)):
                problems.append("coefficient %d differs from the mpmath "
                                "derivative oracle" % k)
    return problems


def _multiple_of(value, den, label):
    x = _decimal(value) * den
    if abs(x - mp.nint(x)) > mpf(2) ** -40 * den or not 0 <= mp.nint(x) <= den:
        return ["%s: %s is not a multiple of 1/%d in [0, 1]" % (label, value, den)]
    return []


def check_zeta_reports(reports, coeffs, l, grid, digits):
    """2A/2B/2D against exact determinants and norms; 2C/2E structure.

    ``reports`` maps check ids to parsed report documents; ``coeffs`` are the
    exact cached coefficients the program's matrices were built from.
    """
    problems = []
    tol = mpf(10) ** (5 - digits)
    upper = series(reports["2A"], "max_point")
    lower = series(reports["2B"], "min_point")
    pos = series(reports["2D"], "pos_tail")
    neg = series(reports["2D"], "neg_tail_abs")
    for cid in ("2A", "2B", "2D"):
        if reports[cid]["m_grid"] != grid:
            problems.append("%s: m grid %s, expected %s"
                            % (cid, reports[cid]["m_grid"], grid))
    with workprec(CHECK_PREC):
        for m in grid:
            label = "m=%d" % m
            A = oracles.signed_hankel(coeffs, l, m)
            det = oracles.exact_det(A)
            if det == 0:
                problems.append("%s: exact determinant is zero" % label)
                continue
            lnd = oracles.ln_abs(det, CHECK_PREC) / m
            ln_fro = oracles.ln_abs(oracles.frobenius_sq(A), CHECK_PREC) / 2
            if m not in pos or m not in upper or m not in lower:
                problems.append("%s: missing from a report series" % label)
                continue
            hi, lo = _decimal(upper[m]), _decimal(lower[m])
            if abs(_decimal(pos[m]) - _decimal(neg[m]) - lnd) > tol:
                problems.append("%s: 2D pos_tail - neg_tail_abs differs from "
                                "ln|det|/m" % label)
            if not ln_fro - mp.log(m) / 2 - tol <= hi <= ln_fro + tol:
                problems.append("%s: 2A max_point outside [ln(||A||_F/sqrt m), "
                                "ln ||A||_F]" % label)
            if not lo - tol <= lnd <= hi + tol:
                problems.append("%s: ln|det|/m outside [min_point, max_point]"
                                % label)
    for m, v in reports["2C"]["series"]["sup_distance_m_2m"]:
        problems += _multiple_of(v, 2 * m, "2C m=%d" % m)
    for name, vals in reports["2E"]["series"].items():
        for m, v in vals:
            problems += _multiple_of(v, m, "2E %s m=%d" % (name, m))
    return problems


def check_v5(report, l, m_max, digits):
    """product_mth_root against |det|^(1/m) of the exact 1/k! matrix."""
    problems = []
    roots = series(report, "product_mth_root")
    if sorted(roots) != list(range(1, m_max + 1)):
        problems.append("v5: product_mth_root does not cover m = 1..%d" % m_max)
    coeffs = oracles.exponential_coeffs(l + m_max)
    with workprec(CHECK_PREC):
        tol = mpf(10) ** (5 - digits)
        for m in sorted(roots):
            det = oracles.exact_det(oracles.signed_hankel(coeffs, l, m))
            ref = mp.exp(oracles.ln_abs(det, CHECK_PREC) / m)
            if abs(_decimal(roots[m]) - ref) > tol * ref:
                problems.append("v5 m=%d: product_mth_root differs from "
                                "|det|^(1/m)" % m)
    return problems
