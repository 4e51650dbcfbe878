"""Signed Hankel matrices and their Toeplitz column-rearrangement check.

For a coefficient stream c and indices l, m >= 1 the signed Hankel matrix
has entries (1-based)

    entry(i, j) = sign(m) * c[l + m + 1 - i - j],

i.e. the first row reads c[l+m-1] .. c[l], the last row c[l] .. c[l-m+1],
with the scalar prefactor

    sign(m) = -(-1)^((m+1)(m+2)/2),

which ``sign_prefactor(m)`` gives.  ``coefficient_window`` gives the
indices it reads, l-m+1 .. l+m-1, and raises ``StreamTooShortError`` for a
shorter stream.
Reversing the columns of the unsigned core produces the Toeplitz matrix
entry(i, j) = c[l + j - i]; since column reversal is a permutation of sign
(-1)^(m(m-1)/2), the two determinants agree up to that sign, which
``det_relation_check`` verifies numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_neg

from .coeffs import CoeffStream, theta
from .mpnum import IDENTITY_REL_EXP, RealMatrix, _within_rel, det_lu


class StreamTooShortError(ValueError):
    pass


def sign_prefactor(m: int) -> int:
    """-(-1)^((m+1)(m+2)/2): period-4 pattern +1, -1, -1, +1 from m=1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    exponent = ((m + 1) * (m + 2) // 2) % 2
    return 1 if exponent else -1


def coefficient_window(stream: CoeffStream, l: int, m: int) -> range:
    """The indices l-m+1 .. l+m-1 that the (l, m) matrix reads; raises
    ``StreamTooShortError`` if ``stream`` ends before l+m-1."""
    if stream.max_index < l + m - 1:
        raise StreamTooShortError("stream ends at index %d but index %d is "
                                  "required" % (stream.max_index, l + m - 1))
    return range(l - m + 1, l + m)


def _core_rows(stream, l, m, negate=False):
    """Rows of the (optionally negated) core: row i holds c[l+m-1-i-j]."""
    if l < 1 or m < 1:
        raise ValueError("l and m must be >= 1")
    # one mpf object per index so symmetric entries are bit-identical;
    # coeff[k] is c[l+m-1-k], so row i is coeff[i:i+m]
    coeff = [theta(stream, k)
             for k in reversed(coefficient_window(stream, l, m))]
    if negate:
        coeff = [mp.make_mpf(mpf_neg(v._mpf_)) for v in coeff]
    return tuple(tuple(coeff[i:i + m]) for i in range(m))


def hankel_core(stream: CoeffStream, l: int, m: int) -> RealMatrix:
    """Unsigned core: entry(i, j) = c[l + m + 1 - i - j] (1-based)."""
    return RealMatrix(entries=_core_rows(stream, l, m))


def signed_hankel(stream: CoeffStream, l: int, m: int) -> RealMatrix:
    """The core times ``sign_prefactor(m)``."""
    negate = sign_prefactor(max(m, 1)) < 0   # m < 1 is rejected by _core_rows
    return RealMatrix(entries=_core_rows(stream, l, m, negate=negate))


def raw_toeplitz(stream: CoeffStream, l: int, m: int) -> RealMatrix:
    """Unsigned Toeplitz form: entry(i, j) = c[l + j - i] (any basing).

    This is the core with its columns reversed.
    """
    rows = _core_rows(stream, l, m)
    return RealMatrix(entries=tuple(row[::-1] for row in rows))


@dataclass(frozen=True)
class DetRelationReport:
    ok: bool
    l: int
    m: int
    det_hankel: mpf
    det_toeplitz: mpf
    expected_sign: int
    rel_error: mpf
    prec: int


def det_relation_check(stream: CoeffStream, l: int, m: int,
                       prec: int) -> DetRelationReport:
    """Verify det(core) = (-1)^(m(m-1)/2) * det(toeplitz) to 10^-30 relative.

    Returns a report either way; ``ok=False`` carries both determinants.
    """
    dh = det_lu(hankel_core(stream, l, m), prec)
    dt = det_lu(raw_toeplitz(stream, l, m), prec)
    sign = -1 if ((m * (m - 1) // 2) % 2) else 1
    with workprec(prec + 16):
        st = sign * dt
        ok = _within_rel(dh, st, IDENTITY_REL_EXP)
        scale = max(abs(dh), abs(dt))
        rel = +(abs(dh - st) / scale) if scale else mpf(0)
    return DetRelationReport(ok=ok, l=l, m=m, det_hankel=dh, det_toeplitz=dt,
                             expected_sign=sign, rel_error=rel, prec=prec)
