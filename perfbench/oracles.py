"""Reference computations that share no code with the package under test.

Everything here is built from the paper's definitions with exact rational
arithmetic (``fractions.Fraction`` and Python ints) or from mpmath's own
special functions.  Nothing is imported from ``hankelspectra``: the
matrices follow the index rule directly, determinants come from
fraction-free (Bareiss) elimination, and the zeta-star coefficients come
from mpmath's derivatives of zeta at 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from mpmath import mp, mpf, workprec


def sign_prefactor(m):
    """sign(m) = -(-1)^((m+1)(m+2)/2), written as in the paper."""
    return -((-1) ** ((m + 1) * (m + 2) // 2))


def signed_hankel(coeffs, l, m):
    """m-by-m matrix with entry (i, j) = sign(m) * c[l + m + 1 - i - j], 1-based.

    ``coeffs`` is indexable from 0; indices below 0 read as exactly 0.
    """
    s = sign_prefactor(m)

    def c(k):
        return coeffs[k] * s if k >= 0 else 0

    return [[c(l + m + 1 - i - j) for j in range(1, m + 1)]
            for i in range(1, m + 1)]


def trace(rows):
    return sum(rows[i][i] for i in range(len(rows)))


def frobenius_sq(rows):
    return sum(x * x for row in rows for x in row)


def bareiss_det(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def exact_det(rows):
    """Exact determinant of a rational matrix (Fractions or ints)."""
    n = len(rows)
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in row] for row in rows]
    return Fraction(bareiss_det(ints), den ** n)


def exponential_coeffs(n):
    """c_k = 1/k! for k = 0..n, exactly."""
    return [Fraction(1, factorial(k)) for k in range(n + 1)]


def zeta_star_coeffs(n, bits):
    """Taylor coefficients of (s-1)*zeta(s) at 0 from mpmath's derivatives.

    With a_j = zeta^(j)(0)/j!, the product (s-1) * sum a_j s^j gives
    c_k = a_(k-1) - a_k (a_(-1) = 0).  Returned as mpfs at ``bits + 64``.
    """
    with workprec(bits + 64):
        a = [mp.zeta(0, 1, j) / mp.factorial(j) for j in range(n + 1)]
        return [(a[k - 1] if k else 0) - a[k] for k in range(n + 1)]


def binary_fraction(decimal, bits):
    """Exact value of the ``bits``-bit binary float nearest to ``decimal``.

    A coefficient cache stores decimals that round back to the stream's
    binary values at its precision; this recovers those values exactly.
    """
    with workprec(bits):
        x = mpf(decimal)
    man, exp = x.man_exp     # man_exp gives |x|
    if not man:
        return Fraction(0)
    return Fraction(-man if x < 0 else man) * (Fraction(2) ** exp)


def to_mpf(x, prec):
    """A Fraction (or int) as an mpf at ``prec`` bits."""
    x = Fraction(x)
    with workprec(prec):
        return mpf(x.numerator) / x.denominator


def ln_abs(x, prec):
    """ln|x| of a nonzero Fraction at ``prec`` bits."""
    with workprec(prec + 32):
        return +mp.log(abs(to_mpf(x, prec + 32)))
