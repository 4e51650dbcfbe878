"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own LU / eigensolver
code paths: determinants and ranks come from exact-rational cofactor
expansion or Gaussian elimination over Fractions, and eigenvalue references come from
exact characteristic polynomials (Faddeev-LeVerrier over Fractions) whose
real roots are isolated by plain sign-change bisection at high precision,
or from mpmath's own symmetric eigensolver (Householder tridiagonalisation
plus QL) at more than twice the precision under test.  Analytic
coefficient references come from mpmath's own functions through the Cauchy
integral on a ring.
"""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, workprec


def cofactor_det(rows):
    """Exact determinant by first-row cofactor expansion (Fractions/ints)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def exact_fraction(x):
    """The exact rational value of an int, a Fraction or a finite mpf."""
    if isinstance(x, mpf):
        sign, man, exp, _ = x._mpf_
        v = Fraction(man) * Fraction(2) ** exp
        return -v if sign else v
    return Fraction(x)


def round_bits(x, prec):
    """The value nearest to the rational x with prec significant bits, ties
    to even: x rounded once, as mpmath's round-nearest does."""
    x = Fraction(x)
    if not x:
        return x
    a = abs(x)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if a >= Fraction(2) ** e:
        e += 1                        # now 2^(e-1) <= a < 2^e
    scaled = a * Fraction(2) ** (prec - e)
    n = math.floor(scaled)
    if scaled - n > Fraction(1, 2) or (scaled - n == Fraction(1, 2) and n % 2):
        n += 1
    r = n * Fraction(2) ** (e - prec)
    return r if x > 0 else -r


def sqrt_round_bits(x, prec):
    """sqrt(x) rounded once to prec bits, for a rational x >= 0.

    Scaled by 4^k so that sqrt(x * 4^k) >= 2^(prec+2), every prec-bit
    value and every midpoint between two of them is an integer, so
    sqrt(x * 4^k) in (n, n+1) rounds as n + 1/2 does.
    """
    x = Fraction(x)
    if not x:
        return x
    k = prec + 3 - (x.numerator.bit_length() - x.denominator.bit_length()
                    - 1) // 2
    X = x * Fraction(4) ** k
    n = math.isqrt(math.floor(X))
    root = n if n * n == X else n + Fraction(1, 2)
    return round_bits(root, prec) / Fraction(2) ** k


def gauss_det(rows):
    """Exact determinant by Gaussian elimination over Fractions.

    Entries may be ints, Fractions or mpfs, each read exactly.  Unlike
    ``cofactor_det`` (n! terms) it takes O(n^3) exact operations, so it
    reaches the m = 20..40 matrices of the determinant tests.
    """
    a = [[exact_fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pivot, prow = a[k][k], a[k]
        det *= pivot
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                a[i][k + 1:] = [x - f * y
                                for x, y in zip(a[i][k + 1:], prow[k + 1:])]
    return det


def fraction_rank(rows):
    """Exact rank by Gaussian elimination over Fractions.

    Entries may be ints, Fractions or mpfs, each read exactly; a column
    with no pivot left is skipped.
    """
    a = [[exact_fraction(x) for x in row] for row in rows]
    rank = 0
    for k in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][k] / prow[k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def char_poly(rows):
    """Coefficients of det(xI - A), highest power first, exact Fractions.

    Faddeev-LeVerrier: M_0 = I; c_0 = 1; M_k = A M_{k-1} + c_{k-1} I,
    c_k = -tr(A M_k)/k.
    """
    n = len(rows)
    A = [[Fraction(v) for v in row] for row in rows]
    coeffs = [Fraction(1)]
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                M[i][i] += coeffs[-1]
            M = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        else:
            M = [row[:] for row in A]
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


def poly_eval(coeffs, x, wp):
    with workprec(wp):
        acc = mpf(0)
        for c in coeffs:
            acc = acc * x + mpf(c.numerator) / c.denominator
        return acc


def bisect_roots(coeffs, lo, hi, n_roots, digits, wp=None, grid=4096):
    """Isolate real roots of an exact polynomial by sign-change bisection.

    Requires all ``n_roots`` roots to be simple and inside (lo, hi).
    Returns roots sorted ascending, accurate to ``digits`` decimal digits.
    """
    wp = wp or int(digits * 3.33) + 80
    with workprec(wp):
        lo, hi = mpf(lo), mpf(hi)
        xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
        vals = [poly_eval(coeffs, x, wp) for x in xs]
        brackets = []
        for i in range(grid):
            if vals[i] == 0:
                brackets.append((xs[i], xs[i]))
            elif vals[i] * vals[i + 1] < 0:
                brackets.append((xs[i], xs[i + 1]))
        assert len(brackets) == n_roots, (
            "expected %d sign changes, found %d" % (n_roots, len(brackets))
        )
        roots = []
        tol = mpf(10) ** (-(digits + 3))
        for a, b in brackets:
            fa = poly_eval(coeffs, a, wp)
            while b - a > tol * max(mpf(1), abs(a)):
                mid = (a + b) / 2
                fm = poly_eval(coeffs, mid, wp)
                if fm == 0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(+((a + b) / 2))
        return sorted(roots)


def eigsy_oracle(rows, prec):
    """Ascending eigenvalues of symmetric mpf ``rows`` by ``mp.eigsy``.

    It runs at 2*prec + 64 bits, so its own error sits far below that of a
    solver run at ``prec`` bits.
    """
    with workprec(2 * prec + 64):
        E = mp.eigsy(mp.matrix([list(r) for r in rows]), eigvals_only=True)
        return sorted(E[i] for i in range(len(rows)))


def ring_quadrature(f, s0, r, N, nq, prec):
    """Taylor coefficients 0..N of f at s0 by the trapezoid rule on nq nodes
    of the circle |s - s0| = r (the Cauchy integral), at ``prec`` bits.

    Nodes sit at angles pi*(2j+1)/nq.  The aliasing error of coefficient k
    is about |c_(k+nq)| r^nq, so nq a little above N suffices for the
    fast-decaying coefficients of entire functions.
    """
    with workprec(prec):
        acc = [mpc(0)] * (N + 1)
        for j in range(nq):
            w = mp.expjpi(mpf(2 * j + 1) / nq)
            g = f(s0 + r * w)
            wk, wc = mpc(1), mp.conj(w)
            for k in range(N + 1):
                acc[k] += g * wk
                wk *= wc
        return [acc[k] / (nq * mpf(r) ** k) for k in range(N + 1)]


def rand_symmetric(n, rng, bits=256):
    """Random symmetric matrix, entries uniform in [-1, 1] at full precision."""
    from hankelspectra import real_matrix
    with workprec(bits):
        vals = {}
        for i in range(n):
            for j in range(i, n):
                x = mpf(rng.getrandbits(bits)) / (1 << bits)
                vals[(i, j)] = vals[(j, i)] = +(2 * x - 1)
        rows = [[vals[(i, j)] for j in range(n)] for i in range(n)]
    return real_matrix(rows)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(scope="session")
def exp_stream():
    from hankelspectra import builtin_spec, generate
    return generate(builtin_spec("exponential"), 24, 256)


@pytest.fixture(scope="session")
def geo1_stream():
    from hankelspectra import builtin_spec, generate
    return generate(builtin_spec("geometric", 1), 24, 256)


@pytest.fixture(scope="session")
def zeta_star_stream():
    from hankelspectra import analytic_spec, generate
    return generate(analytic_spec("zeta-star"), 16, 256)
