"""Arbitrary-precision real scalars, dense matrices, and symmetric eigensolvers.

Scalars are mpmath ``mpf`` values (sign / significand / exponent with an
unbounded exponent range), so quantities as extreme as e^(+-1000) never
overflow.  All hot loops run on raw libmp tuples or Python ints with an
explicit working precision, which keeps the routines independent of the
global mpmath context and safe to call concurrently from worker processes.

* ``det_lu``          -- determinant via LU with partial pivoting,
* ``sym_eigenvalues`` -- Householder tridiagonalisation plus root-free QL
                         for real symmetric matrices,
* ``accept_level``    -- the one acceptance rule: the product/determinant
                         identity, and zeros-at-precision only as many as
                         the exact nullity,
* ``ladder``          -- the one precision ladder: the least power of two
                         of bits that holds the target digits, doubled up
                         to the cap ``DEFAULT_PREC_CAP``,
* ``adaptive_solve``  -- ``sym_eigenvalues`` at each level of ``ladder``
                         until two consecutive levels agree and
                         ``accept_level`` accepts the level.

Every matrix routine reads one exact integer form, ``RealMatrix.exact``,
built once per matrix: each entry is an integer times one common power of
two.  ``trace`` and ``frobenius_norm`` sum it exactly and round once to
the requested precision, and ``_nullity`` eliminates on it exactly.
``det_lu`` and the eigensolver round it to one fixed-point form
(``_scaled_rows``): one power of two scales the matrix to norm at most 1,
and every entry becomes an integer with
``prec + 32 + 2*ceil(log2(m))`` guard bits plus 16 more as fraction bits;
for ``det_lu`` the fraction bits also span the exponent range of the
entries, so LU on a graded matrix keeps each pivot accurate relative to
its own size.  LU with partial pivoting, the Householder reduction and the
root-free QL chase are integer arithmetic floored back to that fixed
point; only the chase's rotation scalars keep F significant bits, as in
floating point (Parlett, The Symmetric Eigenvalue Problem, ch. 7-8; Golub
& Van Loan, Matrix Computations, sec. 3.4 and 8.3).  The eigensolver's
rounding error is therefore absolute, about 2^-(prec+48) * ||A||_F per
step, and it deflates an off-diagonal entry only below
2^-(prec+40) * ||A||_F, so every eigenvalue of a level is within about
n * 2^-(prec+40) * ||A||_F of the rounded matrix's, clustered ones
included, far below the zero floor ||A||_F * 2^-(prec-16) under which an
eigenvalue counts as zero.  Relative digits of small eigenvalues come from
the ladder's higher levels, not from the kernel.  A computed eigenvalue
within 2^-(prec+32) * 2^E of 0, inside that rounding, is reported as exact
0, and a pivot column that is zero at the fixed point gives a determinant
of exact 0: zero at working precision, not a proof of singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add, mul

from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    from_man_exp,
    from_str,
    fzero,
    mpf_abs,
    mpf_gt,
    mpf_mul,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_str,
)

_RND = round_nearest

DEFAULT_PREC_CAP = 8192
DEFAULT_MAX_SWEEPS = 64
IDENTITY_REL_EXP = -30   # determinant identities hold to 10^-30 relative
ZERO_FLOOR_SLACK_BITS = 16   # zero-at-precision: |mu| <= ||A||_F * 2^-(prec-16)


class NonSymmetricError(ValueError):
    """Matrix lacks the exact symmetry required by the symmetric solver."""


class ConvergenceError(RuntimeError):
    """QL iteration failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IdentityError(RuntimeError):
    """Eigenvalue product and determinant disagree beyond tolerance."""


class PrecisionCapError(RuntimeError):
    """Adaptive precision doubling hit its cap before results agreed."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


def ladder(target_digits: int) -> list:
    """The precision levels for ``target_digits``, ascending.

    The first is the least power of two of at least
    ceil(target_digits * log2(10)) bits, and no less than 64, the least
    precision ``det_lu`` takes.  Each next level doubles it, up to
    ``DEFAULT_PREC_CAP``.  A target that needs more bits than the cap has
    no level, so ``adaptive_solve`` fails it with ``PrecisionCapError``.
    """
    bits = (10 ** target_digits).bit_length()   # ceil(digits * log2(10))
    start = max(64, 1 << (bits - 1).bit_length())
    return [start << k
            for k in range((DEFAULT_PREC_CAP // start).bit_length())]


def stream_bits(target_digits: int) -> int:
    """Coefficient bits: 64 more than ``target_digits`` need, at least 256."""
    return max(256, (10 ** target_digits).bit_length() + 64)


def guard_prec(prec: int, dim: int) -> int:
    """Working precision: requested bits plus pivot/rotation guard bits."""
    return prec + 32 + 2 * max(1, math.ceil(math.log2(max(2, dim))))


def to_decimal(x: mpf, bits: int) -> str:
    """Decimal string that parses back to *exactly* ``x`` at ``bits`` bits.

    int(bits * 0.30103) + 3 >= ceil(bits * log10(2)) + 2 digits suffice for
    any value of ``bits`` bits, so decimal serialisation never loses
    information and repeated exports are byte-identical.
    """
    s = to_str(x._mpf_, int(bits * 0.30103) + 3, strip_zeros=True,
               show_zero_exponent=False)
    if from_str(s, bits, _RND) != x._mpf_:
        raise ValueError("%r has no exact decimal form at %d bits" % (x, bits))
    return s


def from_decimal(s: str, bits: int) -> mpf:
    return mp.make_mpf(from_str(s, bits, _RND))


@dataclass(frozen=True)
class RealMatrix:
    """Square matrix of mpf entries; ``symmetric`` asserts bit-exact symmetry."""

    entries: tuple
    symmetric: bool = False

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def exact(self):
        """(low, rows): entry (i, j) is exactly rows[i][j] * 2^low.

        ``low`` is the lowest exponent of the nonzero entries (0 if there
        are none), so every entry is an integer at that scale.
        """
        raws = [[x._mpf_ for x in row] for row in self.entries]
        low = min((r[2] for row in raws for r in row if r[1]), default=0)
        return low, tuple(
            tuple((-1) ** sign * (man << exp - low) if man else 0
                  for sign, man, exp, _ in row) for row in raws)


def real_matrix(rows, symmetric: bool = False) -> RealMatrix:
    """Build a RealMatrix from ints/floats/mpfs (all exactly representable)."""
    ents = []
    n = len(rows)
    if n == 0:
        raise ValueError("matrix dimension must be at least 1")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        ents.append(tuple(x if isinstance(x, mpf) else mpf(x) for x in row))
    ents = tuple(ents)
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if ents[i][j]._mpf_ != ents[j][i]._mpf_:
                    raise NonSymmetricError(
                        "entry (%d,%d) differs from (%d,%d)" % (i, j, j, i)
                    )
    return RealMatrix(entries=ents, symmetric=symmetric)


def trace(A: RealMatrix, prec: int) -> mpf:
    """The exact sum of the diagonal, rounded once to ``prec``."""
    low, rows = A.exact
    return mp.make_mpf(from_man_exp(sum(row[i] for i, row in enumerate(rows)),
                                    low, prec, _RND))


def frobenius_norm(A: RealMatrix, prec: int) -> mpf:
    """The square root of the exact sum of squares, rounded once."""
    low, rows = A.exact
    norm2 = from_man_exp(sum(v * v for row in rows for v in row), 2 * low)
    return mp.make_mpf(mpf_sqrt(norm2, prec, _RND))


def _within_rel(x: mpf, y: mpf, exp: int) -> bool:
    """|x - y| <= 10^exp * max(|x|, |y|) at the current precision; 0 == 0."""
    scale = max(abs(x), abs(y))
    return scale == 0 or abs(x - y) <= mpf(10) ** exp * scale


def det_lu(A: RealMatrix, prec: int) -> mpf:
    """Determinant via LU with partial pivoting in fixed point.

    Runs on the graded fixed-point form of ``_scaled_rows``, whose F
    fraction bits span the exponent range of the entries, so the pivots of
    a graded matrix such as the Hankel matrix of 1/k! stay accurate
    relative to their own size.  Each multiplier is f = (a_rc << F) //
    pivot and each row update a -= f*w >> F.  The |pivots| go into a
    running product cut back to 2F bits, the cut bits into an exponent;
    the product times the permutation sign is rounded to ``prec`` once.
    A pivot column that is zero at scale F returns exact 0, which here
    means zero at working precision; only ``_nullity`` decides whether
    the matrix is exactly singular.
    """
    n = A.dim
    if n < 1:
        raise ValueError("determinant of an empty matrix")
    if prec < 64:
        raise ValueError("prec must be >= 64")
    E, F, a = _scaled_rows(A, prec, graded=True)
    negative = False
    man, exp = 1, n * (E - F)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        pivot = a[piv][col]
        if not pivot:
            return mp.make_mpf(fzero)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            negative = not negative
        if pivot < 0:
            negative = not negative
        man *= abs(pivot)
        cut = man.bit_length() - 2 * F
        if cut > 0:
            man >>= cut
            exp += cut
        crow = a[col][col + 1:]
        for r in range(col + 1, n):
            arow = a[r]
            if arow[col]:
                f = (arow[col] << F) // pivot
                arow[col + 1:] = [v - (f * w >> F)
                                  for v, w in zip(arow[col + 1:], crow)]
    return mp.make_mpf(from_man_exp(-man if negative else man, exp, prec, _RND))


def _scaled_rows(A: RealMatrix, prec: int, upper: bool = False,
                 graded: bool = False):
    """The kernels' fixed-point form of ``A``: (E, F, integer rows).

    One power of two 2^E >= n * max|a_ij| >= ||A||_F scales the matrix,
    and each entry of ``A.exact`` becomes the nearest integer of
    a_ij * 2^(F-E), ties away from zero, with F = guard_prec(prec, n) + 16
    fraction bits.  With ``graded`` F also spans the exponent range of the
    nonzero entries, so the smallest of them keeps as many bits of its own
    as the largest.  With ``upper`` only the upper triangle is kept: row i
    holds entries (i, i..n-1).
    """
    low, rows = A.exact
    n = len(rows)
    tops = [low + abs(v).bit_length() for row in rows for v in row if v]
    top = max(tops, default=0)
    F = guard_prec(prec, n) + 16
    if graded and tops:
        F += top - min(tops)
    E = top + (n - 1).bit_length()
    k = low + F - E
    if k >= 0:
        return E, F, [[v << k for v in (row[i:] if upper else row)]
                      for i, row in enumerate(rows)]
    half = 1 << (-k - 1)
    return E, F, [[(v + half) >> -k if v >= 0 else -((half - v) >> -k)
                   for v in (row[i:] if upper else row)]
                  for i, row in enumerate(rows)]


def _nullity(A: RealMatrix) -> int:
    """The exact dimension of the null space of ``A``.

    Elimination on the integers of ``A.exact`` modulo the prime 2^61 - 1
    comes first: a minor nonzero mod p is nonzero, so full rank mod p
    proves nullity 0.  Only below full rank does Bareiss fraction-free
    elimination, each update divided exactly by the previous pivot, find
    the exact rank.  Both skip a column with no pivot left.
    """
    p = (1 << 61) - 1
    rows = A.exact[1]
    n = len(rows)
    # mod p a row times a nonzero pivot keeps the rank, so no division
    for a, cut in (([[v % p for v in row] for row in rows],
                    lambda v, prev: v % p),
                   ([list(row) for row in rows], lambda v, prev: v // prev)):
        rank, prev = 0, 1
        for k in range(n):
            piv = next((i for i in range(rank, n) if a[i][k]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            ar, ark = a[rank], a[rank][k]
            for ai in a[rank + 1:]:
                aik = ai[k]
                ai[k + 1:] = [cut(v * ark - aik * w, prev)
                              for v, w in zip(ai[k + 1:], ar[k + 1:])]
            rank, prev = rank + 1, ark
        if rank == n:
            break
    return n - rank


@dataclass(frozen=True)
class EigenResult:
    """Sorted-ascending eigenvalues plus the precision/residual they carry.

    ``sweeps`` counts the QL iterations of ``sym_eigenvalues``.
    ``adaptive_solve`` also fills in the determinant and the zero floor of
    the level it accepted.
    """

    eigenvalues: tuple
    precision_used: int
    offdiag_residual: mpf
    sweeps: int = 0
    det: mpf | None = None
    zero_floor: mpf | None = None


def _diagonal_result(A, prec):
    """The exact result for an exactly diagonal ``A``, else None."""
    low, rows = A.exact
    if any(v for i, row in enumerate(rows) for j, v in enumerate(row)
           if i != j):
        return None
    eigs = sorted(mp.make_mpf(from_man_exp(row[i], low, prec, _RND))
                  for i, row in enumerate(rows))
    return EigenResult(eigenvalues=tuple(eigs), precision_used=prec,
                       offdiag_residual=mp.make_mpf(fzero), sweeps=0)


def _tridiagonalize(a, F):
    """Householder reduction of a scaled upper triangle to (d, e).

    Step k reflects rows and columns k+1..n-1 with H = I - 2uu^T, u a unit
    vector at scale F: p = Bu, w = p - (u^T p)u, B -= 2(uw^T + wu^T) on the
    trailing upper triangle B.  A row already zero past its first
    off-diagonal entry is left alone, so tridiagonal input stays exact.
    Returns the diagonal d and off-diagonal e (e[i] couples i and i+1,
    e[n-1] = 0), all at scale F.
    """
    n = len(a)
    d, e = [0] * n, [0] * n
    for k in range(n - 1):
        row = a[k]
        d[k], x = row[0], row[1:]
        if not any(x[1:]):
            e[k] = x[0]
            continue
        sigma = sum(v * v for v in x)
        alpha = math.isqrt(sigma)
        if x[0] >= 0:
            alpha = -alpha
        e[k] = alpha
        x[0] -= alpha
        vn = math.isqrt(sum(v * v for v in x))
        u = [(v << F) // vn for v in x]
        B = a[k + 1:]
        p = [0] * len(B)
        for i, brow in enumerate(B):
            ui = u[i]
            p[i] += sum(map(mul, brow, u[i:]))
            if ui:
                p[i + 1:] = map(add, p[i + 1:], [ui * v for v in brow[1:]])
        p = [v >> F for v in p]
        K = sum(map(mul, u, p)) >> F
        w = [v - (K * ui >> F) for v, ui in zip(p, u)]
        s = F - 1
        for i, brow in enumerate(B):
            ui, wi = u[i], w[i]
            brow[:] = [v - ((ui * wj + wi * uj) >> s)
                       for v, wj, uj in zip(brow, w[i:], u[i:])]
    d[n - 1] = a[n - 1][0]
    return d, e


def _ql_step(d, e2, l, m, F):
    """One root-free implicit QL iteration on rows l..m (Pal-Walker-Kahan).

    ``d`` is at scale F and ``e2`` holds the squared off-diagonal at scale
    2F.  The Wilkinson shift takes the one square root of the iteration;
    the chase carries c = cos^2 and s = sin^2 of each rotation and needs
    none (Parlett, The Symmetric Eigenvalue Problem, sec. 8.15; LAPACK
    dsterf).  As in dsterf's floating point, c, s and the bulge p =
    gamma^2 / c keep F significant bits each, as cm / 2^cx, sm / 2^sx and
    pm / 2^px (p at scale 2F): a c, s or p with F fraction bits only loses
    its digits when it is small, which is when the chase crosses a tiny
    e_i or a bulge near 0, and the next division by c turns that loss into
    an error of the eigenvalues.  The smaller of c and s comes from the
    division, the other is 1 minus it.  gamma is at scale 2F, so that
    gamma^2 / c keeps its digits too; c is 0 only when p is, and then p =
    oldc * bb is the limit of gamma^2 / c.
    """
    dl, el2 = d[l], e2[l]
    delta = d[l + 1] - dl
    root = math.isqrt(delta * delta + 4 * el2)
    if delta < 0:
        root = -root
    sigma = dl - (2 * el2) // (delta + root)
    one, F2 = 1 << F, 2 * F
    cm, cx, sm, sx = one, F, 0, F
    gamma = (d[m] - sigma) << F
    pm, px = gamma * gamma >> F2, 0
    for i in range(m - 1, l - 1, -1):
        bb = e2[i] << px
        r = pm + bb
        if i + 1 < m:
            e2[i + 1] = sm * r >> (sx + px)
        oldcm, oldcx, oldgam = cm, cx, gamma
        t = d[i] - sigma
        if pm > bb:
            sx = F + r.bit_length() - bb.bit_length()
            sm = (bb << sx) // r
            cm, cx = one - (sm >> (sx - F)), F
            gamma = cm * t - (sm * oldgam >> sx)
        else:
            cx = F + r.bit_length() - pm.bit_length()
            cm = (pm << cx) // r
            sm, sx = one - (cm >> (cx - F)), F
            gamma = (cm * t << F >> cx) - (sm * oldgam >> F)
        d[i + 1] = d[i] + ((oldgam - gamma) >> F)
        if cm:
            g2 = gamma * gamma
            k = max(F2 + 1 - g2.bit_length(), cx - F2)
            pm = (g2 << k) // cm if k >= 0 else (g2 >> -k) // cm
            px = F2 - cx + k
        else:
            pm, px = oldcm * e2[i], oldcx
    e2[l] = sm * pm >> (sx + px)
    d[l] = sigma + (gamma >> F)


def sym_eigenvalues(A: RealMatrix, prec: int) -> EigenResult:
    """Eigenvalues of a symmetric matrix by Householder and root-free QL.

    Works on the fixed-point form of ``_scaled_rows``.  Householder
    reflections reduce it to tridiagonal form in one pass; root-free
    implicit QL with a Wilkinson shift then chases each squared
    off-diagonal down until e_i^2 <= 2^(-2(prec+40)) * ||A||_F^2, compared
    exactly as integers.  ``DEFAULT_MAX_SWEEPS`` caps the QL iterations
    per eigenvalue and ``sweeps`` counts them all; past the cap,
    ``ConvergenceError`` carries the off-diagonal Frobenius norm of the
    current matrix.  Rounding stays near 2^-(prec+48) * ||A||_F, and each
    deflated e_i moves the eigenvalues by at most |e_i| (Weyl), so every
    eigenvalue is within about n * 2^-(prec+40) * ||A||_F of the rounded
    matrix's.  A value within 2^-(prec+32) * 2^E of 0 is reported as exact
    0.  The diagonal is rounded to ``prec`` once and comes back sorted
    ascending.
    """
    if not A.symmetric:
        raise NonSymmetricError("sym_eigenvalues requires the symmetric flag")
    n = A.dim
    exact = _diagonal_result(A, prec)
    if exact is not None:
        return exact
    E, F, a = _scaled_rows(A, prec, upper=True)

    # e_i is deflated once e_i^2 <= lim2 = 2^(-2(prec+40)) * ||A||_F^2
    norm2 = sum(2 * sum(x * x for x in row) - row[0] * row[0] for row in a)
    lim2 = norm2 >> 2 * (prec + 40)

    d, e = _tridiagonalize(a, F)
    e2 = [x * x for x in e]

    def residual():
        # off-diagonal Frobenius norm of the current tridiagonal matrix
        off2 = 2 * sum(e2)
        return mp.make_mpf(mpf_sqrt(from_man_exp(off2, 2 * (E - F)), prec, _RND))

    sweeps = 0
    for l in range(n):
        its = 0
        while True:
            m = next((i for i in range(l, n - 1) if e2[i] <= lim2), n - 1)
            if m == l:
                break
            if its >= DEFAULT_MAX_SWEEPS:
                resid = residual()
                raise ConvergenceError(
                    "QL did not converge in %d iterations (residual %s)"
                    % (DEFAULT_MAX_SWEEPS, mp.nstr(resid, 8)), residual=resid)
            its += 1
            sweeps += 1
            _ql_step(d, e2, l, m, F)

    zero = 1 << (F - prec - 32)        # 2^-(prec+32) * 2^E at scale F
    eigs = sorted(mp.make_mpf(from_man_exp(x, E - F, prec, _RND)
                           if abs(x) > zero else fzero) for x in d)
    return EigenResult(eigenvalues=tuple(eigs), precision_used=prec,
                       offdiag_residual=residual(), sweeps=sweeps)


def _agree(prev: EigenResult, cur: EigenResult, target_digits: int, wp: int) -> bool:
    # relative agreement to target_digits; absolute below the 10^-digits floor
    tiny = from_str("1e-%d" % target_digits, wp, _RND)
    for x, y in zip(prev.eigenvalues, cur.eigenvalues):
        xr, yr = x._mpf_, y._mpf_
        diff = mpf_abs(mpf_sub(xr, yr, wp, _RND))
        scale = mpf_abs(xr) if mpf_gt(mpf_abs(xr), mpf_abs(yr)) else mpf_abs(yr)
        if mpf_gt(scale, tiny):
            if mpf_gt(diff, mpf_mul(tiny, scale, wp, _RND)):
                return False
        elif mpf_gt(diff, tiny):
            return False
    return True


def _identity_state(eigs, det, floor, prec):
    """Classify the product/determinant identity at the given precision.

    Returns (ok, zero_at_precision_count, product) for the zero ``floor``
    of the level, the eigenvalue product taken at ``prec + 32`` bits.  With
    no zeros-at-precision the check is a strict relative comparison;
    otherwise the determinant must vanish below 2^(2m) * prod(max(|mu|,
    floor)), the scale reachable by a product containing a roundoff-level
    factor, which the product itself never exceeds.
    """
    with workprec(prec + 32):
        zeros = sum(1 for mu in eigs if abs(mu) <= floor)
        prod = mp.fprod(eigs)
        if zeros == 0:
            return _within_rel(prod, det, IDENTITY_REL_EXP), 0, prod
        bound = mpf(2) ** (2 * len(eigs))
        for mu in eigs:
            bound = bound * max(abs(mu), floor)
        return abs(det) <= bound, zeros, prod


def accept_level(A: RealMatrix, eigenvalues, prec: int):
    """The acceptance rule of one precision level of ``A``'s eigenvalues.

    Computes ``det_lu`` at ``prec`` and the zero floor of that level.  The
    level is accepted when the product/determinant identity holds and the
    number of zeros-at-precision, if any, equals the exact nullity of
    ``A`` (``_nullity``), so every zero it reports is proved.  Returns
    (det, zero floor, reason), with reason None on acceptance and naming
    the failure otherwise.  ``adaptive_solve`` judges each agreeing level
    by this rule, and a stored record is judged by it again when it is
    loaded.
    """
    det = det_lu(A, prec)
    # exact: a 64-bit norm times a power of two
    floor = mp.ldexp(frobenius_norm(A, 64), ZERO_FLOOR_SLACK_BITS - prec)
    ok, zeros, _ = _identity_state(eigenvalues, det, floor, prec)
    if zeros and zeros != _nullity(A):
        return det, floor, ("%d eigenvalue(s) not resolvable above the "
                            "roundoff floor at %d bits" % (zeros, prec))
    if not ok:
        return det, floor, ("eigenvalue product disagrees with the "
                            "determinant at %d bits" % prec)
    return det, floor, None


def adaptive_solve(A: RealMatrix, target_digits: int) -> EigenResult:
    """Eigenvalues by ``sym_eigenvalues`` at doubling precisions.

    The levels are those of ``ladder(target_digits)``.  A level agrees
    when it matches the previous one on every eigenvalue to
    ``target_digits`` relative digits (absolute for values below
    10^-target_digits); exactly diagonal input agrees at the first level,
    since its diagonal is the exact answer.  An agreeing level is judged by
    ``accept_level``; a rejected one continues the ladder from that level.
    At the cap, ``IdentityError`` names the last failed acceptance if any
    level agreed, else ``PrecisionCapError`` carries the last two levels,
    None for each the ladder lacks.
    """
    if not A.symmetric:
        raise NonSymmetricError("adaptive_solve requires the symmetric flag")
    if target_digits < 10:
        raise ValueError("target_digits must be >= 10")
    n = A.dim
    prev = older = reason = None
    for prec in ladder(target_digits):
        cur = _diagonal_result(A, prec) if prev is None else None
        agreed = cur is not None
        if cur is None:
            cur = sym_eigenvalues(A, prec)
            agreed = prev is not None and _agree(prev, cur, target_digits,
                                                 guard_prec(prec, n))
        if agreed:
            det, floor, reason = accept_level(A, cur.eigenvalues, prec)
            if reason is None:
                return replace(cur, det=det, zero_floor=floor)
        older, prev = prev, cur
    if reason:
        raise IdentityError("%s; precision cap %d reached (insufficient "
                            "precision)" % (reason, DEFAULT_PREC_CAP))
    raise PrecisionCapError(
        "no agreement to %d digits below the %d-bit precision cap"
        % (target_digits, DEFAULT_PREC_CAP),
        last=prev.eigenvalues if prev is not None else None,
        previous=older.eigenvalues if older is not None else None,
    )
