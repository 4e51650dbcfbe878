"""Arbitrary-precision real scalars, dense matrices, and symmetric eigensolvers.

Scalars are mpmath ``mpf`` values (sign / significand / exponent with an
unbounded exponent range), so quantities as extreme as e^(+-1000) never
overflow.  All hot loops run on the raw libmp tuples with an explicit
working precision, which keeps the routines independent of the global
mpmath context and safe to call concurrently from worker processes.

Three solvers are provided:

* ``det_lu``          -- determinant via LU with partial pivoting,
* ``sym_eigenvalues`` -- cyclic Jacobi for real symmetric matrices,
* ``adaptive_solve``  -- precision-doubling driver around the Jacobi solver
                         that stops once two consecutive precisions agree.

Cyclic Jacobi is used deliberately instead of tridiagonalisation + QL: it
delivers much better *relative* accuracy for eigenvalues whose magnitudes
span hundreds of orders, which is exactly the regime the spectrum sweeps
operate in.  Every routine computes internally with ``prec + 32 +
2*ceil(log2(m))`` guard bits to absorb pivot growth and rotation roundoff,
then rounds results to the requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (
    from_str,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_str,
)

_RND = round_nearest

DEFAULT_START_PREC = 256
DEFAULT_PREC_CAP = 8192
DEFAULT_MAX_SWEEPS = 64


class NonSymmetricError(ValueError):
    """Matrix lacks the exact symmetry required by the symmetric solver."""


class ConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PrecisionCapError(RuntimeError):
    """Adaptive precision doubling hit its cap before results agreed."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


def guard_prec(prec: int, dim: int) -> int:
    """Working precision: requested bits plus pivot/rotation guard bits."""
    return prec + 32 + 2 * max(1, math.ceil(math.log2(max(2, dim))))


def make_mpf(raw) -> mpf:
    return mp.make_mpf(raw)


def to_decimal(x: mpf, bits: int) -> str:
    """Decimal string that parses back to *exactly* ``x`` at ``bits`` bits.

    Digits are escalated until the round trip is bit-identical, so decimal
    serialisation never loses information and repeated exports are
    byte-identical.
    """
    raw = x._mpf_
    dps = int(bits * 0.30103) + 3
    for _ in range(24):
        s = to_str(raw, dps, strip_zeros=True, show_zero_exponent=False)
        if from_str(s, bits, _RND) == raw:
            return s
        dps += 7
    raise ValueError("no exact decimal representation found for %r" % (x,))


def from_decimal(s: str, bits: int) -> mpf:
    return make_mpf(from_str(s, bits, _RND))


@dataclass(frozen=True)
class RealMatrix:
    """Square matrix of mpf entries; ``symmetric`` asserts bit-exact symmetry."""

    entries: tuple
    symmetric: bool = False

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> mpf:
        return self.entries[i][j]

    def raw_rows(self):
        return [[x._mpf_ for x in row] for row in self.entries]


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
    wp = guard_prec(prec, A.dim)
    acc = fzero
    for i in range(A.dim):
        acc = mpf_add(acc, A.entries[i][i]._mpf_, wp, _RND)
    return make_mpf(mpf_pos(acc, prec, _RND))


def _sum_sq(rows, wp):
    # sum of squares of raw entries in row order, rounded to wp at each step
    acc = fzero
    for row in rows:
        for r in row:
            acc = mpf_add(acc, mpf_mul(r, r, wp, _RND), wp, _RND)
    return acc


def frobenius_norm(A: RealMatrix, prec: int) -> mpf:
    wp = guard_prec(prec, A.dim)
    acc = _sum_sq(A.raw_rows(), wp)
    return make_mpf(mpf_pos(mpf_sqrt(acc, wp, _RND), prec, _RND))


def _within_rel(x: mpf, y: mpf, exp: int) -> bool:
    """|x - y| <= 10^exp * max(|x|, |y|) at the current precision; 0 == 0."""
    scale = max(abs(x), abs(y))
    return scale == 0 or abs(x - y) <= mpf(10) ** exp * scale


def det_lu(A: RealMatrix, prec: int) -> mpf:
    """Determinant via LU with partial pivoting at guarded precision.

    Returns the product of pivots times the permutation sign.  An exactly
    zero pivot column short-circuits to an exact 0 determinant.
    """
    n = A.dim
    if n < 1:
        raise ValueError("determinant of an empty matrix")
    if prec < 64:
        raise ValueError("prec must be >= 64")
    wp = guard_prec(prec, n)
    a = A.raw_rows()
    sign = 1
    det = fone
    for col in range(n):
        piv, pabs = col, mpf_abs(a[col][col])
        for r in range(col + 1, n):
            v = mpf_abs(a[r][col])
            if mpf_gt(v, pabs):
                piv, pabs = r, v
        if pabs == fzero:
            return make_mpf(fzero)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot = a[col][col]
        det = mpf_mul(det, pivot, wp, _RND)
        for r in range(col + 1, n):
            if a[r][col] == fzero:
                continue
            f = mpf_div(a[r][col], pivot, wp, _RND)
            arow, crow = a[r], a[col]
            for c in range(col + 1, n):
                arow[c] = mpf_sub(arow[c], mpf_mul(f, crow[c], wp, _RND), wp, _RND)
            arow[col] = fzero
    if sign < 0:
        det = mpf_neg(det)
    return make_mpf(mpf_pos(det, prec, _RND))


@dataclass(frozen=True)
class EigenResult:
    """Sorted-ascending eigenvalues plus the precision/residual they carry."""

    eigenvalues: tuple
    precision_used: int
    offdiag_residual: mpf
    sweeps: int = 0

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _offdiag_sq(a, n, wp):
    acc = fzero
    for i in range(n):
        ai = a[i]
        for j in range(i + 1, n):
            acc = mpf_add(acc, mpf_mul(ai[j], ai[j], wp, _RND), wp, _RND)
    return mpf_shift(acc, 1)


def sym_eigenvalues(A: RealMatrix, prec: int, tol: mpf,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> EigenResult:
    """Cyclic Jacobi eigenvalues of a symmetric matrix.

    Sweeps rotate every upper off-diagonal pair in row order until the
    off-diagonal Frobenius norm drops below ``tol * ||A||_F``.  All values
    are real by construction and come back sorted ascending.
    """
    if not A.symmetric:
        raise NonSymmetricError("sym_eigenvalues requires the symmetric flag")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = A.dim
    wp = guard_prec(prec, n)
    a = A.raw_rows()

    fro2 = _sum_sq(a, wp)
    traw = tol._mpf_ if isinstance(tol, mpf) else mpf(tol)._mpf_
    thresh2 = mpf_mul(mpf_mul(traw, traw, wp, _RND), fro2, wp, _RND)

    sweeps = 0
    off2 = _offdiag_sq(a, n, wp)
    while mpf_gt(off2, thresh2):
        if sweeps >= max_sweeps:
            resid = make_mpf(mpf_pos(mpf_sqrt(off2, wp, _RND), prec, _RND))
            raise ConvergenceError(
                "Jacobi did not converge in %d sweeps (residual %s)"
                % (max_sweeps, mp.nstr(resid, 8)),
                residual=resid,
            )
        sweeps += 1
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq == fzero:
                    continue
                app, aqq = ap[p], a[q][q]
                theta = mpf_div(mpf_sub(aqq, app, wp, _RND),
                                mpf_shift(apq, 1), wp, _RND)
                th2 = mpf_mul(theta, theta, wp, _RND)
                root = mpf_sqrt(mpf_add(th2, fone, wp, _RND), wp, _RND)
                t = mpf_div(fone, mpf_add(mpf_abs(theta), root, wp, _RND), wp, _RND)
                if mpf_lt(theta, fzero):
                    t = mpf_neg(t)
                c = mpf_div(fone, mpf_sqrt(
                    mpf_add(mpf_mul(t, t, wp, _RND), fone, wp, _RND), wp, _RND),
                    wp, _RND)
                s = mpf_mul(t, c, wp, _RND)
                aq = a[q]
                for k in range(n):
                    if k == p or k == q:
                        continue
                    ak = a[k]
                    akp, akq = ak[p], ak[q]
                    nkp = mpf_sub(mpf_mul(c, akp, wp, _RND),
                                  mpf_mul(s, akq, wp, _RND), wp, _RND)
                    nkq = mpf_add(mpf_mul(s, akp, wp, _RND),
                                  mpf_mul(c, akq, wp, _RND), wp, _RND)
                    ak[p] = ap[k] = nkp
                    ak[q] = aq[k] = nkq
                tapq = mpf_mul(t, apq, wp, _RND)
                ap[p] = mpf_sub(app, tapq, wp, _RND)
                aq[q] = mpf_add(aqq, tapq, wp, _RND)
                ap[q] = aq[p] = fzero
        off2 = _offdiag_sq(a, n, wp)

    eigs = sorted(make_mpf(mpf_pos(a[i][i], prec, _RND)) for i in range(n))
    resid = make_mpf(mpf_pos(mpf_sqrt(off2, wp, _RND), prec, _RND))
    return EigenResult(eigenvalues=tuple(eigs), precision_used=prec,
                       offdiag_residual=resid, sweeps=sweeps)


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


def adaptive_solve(A: RealMatrix, target_digits: int,
                   start_prec: int = DEFAULT_START_PREC,
                   prec_cap: int = DEFAULT_PREC_CAP) -> EigenResult:
    """Run the Jacobi solver at doubling precisions until results agree.

    Two consecutive precisions must agree on every eigenvalue to
    ``target_digits`` relative digits (absolute for values below
    10^-target_digits).  Exactly diagonal input is returned immediately:
    its diagonal is the exact answer at the first precision tried.
    """
    if not A.symmetric:
        raise NonSymmetricError("adaptive_solve requires the symmetric flag")
    if target_digits < 10:
        raise ValueError("target_digits must be >= 10")
    n = A.dim
    if all(A.entries[i][j]._mpf_ == fzero
           for i in range(n) for j in range(n) if i != j):
        eigs = tuple(sorted(
            make_mpf(mpf_pos(A.entries[i][i]._mpf_, start_prec, _RND))
            for i in range(n)))
        return EigenResult(eigenvalues=eigs, precision_used=start_prec,
                           offdiag_residual=mpf(0), sweeps=0)

    prev = older = None
    prec = start_prec
    while prec <= prec_cap:
        tol = make_mpf(mpf_shift(fone, -(prec - 8)))
        cur = sym_eigenvalues(A, prec, tol)
        if prev is not None and _agree(prev, cur, target_digits, guard_prec(prec, n)):
            return cur
        older, prev = prev, cur
        prec *= 2
    raise PrecisionCapError(
        "no agreement to %d digits below the %d-bit precision cap"
        % (target_digits, prec_cap),
        last=prev.eigenvalues if prev is not None else None,
        previous=older.eigenvalues if older is not None else None,
    )
