"""Taylor coefficient streams for the matrix builders.

A stream is the indexed sequence of expansion coefficients of a named
function, generated either from a closed form (the builtin families) or
from an analytic expression in ``s`` evaluated in truncated power-series
("jet") arithmetic around the expansion point s0.  Coefficients with
negative index are defined to be exactly zero, which keeps every matrix
construction well defined when its index window extends below zero.

The analytic route ships with two generators:

* ``zeta-star``             -- a pole-removed zeta surrogate ``(s-1)*zeta(s)``
                               expanded at 0 with ring radius 1.  This is a
                               PLACEHOLDER default: the provider is fully
                               configuration-driven (expansion point,
                               pole-removal expression, radius), so the
                               intended production expansion can be supplied
                               later as an analytic config without touching
                               code.
* ``one-over-one-minus-z``  -- 1/(1-s), whose coefficients are exactly 1.

A jet carries coefficients to O(h^n) with h = s - s0, and the order to
which it is exact, so a pole at s0 that the expression removes (``(s-1)*
zeta(s)`` at s0 = 1, ``s*gamma(s)`` at s0 = 0) costs orders rather than
failing.  exp, log, sin, cos and sqrt use the standard series recurrences,
gamma the lnGamma series with Hurwitz zeta coefficients, and zeta
Euler-Maclaurin summation in series form (Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", Numer. Algorithms 69, 2015): its cutoffs bound the remainder
at the worst point of the disc |s - s0| <= ring_radius, which bounds the
truncation error of every coefficient by Cauchy's estimate.  Left of the
imaginary axis zeta goes through the reflection formula.  A stream is
evaluated at two working precisions, which must agree to 2^-prec relative
to max(1, |c_k|); that is the precision the stream states.  Point values
(``zeta_em``) are the one-term case of the same routine.

Disk cache: one JSON-lines file ``<spec hash>_b<bits>_f<CACHE_FORMAT>.jsonl``
per (spec, precision) with records ``{"k": int, "v": decimal string,
"bits": int}``; files of another format have another name and are never
read.  The file holds the whole evaluation, which for an analytic stream
runs to the end of a block of ``STREAM_BLOCK`` coefficients, and serves
every shorter request.  Decimal strings round-trip bit-exactly, and writes
are create-then-rename, so concurrent readers never observe partial files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace

from mpmath import mp, mpc, mpf, workprec

from .mpnum import from_decimal, to_decimal

JET_GUARD_BITS = (64, 96)     # the two working precisions above prec
# Unused by the package: perfbench/run.py reads it in --trace 1 mode to check
# zeta_em calls against the ring-quadrature node schedule of earlier versions,
# a check that no longer applies because provenance carries no node count.
# It goes when the benchmark drops that read.
QUAD_NODE_FACTOR = 8

# analytic streams are evaluated in whole blocks of coefficients, so
# requests a few indices apart share one cached evaluation
STREAM_BLOCK = 8

CACHE_ENV_VAR = "HANKELSPECTRA_CACHE"
CACHE_FORMAT = 3    # in the file name; 1 and 2 had a manifest sidecar


class ZetaPoleError(ZeroDivisionError):
    """Zeta evaluated at its pole s = 1."""


class UnknownGeneratorError(KeyError):
    pass


class StreamValidationError(RuntimeError):
    """Analytic coefficients failed validation: Euler-Maclaurin cutoffs out
    of range, or two working precisions that disagree, with the first index
    in ``first_failure``."""

    def __init__(self, message, first_failure=None):
        super().__init__(message)
        self.first_failure = first_failure


class ComplexStreamError(ValueError):
    """An analytic stream whose coefficients are not real; the first such
    index is in ``first_failure``."""

    def __init__(self, message, first_failure=None):
        super().__init__(message)
        self.first_failure = first_failure


class CoeffIndexError(IndexError):
    pass


class CacheCorruptionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# truncated power series ("jets") in h = s - s0


class _Jet:
    """The series h^v * (c[0] + c[1]*h + ...) + O(h^order), order = v + len(c).

    Coefficients are mpf or mpc at the working precision; scalars mix in as
    exact constants.  Leading coefficients that are exactly zero move into
    the valuation ``v``, so dividing by a series that vanishes at s0 (such
    as ``s - 1`` at s0 = 1) gives a negative valuation and a lower order
    instead of a division by zero.
    """

    __slots__ = ("v", "c")

    def __init__(self, v, c):
        i = 0
        while i < len(c) and not c[i]:
            i += 1
        self.v = v + i
        self.c = c[i:]

    @property
    def order(self):
        return self.v + len(self.c)

    def dense(self, lo, hi):
        """Coefficients of h^lo .. h^(hi-1); hi must not exceed the order."""
        zeros = [mpf(0)] * max(0, min(self.v, hi) - lo)
        return zeros + self.c[max(0, lo - self.v):max(0, hi - self.v)]

    def __add__(self, other):
        if not isinstance(other, _Jet):
            other = _const(other, self.order)
        v, o = min(self.v, other.v), min(self.order, other.order)
        return _Jet(v, [a + b for a, b in zip(self.dense(v, o), other.dense(v, o))])

    __radd__ = __add__

    def __neg__(self):
        return _Jet(self.v, [-a for a in self.c])

    def __pos__(self):
        return self

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.v, [a * other for a in self.c])
        n = min(len(self.c), len(other.c))
        a, b = self.c[:n], other.c[:n]
        nza = [(j, x) for j, x in enumerate(a) if x]
        nzb = [(j, x) for j, x in enumerate(b) if x]
        if len(nzb) < len(nza):
            nza, b = nzb, a
        out = []
        for i in range(n):
            t = mpf(0)
            for j, x in nza:
                if j > i:
                    break
                t += x * b[i - j]
            out.append(t)
        return _Jet(self.v + other.v, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.v, [a / other for a in self.c])
        if not other.c:
            raise ZeroDivisionError("division by a series that vanishes to "
                                    "every computed order")
        n = min(len(self.c), len(other.c))
        b0 = other.c[0]
        nzb = [(j, x) for j, x in enumerate(other.c[1:n], 1) if x]
        q = []
        for i in range(n):
            t = self.c[i]
            for j, x in nzb:
                if j > i:
                    break
                t -= x * q[i - j]
            q.append(t / b0)
        return _Jet(self.v - other.v, q)

    def __rtruediv__(self, other):
        return _const(other, len(self.c)) / self

    def __pow__(self, e):
        if not isinstance(e, (_Jet, complex, mpc)) and mp.isint(e):
            k = int(e)
            if k < 0:
                return 1 / self ** -k
            out, base = mpf(1), self
            while k:
                if k & 1:
                    out = base * out
                k >>= 1
                if k:
                    base = base * base
            return out
        return _exp(e * _log(self))

    def __rpow__(self, x):
        return _exp(self * mp.log(x))


def _const(x, order):
    """The exact constant x as a jet known to O(h^order)."""
    if order <= 0:
        return _Jet(order, [])
    return _Jet(0, [x] + [mpf(0)] * (order - 1))


def _split(x):
    """(x(s0), x - x(s0)) for a jet without a pole at s0."""
    if x.v < 0:
        raise ValueError("series has a pole at s0 where a finite value is needed")
    x0 = x.c[0] if x.v == 0 else mpf(0)
    return x0, x - x0


def _exp(x):
    if not isinstance(x, _Jet):
        return mp.exp(x)
    if x.v < 0:
        raise ValueError("exp of a series with a pole at s0")
    f = x.dense(0, x.order)
    if not f:
        return _Jet(0, [])
    # E' = f' E:  k E_k = sum_j j f_j E_(k-j)
    df = [j * a for j, a in enumerate(f)]
    e = [mp.exp(f[0])]
    for k in range(1, len(f)):
        t = mpf(0)
        for j in range(1, k + 1):
            if df[j]:
                t += df[j] * e[k - j]
        e.append(t / k)
    return _Jet(0, e)


def _log(x):
    if not isinstance(x, _Jet):
        return mp.log(x)
    if x.v != 0:
        raise ValueError("log of a series that vanishes or has a pole at s0")
    # G' = f'/f:  k f_0 G_k = k f_k - sum_(j<k) j G_j f_(k-j)
    f = x.c
    g, dg = [mp.log(f[0])], [mpf(0)]
    for k in range(1, len(f)):
        t = k * f[k]
        for j in range(1, k):
            t -= dg[j] * f[k - j]
        g.append(t / (k * f[0]))
        dg.append(k * g[k])
    return _Jet(0, g)


def _sincos(x):
    if x.v < 0:
        raise ValueError("sin/cos of a series with a pole at s0")
    f = x.dense(0, x.order)
    if not f:
        return _Jet(0, []), _Jet(0, [])
    # S' = f' C, C' = -f' S
    df = [j * a for j, a in enumerate(f)]
    sn, cs = [mp.sin(f[0])], [mp.cos(f[0])]
    for k in range(1, len(f)):
        ts = tc = mpf(0)
        for j in range(1, k + 1):
            if df[j]:
                ts += df[j] * cs[k - j]
                tc -= df[j] * sn[k - j]
        sn.append(ts / k)
        cs.append(tc / k)
    return _Jet(0, sn), _Jet(0, cs)


def _sin(x):
    return _sincos(x)[0] if isinstance(x, _Jet) else mp.sin(x)


def _cos(x):
    return _sincos(x)[1] if isinstance(x, _Jet) else mp.cos(x)


def _sqrt(x):
    if not isinstance(x, _Jet):
        return mp.sqrt(x)
    if x.v % 2:
        raise ValueError("sqrt of a series with an odd-order zero or pole at s0")
    # R^2 = f:  2 R_0 R_k = f_k - sum_(0<j<k) R_j R_(k-j)
    f = x.c
    r = [mp.sqrt(f[0])] if f else []
    for k in range(1, len(f)):
        t = f[k]
        for j in range(1, k):
            t -= r[j] * r[k - j]
        r.append(t / (2 * r[0]))
    return _Jet(x.v // 2, r)


def _compose(F, u):
    """F(u) for a series F in t (a pole at t = 0 allowed) and a jet u(s0) = 0."""
    if u.v == 1 and u.c and not any(u.c[1:]):
        # u = a*h + O(h^o): scale.  The O(h^o) moves F(u) by F'(u) O(h^o),
        # and F' has a pole of order 1 - F.v when F.v < 0
        a = u.c[0]
        o = min(F.order, u.order + F.v - 1 if F.v < 0 else u.order)
        p, out = a ** F.v, []
        for c in F.c[:max(0, o - F.v)]:
            out.append(c * p)
            p *= a
        return _Jet(F.v, out)
    acc = _Jet(u.v, [])          # Horner from the O(u) truncation inwards
    for i, c in enumerate(reversed(F.c)):
        acc = acc + c
        if i < len(F.c) - 1:
            acc = acc * u
    return acc * u ** F.v if F.v else acc


def _gamma(x):
    """Gamma of a jet: exp of the lnGamma series at a = x(s0) + m, Re a >= 1/2,
    then m divisions by x + j, which place the poles at s0 = 0, -1, ..."""
    if not isinstance(x, _Jet):
        return mp.gamma(x)
    x0, u = _split(x)
    m = max(0, math.ceil(0.5 - float(mp.re(x0))))
    a = x0 + m
    # lnGamma(a + t) = lnGamma(a) + psi(a) t + sum_(k>=2) (-1)^k zeta(k, a) t^k / k
    lg = [mp.loggamma(a)]
    if u.order > 1:
        lg.append(mp.digamma(a))
    lg += [(-1) ** k * mp.zeta(k, a) / k for k in range(2, u.order)]
    g = _exp(_compose(_Jet(0, lg), u))
    for j in range(m):
        g = g / (x + j)
    return g


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


def _em_bound_log2(x0, rho, nk):
    """log2 of the Euler-Maclaurin remainder bound with M = K = nk, taken
    at the worst point of the disc |s - x0| <= rho: the first omitted term
    |B_(2K+2)/(2K+2)! (s)_(2K+1) M^(-s-2K-1)| times |s+2K+1| / (Re s+2K+1)."""
    xr, xi = float(mp.re(x0)), float(mp.im(x0))
    den = xr - rho + 2 * nk + 1
    if den <= 0:
        return math.inf
    # |B_2k| / (2k)! = 2 zeta(2k) / (2 pi)^2k <= (pi^2 / 3) / (2 pi)^2k
    lb = math.log2(math.pi ** 2 / 3) - (2 * nk + 2) * math.log2(2 * math.pi)
    for j in range(2 * nk + 1):
        a = math.hypot(xr + j, xi) + rho
        if a == 0:
            return -math.inf
        lb += math.log2(a)
    lb -= den * math.log2(nk)
    return lb + math.log2((math.hypot(xr + 2 * nk + 1, xi) + rho) / den)


def _zeta_em(x0, order, rho, target):
    """zeta(x0 + t) as a series in t to O(t^order), by Euler-Maclaurin.

    The remainder is analytic in t, so by Cauchy's estimate its t^i
    coefficient is at most its maximum on |t| <= rho over rho^i.  The
    cutoffs M = K keep that maximum below 2^-target * min(1, rho)^(order-1),
    which bounds every coefficient's truncation error by 2^-target.  At
    x0 = 1 the pole term M^(1-s)/(s-1) is exact and the series starts at
    t^-1.  Runs at the caller's working precision.
    """
    bits = target
    if order > 1 and rho < 1:
        bits += (order - 1) * -math.log2(rho)
    nk = max(10, int(0.15 * bits + 0.2 * abs(float(mp.im(x0)))))
    for _ in range(100):
        if _em_bound_log2(x0, rho, nk) <= -bits:
            break
        nk += max(1, nk // 16)
    else:
        raise StreamValidationError(
            "Euler-Maclaurin cutoffs failed to meet the error target")
    M = K = nk
    # sum_(j<M) j^-x0 e^(-t ln j): t^i coefficient j^-x0 (-ln j)^i / i!
    acc = [mpf(1)] + [mpf(0)] * (order - 1)
    for j in range(2, M):
        lnj = -mp.log(j)
        p = mp.exp(x0 * lnj)
        for i in range(order):
            acc[i] += p
            p *= lnj
    # M^-s (1/2 + M/(s-1) + sum_k B_2k/(2k)! M^(1-2k) (s)_(2k-1)), the
    # Pochhammer polynomials (s)_(2k-1) = s (s+1) ... (s+2k-2) summed first
    pole = x0 == 1
    n = order + pole
    inner = [mpf(0)] * n
    poch = ([x0, mpf(1)] + [mpf(0)] * (n - 2))[:n]
    w, m2 = mpf(1) / M, mpf(M) ** -2
    for k in range(1, K + 1):
        b = mp.bernoulli(2 * k) / mp.factorial(2 * k) * w
        for i in range(min(n, 2 * k)):
            inner[i] += b * poch[i]
        for deg in (2 * k, 2 * k + 1):          # times (x0 + deg - 1 + t)
            c = x0 + deg - 1
            for i in range(min(n - 1, deg), 0, -1):
                poch[i] = c * poch[i] + poch[i - 1]
            poch[0] = c * poch[0]
        w *= m2
    inner[0] += mpf(1) / 2
    if pole:
        inner = _Jet(-1, [mpf(M)] + [mpf(0)] * n) + _Jet(0, inner)
    else:
        q = -1 / (x0 - 1)
        g = -M * q                              # M/(x0 - 1 + t) = g sum (q t)^i
        for i in range(n):
            inner[i] += g
            g *= q
        inner = _Jet(0, inner)
    lnM = -mp.log(M)
    e = [mp.exp(x0 * lnM)]
    for i in range(1, n):
        e.append(e[-1] * lnM / i)
    inv = mpf(1)
    for i in range(1, order):
        inv /= i
        acc[i] *= inv
    return _Jet(0, e) * inner + _Jet(0, acc)


def _zeta(x, rho, prec):
    """Riemann zeta of a jet, each coefficient within 2^-prec on |h| <= rho;
    Re s0 < 0 goes through the reflection formula, whose gamma/sine factors
    get extra guard bits sized from their float-estimated magnitudes."""
    x0, u = _split(x)
    sigma = float(mp.re(x0))
    if sigma >= 0:
        with workprec(prec + 30):
            return _compose(_zeta_em(x0, u.order, rho, prec + 5), u)
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) gamma(1-s) zeta(1-s)
    timag = abs(float(mp.im(x0)))
    gbits = int(math.lgamma(1.0 - sigma) / math.log(2)) + 8 if sigma < -1 else 8
    tbits = int(math.pi * timag / (2 * math.log(2))) + 8
    wp = prec + 40 + max(0, gbits) + tbits
    with workprec(wp):
        y = 1 - x
        return (2 ** x * mp.pi ** (x - 1) * _sin(mp.pi * x / 2) * _gamma(y)
                * _zeta(y, rho, wp - 10))


def _series_zeta(z, rho):
    """``zeta`` of an analytic expression, at the working precision."""
    if isinstance(z, _Jet):
        return _zeta(z, rho, mp.prec)
    return zeta_em(z, mp.prec)


def zeta_em(s, prec: int):
    """Riemann zeta with absolute error <= 2^-prec.

    Real input yields an mpf, complex input an mpc.  Arguments with
    Re(s) < 0 go through the reflection formula.  This is the one-term case
    of the series evaluation that analytic streams use.
    """
    if isinstance(s, complex):
        s = mpc(s)
    elif not isinstance(s, (mpf, mpc)):
        s = mpf(s)
    if isinstance(s, mpc) and s.imag == 0:
        s = s.real
    if s == 1:
        raise ZetaPoleError("zeta has a pole at s = 1")
    return _zeta(_const(s, 1), 0, prec).dense(0, 1)[0]


# ---------------------------------------------------------------------------
# function specs

BUILTIN_FAMILIES = ("geometric", "exponential", "rational2", "catalan", "user-moments")


@dataclass(frozen=True)
class FunctionSpec:
    """Identity of a coefficient stream; hashable and cache-stable.

    ``kind`` is ``builtin`` (closed-form families parameterised by decimal
    strings) or ``analytic`` (expansion point, pole-removal expression and
    the ring radius of the disc on which the zeta remainder is bounded).
    """

    name: str
    kind: str
    family: str = ""
    params: tuple = ()
    s0: tuple = ("0", "0")
    pole_removal: str = ""
    ring_radius: str = "1"
    analyticity_radius: str = "inf"
    generator_id: str = ""

    def spec_hash(self) -> str:
        """Hash of every field that can change the values (cache file names)."""
        doc = dict(vars(self))
        del doc["name"], doc["analyticity_radius"]
        blob = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def builtin_spec(family: str, *params) -> FunctionSpec:
    if family not in BUILTIN_FAMILIES:
        raise UnknownGeneratorError("unknown builtin family %r" % family)
    sp = tuple(str(p) for p in params)
    for p in sp:
        if not math.isfinite(float(p)):
            raise ValueError("builtin parameters must be finite, got %r" % p)
    if family == "geometric" and len(sp) != 1:
        raise ValueError("geometric takes exactly one ratio parameter")
    if family == "rational2":
        if len(sp) != 2:
            raise ValueError("rational2 takes exactly two parameters")
        if sp[0] == sp[1]:
            raise ValueError("rational2 parameters must differ")
    if family == "user-moments" and not sp:
        raise ValueError("user-moments needs at least one value")
    name = family if not sp else "%s:%s" % (family, ",".join(sp))
    return FunctionSpec(name=name, kind="builtin", family=family, params=sp)


def analytic_spec(generator_id: str) -> FunctionSpec:
    """The spec of a registered generator, expanded at s0 = 0.

    Other expansions come from ``load_analytic_config``.
    """
    reg = GENERATORS.get(generator_id)
    if reg is None:
        raise UnknownGeneratorError("unknown generator %r" % generator_id)
    return FunctionSpec(
        name=generator_id,
        kind="analytic",
        s0=("0", "0"),
        pole_removal=reg["expression"],
        ring_radius=reg["ring_radius"],
        analyticity_radius=reg["analyticity_radius"],
        generator_id=generator_id,
    )


GENERATORS = {
    "zeta-star": {
        "expression": "(s-1)*zeta(s)",
        "ring_radius": "1",
        "analyticity_radius": "inf",
        "provenance": "PLACEHOLDER pole-removed zeta: (s-1)*zeta(s) at s0=0, "
                      "r=1; supply an analytic config to replace it with the "
                      "intended production expansion",
    },
    "one-over-one-minus-z": {
        "expression": "1/(1-s)",
        "ring_radius": "0.5",
        "analyticity_radius": "1",
        "provenance": "validation generator 1/(1-s), every coefficient 1",
    },
}


def load_analytic_config(path: str) -> FunctionSpec:
    """Load an analytic FunctionSpec from a JSON config file.

    Expected keys: ``name``, ``expression`` (over variable ``s``; ``zeta``,
    ``exp``, ``log``, ``sin``, ``cos``, ``sqrt``, ``gamma``, ``pi``, ``mpf``
    and ``mpc`` are available), ``s0`` as a [re, im] pair of decimal
    strings, ``ring_radius`` and ``analyticity_radius`` decimal strings.
    ``ring_radius`` is the disc |s - s0| on which the zeta remainder bound
    holds and must lie strictly inside ``analyticity_radius``.  A pole at
    s0 is allowed when the expression removes it; the coefficients must be
    real.  Configs are trusted input.
    """
    with open(path) as fh:
        d = json.load(fh)
    return FunctionSpec(
        name=d.get("name", os.path.basename(path)),
        kind="analytic",
        s0=tuple(str(v) for v in d.get("s0", ("0", "0"))),
        pole_removal=d["expression"],
        ring_radius=str(d.get("ring_radius", "1")),
        analyticity_radius=str(d.get("analyticity_radius", "inf")),
        generator_id=d.get("generator", d.get("name", "custom")),
    )


def parse_func_token(token: str) -> FunctionSpec:
    """CLI shorthand: ``geometric:1``, ``rational2:2,1``, ``zeta-star``,
    ``analytic-config:/path/to.json`` ..."""
    head, _, tail = token.partition(":")
    if head == "analytic-config":
        return load_analytic_config(tail)
    if head in BUILTIN_FAMILIES:
        return builtin_spec(head, *(tail.split(",") if tail else ()))
    if head in GENERATORS:
        return analytic_spec(head)
    raise UnknownGeneratorError("unknown function %r" % token)


# ---------------------------------------------------------------------------
# streams


@dataclass(frozen=True)
class CoeffStream:
    """Coefficients 0..max_index of one spec at one binary precision."""

    spec: FunctionSpec
    values: tuple
    precision_bits: int
    provenance: str = ""

    @property
    def max_index(self) -> int:
        return len(self.values) - 1


def theta(stream: CoeffStream, k: int) -> mpf:
    """Coefficient at index k; exactly 0 for k < 0 by convention."""
    if k < 0:
        return mpf(0)
    if k > stream.max_index:
        raise CoeffIndexError(
            "index %d beyond max_index %d; generate a stream with N >= %d"
            % (k, stream.max_index, k)
        )
    return stream.values[k]


def _catalan_numbers(N):
    vals = [1]
    for k in range(N):
        vals.append(vals[-1] * 2 * (2 * k + 1) // (k + 2))
    return vals


def _builtin_values(spec: FunctionSpec, N: int, prec: int):
    wp = prec + 32
    fam = spec.family
    out = []
    with workprec(wp):
        if fam == "geometric":
            r = mpf(spec.params[0])
            acc = mpf(1)
            for k in range(N + 1):
                out.append(+acc)
                acc = acc * r
        elif fam == "exponential":
            for k in range(N + 1):
                out.append(1 / mpf(math.factorial(k)))
        elif fam == "rational2":
            a, b = mpf(spec.params[0]), mpf(spec.params[1])
            pa, pb = a, b
            for k in range(N + 1):
                out.append((pa - pb) / (a - b))
                pa, pb = pa * a, pb * b
        elif fam == "catalan":
            out = [mpf(c) for c in _catalan_numbers(N)]
        elif fam == "user-moments":
            if N >= len(spec.params):
                raise CoeffIndexError(
                    "user-moments supplies %d values; cannot reach index %d"
                    % (len(spec.params), N)
                )
            out = [mpf(p) for p in spec.params[: N + 1]]
        else:
            raise UnknownGeneratorError("unknown builtin family %r" % fam)
    with workprec(prec):
        return tuple(+v for v in out)


def _expression_fn(spec: FunctionSpec, rho: float):
    expr = spec.pole_removal
    if not expr:
        raise UnknownGeneratorError(
            "analytic spec %r carries no pole-removal expression" % spec.name
        )
    code = compile(expr, "<analytic-spec:%s>" % spec.name, "eval")
    ns = {
        "zeta": lambda z: _series_zeta(z, rho),
        "exp": _exp, "log": _log, "sin": _sin, "cos": _cos,
        "sqrt": _sqrt, "gamma": _gamma, "pi": mp.pi,
        "mpf": mpf, "mpc": mpc,
    }

    def fn(s):
        ns["s"] = s
        return eval(code, {"__builtins__": {}}, ns)

    return fn


def _jet_coeffs(fn, s0, N, wp):
    """Coefficients 0..N of fn(s) at s0, evaluated on jets at wp bits.

    The variable is s0 + h known to O(h^n).  Division by a factor that
    vanishes at s0 costs orders, so a result exact to less than O(h^(N+1))
    is evaluated again with n raised by the shortfall.
    """
    n = max(N + 1, 2)
    with workprec(wp):
        for _ in range(4):
            g = fn(_Jet(0, [s0, mpf(1)] + [mpf(0)] * (n - 2)))
            if not isinstance(g, _Jet):
                g = _const(g, N + 1)
            if g.v < 0:
                raise ValueError("the expression has a pole of order %d at s0"
                                 % -g.v)
            if g.order > N:
                return g.dense(0, N + 1)
            n += N + 1 - g.order
    raise StreamValidationError("series evaluation stays exact only to "
                                "O(h^%d), short of O(h^%d)" % (g.order, N + 1))


def _jet_values(spec: FunctionSpec, N: int, prec: int):
    """Coefficients 0..N of an analytic spec, validated to 2^-prec.

    Two evaluations at prec + 64 and prec + 96 working bits must agree to
    2^-prec * max(1, |c_k|) at every index; the second is returned, rounded
    to prec.
    """
    with workprec(prec + JET_GUARD_BITS[0]):
        s0 = mpc(mpf(spec.s0[0]), mpf(spec.s0[1]))
        if s0.imag == 0:
            s0 = s0.real
        r = mpf(spec.ring_radius)
        if not r > 0:
            raise ValueError("ring_radius must be positive")
        if spec.analyticity_radius != "inf":
            if not r < mpf(spec.analyticity_radius):
                raise ValueError(
                    "ring_radius %s is not strictly inside the analyticity "
                    "radius %s" % (spec.ring_radius, spec.analyticity_radius)
                )
        tol = mpf(2) ** -prec
    fn = _expression_fn(spec, float(r))
    wp_lo, wp_hi = (prec + g for g in JET_GUARD_BITS)
    lo = _jet_coeffs(fn, s0, N, wp_lo)
    with workprec(wp_lo):
        for k, c in enumerate(lo):
            if abs(mp.im(c)) > tol * max(1, abs(c)):
                raise ComplexStreamError(
                    "coefficient %d of %s is not real (%s); the stream must be "
                    "real for real symmetric matrices"
                    % (k, spec.name, mp.nstr(c, 12)), first_failure=k)
    hi = _jet_coeffs(fn, s0, N, wp_hi)
    with workprec(wp_lo):
        for k in range(N + 1):
            if abs(hi[k] - lo[k]) > tol * max(1, abs(hi[k])):
                raise StreamValidationError(
                    "coefficient %d differs between %d and %d working bits"
                    % (k, wp_lo, wp_hi), first_failure=k)
    with workprec(prec):
        return tuple(+mp.re(v) for v in hi)


def _analytic_values(spec: FunctionSpec, N: int, prec: int):
    """``_jet_values`` rounded up to a whole block: indices 0..N_gen with
    N_gen + 1 the next multiple of ``STREAM_BLOCK``.

    When the padded evaluation fails validation at an index above N, or at
    an index it does not name, coefficients 0..N are evaluated once more on
    their own.
    """
    n_gen = -(-(N + 1) // STREAM_BLOCK) * STREAM_BLOCK - 1
    try:
        return _jet_values(spec, n_gen, prec)
    except (StreamValidationError, ComplexStreamError) as exc:
        if n_gen == N or (exc.first_failure is not None
                          and exc.first_failure <= N):
            raise
    return _jet_values(spec, N, prec)


def _prefix(stream: CoeffStream, N: int) -> CoeffStream:
    if stream.max_index == N:
        return stream
    return replace(stream, values=stream.values[: N + 1])


def generate(spec: FunctionSpec, N: int, prec: int,
             cache_dir: str | None = None) -> CoeffStream:
    """Coefficients 0..N of ``spec`` at ``prec`` bits.

    Deterministic: identical (spec, N, prec) yields bit-identical values.
    Analytic streams are evaluated to the end of the block of
    ``STREAM_BLOCK`` coefficients that holds index N and cut back to N;
    builtin families are evaluated to N exactly, since ``user-moments``
    has finite length.  With ``cache_dir`` set, streams are reused from /
    saved to disk, the whole evaluation being saved; a cached file is only
    used when its precision matches exactly and it reaches index N, so
    cache hits never change results.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if cache_dir:
        cached = _cache_load(spec, prec, cache_dir)
        if cached is not None and cached.max_index >= N:
            return _prefix(cached, N)
    if spec.kind == "builtin":
        values = _builtin_values(spec, N, prec)
    elif spec.kind == "analytic":
        values = _analytic_values(spec, N, prec)
    else:
        raise UnknownGeneratorError("unknown spec kind %r" % spec.kind)
    stream = CoeffStream(spec=spec, values=values, precision_bits=prec,
                         provenance=_provenance(spec))
    if cache_dir:
        _atomic_write(_cache_path(spec, prec, cache_dir), stream_jsonl(stream))
    return _prefix(stream, N)


def _provenance(spec: FunctionSpec) -> str:
    """How a stream of ``spec`` is computed; a cache hit appends " [cache]"."""
    if spec.kind == "builtin":
        return "closed form: %s" % spec.name
    base = GENERATORS.get(spec.generator_id, {}).get(
        "provenance", "analytic expression %r" % spec.pole_removal
    )
    return ("%s; Taylor-mode Euler-Maclaurin, validated by agreement at "
            "two working precisions" % base)


# ---------------------------------------------------------------------------
# disk cache: one JSON-lines file per stream, atomic writes


def _cache_path(spec, prec, cache_dir):
    return os.path.join(cache_dir, "%s_b%d_f%d.jsonl"
                        % (spec.spec_hash(), prec, CACHE_FORMAT))


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def stream_jsonl(stream: CoeffStream) -> str:
    """The stream as JSON lines ``{"k", "v", "bits"}``, one per index."""
    bits = stream.precision_bits
    return "".join(
        json.dumps({"k": k, "v": to_decimal(v, bits), "bits": bits},
                   sort_keys=True) + "\n"
        for k, v in enumerate(stream.values))


def _cache_load(spec: FunctionSpec, prec: int, cache_dir: str):
    path = _cache_path(spec, prec, cache_dir)
    if not os.path.exists(path):
        return None
    values = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec["bits"] != prec:
                    raise CacheCorruptionError(
                        "record bits %s do not match file precision %d"
                        % (rec["bits"], prec)
                    )
                if rec["k"] != len(values):
                    raise CacheCorruptionError(
                        "non-contiguous cache indices at k=%s" % rec["k"]
                    )
                values.append(from_decimal(rec["v"], prec))
    except (ValueError, KeyError, TypeError) as exc:
        # malformed JSON is a ValueError, a line that is not an object TypeError
        raise CacheCorruptionError("unreadable cache for %s: %s"
                                   % (spec.name, exc))
    if not values:
        return None
    return CoeffStream(
        spec=spec, values=tuple(values), precision_bits=prec,
        provenance=_provenance(spec) + " [cache]",
    )
