"""Taylor coefficient streams for the matrix builders.

A stream is the indexed sequence of expansion coefficients of a named
function, generated either from a closed form (the builtin families) or by
numerically extracting coefficients of an analytic function through
trapezoidal quadrature of the Cauchy coefficient integral on a circle
inside the function's analyticity disc.  Coefficients with negative index
are defined to be exactly zero, which keeps every matrix construction well
defined when its index window extends below zero.

The analytic route ships with two generators:

* ``zeta-star``             -- a pole-removed zeta surrogate ``(s-1)*zeta(s)``
                               expanded at 0 on the unit circle.  This is a
                               PLACEHOLDER default: the provider is fully
                               configuration-driven (expansion point,
                               pole-removal expression, radius), so the
                               intended production expansion can be supplied
                               later as an analytic config without touching
                               code.
* ``one-over-one-minus-z``  -- 1/(1-s), used to validate the quadrature
                               against a known closed form.

Zeta itself is evaluated by Euler-Maclaurin summation with cutoffs chosen
so the absolute error is below 2^-prec, switching to the reflection
formula for arguments left of the imaginary axis.

Disk cache: one JSON-lines file per (spec hash, precision) with records
``{"k": int, "v": decimal string, "bits": int}`` plus a sidecar manifest
holding the full spec.  Decimal strings round-trip bit-exactly, and writes
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

QUAD_GUARD_BITS = 64          # extra working bits for ring quadrature
QUAD_NODE_FACTOR = 8          # initial node count = 8 * (N + 1)
QUAD_MAX_DOUBLINGS = 10

CACHE_ENV_VAR = "HANKELSPECTRA_CACHE"


class ZetaPoleError(ZeroDivisionError):
    """Zeta evaluated at its pole s = 1."""


class UnknownGeneratorError(KeyError):
    pass


class QuadratureError(RuntimeError):
    def __init__(self, message, first_failure=None):
        super().__init__(message)
        self.first_failure = first_failure


class CoeffIndexError(IndexError):
    pass


class CacheCorruptionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


def _zeta_em_right(s, prec):
    # Re(s) >= 0 branch; caller guarantees s != 1 and sets workprec
    wp = mp.prec
    is_cplx = isinstance(s, mpc)
    sigma = s.real if is_cplx else s
    timag = abs(s.imag) if is_cplx else mpf(0)
    NK = max(10, int(0.36 * wp + 0.52 * float(timag)) + 2)
    for _ in range(4):
        N = K = NK
        tot = mp.zero
        for n in range(1, N):
            tot += mpf(n) ** (-s)
        tot += mpf(N) ** (-s) / 2
        tot += mpf(N) ** (1 - s) / (s - 1)
        npow = mpf(N) ** (-s - 1)
        ninv2 = mpf(N) ** (-2)
        poch = s
        for k in range(1, K + 1):
            tot += mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * npow
            poch = poch * (s + 2 * k - 1) * (s + 2 * k)
            npow = npow * ninv2
        # first omitted term times the classical tail factor bounds the error
        bound = abs(mp.bernoulli(2 * K + 2) / mp.factorial(2 * K + 2) * poch * npow)
        bound *= abs(s + 2 * K + 1) / (sigma + 2 * K + 1)
        if bound <= mpf(2) ** (-(prec + 5)):
            return tot
        NK = NK * 2
    raise QuadratureError("Euler-Maclaurin cutoffs failed to meet the error target")


def zeta_em(s, prec: int):
    """Riemann zeta with absolute error <= 2^-prec.

    Real input yields an mpf, complex input an mpc.  Arguments with
    Re(s) < 0 go through the reflection formula, whose gamma/sine factors
    get extra guard bits sized from their float-estimated magnitudes.
    """
    if isinstance(s, complex):
        s = mpc(s)
    elif not isinstance(s, (mpf, mpc)):
        s = mpf(s)
    if isinstance(s, mpc) and s.imag == 0:
        s = s.real
    if s == 1:
        raise ZetaPoleError("zeta has a pole at s = 1")
    is_cplx = isinstance(s, mpc)
    sigma = float(s.real if is_cplx else s)
    timag = float(abs(s.imag)) if is_cplx else 0.0
    if sigma >= 0:
        with workprec(prec + 30):
            return +_zeta_em_right(s, prec)
    # reflection: zeta(s) = 2^s pi^(s-1) sin(pi s/2) gamma(1-s) zeta(1-s)
    gbits = int(math.lgamma(1.0 - sigma) / math.log(2)) + 8 if sigma < -1 else 8
    tbits = int(math.pi * timag / (2 * math.log(2))) + 8
    wp = prec + 40 + max(0, gbits) + tbits
    with workprec(wp):
        z1 = _zeta_em_right(1 - s, wp - 10)
        val = 2 ** s * mp.pi ** (s - 1) * mp.sin(mp.pi * s / 2) * mp.gamma(1 - s) * z1
        if not is_cplx:
            val = val.real if isinstance(val, mpc) else val
        return +val


# ---------------------------------------------------------------------------
# function specs

BUILTIN_FAMILIES = ("geometric", "exponential", "rational2", "catalan", "user-moments")


@dataclass(frozen=True)
class FunctionSpec:
    """Identity of a coefficient stream; hashable and cache-stable.

    ``kind`` is ``builtin`` (closed-form families parameterised by decimal
    strings) or ``analytic`` (expansion point, pole-removal expression and
    ring radius for quadrature extraction).
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
        blob = json.dumps(
            {
                "kind": self.kind,
                "family": self.family,
                "params": list(self.params),
                "s0": list(self.s0),
                "pole_removal": self.pole_removal,
                "ring_radius": self.ring_radius,
                "generator_id": self.generator_id,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "family": self.family,
            "params": list(self.params),
            "s0": list(self.s0),
            "pole_removal": self.pole_removal,
            "ring_radius": self.ring_radius,
            "analyticity_radius": self.analyticity_radius,
            "generator_id": self.generator_id,
        }


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


def analytic_spec(generator_id: str, name: str = "", s0=("0", "0"),
                  pole_removal: str = "", ring_radius: str = "",
                  analyticity_radius: str = "") -> FunctionSpec:
    reg = GENERATORS.get(generator_id)
    if reg is None and not pole_removal:
        raise UnknownGeneratorError(
            "unknown generator %r and no expression supplied" % generator_id
        )
    defaults = reg or {}
    return FunctionSpec(
        name=name or generator_id,
        kind="analytic",
        s0=tuple(str(v) for v in s0),
        pole_removal=pole_removal or defaults.get("expression", ""),
        ring_radius=str(ring_radius or defaults.get("ring_radius", "1")),
        analyticity_radius=str(analyticity_radius
                               or defaults.get("analyticity_radius", "inf")),
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
        "provenance": "quadrature validation generator 1/(1-s)",
    },
}


def load_analytic_config(path: str) -> FunctionSpec:
    """Load an analytic FunctionSpec from a JSON config file.

    Expected keys: ``name``, ``expression`` (over variable ``s``; ``zeta``,
    ``exp``, ``log``, ``sin``, ``cos``, ``gamma``, ``pi`` are available),
    ``s0`` as a [re, im] pair of decimal strings, ``ring_radius`` and
    ``analyticity_radius`` decimal strings.  Configs are trusted input.
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
    max_index: int
    values: tuple
    precision_bits: int
    provenance: str = ""


def theta(stream: CoeffStream, k: int) -> mpf:
    """Coefficient at index k; exactly 0 for k < 0 by convention."""
    if k < 0:
        return mpf(0)
    if k > stream.max_index:
        raise CoeffIndexError(
            "index %d beyond max_index %d; use extend(stream, new_N=%d)"
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


def _expression_fn(spec: FunctionSpec, wp: int):
    expr = spec.pole_removal
    if not expr:
        raise UnknownGeneratorError(
            "analytic spec %r carries no pole-removal expression" % spec.name
        )
    code = compile(expr, "<analytic-spec:%s>" % spec.name, "eval")
    ns = {
        "zeta": lambda z: zeta_em(z, wp),
        "exp": mp.exp, "log": mp.log, "sin": mp.sin, "cos": mp.cos,
        "sqrt": mp.sqrt, "gamma": mp.gamma, "pi": mp.pi,
        "mpf": mpf, "mpc": mpc,
    }

    def fn(s):
        ns["s"] = s
        return eval(code, {"__builtins__": {}}, ns)

    return fn


def _quadrature_pass(fn, s0, r, N, nq, wp):
    """One trapezoid pass: coefficients 0..N from nq ring nodes.

    Nodes sit at half-offset angles pi*(2j+1)/nq, which avoids the real
    point s0 + r (where pole-removed generators may be 0*inf as written)
    and makes the node set conjugate-symmetric, so sums come out real.
    """
    with workprec(wp):
        half = nq // 2
        acc = [mpf(0)] * (N + 1)
        for j in range(half):
            w = mp.expjpi(mpf(2 * j + 1) / nq)     # e^(i*phi_j)
            g = fn(s0 + r * w)
            if not isinstance(g, mpc):
                g = mpc(g)
            wconj = mp.conj(w)
            # accumulate 2*Re(g * e^(-i k phi_j)) over k
            ek = mpc(1)
            for k in range(N + 1):
                term = g * ek
                acc[k] += 2 * term.real
                ek = ek * wconj
        rpow = mpf(1)
        out = []
        for k in range(N + 1):
            out.append(acc[k] / (nq * rpow))
            rpow = rpow * r
        return out


def _analytic_values(spec: FunctionSpec, N: int, prec: int):
    wp = prec + QUAD_GUARD_BITS
    with workprec(wp):
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
        tol = mpf(2) ** (-(prec // 2))
    fn = _expression_fn(spec, wp)
    nq = QUAD_NODE_FACTOR * (N + 1)
    if nq % 2:
        nq += 1
    prev = _quadrature_pass(fn, s0, r, N, nq, wp)
    for _ in range(QUAD_MAX_DOUBLINGS):
        nq *= 2
        cur = _quadrature_pass(fn, s0, r, N, nq, wp)
        with workprec(wp):
            bad = None
            for k in range(N + 1):
                scale = max(mpf(1), abs(cur[k]))
                if abs(cur[k] - prev[k]) > tol * scale:
                    bad = k
                    break
        if bad is None:
            with workprec(prec):
                return tuple(+v for v in cur), nq
        prev = cur
    raise QuadratureError(
        "ring quadrature failed to stabilise at index %d" % bad,
        first_failure=bad,
    )


def generate(spec: FunctionSpec, N: int, prec: int,
             cache_dir: str | None = None) -> CoeffStream:
    """Coefficients 0..N of ``spec`` at ``prec`` bits.

    Deterministic: identical (spec, N, prec) yields bit-identical values.
    With ``cache_dir`` set, streams are reused from / saved to disk; a
    cached file is only used when its precision matches exactly, so cache
    hits never change results.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if cache_dir:
        cached = _cache_load(spec, prec, cache_dir)
        if cached is not None and cached.max_index >= N:
            if cached.max_index == N:
                return cached
            return replace(cached, max_index=N, values=cached.values[: N + 1])
    if spec.kind == "builtin":
        values = _builtin_values(spec, N, prec)
        prov = "closed form: %s" % spec.name
    elif spec.kind == "analytic":
        values, nq = _analytic_values(spec, N, prec)
        base = GENERATORS.get(spec.generator_id, {}).get(
            "provenance", "analytic expression %r" % spec.pole_removal
        )
        prov = "%s; ring quadrature with %d nodes" % (base, nq)
    else:
        raise UnknownGeneratorError("unknown spec kind %r" % spec.kind)
    stream = CoeffStream(spec=spec, max_index=N, values=values,
                         precision_bits=prec, provenance=prov)
    if cache_dir:
        _cache_store(stream, cache_dir)
    return stream


def extend(stream: CoeffStream, new_N: int | None = None,
           prec: int | None = None, cache_dir: str | None = None) -> CoeffStream:
    """Extend a stream to a longer index range and/or higher precision.

    Previously available indices are re-verified against the regenerated
    values at the coarser of the two precisions; disagreement means the
    original data (or its cache) is corrupt.
    """
    new_N = stream.max_index if new_N is None else new_N
    prec = stream.precision_bits if prec is None else prec
    if new_N <= stream.max_index and prec <= stream.precision_bits:
        raise ValueError("extend needs a larger index range or precision")
    fresh = generate(stream.spec, max(new_N, stream.max_index),
                     max(prec, stream.precision_bits), cache_dir=cache_dir)
    check_bits = min(stream.precision_bits, fresh.precision_bits)
    with workprec(check_bits + 16):
        tol = mpf(2) ** (-(check_bits - 8))
        for k in range(stream.max_index + 1):
            old, new = stream.values[k], fresh.values[k]
            if abs(old - new) > tol * max(mpf(1), abs(old)):
                raise CacheCorruptionError(
                    "index %d changed beyond tolerance on regeneration "
                    "(%s -> %s)" % (k, mp.nstr(old, 12), mp.nstr(new, 12))
                )
    if new_N < fresh.max_index:
        fresh = replace(fresh, max_index=new_N, values=fresh.values[: new_N + 1])
    return fresh


# ---------------------------------------------------------------------------
# disk cache: JSON-lines values + sidecar manifest, atomic writes


def default_cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR)


def _cache_paths(spec, prec, cache_dir):
    h = spec.spec_hash()
    return (
        os.path.join(cache_dir, "%s_b%d.jsonl" % (h, prec)),
        os.path.join(cache_dir, "%s.manifest.json" % h),
    )


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


def _cache_store(stream: CoeffStream, cache_dir: str):
    vpath, mpath = _cache_paths(stream.spec, stream.precision_bits, cache_dir)
    lines = []
    for k, v in enumerate(stream.values):
        lines.append(json.dumps(
            {"k": k, "v": to_decimal(v, stream.precision_bits),
             "bits": stream.precision_bits},
            sort_keys=True,
        ))
    _atomic_write(vpath, "\n".join(lines) + "\n")
    manifest = {
        "spec_hash": stream.spec.spec_hash(),
        "spec": stream.spec.to_json(),
        "provenance": stream.provenance,
        "format": 1,
    }
    _atomic_write(mpath, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _cache_load(spec: FunctionSpec, prec: int, cache_dir: str):
    vpath, mpath = _cache_paths(spec, prec, cache_dir)
    if not (os.path.exists(vpath) and os.path.exists(mpath)):
        return None
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
        if manifest.get("spec_hash") != spec.spec_hash():
            return None
        values = []
        with open(vpath) as fh:
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
    except (ValueError, KeyError) as exc:   # JSONDecodeError is a ValueError
        raise CacheCorruptionError("unreadable cache for %s: %s"
                                   % (spec.name, exc))
    if not values:
        return None
    return CoeffStream(
        spec=spec, max_index=len(values) - 1, values=tuple(values),
        precision_bits=prec,
        provenance=manifest.get("provenance", "") + " [cache]",
    )
