"""SVG figure rendering, manifests, and the command-line interface.

Figures are written as plain SVG 1.1 so tests can assert structure
directly (marker counts, monotone step paths, bounding boxes) instead of
diffing raster images.  Scatter plots place one marker per logarithmic
spectrum point at data position (ln|mu|, m); distribution plots draw the
right-continuous step polyline of an empirical distribution function.

Every numeric artifact (CSV, JSON, SVG coordinates) is serialised
deterministically, and experiment manifests record content hashes of the
files they cover, so any single-byte corruption is detectable.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

from mpmath import workprec

from . import __version__
from .coeffs import (
    CACHE_ENV_VAR,
    generate,
    parse_func_token,
    stream_jsonl,
)
from .dist import distribution_csv, from_log_spectrum
from .hankel import signed_hankel
from .harness import (
    CONTRADICTED,
    _dyadic_tail,
    check_distribution_coincidence,
    check_distribution_convergence,
    check_eigenvalue_product_rate,
    check_mean_trend,
    check_spectrum_divergence,
    check_tail_divergence,
    estimate_constant_factor,
    estimate_growth_rate,
    load_reference_constants,
)
from .spectra import log_spectrum, spectra_csv, split, sweep
from . import mpnum
from .mpnum import det_lu, stream_bits, to_decimal

CHECK_IDS = ("2A", "2B", "2C", "2D", "2E", "v2", "v3", "v5", "v6")


WIDTH, HEIGHT, MARGIN = 1200, 800, 70
MARKER_RADIUS = 2.0
MARKER_COLORS = {"pt": "#303030", "electron": "#1f6fb4", "train": "#c0392b"}


def _auto_range(vals):
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Canvas:
    """Tiny deterministic SVG writer with linear data-to-pixel transforms."""

    def __init__(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi
        self.parts = []

    def px(self, x):
        return MARGIN + (x - self.xlo) / (self.xhi - self.xlo) * (WIDTH - 2 * MARGIN)

    def py(self, y):
        return HEIGHT - MARGIN - (y - self.ylo) / (self.yhi - self.ylo) * (HEIGHT - 2 * MARGIN)

    def add(self, s):
        self.parts.append(s)

    def axes(self, xlabel, ylabel):
        x0, x1 = MARGIN, WIDTH - MARGIN
        y0, y1 = HEIGHT - MARGIN, MARGIN
        self.add('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#000" stroke-width="1"/>'
                 % (x0, y0, x1, y0))
        self.add('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#000" stroke-width="1"/>'
                 % (x0, y0, x0, y1))
        for i in range(6):
            xv = self.xlo + (self.xhi - self.xlo) * i / 5
            yv = self.ylo + (self.yhi - self.ylo) * i / 5
            xp, yp = self.px(xv), self.py(yv)
            self.add('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#000" stroke-width="1"/>'
                     % (xp, y0, xp, y0 + 5))
            self.add('<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">%.4g</text>'
                     % (xp, y0 + 20, xv))
            self.add('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#000" stroke-width="1"/>'
                     % (x0 - 5, yp, x0, yp))
            self.add('<text x="%.2f" y="%.2f" font-size="12" text-anchor="end">%.4g</text>'
                     % (x0 - 8, yp + 4, yv))
        self.add('<text x="%.2f" y="%.2f" font-size="14" text-anchor="middle">%s</text>'
                 % ((x0 + x1) / 2, HEIGHT - 15, xlabel))
        self.add('<text x="%.2f" y="%.2f" font-size="14" text-anchor="middle" transform="rotate(-90 15 %.2f)">%s</text>'
                 % (15.0, (y0 + y1) / 2, (y0 + y1) / 2, ylabel))

    def tostring(self):
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'width="%d" height="%d" viewBox="0 0 %d %d">\n'
                % (WIDTH, HEIGHT, WIDTH, HEIGHT))
        return head + "\n".join(self.parts) + "\n</svg>\n"


def render_spectra(records, path: str, split_policy: str | None = None,
                   split_value=None) -> str:
    """Scatter plot of logarithmic spectra: marker at (ln|mu|, m).

    With a split policy, the lower part is drawn in the electron colour
    and the upper part in the train colour.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to render")
    pts = []   # (x, m, class)
    for rec in records:
        ls = log_spectrum(rec)
        if not ls.points:
            continue
        if split_policy:
            sp = split(ls, policy=split_policy, value=split_value)
            pts.extend((float(x), ls.m, "electron") for x in sp.electrons)
            pts.extend((float(x), ls.m, "train") for x in sp.trains)
        else:
            pts.extend((float(x), ls.m, "pt") for x in ls.points)
    if not pts:
        raise ValueError("all eigenvalues were zeros-at-precision; nothing to draw")
    xlo, xhi = _auto_range([p[0] for p in pts])
    ylo, yhi = _auto_range([p[1] for p in pts])
    cv = _Canvas(xlo, xhi, ylo, yhi)
    cv.axes("log magnitude", "matrix size")
    for x, m, cls in pts:
        cv.add('<circle class="%s" cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>'
               % (cls, cv.px(x), cv.py(m), MARKER_RADIUS, MARKER_COLORS[cls]))
    _write_text(path, cv.tostring())
    return path


def render_distribution(dist, path: str) -> str:
    """Right-continuous step plot of an empirical distribution function."""
    if not dist.jumps:
        raise ValueError("empty distribution")
    xs = [float(x) for x in dist.jumps]
    xlo, xhi = _auto_range(xs)
    cv = _Canvas(xlo, xhi, 0.0, 1.0)
    cv.axes("x", "cumulative weight")
    m = dist.m
    coords = [(xlo, 0.0)]
    level = 0
    for i, x in enumerate(xs):
        level += 1
        if i + 1 < len(xs) and xs[i + 1] == x:
            continue
        coords.append((x, coords[-1][1]))
        coords.append((x, level / m))
    coords.append((xhi, coords[-1][1]))
    path_pts = " ".join("%.2f,%.2f" % (cv.px(x), cv.py(y)) for x, y in coords)
    cv.add('<polyline class="step" fill="none" stroke="#1f6fb4" '
           'stroke-width="1.5" points="%s"/>' % path_pts)
    _write_text(path, cv.tostring())
    return path


def _write_text(path, text):
    """Write ``text`` to ``path`` (creating its directory), or to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# manifests


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(function_id, spec_hash, l_list, m_grid, precision_policy,
                   files, base_dir=".") -> dict:
    """The manifest document: run parameters and the sha256 of each file."""
    return {
        "tool_version": __version__,
        "function_id": function_id,
        "spec_hash": spec_hash,
        "l_list": list(l_list),
        "m_grid": list(m_grid),
        "precision_policy": precision_policy,
        "files": [{"path": os.path.relpath(f, base_dir),
                   "sha256": _sha256_file(f)} for f in sorted(files)],
    }


def write_manifest(manifest: dict, path: str):
    _write_text(path, _json_text(manifest))


def verify_manifest(path: str) -> list:
    """Re-hash every referenced file; returns a list of mismatch messages."""
    with open(path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    problems = []
    for entry in doc.get("files", []):
        fpath = os.path.join(base, entry["path"])
        if not os.path.exists(fpath):
            problems.append("missing file: %s" % entry["path"])
        elif _sha256_file(fpath) != entry["sha256"]:
            problems.append("hash mismatch: %s" % entry["path"])
    return problems


# ---------------------------------------------------------------------------
# CLI


def _add_common(p):
    p.add_argument("--func", required=True,
                   help="function token, e.g. geometric:1, exponential, "
                        "rational2:2,1, catalan, user-moments:v1,v2,..., "
                        "zeta-star, analytic-config:/path.json")
    p.add_argument("--l", default="1",
                   help="first matrix index (a comma list for coeffs and "
                        "check 2E)")
    p.add_argument("--digits", type=int, default=30,
                   help="target agreement digits for eigenvalues")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory for coefficient streams and, under "
                        "records/, spectrum records (default: $%s)"
                        % CACHE_ENV_VAR)
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_record_flags(p):
    """``_add_common`` plus the flag of commands that compute spectra."""
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hankelspectra",
        description="high-precision signed-Hankel spectrum laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="generate a coefficient stream")
    _add_common(p)
    p.add_argument("--m-max", type=int, required=True,
                   help="largest matrix size the stream must cover")

    p = sub.add_parser("spectrum", help="spectrum of a single (l, m) matrix")
    _add_record_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="spectra for m = 1..m-max")
    _add_record_flags(p)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("dist", help="distribution of one logarithmic spectrum")
    _add_record_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("check", help="run a trend check over sweep outputs")
    p.add_argument("check_id", choices=CHECK_IDS)
    _add_record_flags(p)
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument("--wl-file", default=None,
                   help="JSON file of reference growth rates per l")

    p = sub.add_parser("figure", help="render an SVG figure")
    p.add_argument("kind", choices=("spectra", "dist"))
    _add_record_flags(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--policy", default=None,
                   help="split policy: largest-gap, threshold:C, quantile:Q")
    return ap


def _parse_l_list(s):
    ls = [int(tok) for tok in str(s).split(",") if tok != ""]
    if not ls:
        raise ValueError("--l needs at least one value, got %r" % s)
    return ls


def _single_l(s):
    ls = _parse_l_list(s)
    if len(ls) != 1:
        raise ValueError("--l takes exactly one value here, got %r" % s)
    return ls[0]


def _parse_policy(s):
    if s is None:
        return None, None
    head, _, tail = s.partition(":")
    if head not in ("largest-gap", "threshold", "quantile"):
        raise ValueError("unknown split policy %r" % s)
    return head, (tail or None)


def _make_stream(args, spec, l, m_needed):
    return generate(spec, l + m_needed - 1, stream_bits(args.digits),
                    cache_dir=args.cache_dir)


def _write_manifest(args, spec, l, m_grid, out):
    policy = "digits=%d cap=%d" % (args.digits, mpnum.DEFAULT_PREC_CAP)
    man = build_manifest(spec.name, spec.spec_hash(), [l], m_grid, policy,
                         [out], base_dir=os.path.dirname(out) or ".")
    write_manifest(man, out + ".manifest.json")


def _write_table(args, write_csv, json_doc):
    """Write ``write_csv(fh)``'s CSV, or ``json_doc()`` for ``--format json``."""
    if args.format == "json":
        text = _json_text(json_doc())
    else:
        buf = io.StringIO()
        write_csv(buf)
        text = buf.getvalue()
    _write_text(args.out, text)


def _record_json(rec):
    with workprec(rec.precision_used):
        return {
            "l": rec.l, "m": rec.m, "function": rec.function_id,
            "precision_bits": rec.precision_used,
            "target_digits": rec.target_digits,
            "det": to_decimal(rec.det, rec.precision_used),
            "eigenvalues": [to_decimal(mu, rec.precision_used)
                            for mu in rec.eigenvalues],
            "zero_count": rec.zero_count,
        }


def _records_for(args, spec, ls, ms):
    """Records for every l in ``ls`` and m in ``ms``, all from one stream.

    Raises with each failed (l, m) and its recorded error.
    """
    ls = list(dict.fromkeys(ls))
    stream = _make_stream(args, spec, max(ls), max(ms))
    records, failed = [], []
    for l in ls:
        result = sweep(stream, l, ms, args.digits, jobs=args.jobs,
                       cache_dir=args.cache_dir)
        records.extend(result.records)
        failed.extend("l=%d m=%d: %s" % (l, m, err)
                      for m, err in sorted(result.failures.items()))
    if failed:
        raise RuntimeError("sweep failures: %s" % "; ".join(failed))
    return records


def _dists_for(records):
    return {rec.m: from_log_spectrum(log_spectrum(rec)) for rec in records}


def _cmd_coeffs(args, spec):
    ls = _parse_l_list(args.l)
    stream = _make_stream(args, spec, max(ls), args.m_max)
    if args.out:
        _write_text(args.out, stream_jsonl(stream))
    print("\n".join([
        "function: %s" % stream.spec.name,
        "spec_hash: %s" % stream.spec.spec_hash(),
        "max_index: %d" % stream.max_index,
        "precision_bits: %d" % stream.precision_bits,
        "provenance: %s" % stream.provenance,
    ]))
    return 0


def _cmd_spectrum(args, spec):
    l = _single_l(args.l)
    (rec,) = _records_for(args, spec, [l], [args.m])
    _write_table(args, lambda fh: spectra_csv([rec], fh),
                 lambda: _record_json(rec))
    return 0


def _cmd_sweep(args, spec):
    l = _single_l(args.l)
    stream = _make_stream(args, spec, l, args.m_max)
    result = sweep(stream, l, range(1, args.m_max + 1), args.digits,
                   jobs=args.jobs, cache_dir=args.cache_dir)
    for m, err in sorted(result.failures.items()):
        print("m=%d failed: %s" % (m, err), file=sys.stderr)
    records = result.records
    _write_table(args, lambda fh: spectra_csv(records, fh),
                 lambda: [_record_json(r) for r in records])
    if args.out:
        _write_manifest(args, spec, l, [r.m for r in records], args.out)
    return 0 if not result.failures else 2


def _cmd_dist(args, spec):
    l = _single_l(args.l)
    F = _dists_for(_records_for(args, spec, [l], [args.m]))[args.m]
    _write_table(args, lambda fh: distribution_csv(F, fh), lambda: {
        "l": l, "m": args.m,
        "jumps": [to_decimal(x, F.precision_bits) for x in F.jumps],
        "weight_per_jump": "1/%d" % F.m,
        "missing_mass": str(F.missing_mass),
    })
    return 0


def _cmd_check(args, spec):
    cid = args.check_id
    ls = _parse_l_list(args.l) if cid == "2E" else [_single_l(args.l)]
    l = ls[0]
    if cid == "2E" and len(set(ls)) < 2:
        raise ValueError("check 2E needs --l with at least two distinct "
                         "values, e.g. --l 1,2")
    W = load_reference_constants(args.wl_file).get(l) if args.wl_file else None

    if cid in ("v2", "v3"):
        grid = range(1, args.m_max + 1)
    else:
        floor = {"v5": 1, "2C": 4}.get(cid, 2)
        if args.m_max < floor:
            raise ValueError("check %s needs --m-max >= %d, got %d"
                             % (cid, floor, args.m_max))
        ms = range(floor, args.m_max + 1)
        grid = ms if cid == "v5" else _dyadic_tail(ms)
        # 2C compares m with 2m on three levels; 2D needs three levels
        levels = {"2C": 4, "2D": 3}.get(cid, 1)
        if len(grid) < levels:
            raise ValueError("check %s needs >= %d dyadic sizes (m-max, "
                             "m-max/2, ...) no smaller than %d, but --m-max "
                             "%d gives %s"
                             % (cid, levels, floor, args.m_max, grid))
    if cid in ("v2", "v6") and W is None:
        # no reference rate: UNAVAILABLE, decided before any stream exists
        report = (estimate_constant_factor((), None) if cid == "v2"
                  else check_mean_trend(dict.fromkeys(grid), None, l=l))
    elif cid in ("v2", "v3"):
        stream = _make_stream(args, spec, l, args.m_max)
        dets = [(m, det_lu(signed_hankel(stream, l, m).matrix,
                           stream.precision_bits)) for m in grid]
        report = (estimate_growth_rate(dets) if cid == "v3"
                  else estimate_constant_factor(dets, W))
    else:
        records = _records_for(args, spec, ls, grid)
        if cid == "v5":
            report = check_eigenvalue_product_rate(records)
        elif cid in ("2A", "2B"):
            upper, lower = check_spectrum_divergence(
                [log_spectrum(r) for r in records])
            report = upper if cid == "2A" else lower
        elif cid == "2E":
            report = check_distribution_coincidence(
                {li: _dists_for(r for r in records if r.l == li) for li in ls})
        elif cid == "v6":
            report = check_mean_trend(_dists_for(records), W, l=l)
        elif cid == "2C":
            report = check_distribution_convergence(_dists_for(records), l=l)
        else:   # 2D
            report = check_tail_divergence(_dists_for(records), l=l)
    if cid in ("v2", "v3"):
        report = replace(report, check_id=cid, l=l)

    _write_text(args.out, _json_text(report.to_json()))
    print("check %s: %s" % (cid, report.verdict), file=sys.stderr)
    return 1 if report.verdict == CONTRADICTED else 0


def _cmd_figure(args, spec):
    l = _single_l(args.l)
    policy, pvalue = _parse_policy(args.policy)
    out = args.out
    if args.kind == "spectra":
        if not args.m_max:
            raise ValueError("figure spectra needs --m-max")
        records = _records_for(args, spec, [l], range(1, args.m_max + 1))
        out = out or "spectra_l%d_m%d.svg" % (l, args.m_max)
        render_spectra(records, out, split_policy=policy, split_value=pvalue)
        m_grid = [r.m for r in records]
    else:
        if not args.m:
            raise ValueError("figure dist needs --m")
        F = _dists_for(_records_for(args, spec, [l], [args.m]))[args.m]
        out = out or "dist_l%d_m%d.svg" % (l, args.m)
        render_distribution(F, out)
        m_grid = [args.m]
    _write_manifest(args, spec, l, m_grid, out)
    print(out)
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "dist": _cmd_dist,
    "check": _cmd_check,
    "figure": _cmd_figure,
}


def cli(argv=None) -> int:
    """Entry point: exit 0 on success, 1 on CONTRADICTED checks, 2 on errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    try:
        return _COMMANDS[args.command](args, parse_func_token(args.func))
    except BrokenPipeError:
        return 2
    except Exception as exc:   # CLI boundary: report, do not traceback
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
