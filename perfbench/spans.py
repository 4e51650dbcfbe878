"""In-memory span recorder and timing wrappers for the package's modules.

``Tracer.install`` wraps every public function of each module of the
package and rebinds it wherever the package holds a reference (``figio``
imports ``generate`` from ``coeffs``, ``spectra`` imports ``adaptive_solve``
from ``mpnum``, ...), so calls between modules pass through the wrappers
without any change to the package.  A span is (name, start, end, parent);
a few wrappers also note a value of the call (precision, sweep count,
provenance) that the per-layer metrics need.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import time

LAYERS = ("coeffs", "hankel", "mpnum", "spectra", "dist", "harness", "figio")

_NODES = re.compile(r"ring quadrature with (\d+) nodes")


def _note_generate(args, kwargs, result):
    nodes = _NODES.search(result.provenance)
    return {"N": result.max_index,
            "hit": result.provenance.endswith("[cache]"),
            "nodes": int(nodes.group(1)) if nodes else None}


def _note_jacobi(args, kwargs, result):
    return {"bits": args[1], "sweeps": result.sweeps}


NOTES = {
    "coeffs.generate": _note_generate,
    "mpnum.sym_eigenvalues": _note_jacobi,
}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, note]
        self._stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``.

        The layer modules must be imported already (the package's
        ``__init__`` does not import ``figio``).
        """
        modules = [package] + [getattr(package, name) for name in LAYERS]
        wrapped = {}
        for name in LAYERS:
            mod = getattr(package, name)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap("%s.%s" % (name, attr), obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])
        return len(wrapped)

    def dump(self, path, extra):
        doc = dict(extra, spans=[
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             **({"note": s[4]} if s[4] else {})}
            for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans, lo, hi):
    """Duration minus the union of its children's intervals, per span index."""
    children = {}
    for i in range(lo, hi):
        p = spans[i][3]
        if p is not None:
            children.setdefault(p, []).append((spans[i][1], spans[i][2]))
    out = {}
    for i in range(lo, hi):
        start, end = spans[i][1], spans[i][2]
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[i] = end - start - covered
    return out


def expected_zeta_calls(N, nodes, factor):
    """Sum of nq/2 over the node-doubling passes ending at ``nodes``."""
    nq = factor * (N + 1)
    nq += nq % 2
    total = nq // 2
    while nq < nodes:
        nq *= 2
        total += nq // 2
    return total if nq == nodes else None


def layer_metrics(spans, lo, hi, quad_factor):
    """Per-layer metrics of spans[lo:hi] (one round), plus consistency problems."""
    selft = self_times(spans, lo, hi)
    idx = range(lo, hi)
    dur = lambda i: spans[i][2] - spans[i][1]
    named = lambda *names: [i for i in idx if spans[i][0] in names]
    total = lambda ids: sum(dur(i) for i in ids)
    kids = {}
    for i in idx:
        if spans[i][3] is not None:
            kids.setdefault(spans[i][3], []).append(i)

    def descendants(i, name):
        stack, count = list(kids.get(i, ())), 0
        while stack:
            j = stack.pop()
            count += spans[j][0] == name
            stack.extend(kids.get(j, ()))
        return count

    problems = []
    gens = named("coeffs.generate")
    for i in gens:
        note = spans[i][4]
        if note is None or note["hit"] or note["nodes"] is None:
            continue
        want = expected_zeta_calls(note["N"], note["nodes"], quad_factor)
        got = descendants(i, "coeffs.zeta_em")
        if got != want:
            problems.append("stream N=%d with %d nodes: %d zeta_em calls seen, "
                            "node schedule implies %s"
                            % (note["N"], note["nodes"], got, want))
    jac = named("mpnum.sym_eigenvalues")
    solves = named("mpnum.adaptive_solve")
    records = named("spectra.compute_spectrum")
    harness_checks = [i for i in idx if spans[i][0].startswith(
        ("harness.check_", "harness.estimate_"))]
    m = {
        "coeffs.generate_s": total(gens),
        "coeffs.generate_calls": len(gens),
        "coeffs.cache_hits": sum(1 for i in gens if spans[i][4]["hit"]),
        "coeffs.cache_misses": sum(1 for i in gens if not spans[i][4]["hit"]),
        "coeffs.zeta_s": total(named("coeffs.zeta_em")),
        "coeffs.zeta_calls": len(named("coeffs.zeta_em")),
        "coeffs.quad_nodes": sum(spans[i][4]["nodes"] or 0 for i in gens
                                 if not spans[i][4]["hit"]),
        "hankel.build_s": total(named("hankel.signed_hankel", "hankel.hankel_core",
                                      "hankel.raw_toeplitz")),
        "hankel.build_calls": len(named("hankel.signed_hankel",
                                        "hankel.hankel_core",
                                        "hankel.raw_toeplitz")),
        "mpnum.solve_s": total(solves),
        "mpnum.solve_calls": len(solves),
        "mpnum.jacobi_s": total(jac),
        "mpnum.jacobi_calls": len(jac),
        "mpnum.jacobi_sweeps": sum(spans[i][4]["sweeps"] for i in jac),
        "mpnum.jacobi_top_s": sum(dur(levels[-1]) for levels in (
            [j for j in kids.get(i, ()) if spans[j][0] == "mpnum.sym_eigenvalues"]
            for i in solves) if levels),
        "mpnum.max_bits": max((spans[i][4]["bits"] for i in jac), default=0),
        "mpnum.det_lu_s": total(named("mpnum.det_lu")),
        "mpnum.det_lu_calls": len(named("mpnum.det_lu")),
        "mpnum.to_decimal_s": total(named("mpnum.to_decimal")),
        "mpnum.to_decimal_calls": len(named("mpnum.to_decimal")),
        "spectra.records": len(records),
        "spectra.record_s": total(records),
        "spectra.identity_self_s": sum(selft[i] for i in records),
        "spectra.identity_retries": sum(
            max(0, sum(spans[j][0] == "mpnum.adaptive_solve"
                       for j in kids.get(i, ())) - 1) for i in records),
        "spectra.csv_s": total(named("spectra.spectra_csv")),
        "spectra.log_spectrum_s": total(named("spectra.log_spectrum")),
        "dist.sup_distance_s": total(named("dist.sup_distance")),
        "dist.sup_distance_calls": len(named("dist.sup_distance")),
        "dist.tail_s": total(named("dist.tail_sums")),
        "harness.check_self_s": sum(selft[i] for i in harness_checks),
        "figio.cli_self_s": sum(selft[i] for i in named("figio.cli")),
        "figio.manifest_s": total(named("figio.build_manifest",
                                        "figio.write_manifest")),
        "figio.commands": len(named("figio.cli")),
    }
    return m, problems
