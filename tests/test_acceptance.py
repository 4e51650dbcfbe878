"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7 is
conditional on an externally supplied analytic transcription config (see
the skip message) and is skipped when only the shipped placeholder is
available; everything else runs unconditionally.
"""

import os
import random
import time

import pytest
from mpmath import mp, mpf, sin, workprec

from hankelspectra import (
    analytic_spec,
    builtin_spec,
    check_distribution_coincidence,
    check_distribution_convergence,
    check_spectrum_divergence,
    check_tail_divergence,
    compute_spectrum,
    det_lu,
    det_relation_check,
    estimate_growth_rate,
    from_log_spectrum,
    frobenius_norm,
    generate,
    load_analytic_config,
    log_spectrum,
    mean,
    pairing_stats,
    real_matrix,
    split,
    sym_eigenvalues,
    trace,
    zeta_em,
)
from hankelspectra.figio import cli, verify_manifest

from conftest import cofactor_det, rand_symmetric

ZETA_STAR_CONFIG_VAR = "HANKELSPECTRA_ZETA_STAR_CONFIG"

ZETA2_50 = "1.6449340668482264364724151666460251892189499012068"
ZETA3_50 = "1.2020569031595942853997381615114499907649862923405"


def _product(eigs, wp):
    with workprec(wp):
        p = mpf(1)
        for e in eigs:
            p *= e
        return +p


def _catalan_numbers(n):
    vals = [1]
    for k in range(n):
        vals.append(vals[-1] * 2 * (2 * k + 1) // (k + 2))
    return vals


def test_c1_eigensolver_identities():
    """200 random symmetric matrices: trace/Frobenius/product identities."""
    t0 = time.time()
    rng = random.Random(123456)
    prec = 256
    bound = mpf(10) ** -40
    count = 0
    sizes = list(range(2, 33))
    while count < 200:
        n = sizes[count % len(sizes)]
        A = rand_symmetric(n, rng, bits=prec)
        res = sym_eigenvalues(A, prec)
        wp = prec + 64
        with workprec(wp):
            s1 = sum(res.eigenvalues, mpf(0))
            s2 = sum((e * e for e in res.eigenvalues), mpf(0))
            pr = _product(res.eigenvalues, wp)
            tr = trace(A, prec)
            fr2 = frobenius_norm(A, prec) ** 2
            dt = det_lu(A, prec)
            assert abs(s1 - tr) <= bound * max(abs(s1), abs(tr)), (n, count)
            assert abs(s2 - fr2) <= bound * max(abs(s2), abs(fr2)), (n, count)
            assert abs(pr - dt) <= bound * max(abs(pr), abs(dt)), (n, count)
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 120, "criterion 1 runtime %.1f s exceeds 2 min" % elapsed
    print("\nACCEPTANCE 1: PASS - 200 random symmetric matrices, identities "
          "to 1e-40, %.1f s" % elapsed)


def test_c2_catalan_hankel_determinants():
    """Classical identity: det[C_(i+j-2)] = 1 for sizes 1..12."""
    cats = _catalan_numbers(24)
    for n in range(1, 13):
        rows = [[cats[i + j] for j in range(n)] for i in range(n)]
        if n <= 8:
            assert cofactor_det([[int(v) for v in row] for row in rows]) == 1
        d = det_lu(real_matrix(rows, symmetric=True), 384)
        with workprec(420):
            assert abs(d - 1) <= mpf(10) ** -50, n
    print("ACCEPTANCE 2: PASS - Catalan Hankel determinants equal 1 to "
          "1e-50 for sizes 1..12 (cofactor oracle to size 8)")


# sampling grid for the product identity: (spec factory, l, m list)
_C3_SAMPLES = [
    (lambda: builtin_spec("geometric", 1), 1, (1, 2, 3, 8, 16)),
    (lambda: builtin_spec("geometric", 1), 2, (2, 8)),
    (lambda: builtin_spec("geometric", "0.5"), 1, (2, 4, 8)),
    (lambda: builtin_spec("rational2", 2, 1), 1, (2, 3, 4)),
    (lambda: builtin_spec("exponential"), 1, (2, 8, 16, 32, 48)),
    (lambda: builtin_spec("exponential"), 2, (8, 16)),
    (lambda: builtin_spec("catalan"), 1, (4, 16, 32)),
    (lambda: builtin_spec("catalan"), 3, (8, 16)),
    (lambda: analytic_spec("zeta-star"), 1, (1, 8, 16, 32, 48)),
    (lambda: analytic_spec("zeta-star"), 2, (8, 16)),
    (lambda: analytic_spec("zeta-star"), 3, (8, 16)),
]

_c3_records = []


def test_c3_product_determinant_identity():
    """prod(mu) = det to 1e-30 relative on every zero-free record."""
    strict = zeroed = 0
    for factory, l, ms in _C3_SAMPLES:
        spec = factory()
        stream = generate(spec, l + max(ms) - 1, 256)
        for m in ms:
            rec = compute_spectrum(stream, l, m, 30)
            _c3_records.append((spec.name, rec))
            wp = rec.precision_used + 32
            pr = _product(rec.eigenvalues, wp)
            with workprec(wp):
                if rec.zero_count == 0:
                    scale = max(abs(pr), abs(rec.det))
                    if scale != 0:
                        assert abs(pr - rec.det) <= mpf(10) ** -30 * scale, \
                            (spec.name, l, m)
                    strict += 1
                else:
                    # zeros-at-precision: both sides vanish below the scale
                    # a roundoff-level factor allows
                    bound = mpf(2) ** (2 * rec.m)
                    for e in rec.eigenvalues:
                        bound *= max(abs(e), rec.zero_threshold)
                    assert abs(rec.det) <= bound, (spec.name, l, m)
                    assert abs(pr) <= bound, (spec.name, l, m)
                    zeroed += 1
    assert strict >= 20
    print("ACCEPTANCE 3: PASS - product/determinant identity on %d "
          "zero-free records (1e-30 relative) and %d records with "
          "zeros-at-precision over builtins and the zeta surrogate, "
          "l in {1,2,3}, m <= 48" % (strict, zeroed))


def test_c4_permutation_sign_identity():
    """det(core) = (-1)^(m(m-1)/2) det(toeplitz) on random streams."""
    rng = random.Random(424242)
    checks = 0
    for trial in range(3):
        vals = [str(rng.uniform(-1, 1)) for _ in range(16)]
        stream = generate(builtin_spec("user-moments", *vals), 15, 256)
        for l in (1, 2, 3):
            for m in range(1, 11):
                if l + m - 1 > stream.max_index:
                    continue
                rep = det_relation_check(stream, l, m, 256)
                assert rep.ok, (trial, l, m, rep)
                checks += 1
    assert checks >= 80
    print("ACCEPTANCE 4: PASS - permutation-sign determinant identity on "
          "%d random cases to 1e-30" % checks)


def test_c5_mean_versus_log_det():
    """mean(F) = (1/m) ln|det| to 1e-25 whenever no mass is missing."""
    if not _c3_records:
        test_c3_product_determinant_identity()
    checked = 0
    for name, rec in _c3_records:
        if rec.zero_count != 0 or rec.det == 0:
            continue
        F = from_log_spectrum(log_spectrum(rec))
        with workprec(rec.precision_used + 32):
            gap = abs(mean(F) - mp.log(abs(rec.det)) / rec.m)
            assert gap <= mpf(10) ** -25, (name, rec.l, rec.m)
        checked += 1
    # the cross-determinant example: zeta surrogate at l=1, m=32
    assert any(name == "zeta-star" and rec.m == 32
               for name, rec in _c3_records)
    assert checked >= 20
    print("ACCEPTANCE 5: PASS - distribution mean equals (1/m) ln|det| to "
          "1e-25 on %d zero-free records" % checked)


def test_c6_rate_estimator_fixtures():
    """Growth-rate recovery within 1e-3 from noisy geometric fixtures."""
    with workprec(256):
        noise = lambda m: mpf(10) ** -6 * sin(m)
        for W in ("0.5", "2.0", "3.7"):
            dets = []
            for m in range(1, 65):
                dets.append((m, +(mpf(W) ** m * (mpf("0.9") + noise(m)))))
            rep = estimate_growth_rate(dets)
            err = abs(rep.limit - mpf(W))
            assert err <= mpf(10) ** -3, (W, err)
    print("ACCEPTANCE 6: PASS - rate estimator within 1e-3 for W in "
          "{0.5, 2.0, 3.7} with 1e-6 noise, m <= 64")


def run_qualitative_measurements(spec, dyadic, pairing_m, coincidence_ms,
                                 digits=30, prec=320):
    """Sweep dyadic sizes for l=1,2 and collect every criterion-7 measure.

    Pure measurement (no assertions), so the full path can be exercised
    on any stream, including the placeholder at small scale.
    """
    import tempfile
    import xml.etree.ElementTree as ET
    from hankelspectra.figio import render_spectra

    stream = generate(spec, 1 + max(dyadic) - 1, prec)
    records = {m: compute_spectrum(stream, 1, m, digits) for m in dyadic}
    spectra = {m: log_spectrum(r) for m, r in records.items()}
    up, dn = check_spectrum_divergence(list(spectra.values()))
    sp = split(spectra[pairing_m])
    ratio = pairing_stats(sp.trains).ratio if len(sp.trains) >= 4 else None
    dists = {m: from_log_spectrum(spectra[m]) for m in dyadic}
    conv = check_distribution_convergence(
        {m: dists[m] for m in dyadic[-4:]})
    tails = check_tail_divergence(dists)
    stream2 = generate(spec, 2 + max(coincidence_ms) - 1, prec)
    dists2 = {m: from_log_spectrum(log_spectrum(
        compute_spectrum(stream2, 2, m, digits))) for m in coincidence_ms}
    coin = check_distribution_coincidence(
        {1: {m: dists[m] for m in coincidence_ms}, 2: dists2})
    with tempfile.TemporaryDirectory() as td:
        out = os.path.join(td, "spectra.svg")
        render_spectra(list(records.values()), out, split_policy="largest-gap")
        root = ET.parse(out).getroot()
        marks = root.findall(".//{http://www.w3.org/2000/svg}circle")
        classes = {c.get("class") for c in marks}
    top = max(dyadic)
    return {
        "max_point": float(spectra[top].points[-1]),
        "min_point": float(spectra[top].points[0]),
        "upper_divergence": up.verdict,
        "lower_divergence": dn.verdict,
        "pairing_ratio": None if ratio is None else float(ratio),
        "convergence": conv.verdict,
        "tails": tails.verdict,
        "coincidence": coin.verdict,
        "marker_count": len(marks),
        "expected_markers": sum(len(s.points) for s in spectra.values()),
        "marker_classes": classes,
    }


def test_c7_qualitative_reproduction():
    """Qualitative figure reproduction; conditional on a transcribed config.

    The shipped zeta surrogate is an explicitly labelled placeholder; the
    qualitative targets (divergence depth, train pairing, distribution
    convergence) are claims about the intended production expansion, which
    must be supplied as an analytic config.  Point %s at such a config to
    run this criterion.
    """ % ZETA_STAR_CONFIG_VAR
    cfg_path = os.environ.get(ZETA_STAR_CONFIG_VAR)
    if not cfg_path:
        print("ACCEPTANCE 7: SKIPPED - conditional criterion; set %s to a "
              "transcribed analytic config to enable" % ZETA_STAR_CONFIG_VAR)
        pytest.skip(
            "conditional on a transcribed expansion config; the shipped "
            "provider is a labelled placeholder (set %s)" % ZETA_STAR_CONFIG_VAR
        )
    spec = load_analytic_config(cfg_path)
    got = run_qualitative_measurements(
        spec, dyadic=[8, 16, 32, 64, 128], pairing_m=64,
        coincidence_ms=(32, 64, 128))
    assert got["max_point"] > 5.0
    assert got["min_point"] < -5.0
    assert got["upper_divergence"] == "SUPPORTED"
    assert got["lower_divergence"] == "SUPPORTED"
    assert got["pairing_ratio"] is not None and got["pairing_ratio"] < 0.2
    assert got["convergence"] == "SUPPORTED"
    assert got["tails"] == "SUPPORTED"
    assert got["coincidence"] == "SUPPORTED"
    assert got["marker_count"] == got["expected_markers"]
    assert {"electron", "train"} <= got["marker_classes"]
    print("ACCEPTANCE 7: PASS - qualitative reproduction at desk scale")


def test_c8_zeta_evaluator():
    """Published 50-digit values and exact classical points."""
    with workprec(300):
        assert abs(zeta_em(2, 256) - mpf(ZETA2_50)) < mpf(10) ** -49
        assert abs(zeta_em(3, 256) - mpf(ZETA3_50)) < mpf(10) ** -49
        assert abs(zeta_em(0, 256) + mpf(1) / 2) <= mpf(2) ** -256
        assert abs(zeta_em(-1, 256) + mpf(1) / 12) <= mpf(2) ** -250
    print("ACCEPTANCE 8: PASS - zeta evaluator matches published 50-digit "
          "expansions; classical points exact to working precision")


def test_c9_sweep_performance_and_determinism(tmp_path):
    """l=1, m=1..64 sweep at 320-bit precision: runtime and byte equality."""
    rng = random.Random(31337)
    vals = [str(rng.uniform(-1, 1)) for _ in range(70)]
    func = "user-moments:" + ",".join(vals)
    # --digits 77 maps to a 320-bit working precision floor
    args = ["sweep", "--func", func, "--l", "1", "--m-max", "64",
            "--digits", "77", "--jobs", "4"]
    out_a = str(tmp_path / "sweep_a.csv")
    out_b = str(tmp_path / "sweep_b.csv")
    t0 = time.time()
    assert cli(args + ["--out", out_a]) == 0
    first = time.time() - t0
    assert first < 600, "sweep took %.1f s (budget 10 min)" % first
    assert cli(args + ["--out", out_b]) == 0
    a, b = open(out_a, "rb").read(), open(out_b, "rb").read()
    assert a == b, "sweep outputs differ between runs"
    assert len(a.splitlines()) == 1 + 64 * 65 // 2
    assert verify_manifest(out_a + ".manifest.json") == []
    print("ACCEPTANCE 9: PASS - m=1..64 sweep at 320-bit precision in "
          "%.1f s (< 600 s), byte-identical across runs" % first)
