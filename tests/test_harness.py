import io
import json

import pytest
from mpmath import mp, mpf, sin, workprec

from hankelspectra import (
    CONTRADICTED,
    INCONCLUSIVE,
    SUPPORTED,
    UNAVAILABLE,
    builtin_spec,
    check_distribution_coincidence,
    check_distribution_convergence,
    check_eigenvalue_product_rate,
    check_mean_trend,
    check_spectrum_divergence,
    check_tail_divergence,
    estimate_constant_factor,
    estimate_growth_rate,
    generate,
    load_reference_constants,
    step_distribution,
    sweep,
    write_report,
)
from hankelspectra.harness import ZeroDeterminantError
from hankelspectra.mpnum import IdentityError
from hankelspectra.spectra import LogSpectrum, SpectrumRecord


def geometric_dets(W, R=None, noise=None, n=64, wp=256):
    with workprec(wp):
        W = mpf(W)
        out = []
        for m in range(1, n + 1):
            v = W ** m
            if R is not None:
                eps = noise(m) if noise else mpf(0)
                v = v * (mpf(R) + eps)
            out.append((m, +v))
        return out


def synthetic_record(m, eigenvalues, det=None, l=1):
    eigs = tuple(sorted(e if isinstance(e, mpf) else mpf(e)
                        for e in eigenvalues))
    if det is None:
        with workprec(300):
            det = mpf(1)
            for e in eigs:
                det *= e
            det = +det
    with workprec(256):
        thr = mpf(10) ** -60
    return SpectrumRecord(l=l, m=m, function_id="synthetic",
                          eigenvalues=eigs, precision_used=256,
                          target_digits=30, det=det, zero_threshold=thr)


def single_level_dist(jumps, m):
    return step_distribution([mpf(x) for x in jumps], m)


class TestGrowthRate:
    def test_exact_geometric_ten_digits(self):
        for W in ("0.1", "2", "9.7"):
            for c in ("0.003", "5000000"):
                with workprec(256):
                    dets = [(m, +(mpf(c) * mpf(W) ** m)) for m in range(1, 65)]
                rep = estimate_growth_rate(dets)
                assert rep.verdict == SUPPORTED
                with workprec(256):
                    assert abs(rep.limit - mpf(W)) < mpf(W) * mpf(10) ** -10

    def test_fixture_with_noise(self):
        with workprec(256):
            noise = lambda m: mpf(10) ** -6 * sin(m)
        dets = geometric_dets("3.7", R="0.9", noise=noise)
        rep = estimate_growth_rate(dets)
        with workprec(256):
            assert abs(rep.limit - mpf("3.7")) < mpf(10) ** -3

    def test_alternating_sign_flagged(self):
        with workprec(128):
            dets = [(m, +((-mpf(2)) ** m)) for m in range(1, 33)]
        rep = estimate_growth_rate(dets)
        assert any("alternating" in n for n in rep.notes)
        with workprec(128):
            assert abs(rep.limit - 2) < mpf(10) ** -10

    def test_zero_det_names_m(self):
        dets = [(1, mpf(1)), (2, mpf(0)), (3, mpf(1)), (4, mpf(1))]
        with pytest.raises(ZeroDeterminantError) as exc:
            estimate_growth_rate(dets)
        assert exc.value.m == 2

    def test_too_few(self):
        with pytest.raises(ValueError):
            estimate_growth_rate([(1, mpf(1)), (2, mpf(2)), (3, mpf(4))])

    def test_divergent_inconclusive_with_note(self):
        # |det|^(1/m) -> 0 faster than geometrically: no finite limit
        with workprec(256):
            dets = [(m, +(mpf(2) ** (-m * m))) for m in range(1, 33)]
        rep = estimate_growth_rate(dets)
        assert rep.verdict == INCONCLUSIVE
        assert any("no finite positive limit" in n for n in rep.notes)


class TestConstantFactor:
    def test_exact_constant(self):
        with workprec(128):
            dets = [(m, +(5 * mpf(2) ** m)) for m in range(1, 17)]
        rep = estimate_constant_factor(dets, mpf(2))
        assert rep.verdict == SUPPORTED
        with workprec(128):
            assert abs(rep.limit - 5) < mpf(10) ** -20

    def test_vanishing_correction(self):
        with workprec(128):
            dets = [(m, +(mpf(2) ** m * (1 + mpf(1) / m))) for m in range(1, 65)]
        rep = estimate_constant_factor(dets, mpf(2))
        assert rep.verdict == SUPPORTED
        with workprec(128):
            assert abs(rep.limit - 1) < mpf("0.05")

    def test_misspecified_rate_contradicted(self):
        with workprec(128):
            dets = [(m, +(mpf(2) ** m * mpf("0.9"))) for m in range(1, 65)]
            W = +(mpf(2) * mpf("1.1"))
        rep = estimate_constant_factor(dets, W)
        assert rep.verdict == CONTRADICTED

    def test_unavailable_without_reference(self):
        rep = estimate_constant_factor([(1, mpf(2))], None)
        assert rep.verdict == UNAVAILABLE

    def test_decimal_rate_parsed_at_working_precision(self):
        # 3.7 at 53 bits would leave the limit 0.899999999999999373
        with workprec(256):
            dets = [(m, mpf("0.9") * mpf("3.7") ** m) for m in range(1, 17)]
        rep = estimate_constant_factor(dets, "3.7")
        with workprec(256):
            assert abs(rep.limit - mpf("0.9")) < mpf(10) ** -60


class TestEigenvalueProductRate:
    def test_identity_and_trend(self):
        records = [synthetic_record(m, [2] * m) for m in range(1, 9)]
        rep = check_eigenvalue_product_rate(records)
        assert rep.check_id == "v5"
        with workprec(128):
            assert abs(rep.limit - 2) < mpf(10) ** -10

    def test_single_record_reports_value(self):
        rep = check_eigenvalue_product_rate([synthetic_record(1, ["0.37"])])
        assert rep.verdict == INCONCLUSIVE
        with workprec(128):
            assert abs(rep.limit - mpf("0.37")) < mpf(10) ** -15

    def test_identity_violation_raises(self):
        bad = synthetic_record(2, [2, 3], det=mpf(7))
        with pytest.raises(IdentityError):
            check_eigenvalue_product_rate([bad])

    def test_zero_product_identity_ok(self):
        rec = synthetic_record(2, [0, 2], det=mpf(0))
        rep = check_eigenvalue_product_rate([rec])
        assert rep.verdict == INCONCLUSIVE

    def test_zeros_at_precision_checked_by_zero_rule(self):
        # rational2:2,1 has rank-2 Hankel matrices: from m=3 on, a record
        # is accepted with a zero-at-precision.  At m=3..6 the LU finds a
        # pivot column zero at working precision (det 0); at m=7 a tiny
        # nonzero determinant remains, which a relative recheck cannot
        # compare
        stream = generate(builtin_spec("rational2", 2, 1), 7, 256)
        records = sweep(stream, 1, range(1, 8), 30).records
        assert [r.m for r in records] == [1, 2, 3, 4, 5, 6, 7]
        assert records[6].zero_count == 1 and records[6].det != 0
        rep = check_eigenvalue_product_rate(records[6:])
        assert rep.verdict == INCONCLUSIVE
        assert rep.series["product_mth_root"][0] == (7, 0)
        rep = check_eigenvalue_product_rate(records[:3])
        assert rep.verdict == INCONCLUSIVE
        assert rep.series["product_mth_root"][2] == (3, 0)
        with pytest.raises(ZeroDeterminantError) as exc:
            check_eigenvalue_product_rate(records)
        assert exc.value.m == 3

    def test_zero_rule_bound_violation_raises(self):
        rec = synthetic_record(2, [0, 2], det=mpf(1))
        with pytest.raises(IdentityError):
            check_eigenvalue_product_rate([rec])


class TestMeanTrend:
    def test_exact_match_supported(self):
        with workprec(256):
            lw = +mp.log(2)
        dists = {m: single_level_dist([lw] * m, m) for m in (4, 8, 16)}
        rep = check_mean_trend(dists, mpf(2), l=1)
        assert rep.verdict == SUPPORTED

    def test_drift_contradicted(self):
        dists = {m: single_level_dist([m] * m, m) for m in (4, 8, 16)}
        rep = check_mean_trend(dists, mpf(2), l=1)
        assert rep.verdict == CONTRADICTED

    def test_unavailable(self):
        rep = check_mean_trend({4: single_level_dist([0], 1)}, None, l=1)
        assert rep.verdict == UNAVAILABLE

    def test_decimal_rate_parsed_at_working_precision(self):
        with workprec(256):
            lw = +mp.log(mpf("3.7"))
        dists = {m: single_level_dist([lw] * m, m) for m in (4, 8, 16)}
        rep = check_mean_trend(dists, "3.7", l=1)
        with workprec(256):
            assert abs(rep.limit - lw) < mpf(10) ** -60
        assert rep.verdict == SUPPORTED


def log_spec(m, points):
    pts = tuple(sorted(p if isinstance(p, mpf) else mpf(p) for p in points))
    return LogSpectrum(l=1, m=m, points=pts, zero_count=m - len(pts),
                       precision_bits=128)


class TestSpectrumDivergence:
    def test_supported_both(self):
        spectra = [log_spec(4, [-1, 1]), log_spec(8, [-2, 2]),
                   log_spec(16, [-4, 4])]
        up, dn = check_spectrum_divergence(spectra)
        assert up.check_id == "2A" and dn.check_id == "2B"
        assert up.verdict == SUPPORTED and dn.verdict == SUPPORTED

    def test_bounded_inconclusive(self):
        spectra = [log_spec(4, [-1, 7]), log_spec(8, [-1, 7]),
                   log_spec(16, [-1, 7])]
        up, dn = check_spectrum_divergence(spectra)
        assert up.verdict == INCONCLUSIVE and dn.verdict == INCONCLUSIVE

    def test_decreasing_contradicted(self):
        spectra = [log_spec(4, [-8, 8]), log_spec(8, [-4, 4]),
                   log_spec(16, [-2, 2])]
        up, dn = check_spectrum_divergence(spectra)
        assert up.verdict == CONTRADICTED and dn.verdict == CONTRADICTED


class TestDistributionConvergence:
    def test_identical_supported(self):
        F = single_level_dist([0], 1)
        rep = check_distribution_convergence({8: F, 16: F, 32: F, 64: F})
        assert rep.verdict == SUPPORTED

    def test_decreasing_supported(self):
        A = single_level_dist([0], 1)
        B = single_level_dist([0] * 7 + [1] * 3, 10)     # d(A,B) = 0.3
        C = single_level_dist([0] * 9 + [1], 10)         # d(B,C) = 0.2
        D = single_level_dist([0] * 10, 10)              # d(C,D) = 0.1
        rep = check_distribution_convergence({8: A, 16: B, 32: C, 64: D})
        assert [float(v) for _, v in rep.series["sup_distance_m_2m"]] == \
            [0.3, 0.2, 0.1]
        assert rep.verdict == SUPPORTED

    def test_increasing_contradicted(self):
        A = single_level_dist([0] * 10, 10)
        B = single_level_dist([0] * 9 + [1], 10)
        C = single_level_dist([0] * 7 + [1] * 3, 10)
        D = single_level_dist([0] * 5 + [1] * 5, 10)
        rep = check_distribution_convergence({8: A, 16: B, 32: C, 64: D})
        assert rep.verdict == CONTRADICTED

    def test_mixed_inconclusive(self):
        A = single_level_dist([0] * 10, 10)
        B = single_level_dist([0] * 7 + [1] * 3, 10)     # d(A,B) = 0.3
        C = single_level_dist([0] * 8 + [1] * 2, 10)     # d(B,C) = 0.1
        D = single_level_dist([0] * 10, 10)              # d(C,D) = 0.2
        rep = check_distribution_convergence({8: A, 16: B, 32: C, 64: D})
        assert [float(v) for _, v in rep.series["sup_distance_m_2m"]] == \
            [0.3, 0.1, 0.2]
        assert rep.verdict == INCONCLUSIVE

    def test_needs_three_levels(self):
        F = single_level_dist([0], 1)
        with pytest.raises(ValueError):
            check_distribution_convergence({8: F, 16: F})


class TestTailDivergence:
    def test_supported(self):
        dists = {4: single_level_dist([-1, 1], 2),
                 8: single_level_dist([-2, 2], 2),
                 16: single_level_dist([-4, 4], 2)}
        rep = check_tail_divergence(dists)
        assert rep.verdict == SUPPORTED

    def test_bounded_inconclusive(self):
        F = single_level_dist([-1, 1], 2)
        rep = check_tail_divergence({4: F, 8: F, 16: F})
        assert rep.verdict == INCONCLUSIVE

    def test_partial_per_tail(self):
        dists = {4: single_level_dist([-1, 1], 2),
                 8: single_level_dist([-2, 1], 2),
                 16: single_level_dist([-4, 1], 2)}
        rep = check_tail_divergence(dists)
        assert rep.verdict == INCONCLUSIVE
        assert "neg_tail: SUPPORTED" in rep.notes
        assert "pos_tail: INCONCLUSIVE" in rep.notes


class TestDistributionCoincidence:
    def test_identical_supported(self):
        F = single_level_dist([0, 1], 2)
        rep = check_distribution_coincidence(
            {1: {8: F, 16: F}, 2: {8: F, 16: F}})
        assert rep.verdict == SUPPORTED

    def test_halving_supported(self):
        mk = lambda k: single_level_dist([0] * (10 - k) + [1] * k, 10)
        by_l = {
            1: {8: mk(4), 16: mk(2), 32: mk(1)},
            2: {8: mk(0), 16: mk(0), 32: mk(0)},
        }
        rep = check_distribution_coincidence(by_l)
        assert rep.verdict == SUPPORTED
        assert [float(v) for _, v in rep.series["l1-l2"]] == [0.4, 0.2, 0.1]

    def test_growing_pair_contradicted(self):
        mk = lambda k: single_level_dist([0] * (10 - k) + [1] * k, 10)
        by_l = {
            1: {8: mk(1), 16: mk(2), 32: mk(4)},
            2: {8: mk(0), 16: mk(0), 32: mk(0)},
        }
        rep = check_distribution_coincidence(by_l)
        assert rep.verdict == CONTRADICTED

    def test_needs_two_l(self):
        F = single_level_dist([0], 1)
        with pytest.raises(ValueError):
            check_distribution_coincidence({1: {8: F, 16: F}})


class TestReports:
    def test_json_deterministic(self):
        with workprec(128):
            dets = [(m, +(mpf(2) ** m)) for m in range(1, 9)]
        rep = estimate_growth_rate(dets)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_report(rep, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        doc = json.loads(bufs[0])
        assert doc["check"] == "growth-rate"
        assert doc["verdict"] == SUPPORTED
        assert doc["estimator"] == "aitken-d2-dyadic-log-root"
        assert "contraction_max" in doc["thresholds"]
        assert len(doc["series"]["mth_root"]) == 8

    def test_reference_constants_loader(self, tmp_path):
        p = tmp_path / "wl.json"
        p.write_text(json.dumps({"1": {"W": "3.7", "R": "0.9", "note": "x"},
                                 "2": {"W": "4.1"}}))
        rc = load_reference_constants(str(p))
        assert float(rc.get(1)) == pytest.approx(3.7)
        assert rc.get(3) is None

    @pytest.mark.parametrize("entry", ["2.5", ["W"], None])
    def test_reference_entry_not_an_object(self, entry, tmp_path):
        p = tmp_path / "wl.json"
        p.write_text(json.dumps({"2": {"W": "4.1"}, "3": entry}))
        with pytest.raises(ValueError, match="l=3"):
            load_reference_constants(str(p))

    def test_reference_constants_positive(self, tmp_path):
        p = tmp_path / "wl.json"
        p.write_text(json.dumps({"1": {"W": "-2"}}))
        with pytest.raises(ValueError):
            load_reference_constants(str(p))
