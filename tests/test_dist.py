import io
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from hankelspectra import (
    compute_spectrum,
    distribution_csv,
    evaluate,
    from_log_spectrum,
    log_spectrum,
    mean,
    step_distribution,
    sup_distance,
    tail_sums,
)
from hankelspectra.spectra import LogSpectrum


def ls(points, m=None, zero_count=0):
    pts = tuple(sorted(p if isinstance(p, mpf) else mpf(p) for p in points))
    return LogSpectrum(l=1, m=m or (len(pts) + zero_count), points=pts,
                       zero_count=zero_count, precision_bits=256)


class TestConstruction:
    def test_two_points(self):
        F = from_log_spectrum(ls(["-3", "2"]))
        assert evaluate(F, -3) == Fraction(1, 2)
        assert evaluate(F, 2) == 1
        assert F.total_mass == 1
        assert F.missing_mass == 0

    def test_empty_missing_mass_warns(self):
        with pytest.warns(UserWarning, match="missing mass"):
            F = from_log_spectrum(ls([], m=1, zero_count=1))
        assert F.total_mass == 0
        assert F.missing_mass == 1

    def test_coincident_points(self):
        F = step_distribution([mpf(0), mpf(0)], 2)
        assert evaluate(F, 0) == 1
        assert evaluate(F, -1) == 0

    def test_mass_bound(self):
        with pytest.raises(ValueError):
            step_distribution([mpf(0), mpf(1)], 1)


class TestEvaluate:
    def test_below_all(self):
        F = step_distribution([mpf(0), mpf(1)], 2)
        assert evaluate(F, -5) == 0

    def test_above_all(self):
        F = step_distribution([mpf(0), mpf(1)], 2)
        assert evaluate(F, 5) == 1

    def test_midpoint(self):
        F = step_distribution([mpf(-1), mpf(1)], 2)
        assert evaluate(F, 0) == Fraction(1, 2)

    def test_decimal_input_parsed_at_precision(self):
        # at 53 bits "0.1" reads 5.6e-18 above 0.1, above this point too
        with workprec(256):
            x = mpf("0.1") + mpf("1e-30")
        F = step_distribution([x], 1)
        assert evaluate(F, "0.1") == 0
        G = step_distribution(["0.1"], 1)
        assert G.jumps[0] < x and evaluate(G, "0.1") == 1

    def test_right_continuous_nondecreasing(self, rng):
        pts = sorted(mpf(rng.uniform(-5, 5)) for _ in range(9))
        F = step_distribution(pts, 12)
        xs = sorted(pts + [mpf(rng.uniform(-6, 6)) for _ in range(20)])
        vals = [evaluate(F, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for p in pts:
            assert evaluate(F, p) == evaluate(F, p)  # value at the jump
            with workprec(280):
                just_below = p - mpf(2) ** -200
            assert evaluate(F, just_below) < evaluate(F, p) or \
                pts.count(p) != 1


class TestMeanAndTails:
    def test_symmetric_mean_zero(self):
        F = step_distribution([mpf(-1), mpf(1)], 2)
        assert mean(F) == 0

    def test_log_mean(self):
        with workprec(256):
            F = step_distribution([+mp.log(2), +mp.log(8)], 2,
                                  precision_bits=256)
            assert abs(mean(F) - mp.log(4)) < mpf(2) ** -250

    def test_tails(self):
        F = step_distribution([mpf(-1), mpf(1)], 2)
        ts = tail_sums(F)
        assert ts.neg == mpf("-0.5") and ts.pos == mpf("0.5")

    def test_all_positive_neg_zero(self):
        F = step_distribution([mpf(1), mpf(2)], 2)
        assert tail_sums(F).neg == 0

    def test_additivity_bit_exact(self, rng):
        pts = [mpf(rng.uniform(-10, 10)) for _ in range(11)]
        F = step_distribution(pts, 11)
        ts = tail_sums(F)
        with workprec(F.precision_bits + 32):
            assert mean(F) == +(ts.neg + ts.pos)

    def test_mean_matches_log_det_over_m(self, exp_stream):
        # version-6 finite-m identity on a zero-free record
        rec = compute_spectrum(exp_stream, 1, 6, 30)
        assert rec.zero_count == 0
        F = from_log_spectrum(log_spectrum(rec))
        with workprec(rec.precision_used + 32):
            lhs = mean(F)
            rhs = mp.log(abs(rec.det)) / rec.m
            assert abs(lhs - rhs) < mpf(10) ** -25


class TestSupDistance:
    def test_equal(self):
        F = step_distribution([mpf(0), mpf(3)], 2)
        assert sup_distance(F, F) == 0

    def test_disjoint_unit_jumps(self):
        F = step_distribution([mpf(0)], 1)
        G = step_distribution([mpf(1)], 1)
        assert sup_distance(F, G) == 1

    def test_enumerated_case(self):
        F = step_distribution([mpf(0), mpf(1)], 2)
        G = step_distribution([mpf(0)], 1)
        assert sup_distance(F, G) == Fraction(1, 2)

    def test_metric_properties(self, rng):
        fs = []
        for _ in range(4):
            pts = [mpf(rng.choice([-2, -1, 0, 1, 2])) for _ in range(6)]
            fs.append(step_distribution(pts, 6))
        for A in fs:
            for B in fs:
                dab = sup_distance(A, B)
                assert dab == sup_distance(B, A)
                assert (dab == 0) == (A.jumps == B.jumps)
                for C in fs:
                    assert dab <= sup_distance(A, C) + sup_distance(C, B)

    def test_differing_total_mass(self):
        F = step_distribution([mpf(0)], 2)       # mass 1/2
        G = step_distribution([mpf(0)], 1)       # mass 1
        assert sup_distance(F, G) == Fraction(1, 2)


class TestCsv:
    def test_deterministic_and_exact(self):
        F = step_distribution([mpf(-1), mpf(-1), mpf(2)], 3)
        a, b = io.StringIO(), io.StringIO()
        distribution_csv(F, a)
        distribution_csv(F, b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == "x,cumulative"
        assert len(lines) == 3          # coincident jumps merged
        assert lines[1].endswith("0.666666666666666666666666666667")
        assert lines[2].endswith(",1")
