from fractions import Fraction
from math import factorial

import pytest
from mpmath import mpf, workprec
from mpmath.libmp import mpf_neg

from hankelspectra import (
    builtin_spec,
    det_lu,
    det_relation_check,
    generate,
    hankel_core,
    raw_toeplitz,
    sign_prefactor,
    signed_hankel,
    theta,
)
from hankelspectra.hankel import StreamTooShortError

from conftest import cofactor_det


class TestSignPrefactor:
    def test_values(self):
        assert sign_prefactor(1) == 1
        assert sign_prefactor(2) == -1
        assert sign_prefactor(3) == -1
        assert sign_prefactor(4) == 1

    def test_period_four(self):
        for m in range(1, 40):
            assert sign_prefactor(m + 4) == sign_prefactor(m)

    def test_domain(self):
        with pytest.raises(ValueError):
            sign_prefactor(0)


class TestBuild:
    def test_smallest_case(self, exp_stream):
        assert sign_prefactor(1) == 1
        assert signed_hankel(exp_stream, 1, 1).entries == \
            ((theta(exp_stream, 1),),)

    def test_geometric_ones_2x2(self, geo1_stream):
        sh = signed_hankel(geo1_stream, 1, 2)
        assert sign_prefactor(2) == -1
        assert [[str(x) for x in row] for row in sh.entries] == \
            [["-1.0", "-1.0"], ["-1.0", "-1.0"]]

    def test_index_formula_l2_m3(self, exp_stream):
        m = signed_hankel(exp_stream, 2, 3)
        sign = sign_prefactor(3)
        assert sign == -1
        # 1-based entry(1,1) = sign*c4, entry(3,3) = sign*c0,
        # entry(1,3) = entry(3,1) = sign*c2
        with workprec(300):
            assert m.entries[0][0] == sign * theta(exp_stream, 4)
            assert m.entries[2][2] == sign * theta(exp_stream, 0)
            assert m.entries[0][2] == sign * theta(exp_stream, 2)
            assert m.entries[0][2] == m.entries[2][0]

    def test_symmetry_and_hankel_property(self, exp_stream):
        m = signed_hankel(exp_stream, 3, 5)
        for i in range(5):
            for j in range(5):
                assert m.entries[i][j]._mpf_ == m.entries[j][i]._mpf_
                # entry depends only on i+j
                if i + j <= 4:
                    assert m.entries[i][j]._mpf_ == m.entries[0][i + j]._mpf_

    def test_stream_too_short_names_index(self, exp_stream):
        with pytest.raises(StreamTooShortError, match=str(20 + 10 - 1)):
            signed_hankel(exp_stream, 20, 10)


class TestRawToeplitz:
    def test_geometric_ones(self, geo1_stream):
        t = raw_toeplitz(geo1_stream, 1, 2)
        assert [[str(x) for x in row] for row in t.entries] == \
            [["1.0", "1.0"], ["1.0", "1.0"]]

    def test_exponential(self, exp_stream):
        t = raw_toeplitz(exp_stream, 1, 2)
        # entry(i,j) = c[1+j-i]: [[c1, c2], [c0, c1]]
        assert t.entries[0][0] == theta(exp_stream, 1)
        assert t.entries[0][1] == theta(exp_stream, 2)
        assert t.entries[1][0] == theta(exp_stream, 0)
        assert t.entries[1][1] == theta(exp_stream, 1)

    def test_column_reversal_reproduces_core(self, exp_stream):
        # m=1, l<m (zero-padded negative indices), l=m and l>m
        for l, m in ((1, 1), (3, 1), (2, 4), (1, 5), (4, 4), (6, 3)):
            t = raw_toeplitz(exp_stream, l, m)
            h = hankel_core(exp_stream, l, m)
            for i in range(m):
                for j in range(m):
                    assert t.entries[i][m - 1 - j]._mpf_ == h.entries[i][j]._mpf_


class TestDetRelation:
    def test_m1_trivial(self, exp_stream):
        rep = det_relation_check(exp_stream, 1, 1, 128)
        assert rep.ok and rep.expected_sign == 1

    def test_m2_single_swap(self, rng):
        vals = [str(rng.uniform(-1, 1)) for _ in range(8)]
        st = generate(builtin_spec("user-moments", *vals), 7, 256)
        rep = det_relation_check(st, 2, 2, 256)
        assert rep.ok
        assert rep.expected_sign == -1
        with workprec(300):
            assert abs(rep.det_hankel + rep.det_toeplitz) <= \
                mpf(10) ** -30 * abs(rep.det_hankel)

    def test_m5_exponential_vs_cofactor_oracle(self, exp_stream):
        rep = det_relation_check(exp_stream, 1, 5, 256)
        assert rep.ok
        # independent oracle: exact rationals
        c = lambda k: Fraction(1, factorial(k)) if k >= 0 else Fraction(0)
        l, m = 1, 5
        H = [[c(l + m - 1 - i - j) for j in range(m)] for i in range(m)]
        T = [[c(l + j - i) for j in range(m)] for i in range(m)]
        eh, et = cofactor_det(H), cofactor_det(T)
        assert eh == et    # sign (-1)^(5*4/2) = +1
        with workprec(400):
            exact = mpf(eh.numerator) / eh.denominator
            assert abs(rep.det_hankel - exact) < abs(exact) * mpf(10) ** -30
            assert abs(rep.det_toeplitz - exact) < abs(exact) * mpf(10) ** -30

    def test_signed_det_scalar_law(self, rng):
        # det(signed matrix) = sign^m * det(unsigned core)
        vals = [str(rng.uniform(-1, 1)) for _ in range(12)]
        st = generate(builtin_spec("user-moments", *vals), 11, 256)
        for l, m in ((1, 2), (2, 3), (3, 4), (1, 5)):
            sh, core = signed_hankel(st, l, m), hankel_core(st, l, m)
            # entrywise, bit for bit: signed = sign * core
            sign = sign_prefactor(m)
            for srow, crow in zip(sh.entries, core.entries):
                assert [x._mpf_ for x in srow] == \
                    [v._mpf_ if sign > 0 else mpf_neg(v._mpf_) for v in crow]
            ds = det_lu(sh, 256)
            dc = det_lu(core, 256)
            s = sign_prefactor(m) ** m
            with workprec(300):
                assert abs(ds - s * dc) <= mpf(10) ** -30 * max(abs(ds), abs(dc))

    def test_zero_determinants_ok(self, geo1_stream):
        rep = det_relation_check(geo1_stream, 1, 2, 128)
        assert rep.ok and rep.det_hankel == 0 and rep.det_toeplitz == 0
