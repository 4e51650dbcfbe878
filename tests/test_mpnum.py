import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_shift

from hankelspectra import (
    adaptive_solve,
    builtin_spec,
    det_lu,
    frobenius_norm,
    from_decimal,
    generate,
    real_matrix,
    signed_hankel,
    sym_eigenvalues,
    to_decimal,
    trace,
)
from hankelspectra.mpnum import (
    ConvergenceError,
    NonSymmetricError,
    PrecisionCapError,
    guard_prec,
    make_mpf,
)

from conftest import (
    bisect_roots,
    char_poly,
    cofactor_det,
    eigsy_oracle,
    rand_symmetric,
)

CATALAN3 = [[1, 1, 2], [1, 2, 5], [2, 5, 14]]


def rel_err(a, b, wp=300):
    with workprec(wp):
        scale = max(abs(a), abs(b))
        if scale == 0:
            return mpf(0)
        return abs(a - b) / scale


class TestDetLU:
    def test_identity(self):
        A = real_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert det_lu(A, 64) == 1

    def test_2x2(self):
        assert det_lu(real_matrix([[1, 2], [3, 4]]), 64) == -2

    def test_catalan_hankel_vs_cofactor_oracle(self):
        d = det_lu(real_matrix(CATALAN3), 128)
        assert cofactor_det(CATALAN3) == 1
        assert rel_err(d, mpf(1)) < mpf(10) ** -35

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            real_matrix([])

    def test_prec_too_small(self):
        with pytest.raises(ValueError):
            det_lu(real_matrix([[1]]), 32)

    def test_singular_exact_zero(self):
        A = real_matrix([[1, 1], [1, 1]])
        assert det_lu(A, 128) == 0

    def test_row_permutation_sign(self, rng):
        for n in (2, 3, 5, 6):
            A = rand_symmetric(n, rng)
            rows = list(A.entries)
            perm = list(range(n))
            rng.shuffle(perm)
            # parity of the permutation by counting inversions
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            B = real_matrix([rows[p] for p in perm])
            da, db = det_lu(A, 256), det_lu(B, 256)
            with workprec(300):
                expected = +da if inv % 2 == 0 else -da
            assert rel_err(db, expected) < mpf(10) ** -30


class TestSymEigenvalues:
    TOL = mpf(2) ** -180

    def test_diagonal(self):
        A = real_matrix([[3, 0], [0, -5]], symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert res.eigenvalues == (mpf(-5), mpf(3))

    def test_involution(self):
        A = real_matrix([[0, 1], [1, 0]], symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert [rel_err(e, t) < mpf(10) ** -35
                for e, t in zip(res.eigenvalues, (-1, 1))] == [True, True]

    def test_rank_one_shift(self):
        A = real_matrix([[2, 1], [1, 2]], symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert [rel_err(e, t) < mpf(10) ** -35
                for e, t in zip(res.eigenvalues, (1, 3))] == [True, True]

    def test_catalan3_vs_charpoly_bisection(self):
        # oracle: roots of the exact characteristic cubic to 50 digits
        coeffs = char_poly(CATALAN3)
        assert coeffs == [Fraction(1), Fraction(-17), Fraction(14), Fraction(-1)]
        roots = bisect_roots(coeffs, 0, 20, 3, digits=50)
        A = real_matrix(CATALAN3, symmetric=True)
        res = sym_eigenvalues(A, 300, mpf(2) ** -250)
        for e, r in zip(res.eigenvalues, roots):
            assert rel_err(e, r) < mpf(10) ** -50

    def test_requires_symmetric_flag(self):
        A = real_matrix([[0, 1], [1, 0]], symmetric=False)
        with pytest.raises(NonSymmetricError):
            sym_eigenvalues(A, 128, self.TOL)

    def test_nonconvergence_reports_residual(self):
        A = real_matrix([[2, 1], [1, 2]], symmetric=True)
        with pytest.raises(ConvergenceError) as exc:
            sym_eigenvalues(A, 128, self.TOL, max_sweeps=0)
        assert exc.value.residual is not None
        # the off-diagonal Frobenius norm sqrt(1^2 + 1^2), rounded once
        with workprec(128):
            assert exc.value.residual == mp.sqrt(2)

    def test_zero_matrix(self):
        A = real_matrix([[0, 0], [0, 0]], symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert res.eigenvalues == (mpf(0), mpf(0))
        assert res.offdiag_residual == 0


class TestFixedPointEdges:
    TOL = mpf(2) ** -180

    def test_power_of_two_scaling_is_bit_exact(self, rng):
        A = rand_symmetric(7, rng)
        base = sym_eigenvalues(A, 256, self.TOL)
        for k in (900, -900):
            B = real_matrix([[make_mpf(mpf_shift(x._mpf_, k)) for x in row]
                             for row in A.entries], symmetric=True)
            res = sym_eigenvalues(B, 256, self.TOL)
            assert [x._mpf_ for x in res.eigenvalues] == \
                [mpf_shift(x._mpf_, k) for x in base.eigenvalues]
            assert res.offdiag_residual._mpf_ == \
                mpf_shift(base.offdiag_residual._mpf_, k)
            assert res.sweeps == base.sweeps

    def test_one_by_one_exact(self):
        with workprec(256):
            x = mpf(-3) / 7
        res = sym_eigenvalues(real_matrix([[x]], symmetric=True), 256,
                              self.TOL)
        assert res.eigenvalues == (x,)
        assert res.sweeps == 0

    def test_diagonal_wide_range_exact(self):
        # entries far below 2^-F * ||A|| stay exact: no rotation runs
        small, big = mpf(2) ** -3000, -3 * mpf(2) ** 2000
        A = real_matrix([[small, 0, 0], [0, 1, 0], [0, 0, big]],
                        symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert res.eigenvalues == (big, small, mpf(1))
        assert res.offdiag_residual == 0

    def test_power_of_two_entries_exact(self):
        # equal diagonals rotate by exactly 45 degrees: t = 1, no roundoff
        a, b = mpf(2) ** 5, mpf(2) ** -40
        res = sym_eigenvalues(real_matrix([[a, b], [b, a]], symmetric=True),
                              128, self.TOL)
        with workprec(128):
            assert res.eigenvalues == (a - b, a + b)
        c, d = mpf(2) ** 300, mpf(2) ** 250
        A = real_matrix([[0, c, 0], [c, 0, 0], [0, 0, d]], symmetric=True)
        res = sym_eigenvalues(A, 128, self.TOL)
        assert res.eigenvalues == (-c, d, c)
        ones = real_matrix([[1, 1], [1, 1]], symmetric=True)
        assert sym_eigenvalues(ones, 128, self.TOL).eigenvalues == \
            (mpf(0), mpf(2))


def _c9_matrix():
    # the benchmark's c9 recipe with seed 1: 25 moments, l=1, m=24, 77 digits
    r = random.Random(1)
    vals = [str(r.uniform(-1, 1)) for _ in range(25)]
    stream = generate(builtin_spec("user-moments", *vals), 24, 320)
    return signed_hankel(stream, 1, 24).matrix


class TestIndependentOracle:
    """Jacobi against mpmath's eigsy at 2*prec + 64 bits."""

    def _check(self, A, digits):
        res = adaptive_solve(A, digits)
        oracle = eigsy_oracle(A.entries, res.precision_used)
        with workprec(2 * res.precision_used + 64):
            for e, o in zip(res.eigenvalues, oracle):
                assert abs(e - o) <= mpf(10) ** -digits * abs(o), (e, o)
        # each level: absolute error at least 2^14 below the zero floor
        fnorm = frobenius_norm(A, 64)
        for prec in (256, 512):
            lvl = sym_eigenvalues(A, prec, mpf(2) ** -(prec - 8))
            oracle = eigsy_oracle(A.entries, prec)
            with workprec(2 * prec + 64):
                bound = fnorm * mpf(2) ** -(prec - 2)
                worst = max(abs(e - o)
                            for e, o in zip(lvl.eigenvalues, oracle))
                assert worst <= bound, (prec, worst, bound)

    def test_c9_m24(self):
        self._check(_c9_matrix(), 77)

    def test_graded_exponential_m20(self, exp_stream):
        self._check(signed_hankel(exp_stream, 1, 20).matrix, 30)

    def test_zeta_star_m16(self, zeta_star_stream):
        self._check(signed_hankel(zeta_star_stream, 1, 16).matrix, 30)


class TestAdaptiveSolve:
    def test_diagonal_exact_at_first_precision(self):
        with workprec(256):
            small = mpf(10) ** -30
        A = real_matrix([[1, 0], [0, small]], symmetric=True)
        res = adaptive_solve(A, 20)
        assert res.precision_used == 256
        assert res.eigenvalues == (small, mpf(1))

    def test_zero_matrix_first_precision(self):
        A = real_matrix([[0, 0], [0, 0]], symmetric=True)
        res = adaptive_solve(A, 20)
        assert res.precision_used == 256
        assert res.eigenvalues == (mpf(0), mpf(0))

    def test_hilbert8_agreement_vs_high_precision_oracle(self):
        with workprec(512):
            rows = [[mpf(1) / (i + j + 1) for j in range(8)] for i in range(8)]
        A = real_matrix(rows, symmetric=True)
        res512 = sym_eigenvalues(A, 512, mpf(2) ** -440)
        res1024 = sym_eigenvalues(A, 1024, mpf(2) ** -900)
        for a, b in zip(res512.eigenvalues, res1024.eigenvalues):
            assert rel_err(a, b, wp=1100) < mpf(10) ** -30
        res = adaptive_solve(A, 30)
        oracle = eigsy_oracle(A.entries, res.precision_used)
        for a, b in zip(res.eigenvalues, oracle):
            assert rel_err(a, b, wp=2 * res.precision_used + 64) < mpf(10) ** -30

    def test_precision_cap_carries_both_lists(self):
        with workprec(512):
            rows = [[mpf(1) / (i + j + 1) for j in range(8)] for i in range(8)]
        A = real_matrix(rows, symmetric=True)
        with pytest.raises(PrecisionCapError) as exc:
            adaptive_solve(A, 200, start_prec=256, prec_cap=512)
        assert exc.value.last is not None
        assert exc.value.previous is not None

    def test_target_digits_validated(self):
        A = real_matrix([[1]], symmetric=True)
        with pytest.raises(ValueError):
            adaptive_solve(A, 5)


class TestSpectralIdentities:
    def test_trace_frobenius_det_identities(self, rng):
        prec = 256
        for n in (2, 3, 7, 12, 20, 32):
            A = rand_symmetric(n, rng, bits=prec)
            res = sym_eigenvalues(A, prec, mpf(2) ** -200)
            wp = guard_prec(prec, n)
            with workprec(wp):
                s1 = sum(res.eigenvalues, mpf(0))
                s2 = sum((e * e for e in res.eigenvalues), mpf(0))
                pr = mpf(1)
                for e in res.eigenvalues:
                    pr *= e
                fr = frobenius_norm(A, prec)
                bound = mpf(2) ** (-(prec // 2))
                assert rel_err(s1, trace(A, prec)) < bound
                assert rel_err(s2, fr * fr) < bound
                assert rel_err(pr, det_lu(A, prec)) < mpf(10) ** -30

    def test_eigenvalues_invariant_under_symmetric_permutation(self, rng):
        n = 6
        A = rand_symmetric(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[A.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        B = real_matrix(rows, symmetric=True)
        ra = sym_eigenvalues(A, 256, mpf(2) ** -200)
        rb = sym_eigenvalues(B, 256, mpf(2) ** -200)
        for a, b in zip(ra.eigenvalues, rb.eigenvalues):
            assert rel_err(a, b) < mpf(10) ** -40


class TestDecimalRoundTrip:
    def test_bit_exact(self, rng):
        for bits in (64, 256, 1024):
            with workprec(bits):
                for _ in range(50):
                    x = mpf(rng.getrandbits(bits)) / (1 << bits)
                    x = (2 * x - 1) * mpf(2) ** rng.randint(-800, 800)
                    s = to_decimal(x, bits)
                    assert from_decimal(s, bits) == x

    def test_zero_and_negative(self):
        assert from_decimal(to_decimal(mpf(0), 64), 64) == 0
        assert from_decimal(to_decimal(mpf(-2), 64), 64) == -2
