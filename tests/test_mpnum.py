import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_shift

from hankelspectra import (
    adaptive_solve,
    analytic_spec,
    builtin_spec,
    det_lu,
    det_relation_check,
    frobenius_norm,
    from_decimal,
    generate,
    hankel_core,
    real_matrix,
    signed_hankel,
    sym_eigenvalues,
    to_decimal,
    trace,
)
from hankelspectra import mpnum
from hankelspectra.mpnum import (
    ConvergenceError,
    NonSymmetricError,
    PrecisionCapError,
    accept_level,
    guard_prec,
    ladder,
)

from conftest import (
    bisect_roots,
    char_poly,
    cofactor_det,
    eigsy_oracle,
    exact_fraction,
    fraction_rank,
    gauss_det,
    rand_symmetric,
    round_bits,
    sqrt_round_bits,
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

    @staticmethod
    def _assert_exact(A, rel, prec=512):
        exact = gauss_det(A.entries)
        got = exact_fraction(det_lu(A, prec))
        assert abs(got - exact) <= rel * abs(exact), float(got / exact - 1)

    @pytest.mark.parametrize("m", [20, 32])
    def test_graded_exponential_vs_exact(self, m):
        # 1/k! matrices: the pivots fall by hundreds of orders, where fixed
        # point loses relative digits first
        stream = generate(builtin_spec("exponential"), m, 256)
        self._assert_exact(signed_hankel(stream, 1, m).matrix,
                           Fraction(1, 10 ** 120))

    def test_graded_exponential_at_256_bits(self):
        # check v2/v3 and det_relation_check call det_lu once at 256 bits,
        # with no precision ladder to make up for lost relative digits
        stream = generate(builtin_spec("exponential"), 48, 256)
        self._assert_exact(signed_hankel(stream, 1, 48).matrix,
                           Fraction(1, 10 ** 70), prec=256)

    @pytest.mark.parametrize("m", [50, 80])
    def test_graded_relation_at_256_bits(self, m):
        # sizes at which a fixed point blind to the grading of 1/k! leaves
        # the Hankel and Toeplitz determinants apart, or a pivot column 0
        stream = generate(builtin_spec("exponential"), m, 256)
        rep = det_relation_check(stream, 1, m, 256)
        assert rep.ok and rep.rel_error <= mpf(10) ** -70, rep.rel_error
        wide = det_lu(hankel_core(stream, 1, m), 1024)
        assert rel_err(rep.det_hankel, wide) <= mpf(10) ** -70

    def test_c9_m24_vs_exact(self):
        self._assert_exact(_c9_matrix(), Fraction(1, 10 ** 120))

    def test_rank_deficient_exact_zero(self, geo1_stream):
        A = signed_hankel(geo1_stream, 1, 8).matrix
        assert gauss_det(A.entries) == 0
        assert det_lu(A, 512)._mpf_ == mpf(0)._mpf_


class TestSymEigenvalues:
    def test_diagonal(self):
        A = real_matrix([[3, 0], [0, -5]], symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert res.eigenvalues == (mpf(-5), mpf(3))

    def test_involution(self):
        A = real_matrix([[0, 1], [1, 0]], symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert [rel_err(e, t) < mpf(10) ** -35
                for e, t in zip(res.eigenvalues, (-1, 1))] == [True, True]

    def test_rank_one_shift(self):
        A = real_matrix([[2, 1], [1, 2]], symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert [rel_err(e, t) < mpf(10) ** -35
                for e, t in zip(res.eigenvalues, (1, 3))] == [True, True]

    def test_catalan3_vs_charpoly_bisection(self):
        # oracle: roots of the exact characteristic cubic to 50 digits
        coeffs = char_poly(CATALAN3)
        assert coeffs == [Fraction(1), Fraction(-17), Fraction(14), Fraction(-1)]
        roots = bisect_roots(coeffs, 0, 20, 3, digits=50)
        A = real_matrix(CATALAN3, symmetric=True)
        res = sym_eigenvalues(A, 300)
        for e, r in zip(res.eigenvalues, roots):
            assert rel_err(e, r) < mpf(10) ** -50

    def test_requires_symmetric_flag(self):
        A = real_matrix([[0, 1], [1, 0]], symmetric=False)
        with pytest.raises(NonSymmetricError):
            sym_eigenvalues(A, 128)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        A = real_matrix([[2, 1], [1, 2]], symmetric=True)
        monkeypatch.setattr(mpnum, "DEFAULT_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError) as exc:
            sym_eigenvalues(A, 128)
        assert exc.value.residual is not None
        # the off-diagonal Frobenius norm sqrt(1^2 + 1^2), rounded once
        with workprec(128):
            assert exc.value.residual == mp.sqrt(2)

    def test_zero_matrix(self):
        A = real_matrix([[0, 0], [0, 0]], symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert res.eigenvalues == (mpf(0), mpf(0))
        assert res.offdiag_residual == 0


def _shifted(A, k):
    """A times 2^k, exactly."""
    return real_matrix([[mp.make_mpf(mpf_shift(x._mpf_, k)) for x in row]
                        for row in A.entries], symmetric=True)


class TestFixedPointEdges:
    @staticmethod
    def _edge_matrix(case, rng, exp_stream):
        if case == "zero":
            return real_matrix([[0, 0], [0, 0]], symmetric=True)
        if case == "negative":
            return real_matrix([[-3, 0.625, 0], [0.625, -2.0 ** -70, -1],
                                [0, -1, 5]], symmetric=True)
        if case in ("scaled+900", "scaled-900"):
            return _shifted(rand_symmetric(7, rng), int(case[6:]))
        if case == "wide_diagonal":
            return real_matrix([[mpf(2) ** -3000, 0, 0], [0, 1, 0],
                                [0, 0, -3 * mpf(2) ** 2000]], symmetric=True)
        return signed_hankel(exp_stream, 1, 20).matrix

    @pytest.mark.parametrize("case", ["zero", "negative", "scaled+900",
                                      "scaled-900", "wide_diagonal",
                                      "exponential_m20"])
    @pytest.mark.parametrize("prec", [64, 256])
    def test_exact_form(self, case, prec, rng, exp_stream):
        # the one integer form reproduces every entry; trace and norm are
        # its exact sums rounded once; the kernels' fixed point rounds it
        # half away from zero
        A = self._edge_matrix(case, rng, exp_stream)
        entries = [[exact_fraction(x) for x in row] for row in A.entries]
        low, rows = A.exact
        assert [[v * Fraction(2) ** low for v in row] for row in rows] == \
            entries
        diag = sum(row[i] for i, row in enumerate(entries))
        squares = sum(x * x for row in entries for x in row)
        assert exact_fraction(trace(A, prec)) == round_bits(diag, prec)
        assert exact_fraction(frobenius_norm(A, prec)) == \
            sqrt_round_bits(squares, prec)
        for graded in (False, True):
            E, F, a = mpnum._scaled_rows(A, prec, graded=graded)
            for row, ref in zip(a, entries):
                for v, x in zip(row, ref):
                    y = abs(x) * Fraction(2) ** (F - E)
                    assert abs(v) == math.floor(y + Fraction(1, 2))
                    assert v == 0 or (v < 0) == (x < 0)

    def test_power_of_two_scaling_is_bit_exact(self, rng):
        A = rand_symmetric(7, rng)
        base = sym_eigenvalues(A, 256)
        for k in (900, -900):
            res = sym_eigenvalues(_shifted(A, k), 256)
            assert [x._mpf_ for x in res.eigenvalues] == \
                [mpf_shift(x._mpf_, k) for x in base.eigenvalues]
            assert res.offdiag_residual._mpf_ == \
                mpf_shift(base.offdiag_residual._mpf_, k)
            assert res.sweeps == base.sweeps

    def test_one_by_one_exact(self):
        with workprec(256):
            x = mpf(-3) / 7
        res = sym_eigenvalues(real_matrix([[x]], symmetric=True), 256)
        assert res.eigenvalues == (x,)
        assert res.sweeps == 0

    def test_diagonal_wide_range_exact(self):
        # entries far below 2^-F * ||A|| stay exact: no rotation runs
        small, big = mpf(2) ** -3000, -3 * mpf(2) ** 2000
        A = real_matrix([[small, 0, 0], [0, 1, 0], [0, 0, big]],
                        symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert res.eigenvalues == (big, small, mpf(1))
        assert res.offdiag_residual == 0

    def test_power_of_two_entries_exact(self):
        # equal diagonals rotate by exactly 45 degrees: t = 1, no roundoff
        a, b = mpf(2) ** 5, mpf(2) ** -40
        res = sym_eigenvalues(real_matrix([[a, b], [b, a]], symmetric=True),
                              128)
        with workprec(128):
            assert res.eigenvalues == (a - b, a + b)
        c, d = mpf(2) ** 300, mpf(2) ** 250
        A = real_matrix([[0, c, 0], [c, 0, 0], [0, 0, d]], symmetric=True)
        res = sym_eigenvalues(A, 128)
        assert res.eigenvalues == (-c, d, c)
        ones = real_matrix([[1, 1], [1, 1]], symmetric=True)
        assert sym_eigenvalues(ones, 128).eigenvalues == \
            (mpf(0), mpf(2))

    def test_all_ones_zeros_exact(self):
        # rank one: five eigenvalues inside the kernel's rounding come back 0
        ones = real_matrix([[1] * 6] * 6, symmetric=True)
        res = sym_eigenvalues(ones, 256)
        assert res.eigenvalues == (mpf(0),) * 5 + (mpf(6),)


def _c9_matrix():
    # the benchmark's c9 recipe with seed 1: 25 moments, l=1, m=24, 77 digits
    r = random.Random(1)
    vals = [str(r.uniform(-1, 1)) for _ in range(25)]
    stream = generate(builtin_spec("user-moments", *vals), 24, 320)
    return signed_hankel(stream, 1, 24).matrix


def _check_level(A, prec):
    """Each eigenvalue of one level within its final rounding to prec plus
    the stated kernel bound n * 2^-(prec+40) * ||A||_F of mpmath's eigsy at
    2*prec + 64 bits; returns eigsy's eigenvalues."""
    res = sym_eigenvalues(A, prec)
    oracle = eigsy_oracle(A.entries, prec)
    with workprec(2 * prec + 64):
        kernel = A.dim * frobenius_norm(A, 64) * mpf(2) ** -(prec + 40)
        for e, o in zip(res.eigenvalues, oracle):
            bound = abs(o) * mpf(2) ** -prec + kernel
            assert abs(e - o) <= bound, (prec, e, o, bound)
    return oracle


class TestIndependentOracle:
    """The eigensolver against mpmath's eigsy at 2*prec + 64 bits."""

    def _check(self, A, digits):
        res = adaptive_solve(A, digits)
        oracle = eigsy_oracle(A.entries, res.precision_used)
        with workprec(2 * res.precision_used + 64):
            for e, o in zip(res.eigenvalues, oracle):
                assert abs(e - o) <= mpf(10) ** -digits * abs(o), (e, o)
        for prec in (256, 512):
            _check_level(A, prec)

    def test_c9_m24(self):
        self._check(_c9_matrix(), 77)

    def test_graded_exponential_m20(self, exp_stream):
        self._check(signed_hankel(exp_stream, 1, 20).matrix, 30)

    def test_zeta_star_m16(self, zeta_star_stream):
        self._check(signed_hankel(zeta_star_stream, 1, 16).matrix, 30)

    @pytest.mark.parametrize("m", [64, 96])
    def test_zeta_star_converges_at_512_bits(self, m):
        stream = generate(analytic_spec("zeta-star"), m, 256)
        _check_level(signed_hankel(stream, 1, m).matrix, 512)


class TestClusteredEigenvalues:
    """``_check_level`` on matrices whose eigenvalues come in clusters."""

    @staticmethod
    def _wilkinson_plus(k):
        n = 2 * k + 1
        return [[mpf(abs(k - i)) if i == j else mpf(int(abs(i - j) == 1))
                 for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("k", [20, 30])
    @pytest.mark.parametrize("prec", [256, 512])
    def test_wilkinson_plus(self, k, prec):
        # pairs that agree to about 10^-37 at k = 20 and 10^-65 at k = 30;
        # the shift by the top eigenvalue rounded to 64 bits puts the top
        # pair near 2^-62, where the final rounding does not hide its error
        rows = self._wilkinson_plus(k)
        with workprec(64):
            top = +eigsy_oracle(rows, 64)[-1]
        with workprec(128):
            for i in range(len(rows)):
                rows[i][i] -= top
        oracle = _check_level(real_matrix(rows, symmetric=True), prec)
        assert oracle[-1] - oracle[-2] < mpf(10) ** -30

    @pytest.mark.parametrize("blocks, coupling", [(2, -60), (3, -200)])
    @pytest.mark.parametrize("prec", [256, 512])
    def test_glued_wilkinson(self, blocks, coupling, prec):
        # copies of W+ (k = 7) joined by off-diagonal entries 2^coupling:
        # every eigenvalue comes in a cluster of `blocks`, and the chase
        # crosses a tiny e_i each sweep
        w = self._wilkinson_plus(7)
        n = len(w) * blocks
        rows = [[mpf(0)] * n for _ in range(n)]
        for b in range(blocks):
            o = b * len(w)
            for i, row in enumerate(w):
                rows[o + i][o:o + len(w)] = row
            if b:
                rows[o - 1][o] = rows[o][o - 1] = mpf(2) ** coupling
        _check_level(real_matrix(rows, symmetric=True), prec)


class TestQLStep:
    """One root-free QL iteration is an orthogonal similarity, so it must
    keep the characteristic polynomial of the tridiagonal (d, e^2)."""

    @staticmethod
    def _char_poly3(d, e2, F):
        d0, d1, d2 = (Fraction(x, 1 << F) for x in d)
        f0, f1 = (Fraction(x, 1 << (2 * F)) for x in e2[:2])
        return (d0 + d1 + d2, d0 * d1 + d0 * d2 + d1 * d2 - f0 - f1,
                d0 * d1 * d2 - d0 * f1 - d2 * f0)

    def test_cos_squared_below_one_unit(self):
        # d[m] sits 2^-(3F/5) above the shift, so the first rotation has
        # c = gamma^2 / (gamma^2 + e^2) near 2^-(6F/5): below one unit at
        # scale F, while gamma is far above 2^-F
        F = guard_prec(256, 3) + 16
        one = 1 << F
        d, e2 = [3 * one, one, 0], [one * one, one * one, 0]
        delta = d[1] - d[0]
        root = -mpnum.math.isqrt(delta * delta + 4 * e2[0])
        d[2] = d[0] - (2 * e2[0]) // (delta + root) + (1 << (2 * F // 5))
        before = self._char_poly3(d, e2, F)
        mpnum._ql_step(d, e2, 0, 2, F)
        after = self._char_poly3(d, e2, F)
        for x, y in zip(before, after):
            assert abs(x - y) <= Fraction(2) ** -(F - 8), float(x - y)


class TestDeflation:
    """The deflation tol that ``adaptive_solve`` passes leaves an
    off-diagonal residual of at most 2^-(prec+32) * ||A||_F per level."""

    @pytest.mark.parametrize("spec, m", [
        (analytic_spec("zeta-star"), 64),
        (builtin_spec("exponential"), 32),
    ])
    def test_residual_per_level(self, monkeypatch, spec, m):
        A = signed_hankel(generate(spec, m, 256), 1, m).matrix
        levels = {}
        solve = mpnum.sym_eigenvalues

        def recording(A, prec):
            levels[prec] = res = solve(A, prec)
            return res

        monkeypatch.setattr(mpnum, "sym_eigenvalues", recording)
        adaptive_solve(A, 30)
        assert sorted(levels) == [128, 256]
        fnorm = frobenius_norm(A, 128)
        with workprec(128):
            for prec, res in levels.items():
                bound = fnorm * mpf(2) ** -(prec + 32)
                assert res.offdiag_residual <= bound, (
                    prec, res.offdiag_residual)


class TestStartPrec:
    """The ladder starts at the least power of two that holds the target
    digits, at least 64 bits, and doubles up to the cap."""

    @pytest.mark.parametrize("digits, start", [
        (10, 64), (20, 128), (30, 128), (77, 256), (78, 512), (200, 1024)])
    def test_power_of_two_covering_the_digits(self, digits, start):
        # 10 digits need 34 bits, below det_lu's 64; 77 need 255.8, 78 need
        # 259.1
        assert ladder(digits)[0] == start
        bits = math.ceil(digits * math.log2(10))
        assert start == 64 or start // 2 < bits <= start

    @pytest.mark.parametrize("digits, cap, start", [
        (200, 2048, 1024), (78, 1024, 512), (77, 512, 256), (30, 256, 128)])
    def test_cap_leaves_two_levels(self, monkeypatch, digits, cap, start):
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", cap)
        assert ladder(digits) == [start, cap]

    # a target that needs more bits than the cap gets fewer levels or none:
    # 200 digits need 665 bits, 30 need 100
    @pytest.mark.parametrize("digits, cap, levels", [
        (10, 64, [64]), (10, 127, [64]), (10, 128, [64, 128]),
        (30, 1024, [128, 256, 512, 1024]), (30, 1023, [128, 256, 512]),
        (78, 8192, [512, 1024, 2048, 4096, 8192]),
        (200, 512, []), (30, 63, []), (30, 128, [128])])
    def test_levels_double_up_to_the_cap(self, monkeypatch, digits, cap,
                                         levels):
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", cap)
        assert ladder(digits) == levels

    def test_every_level_holds_the_digits_under_the_cap(self):
        # from 1234 digits on, 4096 bits no longer hold the target
        for digits in range(10, 3001):
            bits = (10 ** digits).bit_length()
            for prec in ladder(digits):
                assert bits <= prec <= 8192, (digits, prec)

    @pytest.mark.parametrize("digits, levels", [
        (10, [64, 128]), (30, [128, 256]), (78, [512, 1024])])
    def test_ladder_climbs_from_the_start(self, monkeypatch, digits, levels):
        A = real_matrix([[2, 1], [1, 3]], symmetric=True)
        bits = []
        solve = mpnum.sym_eigenvalues

        def recording(A, prec):
            bits.append(prec)
            return solve(A, prec)

        monkeypatch.setattr(mpnum, "sym_eigenvalues", recording)
        assert adaptive_solve(A, digits).precision_used == levels[-1]
        assert bits == levels


class TestAdaptiveSolve:
    def test_agreement_below_the_floor_is_absolute(self):
        # at most 10^-30 in size, two levels agree only within 10^-30
        # absolute: 1e-30 and -1e-30 are 2e-30 apart
        wp = guard_prec(128, 1)
        with workprec(wp):
            x, y, half = mpf("1e-30"), mpf("-1e-30"), mpf("0.5e-30")

        def level(mu):
            return mpnum.EigenResult(eigenvalues=(mu,), precision_used=128,
                                     offdiag_residual=mpf(0))

        assert not mpnum._agree(level(x), level(y), 30, wp)
        assert mpnum._agree(level(x), level(half), 30, wp)

    # 20 digits (67 bits) start the ladder at 128 bits
    def test_diagonal_exact_at_first_precision(self):
        with workprec(128):
            small = mpf(10) ** -30
        A = real_matrix([[1, 0], [0, small]], symmetric=True)
        res = adaptive_solve(A, 20)
        assert res.precision_used == 128
        assert res.eigenvalues == (small, mpf(1))

    def test_zero_matrix_first_precision(self):
        A = real_matrix([[0, 0], [0, 0]], symmetric=True)
        res = adaptive_solve(A, 20)
        assert res.precision_used == 128
        assert res.eigenvalues == (mpf(0), mpf(0))

    def test_hilbert8_agreement_vs_high_precision_oracle(self):
        with workprec(512):
            rows = [[mpf(1) / (i + j + 1) for j in range(8)] for i in range(8)]
        A = real_matrix(rows, symmetric=True)
        res512 = sym_eigenvalues(A, 512)
        res1024 = sym_eigenvalues(A, 1024)
        for a, b in zip(res512.eigenvalues, res1024.eigenvalues):
            assert rel_err(a, b, wp=1100) < mpf(10) ** -30
        res = adaptive_solve(A, 30)
        oracle = eigsy_oracle(A.entries, res.precision_used)
        for a, b in zip(res.eigenvalues, oracle):
            assert rel_err(a, b, wp=2 * res.precision_used + 64) < mpf(10) ** -30

    def test_precision_cap_carries_both_lists(self, monkeypatch):
        # the eigenvalue 2^-91 (about 4e-28) carries the absolute rounding
        # of about 2^-168: levels 128 and 256 agree on 25 digits, not 30
        with workprec(128):
            A = real_matrix([[1, 1], [1, 1 + mpf(2) ** -90]], symmetric=True)
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", 256)
        with pytest.raises(PrecisionCapError) as exc:
            adaptive_solve(A, 30)
        assert exc.value.last is not None
        assert exc.value.previous is not None
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", 512)
        assert adaptive_solve(A, 30).precision_used == 512

    def test_target_digits_validated(self):
        A = real_matrix([[1]], symmetric=True)
        with pytest.raises(ValueError):
            adaptive_solve(A, 5)


def _hilbert8():
    with workprec(512):
        rows = [[mpf(1) / (i + j + 1) for j in range(8)] for i in range(8)]
    return real_matrix(rows, symmetric=True)


class TestAcceptLevel:
    """The one acceptance rule, as a stored record meets it on reload."""

    @pytest.mark.parametrize("case, digits", [
        ("hilbert8", 30), ("c9_m24", 77), ("exp_m20", 30),
        ("geometric_m4", 30), ("zeta_m16", 30),
    ])
    def test_accepts_what_adaptive_solve_accepts(self, case, digits,
                                                 exp_stream, geo1_stream,
                                                 zeta_star_stream):
        A = {"hilbert8": _hilbert8,
             "c9_m24": _c9_matrix,
             "exp_m20": lambda: signed_hankel(exp_stream, 1, 20).matrix,
             "geometric_m4": lambda: signed_hankel(geo1_stream, 1, 4).matrix,
             "zeta_m16": lambda: signed_hankel(zeta_star_stream, 1,
                                               16).matrix}[case]()
        res = adaptive_solve(A, digits)
        det, floor, reason = accept_level(A, res.eigenvalues,
                                          res.precision_used)
        assert reason is None
        assert det._mpf_ == res.det._mpf_
        assert floor._mpf_ == res.zero_floor._mpf_

    def test_rejections_named(self, geo1_stream):
        A = _hilbert8()
        res = adaptive_solve(A, 30)
        prec = res.precision_used
        doubled = res.eigenvalues[:-1] + (2 * res.eigenvalues[-1],)
        _, _, reason = accept_level(A, doubled, prec)
        assert reason == ("eigenvalue product disagrees with the determinant "
                          "at %d bits" % prec)
        # a zero that the exact nullity (0) does not prove
        zeroed = (mpf(0),) + res.eigenvalues[1:]
        _, _, reason = accept_level(A, zeroed, prec)
        assert reason == ("1 eigenvalue(s) not resolvable above the roundoff "
                          "floor at %d bits" % prec)
        # a matrix of nullity 1: its one zero is proved and accepted
        A = signed_hankel(geo1_stream, 1, 3).matrix
        res = adaptive_solve(A, 30)
        _, floor, reason = accept_level(A, res.eigenvalues,
                                        res.precision_used)
        assert reason is None
        assert sum(1 for mu in res.eigenvalues if abs(mu) <= floor) == 1


class TestNullity:
    """``_nullity`` against the exact rank of Gaussian elimination over
    Fractions."""

    @staticmethod
    def _set_rank(n, r, rng):
        # a sum of r outer products v v^T of small integer vectors
        rows = [[0] * n for _ in range(n)]
        for _ in range(r):
            v = [rng.randint(-3, 3) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    rows[i][j] += v[i] * v[j]
        return rows

    def test_small_integer_matrices_of_set_rank(self, rng):
        for n in (1, 2, 3, 5, 8, 12):
            for r in range(n + 1):
                rows = self._set_rank(n, r, rng)
                want = n - fraction_rank(rows)
                assert mpnum._nullity(real_matrix(rows)) == want, (n, r)
                # dyadic entries: the exact form's power of two is a unit
                scaled = [[mp.ldexp(v, -70) for v in row] for row in rows]
                assert mpnum._nullity(real_matrix(scaled)) == want, (n, r)

    def test_zero_columns_skipped(self):
        rows = [[0, 0, 1, 2], [0, 0, 2, 4], [1, 2, 0, 0], [2, 4, 0, 1]]
        assert fraction_rank(rows) == 3
        assert mpnum._nullity(real_matrix(rows)) == 1

    @pytest.mark.parametrize("rows", [
        [[2 ** 61 - 1, 0], [0, 1]],
        [[2 ** 61 - 1, 2 ** 61 - 1], [2 ** 61 - 1, 2 * (2 ** 61 - 1)]],
    ], ids=["diag", "all-multiples-of-p"])
    def test_singular_mod_p_but_nonsingular(self, rows):
        # full rank over Q, below full rank mod 2^61 - 1: Bareiss decides
        with workprec(64):
            A = real_matrix(rows)
        assert [[exact_fraction(x) for x in row] for row in A.entries] == rows
        assert fraction_rank(rows) == 2
        assert mpnum._nullity(A) == 0


class TestSpectralIdentities:
    def test_trace_frobenius_det_identities(self, rng):
        prec = 256
        for n in (2, 3, 7, 12, 20, 32):
            A = rand_symmetric(n, rng, bits=prec)
            res = sym_eigenvalues(A, prec)
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
        ra = sym_eigenvalues(A, 256)
        rb = sym_eigenvalues(B, 256)
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
