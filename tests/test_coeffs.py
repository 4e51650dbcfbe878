import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st_
from mpmath import mp, mpc, mpf, workprec

from hankelspectra import (
    FunctionSpec,
    analytic_spec,
    builtin_spec,
    generate,
    parse_func_token,
    theta,
    zeta_em,
)
from hankelspectra import coeffs
from hankelspectra.coeffs import (
    CacheCorruptionError,
    CoeffIndexError,
    ComplexStreamError,
    StreamValidationError,
    UnknownGeneratorError,
    ZetaPoleError,
    load_analytic_config,
)

from conftest import exact_fraction, ring_quadrature, round_bits

# published 50-digit expansions
ZETA2_50 = "1.6449340668482264364724151666460251892189499012068"
ZETA3_50 = "1.2020569031595942853997381615114499907649862923405"


class TestZeta:
    def test_zeta2_matches_pi_squared_over_six(self):
        v = zeta_em(2, 256)
        with workprec(300):
            assert abs(v - mp.pi ** 2 / 6) < mpf(10) ** -50
            assert abs(v - mpf(ZETA2_50)) < mpf(10) ** -49

    def test_zeta3_published_value(self):
        v = zeta_em(3, 256)
        with workprec(300):
            assert abs(v - mpf(ZETA3_50)) < mpf(10) ** -49

    def test_classical_values(self):
        with workprec(300):
            assert abs(zeta_em(0, 256) + mpf(1) / 2) < mpf(2) ** -256
            assert abs(zeta_em(-1, 256) + mpf(1) / 12) < mpf(2) ** -250

    def test_pole(self):
        with pytest.raises(ZetaPoleError):
            zeta_em(1, 128)

    def test_against_independent_evaluator(self):
        # mpmath's zeta uses Borwein / Riemann-Siegel style algorithms,
        # a different route than the summation used here
        pts = [mpf("0.5"), mpf("3.25"), mpc("0.5", "14.1"), mpc("-0.8", "0.3"),
               mpf("-7.5"), mpc("1.5", "-2.0"), mpc("-3.3", "5.0")]
        with workprec(320):
            for s in pts:
                ours = zeta_em(s, 280)
                ref = mp.zeta(s)
                assert abs(ours - ref) < mpf(2) ** -270, s

    def test_real_in_real_out(self):
        assert isinstance(zeta_em(2, 128), mpf)
        assert isinstance(zeta_em(mpc(2, 1), 128), mpc)


class TestBuiltins:
    def test_geometric_ones(self):
        st = generate(builtin_spec("geometric", 1), 5, 128)
        assert [v for v in st.values] == [mpf(1)] * 6

    def test_exponential(self):
        st = generate(builtin_spec("exponential"), 6, 128)
        with workprec(160):
            assert abs(theta(st, 3) - mpf(1) / 6) < mpf(2) ** -120

    def test_rational2(self):
        st = generate(builtin_spec("rational2", 2, 1), 6, 128)
        assert theta(st, 2) == 7        # 2^3 - 1^3
        assert theta(st, 0) == 1
        with pytest.raises(ValueError):
            builtin_spec("rational2", 3, 3)

    @pytest.mark.parametrize("a, b", [("1", "1.00000000000000000001"),
                                      ("3.7", "-1.25")])
    def test_rational2_rounded_once(self, a, b):
        # oracle: c_k = sum_j A^j B^(k-j) in exact rationals, rounded once;
        # the first pair cancels 66 bits in (A^(k+1) - B^(k+1)) / (A - B)
        st = generate(builtin_spec("rational2", a, b), 40, 256)
        A, B = Fraction(a), Fraction(b)
        for k in range(41):
            ck = sum(A ** j * B ** (k - j) for j in range(k + 1))
            assert exact_fraction(theta(st, k)) == round_bits(ck, 256)

    def test_rational2_equal_values_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            builtin_spec("rational2", "3", "3.0")

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_nonfinite_parameter_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            builtin_spec("geometric", bad)

    def test_catalan(self):
        st = generate(builtin_spec("catalan"), 9, 128)
        assert [int(v) for v in st.values] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

    def test_user_moments(self):
        st = generate(builtin_spec("user-moments", "0.5", "-1", "2"), 2, 128)
        assert theta(st, 1) == -1
        with pytest.raises(CoeffIndexError):
            generate(builtin_spec("user-moments", "0.5"), 3, 128)

    def test_negative_index_convention(self):
        st = generate(builtin_spec("geometric", 1), 3, 128)
        assert theta(st, -1) == 0
        assert theta(st, -7) == 0

    def test_out_of_range_names_needed_length(self):
        st = generate(builtin_spec("geometric", 1), 3, 128)
        with pytest.raises(CoeffIndexError, match="stream with N >= 4"):
            theta(st, 4)

    def test_unknown_family(self):
        with pytest.raises(UnknownGeneratorError):
            builtin_spec("fibonacci")


class TestQuadrature:
    def test_known_geometric_series_to_40_digits(self):
        # 1/(1-z) on ring 1/2: every coefficient is exactly 1
        st = generate(analytic_spec("one-over-one-minus-z"), 16, 280)
        with workprec(320):
            for k in range(17):
                assert abs(theta(st, k) - 1) < mpf(10) ** -40, k

    def test_matches_closed_form_to_half_precision(self):
        # extraction of exp(s) coefficients vs the exponential closed form
        spec = FunctionSpec(name="exp-ring", kind="analytic",
                            pole_removal="exp(s)", ring_radius="1",
                            analyticity_radius="inf", generator_id="exp-ring")
        prec = 200
        st = generate(spec, 12, prec)
        ref = generate(builtin_spec("exponential"), 12, prec)
        with workprec(prec + 32):
            tol = mpf(2) ** (-(prec // 2))
            for k in range(13):
                a, b = theta(st, k), theta(ref, k)
                assert abs(a - b) <= tol * max(1, abs(b)), k

    def test_zeta_star_placeholder_values(self):
        st = generate(analytic_spec("zeta-star"), 4, 256)
        assert "PLACEHOLDER" in st.provenance
        with workprec(300):
            # g(0) = (0-1)*zeta(0) = 1/2; g'(0) = zeta(0) - zeta'(0)
            assert abs(theta(st, 0) - mpf(1) / 2) < mpf(10) ** -60
            expected1 = -mpf(1) / 2 + mp.log(2 * mp.pi) / 2
            assert abs(theta(st, 1) - expected1) < mpf(10) ** -60

    def test_ring_radius_must_be_inside_disc(self):
        spec = FunctionSpec(name="bad", kind="analytic",
                            pole_removal="1/(1-s)", ring_radius="1",
                            analyticity_radius="1", generator_id="bad")
        with pytest.raises(ValueError, match="strictly inside"):
            generate(spec, 3, 128)

    def test_log_near_singularity_matches_closed_form(self):
        # log(1 - s/a) with a just outside the unit ring: c_k = -1/(k a^k)
        spec = FunctionSpec(name="hard", kind="analytic",
                            pole_removal="log(1 - s/mpf('1.0000001'))",
                            ring_radius="1", analyticity_radius="1.0000001",
                            generator_id="hard")
        prec = 128
        st = generate(spec, 12, prec)
        with workprec(prec + 64):
            a = mpf("1.0000001")
            assert theta(st, 0) == 0
            for k in range(1, 13):
                ref = -1 / (k * a ** k)
                assert abs(theta(st, k) - ref) <= mpf(2) ** -(prec - 8) * abs(ref), k


class TestDeterminism:
    def test_bit_identical_streams(self):
        a = generate(analytic_spec("zeta-star"), 6, 192)
        b = generate(analytic_spec("zeta-star"), 6, 192)
        assert [x._mpf_ for x in a.values] == [x._mpf_ for x in b.values]

    def test_longer_geometric_stream(self):
        st = generate(builtin_spec("geometric", 1), 5, 128)
        with pytest.raises(CoeffIndexError):
            theta(st, 7)
        st2 = generate(builtin_spec("geometric", 1), 10, 128)
        assert theta(st2, 10) == 1
        assert theta(st2, 7) == 1

    def test_analytic_double_precision_consistent(self):
        st = generate(analytic_spec("zeta-star"), 6, 160)
        st2 = generate(analytic_spec("zeta-star"), 6, 320)
        assert st2.precision_bits == 320
        with workprec(360):
            tol = mpf(2) ** -(160 - 8)
            for k in range(7):
                assert abs(theta(st2, k) - theta(st, k)) <= tol * max(1, abs(theta(st, k)))


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        cd = str(tmp_path)
        a = generate(analytic_spec("zeta-star"), 5, 192, cache_dir=cd)
        assert os.listdir(cd) == ["%s_b192_f3.jsonl" % a.spec.spec_hash()]
        b = generate(analytic_spec("zeta-star"), 5, 192, cache_dir=cd)
        assert "[cache]" in b.provenance
        assert [x._mpf_ for x in a.values] == [x._mpf_ for x in b.values]

    def test_cache_prefix_reuse(self, tmp_path):
        cd = str(tmp_path)
        generate(builtin_spec("exponential"), 10, 128, cache_dir=cd)
        b = generate(builtin_spec("exponential"), 4, 128, cache_dir=cd)
        assert b.max_index == 4 and len(b.values) == 5

    def test_corrupted_cache_detected(self, tmp_path):
        # a gap in the indices, a malformed decimal, and a values line that
        # is JSON but not an object
        cases = (("k", 17), ("v", "1.0x"), (None, [1, 2]))
        for i, (key, bad) in enumerate(cases):
            cd = str(tmp_path / str(i))
            generate(builtin_spec("exponential"), 4, 128, cache_dir=cd)
            path = coeffs._cache_path(builtin_spec("exponential"), 128, cd)
            lines = open(path).read().splitlines()
            if key is None:
                lines[2] = json.dumps(bad)
            else:
                rec = json.loads(lines[2])
                rec[key] = bad
                lines[2] = json.dumps(rec, sort_keys=True)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            with pytest.raises(CacheCorruptionError):
                generate(builtin_spec("exponential"), 4, 128, cache_dir=cd)

    def test_different_precision_not_reused(self, tmp_path):
        cd = str(tmp_path)
        a = generate(builtin_spec("exponential"), 4, 128, cache_dir=cd)
        b = generate(builtin_spec("exponential"), 4, 256, cache_dir=cd)
        assert "[cache]" not in b.provenance
        assert b.precision_bits == 256

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_older_layout_not_read(self, sidecar, tmp_path):
        # values under the name of the layout with a sidecar manifest
        cd = str(tmp_path)
        spec = analytic_spec("one-over-one-minus-z")
        h = spec.spec_hash()
        with open(os.path.join(cd, "%s_b128.jsonl" % h), "w") as fh:
            for k in range(5):
                fh.write(json.dumps({"bits": 128, "k": k, "v": "7"}) + "\n")
        if sidecar:
            with open(os.path.join(cd, "%s.manifest.json" % h), "w") as fh:
                json.dump({"format": 2, "provenance": "planted",
                           "spec_hash": h}, fh)
        st = generate(spec, 4, 128, cache_dir=cd)
        assert "[cache]" not in st.provenance
        assert list(st.values) == [1] * 5
        again = generate(spec, 4, 128, cache_dir=cd)
        assert again.provenance == st.provenance + " [cache]"
        assert list(again.values) == [1] * 5

    @pytest.mark.parametrize("spec", [builtin_spec("exponential"),
                                      analytic_spec("one-over-one-minus-z")],
                             ids=["builtin", "analytic"])
    def test_hit_provenance_is_computed_plus_cache(self, spec, tmp_path):
        cd = str(tmp_path)
        computed = generate(spec, 4, 128, cache_dir=cd)
        hit = generate(spec, 4, 128, cache_dir=cd)
        assert hit.provenance == computed.provenance + " [cache]"
        assert computed.provenance == generate(spec, 4, 128).provenance


class TestStreamBlocks:
    """Analytic streams are evaluated to a whole block of 8 coefficients."""

    @staticmethod
    def _counting(monkeypatch, fail=None):
        jet_values = coeffs._jet_values
        calls = []

        def counting(spec, N, prec):
            calls.append(N)
            if fail is not None and len(calls) == 1:
                raise fail
            return jet_values(spec, N, prec)

        monkeypatch.setattr(coeffs, "_jet_values", counting)
        return calls

    def test_n32_then_n33_share_one_evaluation(self, tmp_path, monkeypatch):
        spec = analytic_spec("zeta-star")
        exact = coeffs._jet_values(spec, 33, 256)
        calls = self._counting(monkeypatch)
        cd = str(tmp_path)
        a = generate(spec, 32, 256, cache_dir=cd)
        b = generate(spec, 33, 256, cache_dir=cd)
        assert calls == [39]
        assert (a.max_index, b.max_index) == (32, 33)
        assert "[cache]" in b.provenance
        assert [x._mpf_ for x in b.values] == [x._mpf_ for x in exact]
        assert [x._mpf_ for x in a.values] == [x._mpf_ for x in exact[:33]]
        vpath = coeffs._cache_path(spec, 256, cd)
        assert len(open(vpath).read().splitlines()) == 40

    def test_builtin_streams_exact_length(self, tmp_path):
        cd = str(tmp_path)
        generate(builtin_spec("exponential"), 9, 128, cache_dir=cd)
        vpath = coeffs._cache_path(builtin_spec("exponential"), 128, cd)
        assert len(open(vpath).read().splitlines()) == 10
        assert generate(builtin_spec("user-moments", "1", "2"), 1, 128).values \
            == (1, 2)

    @pytest.mark.parametrize("fail", [
        StreamValidationError("planted", first_failure=12),
        ComplexStreamError("planted", first_failure=15),
        StreamValidationError("planted cutoff failure"),
    ], ids=["disagreement", "complex", "no-index"])
    def test_failure_above_n_falls_back_to_exact_n(self, fail, tmp_path,
                                                   monkeypatch):
        spec = analytic_spec("one-over-one-minus-z")
        calls = self._counting(monkeypatch, fail)
        st = generate(spec, 9, 128, cache_dir=str(tmp_path))
        assert calls == [15, 9]
        assert st.max_index == 9 and list(st.values) == [1] * 10
        again = generate(spec, 9, 128, cache_dir=str(tmp_path))
        assert calls == [15, 9] and "[cache]" in again.provenance

    def test_failure_at_or_below_n_raised(self, monkeypatch):
        spec = analytic_spec("one-over-one-minus-z")
        calls = self._counting(
            monkeypatch, StreamValidationError("planted", first_failure=9))
        with pytest.raises(StreamValidationError, match="planted"):
            generate(spec, 9, 128)
        assert calls == [15]


def _series_spec(expr, s0=("0", "0"), ring="1", analyticity="inf"):
    return FunctionSpec(name="series-test", kind="analytic", s0=s0,
                        pole_removal=expr, ring_radius=ring,
                        analyticity_radius=analyticity, generator_id="series-test")


def _zeta_star_derivatives(N, prec):
    """(s-1)*zeta(s) at 0 from mpmath's derivatives a_j = zeta^(j)(0)/j!."""
    with workprec(2 * prec + 64):
        a = [mp.zeta(0, 1, j) / mp.factorial(j) for j in range(N + 1)]
        return [(a[k - 1] if k else 0) - a[k] for k in range(N + 1)]


def _assert_close(values, refs, bits):
    with workprec(2 * bits + 64):
        for k, (v, r) in enumerate(zip(values, refs)):
            assert abs(v - r) <= mpf(2) ** -bits * max(1, abs(r)), k


class TestSeriesOracles:
    """Analytic streams against references that share no code with them."""

    @pytest.mark.parametrize("N", [16, 64])
    def test_zeta_star_full_precision_and_quadrature(self, N):
        prec = 256
        stream = generate(analytic_spec("zeta-star"), N, prec)
        _assert_close(stream.values, _zeta_star_derivatives(N, prec), prec - 8)
        quad = ring_quadrature(lambda s: (s - 1) * mp.zeta(s), 0, 1, N,
                               2 * (N + 1) + 16, prec)
        _assert_close(stream.values, [q.real for q in quad], prec // 2)

    def test_zeta_pole_removed_at_one_gives_stieltjes(self):
        # (s-1)*zeta(s) = 1 + sum_n (-1)^n gamma_n (s-1)^(n+1) / n!
        prec, N = 256, 12
        stream = generate(_series_spec("(s-1)*zeta(s)", s0=("1", "0")), N, prec)
        with workprec(2 * prec + 64):
            refs = [mpf(1)] + [(-1) ** n * mp.stieltjes(n) / mp.factorial(n)
                               for n in range(N)]
        _assert_close(stream.values, refs, prec - 8)

    def test_gamma_pole_removed_at_zero(self):
        prec, N = 256, 12
        stream = generate(_series_spec("s*gamma(s)", ring="0.5"), N, prec)
        with workprec(2 * prec + 64):
            refs = mp.taylor(lambda x: mp.gamma(1 + x), 0, N)
        _assert_close(stream.values, refs, prec - 8)

    @pytest.mark.parametrize("expr, f", [
        ("zeta(2 + s*s)", lambda x: mp.zeta(2 + x * x)),
        ("gamma(exp(s) + s*s)", lambda x: mp.gamma(mp.exp(x) + x * x)),
    ], ids=["zeta", "gamma"])
    def test_composition_with_a_nonlinear_inner_series(self, expr, f):
        # the inner series is not a*h, so the outer series is composed by
        # Horner's rule rather than by scaling
        prec, N = 128, 6
        stream = generate(_series_spec(expr, ring="0.5", analyticity="1"),
                          N, prec)
        with workprec(prec + 64):
            refs = mp.taylor(f, 0, N)
        _assert_close(stream.values, refs, prec - 8)

    def test_one_over_one_minus_z_exact(self):
        stream = generate(analytic_spec("one-over-one-minus-z"), 40, 256)
        assert list(stream.values) == [1] * 41

    def test_pole_left_in_expression_raises(self):
        with pytest.raises(ValueError, match="pole of order 1"):
            generate(_series_spec("zeta(s)", s0=("1", "0")), 4, 128)

    def test_complex_coefficients_rejected(self):
        spec = _series_spec("exp(s)", s0=("0.5", "1"))
        with pytest.raises(ValueError, match="must be real"):
            generate(spec, 4, 128)

    def test_disagreement_between_precisions_raises(self, monkeypatch):
        prec = 128
        real_zeta = coeffs._series_zeta

        def skewed(z, rho):
            out = real_zeta(z, rho)
            if mp.prec == prec + coeffs.JET_GUARD_BITS[1]:
                out = out * (1 + mpf(2) ** -(prec - 4))
            return out

        monkeypatch.setattr(coeffs, "_series_zeta", skewed)
        with pytest.raises(StreamValidationError) as exc:
            generate(analytic_spec("zeta-star"), 6, prec)
        assert exc.value.first_failure == 0


def _jet(s0, n=8):
    return coeffs._Jet(0, [mpf(s0), mpf(1)] + [mpf(0)] * (n - 2))


def _assert_jet(x, coeffs_, bits):
    got = x.dense(0, len(coeffs_)) if isinstance(x, coeffs._Jet) else [x]
    for k, (a, b) in enumerate(zip(got, coeffs_)):
        assert abs(a - b) <= mpf(2) ** -bits * max(1, abs(b)), (k, a, b)


_S0 = st_.floats(min_value=-3, max_value=3, allow_nan=False).map(
    lambda x: round(x, 6))


class TestJetProperties:
    """Series identities at random real expansion points, 8 coefficients."""

    @settings(max_examples=25, deadline=None)
    @given(_S0)
    def test_exp_of_log(self, s0):
        with workprec(160):
            h = _jet(s0) - mpf(s0)
            _assert_jet(coeffs._exp(coeffs._log(1 + h)), [1, 1] + [0] * 6, 150)

    @settings(max_examples=25, deadline=None)
    @given(_S0)
    def test_sin_squared_plus_cos_squared(self, s0):
        with workprec(160):
            x = _jet(s0)
            _assert_jet(coeffs._sin(x) ** 2 + coeffs._cos(x) ** 2,
                        [1] + [0] * 7, 150)

    @settings(max_examples=25, deadline=None)
    @given(st_.floats(min_value=0.05, max_value=3).map(lambda x: round(x, 6)))
    def test_sqrt_squared(self, s0):
        with workprec(160):
            x = _jet(s0)
            _assert_jet(coeffs._sqrt(x) ** 2, x.dense(0, 8), 140)

    @settings(max_examples=15, deadline=None)
    @given(_S0.filter(lambda x: min(abs(x + n) for n in range(4)) > 0.25))
    def test_gamma_recurrence(self, s0):
        # a quarter away from the poles, the h^7 coefficients of gamma stay
        # below 4^8 = 2^16, so cancellation costs at most 16 of the 160 bits
        with workprec(160):
            x = _jet(s0)
            lhs = coeffs._gamma(x + 1)
            rhs = x * coeffs._gamma(x)
            _assert_jet(lhs, rhs.dense(0, 8), 130)


class TestSpecParsing:
    def test_tokens(self):
        assert parse_func_token("geometric:0.5").family == "geometric"
        assert parse_func_token("rational2:2,1").params == ("2", "1")
        assert parse_func_token("catalan").family == "catalan"
        assert parse_func_token("zeta-star").kind == "analytic"
        with pytest.raises(UnknownGeneratorError):
            parse_func_token("nope")

    def test_analytic_config_file(self, tmp_path):
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps({
            "name": "shifted-geometric",
            "expression": "1/(1-s/2)",
            "s0": ["0", "0"],
            "ring_radius": "1",
            "analyticity_radius": "2",
        }))
        spec = load_analytic_config(str(cfg))
        st = generate(spec, 6, 160)
        with workprec(200):
            for k in range(7):
                assert abs(theta(st, k) - mpf(2) ** -k) < mpf(2) ** -70

    def test_spec_hash_stability(self):
        a = analytic_spec("zeta-star")
        b = analytic_spec("zeta-star")
        assert a.spec_hash() == b.spec_hash()
        c = builtin_spec("geometric", 1)
        assert c.spec_hash() != a.spec_hash()
        # cache file names are these hashes: a change orphans every cache
        assert c.spec_hash() == "da322fba5d2f8f3a"
        assert a.spec_hash() == "2a07cc6a501f3c31"
        # the display name and the analyticity radius do not move values
        assert replace(a, name="other", analyticity_radius="3") \
            .spec_hash() == a.spec_hash()
