import concurrent.futures
import io
import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from hankelspectra import (
    LogSpectrum,
    SpectrumRecord,
    builtin_spec,
    compute_spectrum,
    generate,
    log_spectrum,
    pairing_stats,
    spectra_csv,
    split,
    sweep,
    theta,
    trace,
)
from hankelspectra import analytic_spec, signed_hankel
from hankelspectra import mpnum
from hankelspectra import spectra as spectra_mod
from hankelspectra.coeffs import CacheCorruptionError
from hankelspectra.hankel import StreamTooShortError
from hankelspectra.mpnum import (
    ConvergenceError,
    IdentityError,
    accept_level,
    sym_eigenvalues,
)

from conftest import bisect_roots, char_poly, eigsy_oracle

# frozen regression: placeholder stream, l=1, m=8, 30 requested digits
ZETA_STAR_DET_L1_M8 = "4.15791193788324566747124970952e-5"


def mk_log_spectrum(points, m=None, zero_count=0, prec=256):
    pts = tuple(sorted(mpf(p) for p in points))
    m = m if m is not None else len(pts) + zero_count
    return LogSpectrum(l=1, m=m, points=pts, zero_count=zero_count,
                       precision_bits=prec)


class TestComputeSpectrum:
    def test_1x1(self):
        st = generate(builtin_spec("user-moments", "0", "0.7"), 1, 128)
        rec = compute_spectrum(st, 1, 1, 30)
        c = theta(st, 1)
        assert rec.eigenvalues == (c,)
        assert rec.det == c

    def test_geometric_ones_rank_one(self, geo1_stream):
        rec = compute_spectrum(geo1_stream, 1, 2, 30)
        assert rec.eigenvalues == (mpf(-2), mpf(0))
        assert rec.det == 0
        assert rec.zero_count == 1

    def test_exponential_m3_vs_charpoly_oracle(self, exp_stream):
        rec = compute_spectrum(exp_stream, 1, 3, 30)
        # -1 * [[1/6,1/2,1],[1/2,1,1],[1,1,0]] as exact rationals
        rows = [[Fraction(-1, 6), Fraction(-1, 2), Fraction(-1)],
                [Fraction(-1, 2), Fraction(-1), Fraction(-1)],
                [Fraction(-1), Fraction(-1), Fraction(0)]]
        roots = bisect_roots(char_poly(rows), -4, 4, 3, digits=40)
        with workprec(400):
            for e, r in zip(rec.eigenvalues, roots):
                assert abs(e - r) < abs(r) * mpf(10) ** -30

    def test_identity_enforced(self, exp_stream):
        for m in (2, 4, 6):
            rec = compute_spectrum(exp_stream, 1, m, 30)
            with workprec(rec.precision_used + 32):
                prod = mpf(1)
                for e in rec.eigenvalues:
                    prod *= e
                scale = max(abs(prod), abs(rec.det))
                assert abs(prod - rec.det) <= mpf(10) ** -30 * scale

    def test_trace_identity(self, exp_stream):
        rec = compute_spectrum(exp_stream, 2, 5, 30)
        A = signed_hankel(exp_stream, 2, 5).matrix
        with workprec(rec.precision_used + 32):
            s = sum(rec.eigenvalues, mpf(0))
            tr = trace(A, rec.precision_used)
            assert abs(s - tr) <= mpf(10) ** -30 * max(abs(s), abs(tr), mpf(1))


# at 256 bits these two levels have a zero-at-precision that the exact
# nullity (0) does not prove, so their records must resolve it
_RELATIVE_SIZES = [("exponential", 56), ("exponential", 64)]
_ORACLE_SIZES = ([("exponential", m) for m in range(1, 34)]
                 + [("catalan", m) for m in range(2, 41)]
                 + [("zeta-star", m) for m in (8, 16, 32, 64)]
                 + _RELATIVE_SIZES)


@pytest.fixture(scope="module")
def oracle_streams():
    return {"exponential": generate(builtin_spec("exponential"), 64, 256),
            "catalan": generate(builtin_spec("catalan"), 40, 256),
            "zeta-star": generate(analytic_spec("zeta-star"), 64, 256)}


class TestLadderStartOracle:
    """30-digit records, whose ladder starts at 128 bits, against mpmath's
    eigsy at 2*prec + 64 bits and against the zero count of a 512-bit
    level; the records of ``_RELATIVE_SIZES`` have no zero and agree to
    10^-30 relative on every eigenvalue."""

    @pytest.mark.parametrize("name, m", _ORACLE_SIZES,
                             ids=["%s-%d" % nm for nm in _ORACLE_SIZES])
    def test_record_vs_oracles(self, oracle_streams, name, m):
        stream = oracle_streams[name]
        rec = compute_spectrum(stream, 1, m, 30)
        A = signed_hankel(stream, 1, m).matrix
        oracle = eigsy_oracle(A.entries, rec.precision_used)
        relative = (name, m) in _RELATIVE_SIZES
        if relative:
            assert rec.zero_count == 0
        with workprec(2 * rec.precision_used + 64):
            # relative to 10^-30, absolute below it unless relative
            tiny = mpf(10) ** -30
            for mu, o in zip(rec.eigenvalues, oracle):
                scale = max(abs(mu), abs(o))
                bound = tiny * scale if relative or scale > tiny else tiny
                assert abs(mu - o) <= bound, (mu, o)
        high = sym_eigenvalues(A, 512).eigenvalues
        _, floor, _ = accept_level(A, high, 512)
        assert rec.zero_count == sum(1 for mu in high if abs(mu) <= floor)


class TestLogSpectrum:
    def _rec(self, eigs, thr="1e-70"):
        eigs = tuple(sorted(e if isinstance(e, mpf) else mpf(e) for e in eigs))
        with workprec(256):
            thr = mpf(thr)
        return SpectrumRecord(
            l=1, m=len(eigs), function_id="synthetic", eigenvalues=eigs,
            precision_used=256, target_digits=30, det=mpf(1),
            zero_threshold=thr,
        )

    def test_plus_minus_e(self):
        with workprec(256):
            e = +mp.e
            minus_e = -e
        ls = log_spectrum(self._rec([minus_e, e]))
        assert ls.zero_count == 0
        with workprec(256):
            for p in ls.points:
                assert abs(p - 1) < mpf(2) ** -250

    def test_zero_excluded_counted(self):
        ls = log_spectrum(self._rec([-2, 0]))
        assert ls.zero_count == 1
        with workprec(256):
            assert abs(ls.points[0] - mp.log(2)) < mpf(2) ** -250

    def test_unit_eigenvalue(self):
        ls = log_spectrum(self._rec([1]))
        assert ls.points == (mpf(0),)

    def test_count_invariant(self, exp_stream):
        for m in (1, 3, 5):
            ls = log_spectrum(compute_spectrum(exp_stream, 1, m, 30))
            assert len(ls.points) + ls.zero_count == m


class TestSplit:
    def test_largest_gap(self):
        sp = split(mk_log_spectrum([-10, -9, 5, 6]))
        assert sp.electrons == (mpf(-10), mpf(-9))
        assert sp.trains == (mpf(5), mpf(6))
        assert sp.policy_id == "largest-gap"
        assert float(sp.cut) == -2.0

    def test_threshold(self):
        sp = split(mk_log_spectrum([-1, 1]), policy="threshold", value=0)
        assert sp.electrons == (mpf(-1),)
        assert sp.trains == (mpf(1),)

    def test_threshold_cut_parsed_at_working_precision(self):
        # at 53 bits the cut "0.1" reads 5.6e-18 above 0.1, so x >= 0.1
        # fell below it
        with workprec(256):
            x = mpf("0.1") + mpf("1e-30")
        ls = LogSpectrum(l=1, m=2, points=(mpf(-1), x), zero_count=0,
                         precision_bits=256)
        sp = split(ls, policy="threshold", value="0.1")
        assert sp.electrons == (mpf(-1),)
        assert sp.trains == (x,)

    def test_degenerate_all_equal(self):
        with pytest.warns(UserWarning, match="degenerate"):
            sp = split(mk_log_spectrum([0, 0, 0]))
        assert sp.electrons == ()
        assert len(sp.trains) == 3
        assert sp.warning is not None

    def test_single_point_all_trains(self):
        with pytest.warns(UserWarning):
            sp = split(mk_log_spectrum([2.5]))
        assert sp.trains == (mpf("2.5"),)

    def test_quantile(self):
        sp = split(mk_log_spectrum([0, 1, 2, 3]), policy="quantile", value=0.5)
        assert sp.electrons == (mpf(0), mpf(1))

    def test_partition_invariant(self, rng):
        pts = sorted(mpf(rng.uniform(-20, 20)) for _ in range(15))
        for policy, value in (("largest-gap", None), ("threshold", 0),
                              ("quantile", 0.3)):
            sp = split(mk_log_spectrum(pts), policy=policy, value=value)
            assert sorted(sp.electrons + sp.trains) == pts
            if sp.electrons and sp.trains:
                assert max(sp.electrons) < min(sp.trains)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split(mk_log_spectrum([], m=1, zero_count=1))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            split(mk_log_spectrum([1, 2]), policy="mystery")


class TestPairing:
    def test_paired_points(self):
        st = pairing_stats([mpf(0), mpf("0.01"), mpf(5), mpf("5.01")])
        assert float(st.intra_median) == pytest.approx(0.01, rel=1e-10)
        assert float(st.inter_median) == pytest.approx(4.99, rel=1e-10)
        assert float(st.ratio) == pytest.approx(0.01 / 4.99, rel=1e-9)

    def test_equally_spaced(self):
        st = pairing_stats([mpf(1), mpf(2), mpf(3), mpf(4)])
        assert st.ratio == 1

    def test_too_few(self):
        with pytest.raises(ValueError):
            pairing_stats([mpf(1), mpf(2), mpf(3)])


class TestSweep:
    def test_dims(self, geo1_stream):
        res = sweep(geo1_stream, 1, range(1, 4), 30)
        assert [r.m for r in res.records] == [1, 2, 3]
        assert [len(r.eigenvalues) for r in res.records] == [1, 2, 3]
        assert res.failures == {}

    def test_jobs_determinism(self, exp_stream):
        a = sweep(exp_stream, 1, range(1, 7), 30, jobs=1)
        b = sweep(exp_stream, 1, range(1, 7), 30, jobs=2)
        for ra, rb in zip(a.records, b.records):
            assert [x._mpf_ for x in ra.eigenvalues] == \
                [x._mpf_ for x in rb.eigenvalues]
            assert ra.det._mpf_ == rb.det._mpf_

    def test_single_m_starts_no_pool(self, exp_stream, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started for one m")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        res = sweep(exp_stream, 1, [4], 30, jobs=2)
        assert [r.m for r in res.records] == [4]

    def test_pool_has_at_most_one_worker_per_record(self, exp_stream,
                                                    monkeypatch):
        started = []

        class FakePool:
            # runs the tasks in this process: no worker is forked
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        res = sweep(exp_stream, 1, [2, 3], 30, jobs=4)
        assert started == [2]
        assert [r.m for r in res.records] == [2, 3]

    def test_failure_recorded_without_abort(self, zeta_star_stream,
                                            monkeypatch):
        # a tiny precision cap fails larger m but leaves small m intact
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", 128)
        res = sweep(zeta_star_stream, 1, range(1, 4), 30)
        assert 1 not in res.failures
        assert res.failures, "expected at least one capped failure"
        assert [r.m for r in res.records] + sorted(res.failures) == [1, 2, 3]

    def test_convergence_failure_recorded_without_abort(self, exp_stream,
                                                        monkeypatch):
        solve = spectra_mod.adaptive_solve

        def failing_at_3(A, *args, **kwargs):
            if A.dim == 3:
                raise ConvergenceError("QL did not converge")
            return solve(A, *args, **kwargs)

        monkeypatch.setattr(spectra_mod, "adaptive_solve", failing_at_3)
        res = sweep(exp_stream, 1, range(1, 6), 30, jobs=1)
        assert [r.m for r in res.records] == [1, 2, 4, 5]
        assert list(res.failures) == [3]
        assert res.failures[3].startswith("ConvergenceError")

    def test_exactly_singular_analytic_accepted_at_once(self, tmp_path,
                                                        monkeypatch):
        # 1/(1-z) has Hankel matrices of nullity 1 for m >= 2: the exact
        # nullity proves the one zero at the first agreeing level, so one
        # solve accepts the record instead of a ladder up to the cap
        stream = generate(analytic_spec("one-over-one-minus-z"), 3, 256,
                          cache_dir=str(tmp_path))
        solve = spectra_mod.adaptive_solve
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.dim)
            return solve(A, *args, **kwargs)

        monkeypatch.setattr(spectra_mod, "adaptive_solve", counting)
        for m in (2, 3):
            calls.clear()
            rec = compute_spectrum(stream, 1, m, 30)
            assert calls == [m]
            assert rec.precision_used == 256
            assert rec.zero_count == 1

    def test_stream_coverage_validated(self, exp_stream):
        with pytest.raises(ValueError, match="index"):
            sweep(exp_stream, 20, range(1, 10), 30)

    def test_short_stream_raises_before_any_solve(self, exp_stream,
                                                  monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("a spectrum was computed")

        monkeypatch.setattr(spectra_mod, "adaptive_solve", no_solve)
        top = exp_stream.max_index
        with pytest.raises(StreamTooShortError, match=str(top + 1)):
            sweep(exp_stream, 2, range(1, top + 1), 30)

    def test_csv_deterministic_with_zero_sentinel(self, geo1_stream):
        res = sweep(geo1_stream, 1, range(1, 4), 30)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            spectra_csv(res.records, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        header, *rows = bufs[0].splitlines()
        assert header == "l,m,n,mu,ln_abs_mu,precision_bits"
        assert len(rows) == 1 + 2 + 3
        assert any(",ZERO," in r for r in rows)


class TestIdentityLadder:
    """The identity is judged inside the one precision ladder."""

    @staticmethod
    def _levels(monkeypatch):
        jacobi = mpnum.sym_eigenvalues
        bits = []

        def counting(A, prec, *args, **kwargs):
            bits.append(prec)
            return jacobi(A, prec, *args, **kwargs)

        monkeypatch.setattr(mpnum, "sym_eigenvalues", counting)
        return bits

    def test_identity_failure_continues_from_agreeing_level(self, exp_stream,
                                                            monkeypatch):
        det_lu = mpnum.det_lu
        wrong = []

        def wrong_once(A, prec):
            det = det_lu(A, prec)
            if not wrong:
                wrong.append(prec)
                return 2 * det
            return det

        bits = self._levels(monkeypatch)
        monkeypatch.setattr(mpnum, "det_lu", wrong_once)
        rec = compute_spectrum(exp_stream, 1, 3, 30)
        assert wrong == [256]
        assert bits == [128, 256, 512]
        assert rec.precision_used == 512

    @pytest.mark.parametrize("analytic", [True, False])
    def test_zero_at_precision_once(self, analytic, exp_stream,
                                    zeta_star_stream, monkeypatch):
        # records of every kind of stream continue the ladder past a
        # zero-at-precision that the exact nullity (0) does not prove
        state = mpnum._identity_state
        calls = []

        def one_zero_once(eigs, det, floor, prec):
            ok, zeros, prod = state(eigs, det, floor, prec)
            calls.append(prec)
            return (ok, 1, prod) if len(calls) == 1 else (ok, zeros, prod)

        bits = self._levels(monkeypatch)
        monkeypatch.setattr(mpnum, "_identity_state", one_zero_once)
        rec = compute_spectrum(zeta_star_stream if analytic else exp_stream,
                               1, 3, 30)
        assert bits == [128, 256, 512]
        assert calls == [256, 512]
        assert rec.precision_used == 512

    def test_identity_failing_everywhere_names_cap(self, exp_stream,
                                                   monkeypatch):
        det_lu = mpnum.det_lu
        monkeypatch.setattr(mpnum, "det_lu", lambda A, prec: 2 * det_lu(A, prec))
        bits = self._levels(monkeypatch)
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", 1024)
        with pytest.raises(IdentityError,
                           match="disagrees with the determinant at 1024 bits; "
                                 "precision cap 1024 reached"):
            compute_spectrum(exp_stream, 1, 3, 30)
        assert bits == [128, 256, 512, 1024]


def _record_files(cache_dir):
    d = os.path.join(cache_dir, "records")
    return [os.path.join(d, f) for f in sorted(os.listdir(d))]


def _csv(records):
    buf = io.StringIO()
    spectra_csv(records, buf)
    return buf.getvalue()


class TestRecordStore:
    """Records stored under <cache_dir>/records and judged again on load."""

    @staticmethod
    def _solves(monkeypatch):
        solve = spectra_mod.adaptive_solve
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.dim)
            return solve(A, *args, **kwargs)

        monkeypatch.setattr(spectra_mod, "adaptive_solve", counting)
        return calls

    def test_reload_skips_solve_and_keys_every_input(self, exp_stream,
                                                     tmp_path, monkeypatch):
        cd = str(tmp_path)
        first = sweep(exp_stream, 1, range(1, 5), 30, cache_dir=cd)
        assert len(_record_files(cd)) == 4
        calls = self._solves(monkeypatch)
        again = sweep(exp_stream, 1, range(2, 6), 30, cache_dir=cd)
        assert calls == [5]
        assert _csv(again.records[:3]) == _csv(first.records[1:])
        # another l, digit target, cap or bit of a coefficient that the
        # matrix reads (l=1, m=2 reads indices 0..2) is another record
        def tweak(k):
            vals = list(exp_stream.values)
            with workprec(256):
                vals[k] *= 1 + mpf(2) ** -250
            return replace(exp_stream, values=tuple(vals))

        sweep(exp_stream, 2, [2], 30, cache_dir=cd)
        sweep(exp_stream, 1, [2], 31, cache_dir=cd)
        with monkeypatch.context() as patch:
            patch.setattr(mpnum, "DEFAULT_PREC_CAP", 4096)
            sweep(exp_stream, 1, [2], 30, cache_dir=cd)
        sweep(tweak(2), 1, [2], 30, cache_dir=cd)
        sweep(tweak(3), 1, [2], 30, cache_dir=cd)
        assert calls == [5, 2, 2, 2, 2]
        assert len(_record_files(cd)) == 9

    def test_reload_at_256_bits_takes_one_det_lu(self, exp_stream, tmp_path,
                                                 monkeypatch):
        # 30 digits start the ladder at 128 bits, so exponential m=4 is
        # accepted at 256, and its reload is judged by one det_lu there
        cd = str(tmp_path)
        first = sweep(exp_stream, 1, [4], 30, cache_dir=cd)
        (path,) = _record_files(cd)
        assert json.load(open(path))["precision_used"] == 256
        calls = self._solves(monkeypatch)
        kernels = []
        for name in ("det_lu", "sym_eigenvalues"):
            def counting(A, prec, fn=getattr(mpnum, name), name=name):
                kernels.append((name, prec))
                return fn(A, prec)
            monkeypatch.setattr(mpnum, name, counting)
        again = sweep(exp_stream, 1, [4], 30, cache_dir=cd)
        assert calls == []
        assert kernels == [("det_lu", 256)]
        assert _csv(again.records) == _csv(first.records)

    def test_format_1_key_misses(self, exp_stream, tmp_path, monkeypatch):
        # a record stored under format 1 at 512 bits is on the 30-digit
        # ladder 128, 256, 512, ... and would load; format 2 keys miss it
        cd = str(tmp_path)
        rec = compute_spectrum(exp_stream, 1, 4, 30)
        high = sym_eigenvalues(signed_hankel(exp_stream, 1, 4).matrix, 512)
        old = replace(rec, eigenvalues=high.eigenvalues, precision_used=512)
        monkeypatch.setattr(spectra_mod, "RECORD_FORMAT", 1)
        spectra_mod._store_record(old, spectra_mod._record_path(
            exp_stream, 1, 4, 30, cd))
        assert sweep(exp_stream, 1, [4], 30,
                     cache_dir=cd).records[0].precision_used == 512
        monkeypatch.setattr(spectra_mod, "RECORD_FORMAT", 2)
        calls = self._solves(monkeypatch)
        again = sweep(exp_stream, 1, [4], 30, cache_dir=cd)
        assert calls == [4]
        assert again.records[0].precision_used == 256
        assert len(_record_files(cd)) == 2

    def test_altered_eigenvalue_recomputed(self, exp_stream, tmp_path,
                                           monkeypatch):
        cd = str(tmp_path)
        first = sweep(exp_stream, 1, [4], 30, cache_dir=cd)
        (path,) = _record_files(cd)
        stored = open(path).read()
        doc = json.loads(stored)
        top = doc["eigenvalues"][-1]
        assert top[0] == 0          # positive: doubling keeps the order
        top[2] += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        calls = self._solves(monkeypatch)
        again = sweep(exp_stream, 1, [4], 30, cache_dir=cd)
        assert calls == [4]
        assert _csv(again.records) == _csv(first.records)
        assert open(path).read() == stored

    @pytest.mark.parametrize("analytic", [True, False])
    def test_reload_zero_at_precision(self, analytic, exp_stream,
                                      zeta_star_stream, tmp_path,
                                      monkeypatch):
        # the reload meets the rule of the ladder: a zero-at-precision
        # that the exact nullity does not prove rejects the record, which
        # is computed again
        stream = zeta_star_stream if analytic else exp_stream
        cd = str(tmp_path)
        first = sweep(stream, 1, [3], 30, cache_dir=cd)
        state = mpnum._identity_state
        checks = []

        def one_zero_once(eigs, det, floor, prec):
            ok, zeros, prod = state(eigs, det, floor, prec)
            checks.append(prec)
            return (ok, 1, prod) if len(checks) == 1 else (ok, zeros, prod)

        monkeypatch.setattr(mpnum, "_identity_state", one_zero_once)
        calls = self._solves(monkeypatch)
        again = sweep(stream, 1, [3], 30, cache_dir=cd)
        assert calls == [3]
        assert _csv(again.records) == _csv(first.records)

    def test_false_zero_record_recomputed(self, oracle_streams, tmp_path,
                                          monkeypatch):
        # exponential m=56 was accepted at 256 bits with a zero-at-precision
        # before zeros had to match the exact nullity; that stored record
        # has the same key, fails the rule on load and is overwritten
        stream = oracle_streams["exponential"]
        cd = str(tmp_path)
        A = signed_hankel(stream, 1, 56).matrix
        low = sym_eigenvalues(A, 256).eigenvalues
        _, floor, reason = accept_level(A, low, 256)
        assert sum(1 for mu in low if abs(mu) <= floor) == 1
        assert reason == ("1 eigenvalue(s) not resolvable above the "
                          "roundoff floor at 256 bits")
        path = spectra_mod._record_path(stream, 1, 56, 30, cd)
        old = SpectrumRecord(l=1, m=56, function_id=stream.spec.name,
                             eigenvalues=low, precision_used=256,
                             target_digits=30, det=mpf(0),
                             zero_threshold=floor)
        spectra_mod._store_record(old, path)
        calls = self._solves(monkeypatch)
        res = sweep(stream, 1, [56], 30, cache_dir=cd)
        assert calls == [56]
        (rec,) = res.records
        assert rec.precision_used == 512
        assert rec.zero_count == 0
        assert _record_files(cd) == [path]
        assert json.load(open(path))["precision_used"] == 512

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({"precision_used": 512}),
        lambda text: json.dumps({"precision_used": 500,
                                 "eigenvalues": json.loads(text)["eigenvalues"]}),
        # 64 bits is a level of the ladder only below 20 digits
        lambda text: json.dumps(dict(json.loads(text), precision_used=64)),
        lambda text: json.dumps(dict(json.loads(text), eigenvalues=[])),
        lambda text: json.dumps(dict(json.loads(text), eigenvalues=[
            [0, "2", 0, 2]] + json.loads(text)["eigenvalues"][1:])),
        lambda text: json.dumps(dict(json.loads(text), eigenvalues=
                                     json.loads(text)["eigenvalues"][::-1])),
    ], ids=["truncated", "no-eigenvalues", "off-ladder", "below-start",
            "count", "not-normalised", "order"])
    def test_unreadable_record_raises(self, damage, exp_stream, tmp_path):
        cd = str(tmp_path)
        sweep(exp_stream, 1, [3], 30, cache_dir=cd)
        (path,) = _record_files(cd)
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(damage(text))
        with pytest.raises(CacheCorruptionError, match="unreadable record"):
            sweep(exp_stream, 1, [3], 30, cache_dir=cd)


class TestPlaceholderRegression:
    def test_smoke_sweep_completes_and_caches(self, tmp_path):
        spec = analytic_spec("zeta-star")
        stream = generate(spec, 14, 256, cache_dir=str(tmp_path))
        res = sweep(stream, 1, range(1, 13), 30)
        assert res.failures == {}
        assert len(res.records) == 12
        rec8 = [r for r in res.records if r.m == 8][0]
        with workprec(300):
            frozen = mpf(ZETA_STAR_DET_L1_M8)
            assert abs(rec8.det - frozen) < abs(frozen) * mpf(10) ** -25
        # cached stream reload is bit-identical
        again = generate(spec, 14, 256, cache_dir=str(tmp_path))
        assert [x._mpf_ for x in again.values] == \
            [x._mpf_ for x in stream.values]
