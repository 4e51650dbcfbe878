"""Tests of the benchmark's oracles, checks, span metrics and compare command.

Run from the checkout root:  python3 -m pytest -q perfbench

Each output check is shown to pass on the program's real output for a
small configuration and to fail on a planted error: one eigenvalue or
report value moved by 1e-20 relative, or the coefficient index shifted.
"""

import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf, workprec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks    # noqa: E402
import compare   # noqa: E402
import oracles   # noqa: E402
import spans     # noqa: E402
from hankelspectra.figio import cli   # noqa: E402


def _cli(argv):
    assert cli(argv) in (0, 1)


def _nudge(decimal, rel="1e-20"):
    with workprec(1024):
        return mp.nstr(mpf(decimal) * (1 + mpf(rel)), 120)


# ---------------------------------------------------------------------------
# oracles


def _cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(5)
    for n in range(1, 7):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(n)] for _ in range(n)]
        assert oracles.exact_det(rows) == _cofactor(rows)
    assert oracles.exact_det([[0, 1], [1, 0]]) == -1
    assert oracles.exact_det([[1, 2], [2, 4]]) == 0


def test_signed_hankel_index_rule():
    c = list(range(10, 20))
    assert [oracles.sign_prefactor(m) for m in range(1, 9)] == \
        [1, -1, -1, 1, 1, -1, -1, 1]
    A = oracles.signed_hankel(c, 2, 3)       # sign(3) = -1
    assert A[0] == [-c[4], -c[3], -c[2]]     # first row c[l+m-1] .. c[l]
    assert A[2] == [-c[2], -c[1], -c[0]]     # last row c[l] .. c[l-m+1]
    assert oracles.signed_hankel(c, 1, 3)[2] == [-c[1], -c[0], 0]


def test_zeta_star_coefficients_sum_to_the_function():
    coeffs = oracles.zeta_star_coeffs(60, 256)
    with workprec(256):
        s = mpf("0.25")
        series = sum(ck * s ** k for k, ck in enumerate(coeffs))
        assert abs(series - (s - 1) * mp.zeta(s)) < mpf(10) ** -60


# ---------------------------------------------------------------------------
# output checks against the program's real outputs, then planted errors

_RNG = random.Random(3)
MOMENTS = [str(_RNG.uniform(-1, 1)) for _ in range(8)]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    _cli(["sweep", "--func", "user-moments:" + ",".join(MOMENTS), "--l", "1",
          "--m-max", "6", "--digits", "40", "--out", str(out)])
    return out.read_text()


def test_sweep_check_passes(sweep_csv):
    assert checks.check_sweep(sweep_csv, MOMENTS, 1, set(range(1, 7)), 40) == []


def test_sweep_check_catches_perturbed_eigenvalue(sweep_csv):
    lines = sweep_csv.splitlines()
    l, m, n, mu, ln, bits = lines[9].split(",")
    lines[9] = ",".join([l, m, n, _nudge(mu), ln, bits])
    problems = checks.check_sweep("\n".join(lines) + "\n", MOMENTS, 1,
                                  set(range(1, 7)), 40)
    assert any("m=%s" % m in p and "product" in p for p in problems)


def test_sweep_check_catches_shifted_index(sweep_csv):
    problems = checks.check_sweep(sweep_csv, ["0"] + MOMENTS, 1,
                                  set(range(1, 7)), 40)
    assert len(problems) >= 6


@pytest.fixture(scope="module")
def zeta_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("zeta")
    reports = {}
    for cid in ("2A", "2B", "2D"):
        _cli(["check", cid, "--func", "zeta-star", "--l", "1", "--m-max", "8",
              "--cache-dir", str(d / "cache"), "--out", str(d / cid)])
        reports[cid] = json.loads((d / cid).read_text())
    # 2C and 2E need m_max >= 32; their structure check gets fixed values
    reports["2C"] = {"series": {"sup_distance_m_2m": [[4, "0.375"], [8, "0.125"]]}}
    reports["2E"] = {"series": {"l1-l2": [[4, "0.25"], [8, "0.0"]]}}
    text = next((d / "cache").glob("*.jsonl")).read_text()
    return reports, text


def test_zeta_checks_pass(zeta_outputs):
    reports, text = zeta_outputs
    coeffs, bits = checks.parse_cache(text)
    assert checks.check_zeta_coeffs(coeffs, bits) == []
    assert checks.check_zeta_reports(reports, coeffs, 1, [2, 4, 8], 30) == []


def test_zeta_checks_catch_planted_errors(zeta_outputs):
    reports, text = zeta_outputs
    coeffs, bits = checks.parse_cache(text)
    moved = list(coeffs)
    moved[3] *= 1 + Fraction(1, 10 ** 20)
    assert checks.check_zeta_coeffs(moved, bits) == \
        ["coefficient 3 differs from the mpmath derivative oracle"]
    assert checks.check_zeta_reports(reports, [0] + coeffs, 1, [2, 4, 8], 30)
    bad = json.loads(json.dumps(reports))
    series = bad["2D"]["series"]["neg_tail_abs"]     # pos_tail is 0 here
    series[-1][1] = _nudge(series[-1][1])
    assert checks.check_zeta_reports(bad, coeffs, 1, [2, 4, 8], 30) == \
        ["m=8: 2D pos_tail - neg_tail_abs differs from ln|det|/m"]
    bad = json.loads(json.dumps(reports))
    bad["2C"]["series"]["sup_distance_m_2m"][0][1] = "0.3"
    assert len(checks.check_zeta_reports(bad, coeffs, 1, [2, 4, 8], 30)) == 1


@pytest.fixture(scope="module")
def v5_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("v5") / "v5.json"
    _cli(["check", "v5", "--func", "exponential", "--l", "1", "--m-max", "6",
          "--out", str(out)])
    return json.loads(out.read_text())


def test_v5_check_passes(v5_report):
    assert checks.check_v5(v5_report, 1, 6, 30) == []


def test_v5_check_catches_planted_errors(v5_report):
    bad = json.loads(json.dumps(v5_report))
    roots = bad["series"]["product_mth_root"]
    roots[4][1] = _nudge(roots[4][1])
    assert checks.check_v5(bad, 1, 6, 30) == \
        ["v5 m=5: product_mth_root differs from |det|^(1/m)"]
    assert len(checks.check_v5(v5_report, 2, 6, 30)) >= 5


# ---------------------------------------------------------------------------
# spans


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    for name in spans.LAYERS:
        mod = types.ModuleType("fakepkg." + name)
        setattr(pkg, name, mod)

    def zeta_em(s):
        return s

    def inner(x):
        return pkg.coeffs.zeta_em(x) + 1

    def outer(x):
        return pkg.figio.inner(x) * 2

    for fn, mod in ((zeta_em, pkg.coeffs), (inner, pkg.mpnum), (outer, pkg.figio)):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    pkg.figio.inner = inner          # a cross-module import, rebound too
    return pkg


def test_tracer_wraps_and_rebinds_across_modules():
    pkg = _fake_package()
    tracer = spans.Tracer()
    assert tracer.install(pkg) == 3
    assert pkg.figio.inner is pkg.mpnum.inner
    assert pkg.figio.outer(3) == 8
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("figio.outer", None), ("mpnum.inner", 0),
                     ("coeffs.zeta_em", 1)]


def test_self_times_subtract_children():
    s = [["a", 0.0, 10.0, None, None], ["b", 1.0, 3.0, 0, None],
         ["c", 2.0, 2.5, 1, None], ["d", 5.0, 9.0, 0, None]]
    assert spans.self_times(s, 0, 4) == {0: 4.0, 1: 1.5, 2: 0.5, 3: 4.0}


def test_zeta_call_schedule():
    # N = 32: 264 nodes, then 528; 132 + 264 evaluations
    assert spans.expected_zeta_calls(32, 528, 8) == 396
    assert spans.expected_zeta_calls(33, 544, 8) == 136 + 272
    assert spans.expected_zeta_calls(32, 500, 8) is None
    gen = ["coeffs.generate", 0.0, 1.0, None, {"N": 32, "hit": False, "nodes": 528}]
    zs = [["coeffs.zeta_em", 0.1, 0.2, 0, None]] * 395
    _, problems = spans.layer_metrics([gen] + zs, 0, 396, 8)
    assert problems == ["stream N=32 with 528 nodes: 395 zeta_em calls seen, "
                        "node schedule implies 396"]


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = spans.layer_metrics([], 0, 0, 8)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])


# ---------------------------------------------------------------------------
# compare


def _line(workload, wall, failed=0):
    return "%s %s" % (workload, json.dumps({
        "correct": True, "attempted": 10, "failed": failed, "metrics": {
            "wall_s": {"value": wall, "unit": "s"}}}))


def test_compare_flags_regression_and_failed_share(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    a.write_text("\n".join(_line("w", v) for v in (10, 10.1, 9.9, 10.05, 9.95)))
    b.write_text("\n".join(_line("w", v) for v in (10.2, 10.1, 10.0, 10.3, 9.9)))
    c.write_text("\n".join(_line("w", v, failed=1) for v in (13, 13.1, 12.9)))
    assert compare.main(["diff", str(a), str(b)]) == 0
    assert "within" in capsys.readouterr().out
    assert compare.main(["diff", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "WORSE" in out and "failed share differs" in out
