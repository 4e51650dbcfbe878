import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import pytest
from mpmath import mpf

from hankelspectra import (
    builtin_spec,
    compute_spectrum,
    from_decimal,
    from_log_spectrum,
    generate,
    log_spectrum,
    spectra_csv,
    step_distribution,
    sweep,
)
from hankelspectra import figio, mpnum
from hankelspectra.figio import (
    build_manifest,
    cli,
    render_distribution,
    render_spectra,
    verify_manifest,
    write_manifest,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def circles(path):
    return ET.parse(path).getroot().findall(".//%scircle" % SVG_NS)


def polylines(path):
    return ET.parse(path).getroot().findall(".//%spolyline" % SVG_NS)


class TestRenderSpectra:
    def test_single_marker(self, tmp_path):
        st = generate(builtin_spec("user-moments", "0", "1"), 1, 128)
        rec = compute_spectrum(st, 1, 1, 30)
        out = str(tmp_path / "one.svg")
        render_spectra([rec], out)
        cs = circles(out)
        assert len(cs) == 1

    def test_marker_count_m1_to_4(self, exp_stream, tmp_path):
        res = sweep(exp_stream, 1, range(1, 5), 30)
        out = str(tmp_path / "four.svg")
        render_spectra(res.records, out)
        assert len(circles(out)) == 10      # 1+2+3+4, no zeros excluded

    def test_zero_exclusion(self, geo1_stream, tmp_path):
        res = sweep(geo1_stream, 1, range(1, 5), 30)
        total = sum(r.m for r in res.records)
        zeros = sum(r.zero_count for r in res.records)
        assert zeros > 0
        out = str(tmp_path / "geo.svg")
        render_spectra(res.records, out)
        assert len(circles(out)) == total - zeros

    def test_split_coloring(self, exp_stream, tmp_path):
        res = sweep(exp_stream, 1, range(3, 7), 30)
        out = str(tmp_path / "colored.svg")
        render_spectra(res.records, out, split_policy="largest-gap")
        classes = {c.get("class") for c in circles(out)}
        assert "electron" in classes and "train" in classes

    def test_well_formed_xml(self, exp_stream, tmp_path):
        res = sweep(exp_stream, 1, range(1, 4), 30)
        out = str(tmp_path / "fig.svg")
        render_spectra(res.records, out)
        tree = ET.parse(out)     # raises on malformed XML
        assert tree.getroot().tag == "%ssvg" % SVG_NS

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_spectra([], str(tmp_path / "x.svg"))


class TestRenderDistribution:
    def test_single_jump_step(self, tmp_path):
        F = step_distribution([mpf(0)], 1)
        out = str(tmp_path / "step1.svg")
        render_distribution(F, out)
        (pl,) = polylines(out)
        pts = [tuple(map(float, p.split(",")))
               for p in pl.get("points").split()]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert xs == sorted(xs)
        # SVG y grows downward: non-decreasing data means non-increasing y
        assert ys == sorted(ys, reverse=True)
        assert len(set(ys)) == 2            # one step: 0 -> 1

    def test_two_equal_jumps(self, tmp_path):
        F = step_distribution([mpf(-1), mpf(1)], 2)
        out = str(tmp_path / "step2.svg")
        render_distribution(F, out)
        (pl,) = polylines(out)
        ys = [float(p.split(",")[1]) for p in pl.get("points").split()]
        assert len(set(ys)) == 3            # levels 0, 1/2, 1
        assert ys == sorted(ys, reverse=True)

    def test_monotone_for_computed_distribution(self, exp_stream, tmp_path):
        rec = compute_spectrum(exp_stream, 1, 6, 30)
        F = from_log_spectrum(log_spectrum(rec))
        out = str(tmp_path / "f16.svg")
        render_distribution(F, out)
        (pl,) = polylines(out)
        pts = [tuple(map(float, p.split(",")))
               for p in pl.get("points").split()]
        assert [p[0] for p in pts] == sorted(p[0] for p in pts)
        assert [p[1] for p in pts] == sorted((p[1] for p in pts), reverse=True)


class TestManifest:
    def test_round_trip_and_corruption(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("l,m\n1,2\n")
        man = build_manifest("exponential", "abc123", [1], [2],
                             "digits=30", [str(data)], base_dir=str(tmp_path))
        mpath = str(tmp_path / "run.manifest.json")
        write_manifest(man, mpath)
        assert verify_manifest(mpath) == []
        blob = bytearray(data.read_bytes())
        blob[3] ^= 0x01
        data.write_bytes(bytes(blob))
        problems = verify_manifest(mpath)
        assert problems and "hash mismatch" in problems[0]

    def test_missing_file(self, tmp_path):
        data = tmp_path / "gone.csv"
        data.write_text("x\n")
        man = build_manifest("f", "h", [1], [1], "p", [str(data)],
                             base_dir=str(tmp_path))
        mpath = str(tmp_path / "m.json")
        write_manifest(man, mpath)
        os.unlink(str(data))
        assert any("missing" in p for p in verify_manifest(mpath))


class TestCsvRoundTrip:
    def test_values_reload_bit_exact(self, exp_stream):
        res = sweep(exp_stream, 1, range(1, 5), 30)
        buf = io.StringIO()
        spectra_csv(res.records, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        by_m = {}
        for row in rows:
            by_m.setdefault(int(row["m"]), []).append(row)
        for rec in res.records:
            got = by_m[rec.m]
            assert len(got) == rec.m
            for row, mu in zip(got, rec.eigenvalues):
                bits = int(row["precision_bits"])
                assert from_decimal(row["mu"], bits) == mu


class TestJsonRoundTrip:
    def test_spectrum_json_bit_exact(self, capsys, exp_stream):
        rc = cli(["spectrum", "--func", "exponential", "--l", "1", "--m", "4",
                  "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        rec = compute_spectrum(exp_stream, 1, 4, 30)
        bits = doc["precision_bits"]
        assert bits == rec.precision_used
        assert from_decimal(doc["det"], bits) == rec.det
        for s, mu in zip(doc["eigenvalues"], rec.eigenvalues):
            assert from_decimal(s, bits) == mu


class TestCli:
    def test_spectrum_geometric(self, capsys):
        rc = cli(["spectrum", "--func", "geometric:1", "--l", "1", "--m", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["mu"] for r in rows] == ["-2.0", "0.0"]
        assert rows[1]["ln_abs_mu"] == "ZERO"

    def test_check_v5_exponential_exit_zero(self, tmp_path):
        out = str(tmp_path / "v5.json")
        rc = cli(["check", "v5", "--func", "exponential", "--l", "1",
                  "--m-max", "8", "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["check"] == "v5"
        assert len(doc["series"]["product_mth_root"]) == 8

    def test_sweep_byte_identical(self, tmp_path):
        args = ["sweep", "--func", "exponential", "--l", "1", "--m-max", "5",
                "--digits", "25"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli(args + ["--out", a]) == 0
        assert cli(args + ["--out", b, "--jobs", "2"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert verify_manifest(a + ".manifest.json") == []

    def test_unknown_flag_exits_2(self, capsys):
        rc = cli(["sweep", "--func", "exponential", "--wat", "7"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_check_exits_2(self):
        assert cli(["check", "v9", "--func", "exponential"]) == 2

    def test_error_path_exits_2(self, capsys):
        rc = cli(["spectrum", "--func", "nope", "--l", "1", "--m", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_figure_command_with_manifest(self, tmp_path):
        out = str(tmp_path / "fig.svg")
        rc = cli(["figure", "spectra", "--func", "exponential", "--l", "1",
                  "--m-max", "3", "--out", out])
        assert rc == 0
        assert len(circles(out)) == 6
        assert verify_manifest(out + ".manifest.json") == []

    def test_figure_manifest_m_grid(self, tmp_path):
        # spectra lists every drawn m, like sweep; dist keeps its one m
        common = ["--func", "exponential", "--l", "1"]
        fig, csv_out = str(tmp_path / "fig.svg"), str(tmp_path / "s.csv")
        dist = str(tmp_path / "dist.svg")
        upto3, at2 = ["--m-max", "3"], ["--m", "2"]
        assert cli(["figure", "spectra"] + common + upto3 + ["--out", fig]) == 0
        assert cli(["sweep"] + common + upto3 + ["--out", csv_out]) == 0
        assert cli(["figure", "dist"] + common + at2 + ["--out", dist]) == 0
        grids = [json.loads(open(p + ".manifest.json").read())["m_grid"]
                 for p in (fig, csv_out, dist)]
        assert grids == [[1, 2, 3], [1, 2, 3], [2]]

    def test_manifest_function_id_from_parsed_spec(self, tmp_path):
        # 1/(1-s) has rank-one Hankel matrices, so only m=1 is resolvable
        cfg = tmp_path / "inv.json"
        cfg.write_text(json.dumps({"name": "inverse-linear",
                                   "expression": "1/(1-s)",
                                   "ring_radius": "0.5",
                                   "analyticity_radius": "1"}))
        common = ["--func", "analytic-config:%s" % cfg, "--l", "1",
                  "--m-max", "1", "--cache-dir", str(tmp_path / "cache")]
        fig, csv_out = str(tmp_path / "fig.svg"), str(tmp_path / "s.csv")
        assert cli(["figure", "spectra"] + common + ["--out", fig]) == 0
        assert cli(["sweep"] + common + ["--out", csv_out]) == 0
        docs = [json.loads(open(p + ".manifest.json").read())
                for p in (fig, csv_out)]
        assert docs[0]["function_id"] == docs[1]["function_id"] == \
            "inverse-linear"
        assert docs[0]["spec_hash"] == docs[1]["spec_hash"]

    def test_check_2e_generates_one_stream(self, monkeypatch, capsys):
        calls = []

        def counting(spec, N, *args, **kwargs):
            calls.append(N)
            return generate(spec, N, *args, **kwargs)

        monkeypatch.setattr(figio, "generate", counting)
        rc = cli(["check", "2E", "--func", "exponential", "--l", "1,2",
                  "--m-max", "8", "--digits", "25"])
        assert rc in (0, 1)
        assert calls == [9]     # one stream reaching l + m - 1 = 2 + 8 - 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == "2E"

    def test_spectrum_failure_names_cause(self, capsys, tmp_path,
                                          monkeypatch):
        # an exactly singular matrix is no failure: its zero is proved
        rc = cli(["spectrum", "--func", "one-over-one-minus-z", "--l", "1",
                  "--m", "2", "--format", "json",
                  "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["zero_count"] == 1
        monkeypatch.setattr(mpnum, "DEFAULT_PREC_CAP", 128)
        rc = cli(["spectrum", "--func", "exponential", "--l", "1", "--m",
                  "12", "--cache-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err and "128-bit precision cap" in err

    def test_digits_beyond_4096_bits_take_the_cap_level(self, capsys):
        # 1500 digits need 4983 bits; the 1x1 matrix 1/4! = 1/24 is exact
        # at the first level, 8192, and its 5047-bit coefficient holds them
        rc = cli(["spectrum", "--func", "exponential", "--l", "4", "--m",
                  "1", "--digits", "1500", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["precision_bits"] == 8192
        assert doc["eigenvalues"][0].startswith("0.041" + "6" * 1500)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--m", "2"], ["sweep", "--m-max", "2"],
        ["dist", "--m", "2"], ["check", "v5"], ["figure", "spectra"]])
    def test_prec_cap_is_no_option(self, argv, capsys):
        rc = cli(argv + ["--func", "exponential", "--prec-cap", "8192"])
        assert rc == 2
        assert "unrecognized arguments: --prec-cap" in capsys.readouterr().err

    def test_dist_csv(self, capsys):
        rc = cli(["dist", "--func", "exponential", "--l", "1", "--m", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "x,cumulative"
        assert len(out.splitlines()) == 4

    def test_coeffs_summary(self, capsys, tmp_path):
        rc = cli(["coeffs", "--func", "catalan", "--l", "2", "--m-max", "4",
                  "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_index: 5" in out
        assert any(f.endswith(".jsonl") for f in os.listdir(str(tmp_path)))

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--func", "exponential", "--l", "1,2", "--m", "2"],
        ["check", "2A", "--func", "exponential", "--l", "1,2", "--m-max", "4"],
    ])
    def test_extra_l_values_rejected(self, argv, capsys):
        assert cli(argv) == 2
        assert "--l" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--jobs", "7"], ["--prec-cap", "1"]])
    def test_coeffs_rejects_record_flags(self, flag, capsys):
        rc = cli(["coeffs", "--func", "exponential", "--l", "1",
                  "--m-max", "3"] + flag)
        assert rc == 2
        assert flag[0] in capsys.readouterr().err

    def test_check_2a_small(self, tmp_path, capsys):
        rc = cli(["check", "2A", "--func", "exponential", "--l", "1",
                  "--m-max", "16", "--digits", "25"])
        assert rc in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == "2A"
        assert doc["verdict"] in ("SUPPORTED", "INCONCLUSIVE", "CONTRADICTED")

    @pytest.mark.parametrize("argv, message", [
        (["check", "2A", "--m-max", "1"], "check 2A needs --m-max >= 2"),
        (["check", "v6", "--m-max", "1"], "check v6 needs --m-max >= 2"),
        (["check", "2C", "--m-max", "3"], "check 2C needs --m-max >= 4"),
        (["check", "v5", "--m-max", "0"], "check v5 needs --m-max >= 1"),
        (["check", "2E", "--l", "1,1", "--m-max", "8"], "two distinct values"),
        (["coeffs", "--l", "", "--m-max", "3"], "--l needs at least one value"),
        (["check", "2C", "--m-max", "16"], "--m-max 16 gives [4, 8, 16]"),
        (["check", "2C", "--m-max", "24"], "--m-max 24 gives [6, 12, 24]"),
        (["check", "2D", "--m-max", "6"], "--m-max 6 gives [3, 6]"),
    ], ids=["2A", "v6", "2C", "v5", "2E-repeated-l", "coeffs-empty-l",
            "2C-grid-16", "2C-grid-24", "2D-grid-6"])
    def test_empty_inputs_named_before_computing(self, argv, message,
                                                 monkeypatch, capsys):
        def no_stream(*args, **kwargs):
            pytest.fail("a stream was generated")

        monkeypatch.setattr(figio, "generate", no_stream)
        assert cli(argv + ["--func", "exponential"]) == 2
        assert message in capsys.readouterr().err

    def test_v6_unavailable_computes_no_record(self, monkeypatch, capsys):
        def no_stream(*args, **kwargs):
            pytest.fail("a stream was generated")

        monkeypatch.setattr(figio, "generate", no_stream)
        assert cli(["check", "v6", "--func", "exponential", "--l", "1",
                    "--m-max", "16"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "UNAVAILABLE"
        assert doc["m_grid"] == [2, 4, 8, 16] and doc["series"] == {}

    def test_v2_unavailable_computes_no_stream(self, monkeypatch, capsys):
        def no_stream(*args, **kwargs):
            pytest.fail("a stream was generated")

        monkeypatch.setattr(figio, "generate", no_stream)
        assert cli(["check", "v2", "--func", "exponential", "--l", "1",
                    "--m-max", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == "v2" and doc["l"] == 1
        assert doc["verdict"] == "UNAVAILABLE"
        assert doc["m_grid"] == [] and doc["series"] == {}
        assert doc["notes"] == ["no reference growth rate configured"]

    @pytest.mark.parametrize("cid", ["v2", "v6"])
    def test_check_reference_rate_from_wl_file(self, cid, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"1": {"W": "2.5", "R": "0.9"}}))
        argv = ["check", cid, "--func", "exponential", "--l", "1",
                "--m-max", "8"]
        rc = cli(argv + ["--wl-file", str(wl)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == cid and doc["l"] == 1
        assert doc["verdict"] in ("SUPPORTED", "INCONCLUSIVE", "CONTRADICTED")
        assert rc == (1 if doc["verdict"] == "CONTRADICTED" else 0)
        assert cli(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == cid and doc["l"] == 1
        assert doc["verdict"] == "UNAVAILABLE"

    def test_malformed_wl_file_entry_is_an_error(self, tmp_path, monkeypatch,
                                                 capsys):
        def no_stream(*args, **kwargs):
            pytest.fail("a stream was generated")

        monkeypatch.setattr(figio, "generate", no_stream)
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"1": "2.5"}))
        assert cli(["check", "v6", "--func", "exponential", "--l", "1",
                    "--m-max", "8", "--wl-file", str(wl)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "l=1" in captured.err and "not a JSON object" in captured.err

    @pytest.mark.parametrize("cid, m_max", [("2C", "32"), ("2D", "8")])
    def test_dyadic_reports_carry_l(self, cid, m_max, capsys):
        rc = cli(["check", cid, "--func", "exponential", "--l", "1",
                  "--m-max", m_max, "--digits", "25"])
        assert rc in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"] == cid and doc["l"] == 1


class TestRecordStoreCli:
    """``--cache-dir`` also stores spectrum records under ``records/``."""

    @staticmethod
    def _no_solve(monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("an eigenvalue solve ran")

        monkeypatch.setattr(mpnum, "sym_eigenvalues", no_solve)

    def test_second_check_loads_every_record(self, tmp_path, monkeypatch):
        argv = ["check", "2A", "--func", "exponential", "--l", "1",
                "--m-max", "16", "--digits", "25",
                "--cache-dir", str(tmp_path / "cache")]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli(argv + ["--out", a]) in (0, 1)
        assert len(os.listdir(str(tmp_path / "cache" / "records"))) == 4
        self._no_solve(monkeypatch)
        assert cli(argv + ["--out", b]) in (0, 1)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_sweep_jobs_2_stores_then_reloads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HANKELSPECTRA_CACHE", str(tmp_path / "cache"))
        argv = ["sweep", "--func", "exponential", "--l", "1", "--m-max", "5",
                "--digits", "25", "--jobs", "2"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli(argv + ["--out", a]) == 0
        assert len(os.listdir(str(tmp_path / "cache" / "records"))) == 5
        self._no_solve(monkeypatch)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert cli(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_truncated_record_exits_2(self, tmp_path, capsys):
        cd = tmp_path / "cache"
        argv = ["spectrum", "--func", "exponential", "--l", "1", "--m", "3",
                "--cache-dir", str(cd)]
        assert cli(argv) == 0
        (name,) = os.listdir(str(cd / "records"))
        path = cd / "records" / name
        path.write_text(path.read_text()[:40])
        capsys.readouterr()
        assert cli(argv) == 2
        assert "error: unreadable record" in capsys.readouterr().err

    def test_no_cache_dir_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("HANKELSPECTRA_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        assert cli(["check", "2A", "--func", "exponential", "--l", "1",
                    "--m-max", "4", "--digits", "25"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["check"] == "2A"
        assert os.listdir(str(tmp_path)) == []


class TestImportBudget:
    """Start-up loads only what a command runs: no process pool, XML, HTTP,
    mail or socket modules before a pool starts."""

    UNUSED = ["concurrent.futures.process", "multiprocessing", "xml.sax",
              "urllib.request", "http.client", "email", "ssl", "socket",
              "subprocess"]
    PROBE = textwrap.dedent("""
        import contextlib, io, json, sys
        before = set(sys.modules)
        import hankelspectra.figio
        on_import = sorted(set(sys.modules) - before)
        with contextlib.redirect_stdout(io.StringIO()):
            code = hankelspectra.figio.cli(
                ["spectrum", "--func", "exponential", "--l", "1", "--m", "3"])
        after_cli = sorted(set(sys.modules) - before)
        print(json.dumps([code, on_import, after_cli]))
    """)

    def test_import_and_spectrum_load_no_pool_or_network_modules(
            self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(figio.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("HANKELSPECTRA_CACHE", None)
        proc = subprocess.run([sys.executable, "-c", self.PROBE],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, on_import, after_cli = json.loads(proc.stdout)
        assert code == 0
        assert "hankelspectra.figio" in on_import
        assert [m for m in self.UNUSED if m in on_import] == []
        assert [m for m in self.UNUSED if m in after_cli] == []
