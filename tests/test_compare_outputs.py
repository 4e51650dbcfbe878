"""scripts/compare_outputs.py on small output trees with a record store."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"

# an odd 512-bit mantissa: a last-place move adds 2 and stays normalised;
# 3 * MAN ends in hex 1b, so the move to 1d changes a hex letter
MAN = (1 << 511) + 9


def record(mantissas, prec=512):
    return json.dumps({"precision_used": prec,
                       "eigenvalues": [[0, format(man, "x"), -511, 512]
                                       for man in mantissas]},
                      sort_keys=True) + "\n"


def tree(root, rec):
    (root / "cache" / "records").mkdir(parents=True)
    (root / "cache" / "records" / "ab12.json").write_text(rec)
    (root / "log.txt").write_text("$ hankelspectra sweep\nexit 0\n")
    return str(root)


def compare(tmp_path, before, after):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), tree(tmp_path / "a", before),
         tree(tmp_path / "b", after)], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_last_place_move_in_a_record_passes(tmp_path):
    code, out = compare(tmp_path, record([MAN, 3 * MAN]),
                        record([MAN, 3 * MAN + 2]))
    assert code == 0, out
    assert "1 numeric differences" in out


def test_changed_eigenvalue_count_fails(tmp_path):
    code, out = compare(tmp_path, record([MAN, 3 * MAN]), record([MAN]))
    assert code == 1
    assert "eigenvalue count 2 -> 1" in out


def test_changed_precision_fails(tmp_path):
    code, out = compare(tmp_path, record([MAN]), record([MAN], prec=1024))
    assert code == 1
    assert "precision_used 512 -> 1024" in out
