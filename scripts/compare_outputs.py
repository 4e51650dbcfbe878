#!/usr/bin/env python3
"""Compare two output trees of scripts/fixed_outputs.sh number by number.

    python3 scripts/compare_outputs.py BEFORE AFTER

Files with equal bytes pass.  Otherwise both texts are cut into numbers and
the text between them; every number is read exactly as a Fraction.  Any
difference in the text between numbers fails, and so does a changed line
count or a file present in one tree only.  A stored spectrum record
(``records/*.json`` in a cache dir) holds each eigenvalue as a
[sign, hex mantissa, exponent, bit count] list; it is decoded to exact
Fractions instead, and a changed precision_used, eigenvalue count or other
field fails.  The sha256 values of manifests are left out of that
comparison; instead each manifest must match the files it lists in its own
tree.  For each differing file the script prints how many numbers differ
and their largest relative gap, and it exits 1 if any gap exceeds 1e-30,
the smallest --digits that fixed_outputs.sh uses.
"""

import hashlib
import json
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SHA = re.compile(r'("sha256": )"[0-9a-f]{64}"')
MAX_GAP = Fraction(1, 10 ** 30)


def files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def manifest_problems(path):
    base = os.path.dirname(path)
    with open(path) as fh:
        listed = json.load(fh).get("files", [])
    bad = []
    for entry in listed:
        with open(os.path.join(base, entry["path"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                bad.append(entry["path"])
    return bad


def gap(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else Fraction(0)


def compare(a, b):
    """(problem or None, count of differing numbers, largest relative gap)."""
    if a.count("\n") != b.count("\n"):
        return "line count %d -> %d" % (a.count("\n"), b.count("\n")), 0, 0
    ta, tb = NUMBER.split(a), NUMBER.split(b)
    na, nb = NUMBER.findall(a), NUMBER.findall(b)
    if ta != tb:
        return "text between numbers differs", 0, 0
    gaps = [gap(Fraction(x), Fraction(y)) for x, y in zip(na, nb) if x != y]
    return None, len(gaps), max(gaps, default=Fraction(0))


def record_values(doc):
    """The eigenvalues of a stored record as exact Fractions."""
    out = []
    for sign, hexman, exp, _ in doc["eigenvalues"]:
        v = Fraction(int(hexman, 16)) * Fraction(2) ** exp
        out.append(-v if sign else v)
    return out


def compare_records(a, b):
    """``compare`` for two stored spectrum records."""
    da, db = json.loads(a), json.loads(b)
    va, vb = record_values(da), record_values(db)
    if da["precision_used"] != db["precision_used"]:
        return ("precision_used %d -> %d"
                % (da["precision_used"], db["precision_used"]), 0, 0)
    if len(va) != len(vb):
        return "eigenvalue count %d -> %d" % (len(va), len(vb)), 0, 0
    del da["eigenvalues"], db["eigenvalues"]
    if da != db:
        return "fields other than the eigenvalues differ", 0, 0
    gaps = [gap(x, y) for x, y in zip(va, vb) if x != y]
    return None, len(gaps), max(gaps, default=Fraction(0))


def show(g):
    with localcontext() as ctx:
        ctx.prec = 3
        return str(Decimal(g.numerator) / Decimal(g.denominator))


def main(before, after):
    failed = False
    names_a, names_b = files(before), files(after)
    for name in sorted(names_a ^ names_b):
        print("%s: only in %s" % (name, before if name in names_a else after))
        failed = True
    same = 0
    for name in sorted(names_a & names_b):
        pa, pb = os.path.join(before, name), os.path.join(after, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            a, b = fa.read().decode(), fb.read().decode()
        if name.endswith(".manifest.json"):
            for path in (pa, pb):
                for bad in manifest_problems(path):
                    print("%s: sha256 of %s does not match" % (path, bad))
                    failed = True
            a, b = SHA.sub(r'\1"-"', a), SHA.sub(r'\1"-"', b)
        if a == b:
            same += 1
            continue
        is_record = os.path.basename(os.path.dirname(name)) == "records"
        problem, count, worst = (compare_records if is_record
                                 else compare)(a, b)
        if problem or worst > MAX_GAP:
            failed = True
        print("%s: %s" % (name, problem or "%d numeric differences, largest "
                          "relative gap %s" % (count, show(worst))))
    print("%d of %d common files equal (manifest hashes aside)"
          % (same, len(names_a & names_b)))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_outputs.py BEFORE AFTER")
    sys.exit(main(sys.argv[1], sys.argv[2]))
