#!/usr/bin/env bash
# Run a fixed set of CLI commands from this checkout and write every output
# file into OUTDIR.
#
#   scripts/fixed_outputs.sh OUTDIR
#
# The set covers each writer of the program: sweep CSV and JSON, spectrum
# (one record that climbs past a zero-at-precision, one exactly singular),
# dist, the coeffs stream file (a zeta-star stream read from the cache, and
# a rational2 stream whose closed form cancels), every check id (v2 and v6
# with the reference-rate file wl.json that the script writes into OUTDIR,
# and both without it), both SVG figures, every manifest, the coefficient
# cache and the record store, which a repeated check reads back.
# Commands run inside OUTDIR with relative paths, and their exit codes,
# stdout and stderr go to OUTDIR/log.txt, so two runs of equal code give
# equal trees.  To show that a change keeps every output byte-identical, run
# the script in a checkout of each commit and compare:
#
#   diff -r OUT_BEFORE OUT_AFTER
#
# A change that may move last places is compared number by number with
# scripts/compare_outputs.py OUT_BEFORE OUT_AFTER instead.
#
# The zeta-star checks dominate the run time (under a minute on one core).
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PY="${PYTHON:-python3}"
mkdir -p "$1"
cd "$1" || exit 2
rm -rf cache ./*.csv ./*.json ./*.jsonl ./*.svg log.txt

unset HANKELSPECTRA_CACHE
export PYTHONPATH="$ROOT/src"
# warnings name the source file and line, which differ between checkouts
export PYTHONWARNINGS=ignore

# 13 seeded moments in (-1, 1): enough for l=1, m <= 12
MOMENTS="$("$PY" -c 'import random; r = random.Random(9); print(",".join(str(r.uniform(-1, 1)) for _ in range(13)))')"

run() {
    echo "\$ hankelspectra $*" >> log.txt
    "$PY" -m hankelspectra.figio "$@" --cache-dir cache >> log.txt 2>&1
    echo "exit $?" >> log.txt
}

run sweep --func "user-moments:$MOMENTS" --l 1 --m-max 12 --digits 77 \
    --jobs 2 --out sweep_moments.csv
run sweep --func geometric:1 --l 1 --m-max 6 --format json \
    --out sweep_geometric.json
# more jobs than records: the pool starts one worker per record
run sweep --func exponential --l 1 --m-max 3 --jobs 4 --out sweep_jobs4.csv
run spectrum --func exponential --l 2 --m 5 --format json \
    --out spectrum_exponential.json
# 15 digits start the eigenvalue ladder at its 64-bit floor
run spectrum --func exponential --l 1 --m 12 --digits 15 --format json \
    --out spectrum_exponential_15.json
# m=64 is the largest matrix of the set
run spectrum --func zeta-star --l 1 --m 64 --digits 30 --format json \
    --out spectrum_zeta_star.json
run dist --func exponential --l 1 --m 8 --out dist_exponential.csv
run check v3 --func exponential --l 1 --m-max 16 --out check_v3.json
run check v5 --func exponential --l 1 --m-max 12 --out check_v5.json
echo '{"1": {"W": "2.5", "R": "0.9"}}' > wl.json
run check v2 --func exponential --l 1 --m-max 16 --wl-file wl.json \
    --out check_v2.json
run check v6 --func exponential --l 1 --m-max 16 --wl-file wl.json \
    --out check_v6.json
run check v6 --func exponential --l 1 --m-max 16 \
    --out check_v6_unavailable.json
run figure spectra --func exponential --l 1 --m-max 10 --policy largest-gap \
    --out figure_spectra.svg
run figure dist --func exponential --l 1 --m 8 --out figure_dist.svg
for cid in 2A 2B 2C 2D; do
    run check "$cid" --func zeta-star --l 1 --m-max 32 --out "check_$cid.json"
done
# the same check again on the same cache: its records come from the record
# store, so this output shows that a reloaded record writes the same bytes
run check 2A --func zeta-star --l 1 --m-max 32 --out check_2A_again.json
run check 2E --func zeta-star --l 1,2 --m-max 32 --out check_2E.json
run coeffs --func zeta-star --l 1 --m-max 8 --out coeffs_zeta_star.jsonl
# two parameters that agree to 20 digits: the closed form's difference
# quotient cancels, so each coefficient is rounded once from exact rationals
run coeffs --func rational2:1,1.00000000000000000001 --l 1 --m-max 8 \
    --out coeffs_rational2.jsonl
# exponential m=56 is nonsingular but has a zero-at-precision at 256 bits,
# so it climbs to 512; 1/(1-z) at m=3 has nullity 1, a proved zero
run spectrum --func exponential --l 1 --m 56 --format json \
    --out spectrum_exponential_56.json
run spectrum --func one-over-one-minus-z --l 1 --m 3 \
    --out spectrum_singular.csv
# without a reference rate v2 reports UNAVAILABLE before any stream exists
run check v2 --func exponential --l 1 --m-max 16 \
    --out check_v2_unavailable.json
# 1500 digits need 4983 bits, above 4096: the 1x1 matrix is exact at 8192
run spectrum --func exponential --l 4 --m 1 --digits 1500 --format json \
    --out spectrum_exponential_1500.json
