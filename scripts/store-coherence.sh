#!/bin/sh
# store-coherence.sh — cross-process result-store coherence check.
#
# Runs the full experiment batch — paper figures and extension studies —
# twice in FRESH processes sharing one store directory and asserts:
#   1. the second run performs zero simulations (every cell is a store hit),
#   2. stdout (minus the timing footer) is byte-identical across runs,
#   3. the CSV artifact directories are byte-identical.
#
# This is the property the in-process memo cannot give you: a result
# computed yesterday, by another process, answers today's sweep — and does
# so with exactly the bytes the original simulation produced.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== building aurora-experiments"
go build -o "$workdir/aurora-experiments" ./cmd/aurora-experiments

run() {
    # The footer reports wall-clock time, so it can never be byte-stable;
    # it is asserted separately (run2 must report 0 simulated) and stripped
    # from the comparison.
    "$workdir/aurora-experiments" -quick -extensions -j 4 \
        -store "$workdir/store" -csv "$workdir/csv$1" \
        >"$workdir/out$1.raw"
    grep "^regenerated" "$workdir/out$1.raw" >"$workdir/footer$1"
    grep -v "^regenerated\|^CSV artifacts written" "$workdir/out$1.raw" >"$workdir/out$1"
}

echo "== run 1 (cold store)"
run 1
echo "   $(cat "$workdir/footer1")"

echo "== run 2 (fresh process, warm store)"
run 2
echo "   $(cat "$workdir/footer2")"

echo "== asserting the second run simulated nothing"
case $(cat "$workdir/footer2") in
*" 0 simulated,"*) ;;
*)
    echo "FAIL: second run re-simulated:" >&2
    cat "$workdir/footer2" >&2
    exit 1
    ;;
esac

echo "== asserting byte-identical stdout"
if ! cmp -s "$workdir/out1" "$workdir/out2"; then
    echo "FAIL: stdout differs between cold and warm runs:" >&2
    diff "$workdir/out1" "$workdir/out2" >&2 || true
    exit 1
fi

echo "== asserting byte-identical CSV artifacts"
if ! diff -r "$workdir/csv1" "$workdir/csv2" >&2; then
    echo "FAIL: CSV artifacts differ between cold and warm runs" >&2
    exit 1
fi

echo "PASS: store-backed rerun simulated nothing and reproduced every byte"
