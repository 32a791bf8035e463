#!/usr/bin/env bash
# Same-machine A/B guard on BenchmarkFigure3. Builds the root package's
# test binary at a base revision and at the working tree, runs the two
# interleaved for five pairs with -benchtime 1x (alternating which side
# runs first), and fails when the head minimum exceeds the base minimum by
# more than 5 percent. Interleaving and min-of-N keep runner drift out of
# the comparison.
#
#   BASE=origin/main ./scripts/benchguard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${BASE:?set BASE to the base revision}"
PAIRS=5
LIMIT=5

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# A shallow CI checkout may lack the base commit.
git cat-file -e "$BASE^{commit}" 2>/dev/null || git fetch --quiet --depth=1 origin "$BASE"
mkdir "$work/base"
git archive "$BASE" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .

# run DIR BIN prints BenchmarkFigure3's ns/op for one run of BIN in DIR.
run() {
  (cd "$1" && "$2" -test.run '^$' -test.bench '^BenchmarkFigure3$' -test.benchtime 1x -test.timeout 10m) |
    awk '$1 ~ /^BenchmarkFigure3(-[0-9]+)?$/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i - 1) }'
}

base_min="" head_min=""
for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    b=$(run "$work/base" "$work/base.test")
    h=$(run . "$work/head.test")
  else
    h=$(run . "$work/head.test")
    b=$(run "$work/base" "$work/base.test")
  fi
  echo "pair $i: base $b ns/op, head $h ns/op"
  if [ -z "$base_min" ] || [ "$b" -lt "$base_min" ]; then base_min=$b; fi
  if [ -z "$head_min" ] || [ "$h" -lt "$head_min" ]; then head_min=$h; fi
done

awk -v b="$base_min" -v h="$head_min" -v pairs="$PAIRS" -v limit="$LIMIT" 'BEGIN {
  delta = (h - b) / b * 100
  printf "BenchmarkFigure3 min of %s: base %.0f ns/op, head %.0f ns/op (%+.2f%%, limit +%s%%)\n", pairs, b, h, delta, limit
  if (delta > limit) { print "head is slower than base beyond the limit"; exit 1 }
}'
