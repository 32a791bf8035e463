#!/usr/bin/env bash
# Same-machine A/B guard on one workload of the repository benchmark
# (perfbench/, declared in BENCHMARK.json; fig3-sweep unless WORKLOAD names
# another). Builds perfbench at a base revision and at the working tree,
# runs the two interleaved for five pairs (alternating which side runs
# first), and fails when
#   - a run reports an incorrect result or a failed op;
#   - wcet_gain_pct, energy_gain_pct or acet_gain_pct differs between the
#     two runs of a pair by more than its relative bound in BENCHMARK.json;
#   - head's median ops_per_s is more than 5 percent below base's;
#   - head's median peak_mem_mb exceeds base's by more than its relative
#     bound in BENCHMARK.json.
# perfbench divides its timings by an interleaved reference kernel, so
# ops_per_s stays comparable while the machine's speed drifts.
#
#   BASE=origin/main ./scripts/benchguard.sh
#   BASE=origin/main WORKLOAD=serve-mix ./scripts/benchguard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${BASE:?set BASE to the base revision}"
WORKLOAD="${WORKLOAD:-fig3-sweep}"
PAIRS=5
LIMIT=5

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# A shallow CI checkout may lack the base commit.
git cat-file -e "$BASE^{commit}" 2>/dev/null || git fetch --quiet --depth=1 origin "$BASE"
mkdir "$work/base"
git archive "$BASE" | tar -x -C "$work/base"
# Each copy builds through its own perfbench/go.mod (replace ucp => ../).
(cd "$work/base/perfbench" && go build -o "$work/base.bin" .)
(cd perfbench && go build -o "$work/head.bin" .)

# run SIDE runs SIDE's perfbench once and appends the last line of its
# output, the result JSON, to $work/SIDE.jsonl.
run() {
  "$work/$1.bin" -workload "$WORKLOAD" -seed 1 -seconds 20 -trace 0 | tail -n 1 >>"$work/$1.jsonl"
}

for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base
    run head
  else
    run head
    run base
  fi
  echo "pair $i: ops_per_s base $(tail -n 1 "$work/base.jsonl" | jq .metrics.ops_per_s.value)," \
    "head $(tail -n 1 "$work/head.jsonl" | jq .metrics.ops_per_s.value)"
done

report=$(jq -nr --slurpfile base "$work/base.jsonl" --slurpfile head "$work/head.jsonl" \
  --slurpfile spec BENCHMARK.json --argjson limit "$LIMIT" --arg workload "$WORKLOAD" '
  def median: sort | .[length / 2 | floor];
  def ops: map(.metrics.ops_per_s.value) | median;
  def mem: map(.metrics.peak_mem_mb.value) | median;
  def round2: . * 100 | round / 100;
  def broken($side): .[] | select(.correct != true or .failed > 0) |
    "\($side) run reports correct=\(.correct) failed=\(.failed)";
  ($base | ops) as $b | ($head | ops) as $h | (($h - $b) / $b * 100) as $delta |
  ($base | mem) as $bm | ($head | mem) as $hm |
  ($spec[0].end_to_end[] | select(.name == "peak_mem_mb") | .bound) as $membound |
  [
    ($base | broken("base")), ($head | broken("head")),
    ($spec[0].end_to_end[] | select(.name | endswith("_gain_pct")) as $m |
      range($base | length) as $i |
      $base[$i].metrics[$m.name].value as $bv | $head[$i].metrics[$m.name].value as $hv |
      select(if $bv == 0 then $hv != 0 else (($hv - $bv) / $bv | fabs) > $m.bound end) |
      "pair \($i + 1): \($m.name) base \($bv), head \($hv) (relative bound \($m.bound))"),
    (select($delta < -$limit) | "head ops_per_s is more than \($limit)% below base"),
    (select($hm > $bm * (1 + $membound)) |
      "head peak_mem_mb is more than \($membound * 100)% above base")
  ] as $fails |
  "\($workload) ops_per_s median of \($base | length): base \($b | round2), head \($h | round2) (\($delta | round2)%, limit -\($limit)%)",
  "\($workload) peak_mem_mb median: base \($bm | round2), head \($hm | round2) (\(($hm - $bm) / $bm * 100 | round2)%, limit +\($membound * 100)%)",
  if $fails == [] then "guard passed" else $fails[], "guard failed" end')
echo "$report"
[ "$(tail -n 1 <<<"$report")" = "guard passed" ]
