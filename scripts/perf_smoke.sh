#!/usr/bin/env bash
# perf_smoke.sh — enforce the PR 5 performance floor in CI.
#
# Runs the paired cold tournament-sweep benchmarks (optimized
# cyclesim vs the frozen pre-optimization reference in
# internal/cyclesim/reference_test.go) and requires the optimized
# implementation to be at least MIN_SPEEDUP times faster. Byte-identity
# of the two is enforced separately by the golden-parity suites; this
# script only guards the speed claim so it is re-measured on every push
# instead of decaying into a stale README number.
#
# Also re-runs the steady-state allocation pins (0 allocs/round for
# the cyclesim round loop, 0 allocs/second for the swarm transfer
# loop) so the floor cannot be met by trading allocations for time,
# and reports the swarm run pair (advisory — the swarm is not on the
# sweep hot path).
#
# A second paired floor guards the delivery domain's joint scoring: all
# four measures through one dsa.ScoreSlices call (6 downloads per point
# at PerfRuns 3) against four ScoreSlice calls over the same points (15
# per point) must be at least 2.0x faster — 2.5x by run count, 2.2-2.4x
# measured (a stress download runs longer than a nominal one). The parity tests in internal/dsa pin the two to equal bits.
#
# A third paired floor guards the gossip simulator: the Quick preset's
# runs for every 25th point of the space through gossip.Run must be at
# least 3.0x faster than through the frozen seed loop in
# internal/gossip/reference_test.go (~6x measured; the reference side
# takes ~4 s). FuzzRunMatchesReference pins the two to equal bits, and
# TestRunAllocs pins a warm Run at its one Result allocation.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"
BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-3}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "== allocation pins =="
go test ./internal/cyclesim -run 'TestRoundLoopAllocFree|TestPooledRunAllocs' -count=1
go test ./internal/swarm -run 'TestTransferLoopAllocFree|TestPooledRunAllocsSwarm' -count=1
go test ./internal/gossip -run 'TestRunAllocs' -count=1

echo "== cold tournament sweep: optimized vs frozen reference =="
go test -run '^$' \
  -bench 'BenchmarkTournamentCold$|BenchmarkTournamentColdReference$|BenchmarkSwarmRun$|BenchmarkSwarmRunReference$' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/cyclesim ./internal/swarm | tee "$OUT"

# Best (minimum) ns/op per benchmark: CI machines are noisy upward,
# never downward.
min_ns() {
  awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { if (min == "" || $3 < min) min = $3 } END { print min }' "$OUT"
}

OPT=$(min_ns BenchmarkTournamentCold)
REF=$(min_ns BenchmarkTournamentColdReference)
SOPT=$(min_ns BenchmarkSwarmRun)
SREF=$(min_ns BenchmarkSwarmRunReference)
if [ -z "$OPT" ] || [ -z "$REF" ]; then
  echo "perf_smoke: FAILED to parse benchmark output" >&2
  exit 1
fi

RATIO=$(awk -v r="$REF" -v o="$OPT" 'BEGIN { printf "%.2f", r / o }')
SRATIO=$(awk -v r="$SREF" -v o="$SOPT" 'BEGIN { if (o != "") printf "%.2f", r / o }')
echo "tournament cold sweep: reference ${REF} ns/op, optimized ${OPT} ns/op -> ${RATIO}x (floor ${MIN_SPEEDUP}x)"
[ -n "$SRATIO" ] && echo "swarm run (advisory):  reference ${SREF} ns/op, optimized ${SOPT} ns/op -> ${SRATIO}x"

# floor WHAT RATIO MIN: pass or fail one paired comparison.
floor() {
  if awk -v r="$2" -v m="$3" 'BEGIN { exit !(r + 0 >= m + 0) }'; then
    echo "perf_smoke: PASS (${2}x >= ${3}x)"
  else
    echo "perf_smoke: FAIL — $1 speedup ${2}x is below the ${3}x floor" >&2
    exit 1
  fi
}
floor "cold tournament" "$RATIO" "$MIN_SPEEDUP"

echo "== delivery sweep: four measures jointly vs one ScoreSlice per measure =="
go test -run '^$' \
  -bench 'BenchmarkDeliverySweepJoint$|BenchmarkDeliverySweepPerMeasure$' \
  -benchtime="$BENCHTIME" -count="$COUNT" ./internal/delivery | tee "$OUT"

JOINT=$(min_ns BenchmarkDeliverySweepJoint)
PER=$(min_ns BenchmarkDeliverySweepPerMeasure)
if [ -z "$JOINT" ] || [ -z "$PER" ]; then
  echo "perf_smoke: FAILED to parse benchmark output" >&2
  exit 1
fi
JRATIO=$(awk -v p="$PER" -v j="$JOINT" 'BEGIN { printf "%.2f", p / j }')
echo "delivery sweep: per measure ${PER} ns/op, joint ${JOINT} ns/op -> ${JRATIO}x (floor 2.0x)"
floor "joint delivery scoring" "$JRATIO" 2.0

echo "== gossip quick sweep: optimized vs frozen reference =="
go test ./internal/gossip -run '^$' \
  -bench 'BenchmarkQuickSweep$|BenchmarkQuickSweepReference$' \
  -benchtime="$BENCHTIME" -count="$COUNT" | tee "$OUT"

GOPT=$(min_ns BenchmarkQuickSweep)
GREF=$(min_ns BenchmarkQuickSweepReference)
if [ -z "$GOPT" ] || [ -z "$GREF" ]; then
  echo "perf_smoke: FAILED to parse benchmark output" >&2
  exit 1
fi
GRATIO=$(awk -v r="$GREF" -v o="$GOPT" 'BEGIN { printf "%.2f", r / o }')
echo "gossip quick sweep: reference ${GREF} ns/op, optimized ${GOPT} ns/op -> ${GRATIO}x (floor 3.0x)"
floor "gossip simulator" "$GRATIO" 3.0
