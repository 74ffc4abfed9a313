#!/usr/bin/env bash
# Score-cache smoke test with real processes: a dsa-sweep runs cold
# with -cache-dir, runs again warm on the same directory, and a third
# time with no cache at all — all three CSVs must be byte-identical
# (caching may never change values). The gossip and delivery domains
# both go through that discipline against one shared cache directory.
# Then the warm/cold explorer benchmark pair must show the PR's
# headline >= 5x speedup. Run from the repo root; CI runs it on every
# push.
set -euo pipefail

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

echo "== building dsa-sweep and dsa-report"
go build -o "$workdir/dsa-sweep" ./cmd/dsa-sweep
go build -o "$workdir/dsa-report" ./cmd/dsa-report

# A small gossip sweep: 36 points, real simulation, seconds not minutes.
sweep_flags=(-domain gossip -preset quick -stride 6 -peers 12 -rounds 200
             -perfruns 2 -encruns 1 -opponents 6 -seed 11)

echo "== uncached reference sweep"
"$workdir/dsa-sweep" "${sweep_flags[@]}" -out "$workdir/reference.csv"

echo "== cold sweep into an empty cache"
"$workdir/dsa-sweep" "${sweep_flags[@]}" -cache-dir "$workdir/cache" \
  -out "$workdir/cold.csv" 2>"$workdir/cold.log"

echo "== warm sweep over the filled cache"
"$workdir/dsa-sweep" "${sweep_flags[@]}" -cache-dir "$workdir/cache" \
  -out "$workdir/warm.csv" 2>"$workdir/warm.log"

echo "== comparing all three CSVs"
cmp "$workdir/reference.csv" "$workdir/cold.csv"
cmp "$workdir/reference.csv" "$workdir/warm.csv"

# The warm run must actually have hit the cache (not silently recomputed).
if ! grep -Eq "score cache: [1-9][0-9]* hits, 0 misses" "$workdir/warm.log"; then
  echo "warm run did not serve every score from the cache:" >&2
  cat "$workdir/warm.log" >&2
  exit 1
fi

# The delivery domain goes through the same discipline — and shares
# the gossip sweep's cache directory, proving the keyer isolates
# domains in a real multi-domain store (the warm run must still be
# all hits / 0 misses for its own entries, never poisoned by gossip's).
delivery_flags=(-domain delivery -preset quick -stride 8 -peers 8 -rounds 240
                -perfruns 2 -encruns 1 -seed 11)

echo "== uncached delivery reference sweep"
"$workdir/dsa-sweep" "${delivery_flags[@]}" -out "$workdir/delivery-reference.csv"

echo "== cold delivery sweep into the shared cache"
"$workdir/dsa-sweep" "${delivery_flags[@]}" -cache-dir "$workdir/cache" \
  -out "$workdir/delivery-cold.csv" 2>"$workdir/delivery-cold.log"

echo "== warm delivery sweep over the shared cache"
"$workdir/dsa-sweep" "${delivery_flags[@]}" -cache-dir "$workdir/cache" \
  -out "$workdir/delivery-warm.csv" 2>"$workdir/delivery-warm.log"

echo "== comparing all three delivery CSVs"
cmp "$workdir/delivery-reference.csv" "$workdir/delivery-cold.csv"
cmp "$workdir/delivery-reference.csv" "$workdir/delivery-warm.csv"

if ! grep -Eq "score cache: [1-9][0-9]* hits, 0 misses" "$workdir/delivery-warm.log"; then
  echo "warm delivery run did not serve every score from the cache:" >&2
  cat "$workdir/delivery-warm.log" >&2
  exit 1
fi

echo "== cache stats view"
"$workdir/dsa-report" -cache-dir "$workdir/cache" cache

echo "== warm-vs-cold explorer benchmark (headline: >= 5x)"
go test -run '^$' -bench 'BenchmarkExplorer(Cold|Warm)Cache$' -benchtime=3x ./internal/job \
  | tee "$workdir/bench.txt"
cold=$(awk '/BenchmarkExplorerColdCache/ {print $3}' "$workdir/bench.txt")
warm=$(awk '/BenchmarkExplorerWarmCache/ {print $3}' "$workdir/bench.txt")
if [ -z "$cold" ] || [ -z "$warm" ]; then
  echo "could not parse benchmark output" >&2
  exit 1
fi
ratio=$(( cold / warm ))
echo "cold ${cold} ns/op, warm ${warm} ns/op => ${ratio}x"
if [ "$ratio" -lt 5 ]; then
  echo "warm explorer run is only ${ratio}x faster than cold; the PR promises >= 5x" >&2
  exit 1
fi
echo "OK: byte-identical CSVs cold/warm/uncached, and a ${ratio}x warm explorer speedup"
