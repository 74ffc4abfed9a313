#!/usr/bin/env bash
# Grid smoke test with real processes and a real SIGKILL: a 1-coordinator
# + 2-worker localhost grid sweeps the gossip domain behind worker auth,
# one worker is killed -9 mid-run (its leases must move to the survivor
# past half a TTL, or expire and re-queue),
# the live /metrics endpoint is scraped mid-sweep, and the resulting CSV
# must be byte-identical to a single-process dsa-sweep of the same spec.
# A second phase checks POST /v1/drain shuts a coordinator down with
# exit code 0. Run from the repo root; CI runs it on every push.
set -euo pipefail

workdir=$(mktemp -d)
bin="$workdir/bin"
mkdir -p "$bin"
token="smoke-grid-secret"
cleanup() {
  # Kill anything still running; ignore the ones already gone.
  kill -9 "${coord_pid:-}" "${w1_pid:-}" "${w2_pid:-}" "${drain_pid:-}" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building dsa-grid and dsa-sweep"
go build -o "$bin/dsa-grid" ./cmd/dsa-grid
go build -o "$bin/dsa-sweep" ./cmd/dsa-sweep

# Sweep shape: 36 gossip points, chunk 1 => 72 tasks, sims sized so
# the whole grid run takes several seconds — long enough to kill a
# worker in the middle. Flags must match between the grid and the
# single-process reference exactly.
sweep_flags=(-domain gossip -stride 6 -peers 16 -rounds 800 -perfruns 3
             -encruns 1 -opponents 8 -seed 11 -chunk 1)
addr="127.0.0.1:18437"
url="http://$addr"

echo "== single-process reference sweep"
"$bin/dsa-sweep" "${sweep_flags[@]}" -preset quick -out "$workdir/reference.csv"

echo "== starting coordinator (worker auth on)"
"$bin/dsa-grid" serve -addr "$addr" "${sweep_flags[@]}" -preset quick \
  -checkpoint-dir "$workdir/ckpt" -lease-ttl 2s -once -out "$workdir/grid.csv" \
  -auth-token "$token" \
  >"$workdir/coordinator.log" 2>&1 &
coord_pid=$!

# Wait for the API to come up.
for _ in $(seq 1 50); do
  curl -sf "$url/v1/jobs" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$url/v1/jobs" >/dev/null

echo "== starting 2 workers"
# The doomed worker computes serially but leases greedily, so it holds
# unfinished leases for almost its whole life — the SIGKILL below is
# then guaranteed to strand leases for the re-lease path to recover.
"$bin/dsa-grid" work -coordinator "$url" -name doomed -workers 1 -tasks-per-lease 4 \
  -auth-token "$token" \
  >"$workdir/worker1.log" 2>&1 &
w1_pid=$!
"$bin/dsa-grid" work -coordinator "$url" -name survivor -tasks-per-lease 2 \
  -auth-token "$token" \
  >"$workdir/worker2.log" 2>&1 &
w2_pid=$!

# An unauthenticated lease must bounce with 401 and a JSON error.
job_for_auth=$(curl -sf "$url/v1/jobs" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
code=$(curl -s -o "$workdir/unauth.json" -w '%{http_code}' -X POST \
  -d '{"worker":"intruder"}' "$url/v1/jobs/$job_for_auth/lease")
if [ "$code" != "401" ] || ! grep -q '"error"' "$workdir/unauth.json"; then
  echo "unauthenticated lease answered $code (want 401 + JSON error)" >&2
  cat "$workdir/unauth.json" >&2
  exit 1
fi
echo "== unauthenticated lease correctly rejected with 401"

# Find the job ID, then kill the first worker as soon as a few tasks
# are done but most are still outstanding — a genuine mid-run SIGKILL.
job_id=$(curl -sf "$url/v1/jobs" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
echo "== waiting for progress on job $job_id, then SIGKILLing worker 'doomed'"
for _ in $(seq 1 200); do
  done_tasks=$(curl -sf "$url/v1/jobs/$job_id/progress" | grep -o '"done_tasks":[0-9]*' | cut -d: -f2)
  [ "${done_tasks:-0}" -ge 4 ] && break
  sleep 0.1
done
if [ "${done_tasks:-0}" -ge 60 ] || ! kill -0 "$w1_pid" 2>/dev/null; then
  echo "sweep nearly done before the kill; the workload is too small for this smoke" >&2
  exit 1
fi
kill -9 "$w1_pid"
kill_line=$(wc -l <"$workdir/coordinator.log")
echo "killed at $done_tasks/72 tasks"

echo "== scraping /metrics mid-sweep"
curl -sf "$url/metrics" >"$workdir/metrics.txt"
for metric in grid_leases_granted_total grid_tasks_ingested_total grid_values_ingested_total; do
  if ! grep -Eq "^$metric [0-9]*[1-9]" "$workdir/metrics.txt"; then
    echo "mid-sweep /metrics has no non-zero $metric" >&2
    grep "^$metric" "$workdir/metrics.txt" >&2 || true
    exit 1
  fi
done
grep -q '^grid_job_tasks{' "$workdir/metrics.txt" || {
  echo "mid-sweep /metrics missing per-job queue-depth gauges" >&2; exit 1; }

echo "== waiting for the surviving worker + coordinator to finish"
wait "$w2_pid"
wait "$coord_pid"

echo "== comparing grid CSV against the single-process reference"
cmp "$workdir/reference.csv" "$workdir/grid.csv"

# The kill must actually have exercised the re-lease path: after it,
# the coordinator's log ends a lease the dead worker held, by a move
# (to the survivor, who asks first once it is half a TTL old) or an
# expiry (re-queued at the TTL), each record naming the worker whose
# leases ended and how many.
ended=$(awk -v after="$kill_line" '
  NR > after && / INFO (lease moved|leases expired, tasks re-queued) .* worker=doomed / {
    sub(/.* tasks=/, ""); n += $1
  }
  END { print n + 0 }' "$workdir/coordinator.log")
if [ "$ended" -eq 0 ]; then
  echo "no lease of the killed worker moved or expired — the SIGKILL did not leave leases behind?" >&2
  cat "$workdir/coordinator.log" >&2
  exit 1
fi
echo "OK: byte-identical scores, and $ended of the dead worker's leases were re-leased"

echo "== drain: POST /v1/drain must shut a coordinator down cleanly"
drain_addr="127.0.0.1:18438"
drain_url="http://$drain_addr"
"$bin/dsa-grid" serve -addr "$drain_addr" "${sweep_flags[@]}" -preset quick \
  -auth-token "$token" >"$workdir/drain.log" 2>&1 &
drain_pid=$!
for _ in $(seq 1 50); do
  curl -sf "$drain_url/v1/jobs" >/dev/null 2>&1 && break
  sleep 0.2
done
# Unauthenticated drain must bounce; authenticated drain must land.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$drain_url/v1/drain")
if [ "$code" != "401" ]; then
  echo "unauthenticated drain answered $code (want 401)" >&2; exit 1
fi
# Read the response whole before matching it: under pipefail, grep -q
# closing the pipe early fails curl and with it the step.
drain_resp=$(curl -sf -X POST -H "Authorization: Bearer $token" "$drain_url/v1/drain")
case "$drain_resp" in
  *'"draining":true'*) ;;
  *) echo "drain response malformed: $drain_resp" >&2; exit 1 ;;
esac
drain_rc=0
wait "$drain_pid" || drain_rc=$?
if [ "$drain_rc" -ne 0 ]; then
  echo "drained coordinator exited $drain_rc (want 0)" >&2
  cat "$workdir/drain.log" >&2
  exit 1
fi
grep -q "drained" "$workdir/drain.log" || {
  echo "coordinator log never reported the drain" >&2; exit 1; }
echo "OK: drain rejected without auth, accepted with auth, exit code 0"
