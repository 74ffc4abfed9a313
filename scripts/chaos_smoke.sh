#!/usr/bin/env bash
# Byzantine/chaos smoke test with real processes and real failures: a
# coordinator sweeps the gossip domain with full result auditing and
# hedged leases on, against three workers — one uploading deliberately
# corrupted values (it must end up quarantined), one behind a seeded
# fault-injecting transport (drops, delays, duplicates, corruption,
# spurious 500s), one honest. The coordinator is SIGKILLed mid-sweep
# and restarted over the same WAL + checkpoint directory; the workers
# ride out the outage via -reconnect. The final CSV must still be
# byte-identical to a clean single-process dsa-sweep. Run from the
# repo root; CI runs it on every push.
set -euo pipefail

workdir=$(mktemp -d)
bin="$workdir/bin"
mkdir -p "$bin"
token="smoke-chaos-secret"
cleanup() {
  kill -9 "${coord_pid:-}" "${byz_pid:-}" "${stormy_pid:-}" "${steady_pid:-}" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building dsa-grid and dsa-sweep"
go build -o "$bin/dsa-grid" ./cmd/dsa-grid
go build -o "$bin/dsa-sweep" ./cmd/dsa-sweep

# Same sweep shape as grid_smoke: 36 gossip points, chunk 1 => 72
# tasks, sized to run for several seconds so the coordinator kill
# lands mid-sweep.
sweep_flags=(-domain gossip -stride 6 -peers 16 -rounds 800 -perfruns 3
             -encruns 1 -opponents 8 -seed 11 -chunk 1)
addr="127.0.0.1:18439"
url="http://$addr"
serve_flags=("${sweep_flags[@]}" -preset quick -checkpoint-dir "$workdir/ckpt"
             -lease-ttl 2s -audit-rate 1.0 -once -out "$workdir/grid.csv"
             -auth-token "$token")

echo "== single-process reference sweep"
"$bin/dsa-sweep" "${sweep_flags[@]}" -preset quick -out "$workdir/reference.csv"

echo "== starting coordinator (audit-rate 1.0, hedging, WAL on)"
"$bin/dsa-grid" serve -addr "$addr" "${serve_flags[@]}" \
  >"$workdir/coordinator1.log" 2>&1 &
coord_pid=$!
for _ in $(seq 1 50); do
  curl -sf "$url/v1/jobs" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$url/v1/jobs" >/dev/null

echo "== starting 3 workers: byzantine, chaotic transport, honest"
# Every worker tolerates 30s of coordinator outage, so the SIGKILL +
# restart below is invisible to them. The byzantine one corrupts every
# upload; with -audit-rate 1.0 its first audited task must get it
# quarantined, its results expunged and recomputed by the others.
"$bin/dsa-grid" work -coordinator "$url" -name byz -workers 1 \
  -auth-token "$token" -reconnect 30s -chaos-byzantine \
  >"$workdir/byz.log" 2>&1 &
byz_pid=$!
"$bin/dsa-grid" work -coordinator "$url" -name stormy -workers 1 \
  -auth-token "$token" -reconnect 30s \
  -chaos-transport "seed=7,drop=0.05,delay=0.1:20ms,dup=0.05,corrupt=0.05,err500=0.05" \
  >"$workdir/stormy.log" 2>&1 &
stormy_pid=$!
"$bin/dsa-grid" work -coordinator "$url" -name steady -workers 2 \
  -auth-token "$token" -reconnect 30s \
  >"$workdir/steady.log" 2>&1 &
steady_pid=$!

job_id=$(curl -sf "$url/v1/jobs" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
echo "== waiting for progress on job $job_id, then SIGKILLing the coordinator"
for _ in $(seq 1 200); do
  done_tasks=$(curl -sf "$url/v1/jobs/$job_id/progress" 2>/dev/null \
    | grep -o '"done_tasks":[0-9]*' | cut -d: -f2 || true)
  [ "${done_tasks:-0}" -ge 4 ] && break
  sleep 0.1
done
if [ "${done_tasks:-0}" -lt 4 ] || [ "${done_tasks:-0}" -ge 60 ]; then
  echo "coordinator kill window missed (done=${done_tasks:-0}/72)" >&2
  exit 1
fi
kill -9 "$coord_pid"
# Reap it: until it has exited, its listening socket may still hold the port.
wait "$coord_pid" 2>/dev/null || true
echo "coordinator killed at $done_tasks/72 tasks"

echo "== restarting the coordinator over the same WAL + checkpoints"
"$bin/dsa-grid" serve -addr "$addr" "${serve_flags[@]}" \
  >"$workdir/coordinator2.log" 2>&1 &
coord_pid=$!
for _ in $(seq 1 50); do
  curl -sf "$url/v1/jobs" >/dev/null 2>&1 && break
  sleep 0.2
done
if ! job_id2=$(curl -sf "$url/v1/jobs" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); then
  echo "the restarted coordinator lists no job; coordinator2.log ends:" >&2
  tail -n 20 "$workdir/coordinator2.log" >&2
  exit 1
fi
if [ "$job_id2" != "$job_id" ]; then
  echo "job ID changed across the crash: $job_id vs $job_id2" >&2
  exit 1
fi
grep -q "replayed" "$workdir/coordinator2.log" || sleep 0.5

echo "== waiting for the byzantine worker to be quarantined"
quarantined=""
for _ in $(seq 1 300); do
  if curl -sf "$url/metrics" 2>/dev/null \
    | grep -Eq '^grid_worker_quarantined\{worker="byz"\} 1'; then
    quarantined=yes
    break
  fi
  sleep 0.2
done
if [ -z "$quarantined" ]; then
  echo "worker 'byz' never showed up quarantined in /metrics" >&2
  curl -sf "$url/metrics" | grep -E '^grid_(worker_quarantined|quarantines)' >&2 || true
  exit 1
fi
echo "== worker 'byz' is quarantined"

echo "== waiting for the honest workers + coordinator to finish"
# The byzantine worker exits non-zero on its quarantine verdict — that
# is the expected outcome, not a smoke failure.
wait "$stormy_pid"
wait "$steady_pid"
wait "$coord_pid"
byz_rc=0
wait "$byz_pid" || byz_rc=$?
if [ "$byz_rc" -eq 0 ]; then
  echo "the byzantine worker exited 0 — it was never told about its quarantine" >&2
  exit 1
fi
grep -q "quarantined" "$workdir/byz.log" || {
  echo "byzantine worker's log never mentions its quarantine verdict" >&2
  cat "$workdir/byz.log" >&2
  exit 1
}

echo "== comparing grid CSV against the single-process reference"
cmp "$workdir/reference.csv" "$workdir/grid.csv"

# The quarantine verdict itself must be in a coordinator log.
if ! grep -hq "QUARANTINED" "$workdir/coordinator1.log" "$workdir/coordinator2.log"; then
  echo "no coordinator ever logged the quarantine verdict" >&2
  exit 1
fi
echo "OK: byte-identical scores despite a byzantine worker, transport chaos and a coordinator kill -9"
