package grid

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/job"
	"repro/internal/pra"
)

// leaseStep is one move of a TestLeaseSize script: a worker leases (most
// its cap) and the grant must carry want tasks, uploads everything it
// holds with elapsed ms per task, is quarantined, or the clock moves
// by secs.
type leaseStep struct {
	op     string // "lease", "upload", "quarantine", "clock"
	worker string
	n      int // lease: the cap; upload: elapsed ms per task; clock: seconds
	want   int // lease: tasks granted
}

func grantStep(w string, most, want int) leaseStep { return leaseStep{"lease", w, most, want} }
func uploadStep(w string, ms int) leaseStep        { return leaseStep{"upload", w, ms, 0} }

// TestLeaseSize pins the one grant rule (leaseSizeLocked) through Lease,
// on a fake clock: the probe, the guided self-scheduling sequence of a
// whole job, the TTL bound, whole chunk groups, the caller's cap, failure
// and slow-worker shaping, and who counts as live.
func TestLeaseSize(t *testing.T) {
	// 72 delivery chunks of one point, four measures: 288 tasks. 11 pra
	// chunks, three measures: 33.
	deliveryJob := job.Spec{Domain: delivery.Domain(), Points: delivery.Domain().Space().Enumerate()[:72],
		Cfg: dsa.Config{Peers: 6, Rounds: 200, PerfRuns: 2, EncounterRuns: 1, Seed: 11}, Chunk: 1}
	praJob := job.Spec{Domain: pra.Domain(), Points: pra.Domain().Space().Enumerate()[:11],
		Cfg: dsa.Config{Peers: 10, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}, Chunk: 1}

	for _, tc := range []struct {
		name  string
		spec  job.Spec
		ttl   time.Duration
		steps []leaseStep
		log   string // a leased record the script must write
	}{{
		name: "probe", spec: deliveryJob,
		steps: []leaseStep{grantStep("a", 0, 4), grantStep("a", 0, 4)}, // no upload, no evidence: still a probe
	}, {
		// Each worker uploads its grant before asking again: ceil(pending/2)
		// rounded down to whole groups of four, until one group is left.
		name: "sequence of a 2-worker job", spec: deliveryJob,
		steps: []leaseStep{
			grantStep("a", 0, 4), grantStep("b", 0, 4),
			uploadStep("a", 0), grantStep("a", 0, 140), uploadStep("b", 0), grantStep("b", 0, 68),
			uploadStep("a", 0), grantStep("a", 0, 36), uploadStep("b", 0), grantStep("b", 0, 16),
			uploadStep("a", 0), grantStep("a", 0, 8), uploadStep("b", 0), grantStep("b", 0, 4),
			uploadStep("a", 0), grantStep("a", 0, 4), uploadStep("b", 0), grantStep("b", 0, 4),
			uploadStep("a", 0), grantStep("a", 0, 0),
		},
		log: "msg=leased job=%s worker=a tasks=140 pending=280 live=2",
	}, {
		// latEWMA 1 s, TTL 30 s: at most 10 tasks, rounded down to 8.
		name: "TTL bound", spec: deliveryJob, ttl: 30 * time.Second,
		steps: []leaseStep{grantStep("a", 0, 4), uploadStep("a", 1000), grantStep("a", 0, 8)},
	}, {
		// ceil(27/2) = 14 rounds down to 12; ceil(3/2) = 2 rounds up to a group.
		name: "whole groups of three", spec: praJob,
		steps: []leaseStep{
			grantStep("a", 0, 3), grantStep("b", 0, 3),
			uploadStep("a", 0), grantStep("a", 0, 12), uploadStep("b", 0), grantStep("b", 0, 6),
			uploadStep("a", 0), grantStep("a", 0, 3), uploadStep("b", 0), grantStep("b", 0, 3),
			uploadStep("a", 0), grantStep("a", 0, 3),
		},
	}, {
		name: "caller's cap", spec: deliveryJob,
		steps: []leaseStep{grantStep("a", 1, 1), grantStep("a", 3, 3), uploadStep("a", 0), grantStep("a", 5, 5), grantStep("a", 1000, 276)},
	}, {
		// Four expiries: failEWMA 1 - 0.7^4 = 0.7599, so the sized 284 is cut
		// to ceil(284 * 0.2401) = 69.
		name: "failure shaping", spec: deliveryJob,
		steps: []leaseStep{
			grantStep("a", 0, 4), uploadStep("a", 0), grantStep("a", 4, 4), {op: "clock", n: 31},
			grantStep("a", 0, 69),
		},
	}, {
		// Latency EWMAs 0.1, 0.1 and 1 s: s is past twice the fleet mean of
		// 0.4 s, so its sized ceil(276/3) = 92 is halved; a's 76 is not.
		name: "slow-worker shaping", spec: deliveryJob, ttl: time.Hour,
		steps: []leaseStep{
			grantStep("a", 0, 4), grantStep("b", 0, 4), grantStep("s", 0, 4),
			uploadStep("a", 100), uploadStep("b", 100), uploadStep("s", 1000),
			grantStep("s", 0, 46), grantStep("a", 0, 76),
		},
	}, {
		// s goes silent past three TTLs and q is quarantined: neither counts,
		// so a's share is ceil(280/2) = 140 beside b, not 92 or 68.
		name: "quarantined and silent workers not live", spec: deliveryJob, ttl: 30 * time.Second,
		steps: []leaseStep{
			grantStep("a", 0, 4), grantStep("s", 0, 4), uploadStep("a", 0), {op: "clock", n: 91},
			grantStep("b", 0, 4), grantStep("q", 0, 4), {op: "quarantine", worker: "q"},
			grantStep("a", 0, 140),
		},
		log: "msg=leased job=%s worker=a tasks=140 pending=280 live=2",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			coord := NewCoordinator(CoordinatorOptions{LeaseTTL: tc.ttl, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
			defer coord.Close()
			now := time.Unix(1000, 0)
			coord.now = func() time.Time { return now }
			id, err := coord.AddJob(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			held := map[string][]LeaseTask{}
			for i, s := range tc.steps {
				switch s.op {
				case "lease":
					resp, err := coord.Lease(ctx, id, s.worker, s.n)
					if err != nil {
						t.Fatal(err)
					}
					if len(resp.Tasks) != s.want {
						t.Fatalf("step %d: %s (cap %d) was granted %d tasks, want %d", i, s.worker, s.n, len(resp.Tasks), s.want)
					}
					held[s.worker] = append(held[s.worker], resp.Tasks...)
				case "upload":
					var rs []TaskResult
					for _, lt := range held[s.worker] {
						rs = append(rs, TaskResult{Task: lt.Task, Values: make([]float64, lt.Hi-lt.Lo), ElapsedMS: int64(s.n)})
					}
					if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: s.worker, Results: rs}); err != nil {
						t.Fatal(err)
					}
					held[s.worker] = nil
				case "quarantine":
					quarantine(coord, s.worker)
				case "clock":
					now = now.Add(time.Duration(s.n) * time.Second)
				}
			}
			if want := fmt.Sprintf(tc.log, id); tc.log != "" && !strings.Contains(logs.String(), want) {
				t.Fatalf("no record reads %q; logs:\n%s", want, logs.String())
			}
		})
	}
}
