package gridobs

import (
	"reflect"
	"testing"
	"time"
)

func TestHistogramVecEach(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewHistogramVec("task_seconds", "", DefBuckets, "measure")
	vec.With("robustness").Observe(1)
	vec.With("performance").Observe(2)

	var seen []string
	vec.Each(func(values []string, h *Histogram) {
		seen = append(seen, values[0])
		if h.Count() != 1 {
			t.Errorf("child %q count = %d, want 1", values[0], h.Count())
		}
	})
	if want := []string{"performance", "robustness"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("Each order = %v, want %v (sorted by label)", seen, want)
	}
}

func TestWorkerMetricsSnapshot(t *testing.T) {
	var nilMetrics *WorkerMetrics
	if nilMetrics.Snapshot() != nil {
		t.Fatal("nil WorkerMetrics must snapshot to nil")
	}

	m := NewWorkerMetrics(nil)
	m.ObserveLease(4)
	m.ObserveTask("performance", 120*time.Millisecond, 6, 2)
	m.ObserveTask("robustness", 40*time.Millisecond, 0, 8)
	m.ObserveUpload(2)
	m.ObserveLeasesLost(1)

	s := m.Snapshot()
	if s.Tasks != 2 || s.PointsSimulated != 6 || s.PointsCached != 10 {
		t.Fatalf("task counters = %+v", s)
	}
	if s.Leases != 1 || s.LeasedTasks != 4 || s.Uploads != 1 || s.UploadRetries != 2 || s.LeasesLost != 1 {
		t.Fatalf("lease/upload counters = %+v", s)
	}
	if len(s.TaskSeconds) != 2 {
		t.Fatalf("task_seconds has %d measures, want 2", len(s.TaskSeconds))
	}
	if hs := s.TaskSeconds["performance"]; hs.Count != 1 || hs.Sum != 0.12 {
		t.Fatalf("performance snapshot = %+v", hs)
	}
	if hs := s.TaskSeconds["robustness"]; hs.Count != 1 {
		t.Fatalf("robustness snapshot = %+v", hs)
	}
}
