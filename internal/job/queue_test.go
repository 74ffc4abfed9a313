package job

// The one work queue: ExecTasks hands its units out through
// dsa.ParallelFor's cursor. Observed through plainDomain (no joint
// capability, so each task is its own unit and the unit order is the
// task order) with a hook at the start of every unit.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
)

// hookedDomain is plainDomain whose ScoreSlice first calls enter with
// the task it starts.
type hookedDomain struct {
	*plainDomain
	enter func(t Task) error
}

func (d hookedDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	if err := d.enter(Task{Measure: measure, Lo: pts[0][0], Hi: pts[len(pts)-1][0] + 1}); err != nil {
		return nil, err
	}
	return d.plainDomain.ScoreSlice(measure, pts, opponents, cfg)
}

// startLog records the units that started, by index into tasks.
type startLog struct {
	tasks []Task
	mu    sync.Mutex
	units []int
}

func (l *startLog) start(t Task) int {
	i := slices.Index(l.tasks, t)
	l.mu.Lock()
	l.units = append(l.units, i)
	l.mu.Unlock()
	return i
}

func (l *startLog) started() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := slices.Clone(l.units)
	slices.Sort(out)
	return out
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestExecTasksStopsAtFirstFailure: two workers claim units 0 and 1;
// unit 0 fails while unit 1 is still running. No unit beyond those two
// starts, and the failure is what ExecTasks returns.
func TestExecTasksStopsAtFirstFailure(t *testing.T) {
	var (
		log      = &startLog{}
		boom     = errors.New("boom")
		started1 = make(chan struct{})
		failed   = make(chan struct{})
	)
	d := hookedDomain{plainDomain: newPlainDomain(t)}
	spec := fuseSpec(d)
	log.tasks = spec.Tasks()
	d.enter = func(task Task) error {
		switch log.start(task) {
		case 0:
			<-started1 // both claims are made before the failure
			close(failed)
			return boom
		case 1:
			close(started1)
			<-failed
			time.Sleep(50 * time.Millisecond) // let the failure's cancel land
		}
		return nil
	}
	spec.Domain = d
	sink := func(Task, []float64, time.Duration) error { return nil }
	err := ExecTasks(context.Background(), spec, log.tasks, ExecOptions{Workers: 2}, sink)
	if !errors.Is(err, boom) {
		t.Fatalf("ExecTasks = %v, want the unit's failure", err)
	}
	if got := log.started(); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("units %v started, want only the two claimed before the failure [0 1]", got)
	}
}

// TestExecTasksCancelledContextRunsNothing: a context cancelled before
// the call starts no unit and delivers nothing, at any width.
func TestExecTasksCancelledContextRunsNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		log := &startLog{}
		d := hookedDomain{plainDomain: newPlainDomain(t)}
		d.enter = func(task Task) error { log.start(task); return nil }
		spec := fuseSpec(d)
		log.tasks = spec.Tasks()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		delivered := 0
		err := ExecTasks(ctx, spec, log.tasks, ExecOptions{Workers: workers}, func(Task, []float64, time.Duration) error {
			delivered++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ExecTasks = %v, want context.Canceled", workers, err)
		}
		if got := log.started(); len(got) != 0 || delivered != 0 {
			t.Errorf("workers=%d: units %v started and %d tasks delivered under a cancelled context", workers, got, delivered)
		}
	}
}

// TestExecTasksOneWorkerRunsInlineInOrder: with Workers: 1 every unit
// runs on the caller's goroutine, in task order.
func TestExecTasksOneWorkerRunsInlineInOrder(t *testing.T) {
	spec := fuseSpec(newPlainDomain(t))
	tasks := spec.Tasks()
	caller := goroutineID()
	var order []Task
	err := ExecTasks(context.Background(), spec, tasks, ExecOptions{Workers: 1}, func(task Task, _ []float64, _ time.Duration) error {
		if g := goroutineID(); g != caller {
			t.Errorf("task %s ran on goroutine %s, not the caller's %s", task.ID(), g, caller)
		}
		order = append(order, task)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, tasks) {
		t.Fatalf("tasks ran in order %v, want %v", order, tasks)
	}
}

// BenchmarkExecTasksWarm is ExecTasks' own cost: the delivery quick space
// over a warm in-memory cache, so every unit is lookups and sinks and no
// simulation.
func BenchmarkExecTasksWarm(b *testing.B) {
	d := delivery.Domain()
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Domain: d, Points: d.Space().Enumerate(), Cfg: cfg, Chunk: 8}
	tasks := spec.Tasks()
	sc, err := cache.Open(cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	sink := func(Task, []float64, time.Duration) error { return nil }
	if err := ExecTasks(context.Background(), spec, tasks, ExecOptions{Cache: sc}, sink); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			opts := ExecOptions{Workers: workers, Cache: sc}
			b.ResetTimer()
			for range b.N {
				if err := ExecTasks(context.Background(), spec, tasks, opts, sink); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(tasks)), "us/task")
		})
	}
}
