//go:build !race

// The race detector's instrumentation allocates, so this allocation pin
// only runs in non-race builds.

package grid

import "testing"

// TestRestartAllocations pins what a restart costs per task: the task
// table, the job file's fold and the assembly work by position, with no
// formatted task names and no maps keyed by them.
func TestRestartAllocations(t *testing.T) {
	dir, spec := finishedDeliveryJob(t)
	tasks := len(spec.Tasks())
	perTask := testing.AllocsPerRun(5, func() { restartFinished(t, dir, spec) }) / float64(tasks)
	if perTask > 5 {
		t.Errorf("a restart of a finished %d-task job allocates %.1f times per task, want at most 5", tasks, perTask)
	}
}
