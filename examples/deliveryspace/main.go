// Deliveryspace: Design Space Analysis applied to the third domain —
// the swarm download-orchestration space built on internal/swarm and
// internal/bandwidth. The delivery package implements repro.Domain,
// and that is all it takes for its 576-strategy space to run on the
// same sharded, checkpointed job engine and heuristic explorer as
// the swarming and gossip sweeps: this program interrupts a sweep
// mid-run, resumes it, finishes it as a second shard, verifies the
// checkpoint reloads to the identical result, and then hill-climbs
// the space on the robustness measure through the generic explorer
// seam — zero delivery-specific engine code anywhere.
//
//	go run ./examples/deliveryspace
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"reflect"
	"sort"

	"repro"
	"repro/internal/delivery"
	"repro/internal/job"
)

func main() {
	domain, err := repro.DomainByName("delivery")
	if err != nil {
		log.Fatal(err)
	}
	space := domain.Space()
	fmt.Printf("delivery design space: %d strategies over %d dimensions\n",
		space.Size(), len(space.Dimensions))
	fmt.Printf("measures: %v\n\n", domain.Measures())

	cfg, err := domain.DefaultConfig("quick")
	if err != nil {
		log.Fatal(err)
	}
	// Keep the demo snappy: a small swarm and short downloads.
	cfg.Peers, cfg.Rounds, cfg.PerfRuns = 8, 240, 2

	dir, err := os.MkdirTemp("", "delivery-sweep-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Shard 0 of 2, interrupted after a few tasks: cancel the context
	// mid-run, exactly like Ctrl-C on dsa-sweep. Completed tasks are
	// journalled in dir.
	ctx, cancel := context.WithCancel(context.Background())
	opts := repro.SweepOptions{Dir: dir, Shards: 2, ShardIndex: 0, Chunk: 16, Workers: 1}
	interrupted := 0
	optsInterrupt := opts
	optsInterrupt.Progress = func(p repro.SweepProgress) {
		interrupted = p.FreshTasks
		if p.FreshTasks >= 3 {
			cancel()
		}
	}
	_, err = repro.RunSweepContext(ctx, domain, nil, cfg, optsInterrupt)
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected interruption, got %v", err)
	}
	fmt.Printf("shard 0 interrupted after %d tasks — journalled in %s\n", interrupted, dir)

	// Resume shard 0: finished tasks are skipped, the rest of this
	// shard's share runs, and the result is still incomplete because
	// shard 1's tasks are outstanding.
	_, err = repro.RunSweepContext(context.Background(), domain, nil, cfg, opts)
	if !errors.Is(err, repro.ErrSweepIncomplete) {
		log.Fatalf("expected incomplete shard, got %v", err)
	}
	fmt.Printf("shard 0 resumed and finished its share: %v\n", err)

	// Shard 1 finds every shard-0 task checkpointed, runs its own, and
	// assembles the full scores.
	opts.ShardIndex = 1
	scores, err := repro.RunSweepContext(context.Background(), domain, nil, cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 assembled the merged sweep: %d points × %d measures\n\n",
		len(scores.Points), len(scores.Values))

	// The checkpoint alone reproduces the identical result — this is
	// what dsa-report -domain delivery merge does.
	reloaded, err := repro.LoadSweep(dir)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(scores, reloaded) {
		log.Fatal("checkpoint reload does not match the assembled sweep")
	}
	fmt.Println("checkpoint reload matches the live merge exactly")

	robustness := scores.Measure(delivery.MeasureRobustness)
	meanTime := scores.Measure(delivery.MeasureMeanTime)
	order := make([]int, len(scores.Points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return robustness[order[a]] > robustness[order[b]] })
	fmt.Println("\ntop 5 delivery strategies by robustness (normalised mean_time shown; 1 = fastest):")
	for _, i := range order[:5] {
		fmt.Printf("  robustness=%.3f mean_time=%.3f  %s\n",
			robustness[i], meanTime[i], domain.Label(scores.Points[i]))
	}
	worst := order[len(order)-1]
	fmt.Printf("worst: robustness=%.3f mean_time=%.3f  %s\n",
		robustness[worst], meanTime[worst], domain.Label(scores.Points[worst]))

	// The Section 7 explorers run on any registered domain: hill-climb
	// the raw robustness measure without sweeping the whole space.
	best, calls, err := job.HillClimb(context.Background(), domain, job.Weights{delivery.MeasureRobustness: 1},
		cfg, job.HillClimbConfig{Restarts: 3, MaxSteps: 30, Seed: 7}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhill climb on robustness: %s (objective %.3f) after %d of %d evaluations\n",
		domain.Label(best.Point), best.Score, calls, space.Size())
}
