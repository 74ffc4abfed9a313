// Gridsweep: the distributed sweep grid on one machine. A coordinator
// (repro.ServeGrid) owns the task list of a gossip sweep and serves it
// over HTTP; two workers (repro.GridSweep) lease tasks, compute them
// and upload results. The program then verifies the grid's assembled
// scores are byte-identical to a plain single-process repro.RunSweep
// of the same sweep — the grid's core guarantee, which also holds when
// workers are killed mid-run (their leases expire and the tasks are
// re-leased; see internal/grid).
//
// The same topology runs across machines with the CLI:
//
//	dsa-grid serve -addr :8437 -domain gossip -preset quick
//	dsa-grid work  -coordinator http://host:8437   # on each worker box
//
//	go run ./examples/gridsweep
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	domain, err := repro.DomainByName("gossip")
	if err != nil {
		log.Fatal(err)
	}
	// Keep the demo snappy: a 36-protocol slice of the space, small sims.
	all := domain.Space().Enumerate()
	var pts []repro.SpacePoint
	for i := 0; i < len(all); i += 6 {
		pts = append(pts, all[i])
	}
	cfg := repro.Config{Peers: 10, Rounds: 60, PerfRuns: 1, EncounterRuns: 1, Opponents: 6, Seed: 11}

	fmt.Printf("single-process reference sweep: %d points...\n", len(pts))
	want, err := repro.RunSweepContext(context.Background(), domain, pts, cfg, repro.SweepOptions{Chunk: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("same sweep as a grid: 1 coordinator + 2 HTTP workers...")
	ctx := context.Background()
	addrC := make(chan string, 1)
	type result struct {
		scores *repro.Scores
		err    error
	}
	served := make(chan result, 1)
	go func() {
		s, err := repro.ServeGrid(ctx, "127.0.0.1:0", domain, pts, cfg, repro.GridOptions{
			Chunk:    3,
			OnListen: func(addr string) { addrC <- addr },
		})
		served <- result{s, err}
	}()
	url := "http://" + <-addrC
	fmt.Printf("coordinator listening on %s\n", url)

	workers := make(chan result, 2)
	for w := 0; w < 2; w++ {
		go func() {
			s, err := repro.GridSweep(ctx, url, 2)
			workers <- result{s, err}
		}()
	}
	for w := 0; w < 2; w++ {
		if r := <-workers; r.err != nil {
			log.Fatalf("worker: %v", r.err)
		}
	}
	r := <-served
	if r.err != nil {
		log.Fatalf("coordinator: %v", r.err)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(r.scores)
	if string(wantJSON) != string(gotJSON) {
		log.Fatal("grid scores differ from the single-process sweep")
	}
	fmt.Println("grid scores are byte-identical to the single-process sweep ✓")

	// Show what the sweep found: the most robust protocols.
	rob := r.scores.Measure("robustness")
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rob[order[a]] > rob[order[b]] })
	fmt.Println("\ntop 5 by robustness:")
	for _, i := range order[:5] {
		fmt.Printf("  robustness=%.3f coverage=%.3f  %s\n",
			rob[i], r.scores.Measure("coverage")[i], domain.Label(pts[i]))
	}
}
