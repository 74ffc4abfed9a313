// Customprotocol: using the library as a protocol designer would. Build
// a protocol variant by hand from the design-space dimensions, check it
// is inside the actualized space, and evaluate it against the paper's
// named protocols and a sample of the space.
//
//	go run ./examples/customprotocol
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/design"
	"repro/internal/pra"
)

func main() {
	// A designer's hunch: loyal ranking like Loyal-When-needed, but
	// with Prop Share reciprocation and a bigger partner set — trying
	// to combine the Section 4.4 robustness ingredients.
	custom := design.Protocol{
		Stranger:   design.WhenNeeded,
		H:          2,
		Candidate:  design.TFT,
		Ranking:    design.Loyal,
		K:          7,
		Allocation: design.PropShare,
	}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}
	id, err := pra.Domain().PointID(pra.ToPoint(custom))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom protocol %s (space ID %d):\n  %s\n\n", custom, id, custom.Describe())

	lineup := []repro.Protocol{
		custom,
		design.BitTorrent(),
		design.LoyalWhenNeeded(),
		design.MostRobustCandidate(),
		design.Freerider(),
	}
	labels := []string{"custom", "BitTorrent", "LoyalWhenNeeded", "MostRobust", "Freerider"}

	cfg := pra.Quick()
	cfg.Opponents = 50
	res, err := repro.RunPRA(lineup, cfg)
	if err != nil {
		log.Fatal(err)
	}

	perf := res.Scores.Measure(pra.MeasurePerformance)
	rob := res.Scores.Measure(pra.MeasureRobustness)
	agg := res.Scores.Measure(pra.MeasureAggressiveness)
	fmt.Printf("%-16s %11s %11s %15s\n", "protocol", "Performance", "Robustness", "Aggressiveness")
	for i, l := range labels {
		fmt.Printf("%-16s %11.3f %11.3f %15.3f\n", l, perf[i], rob[i], agg[i])
	}

	// Where does the custom protocol sit in the tournament against the
	// robust candidate, head to head?
	meanCustom, meanRobust, err := pra.Encounter(custom, design.MostRobustCandidate(), 0.5, cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhead-to-head 50/50 encounter vs MostRobust: custom %.1f KiB/s vs %.1f KiB/s\n",
		meanCustom, meanRobust)
}
