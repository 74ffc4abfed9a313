// Quickstart: run the PRA quantification over a handful of named
// protocols and print their Performance / Robustness / Aggressiveness.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	// A small protocol lineup: the paper's named protocols.
	named := repro.Named()
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	protocols := make([]repro.Protocol, len(names))
	for i, name := range names {
		protocols[i] = named[name]
	}

	// Quick preset: small populations, sampled opponents — minutes of
	// laptop time rather than cluster-hours. See repro.PaperConfig for
	// the full Section 4.3 scale.
	cfg := repro.QuickConfig()
	cfg.Opponents = 40

	res, err := repro.RunPRA(protocols, cfg)
	if err != nil {
		log.Fatal(err)
	}

	s := res.Scores
	fmt.Println("PRA quantification (quick preset):")
	fmt.Printf("%-16s %-22s %12s %11s %11s %15s\n",
		"name", "protocol", "raw KiB/s", "Performance", "Robustness", "Aggressiveness")
	for i, name := range names {
		fmt.Printf("%-16s %-22s %12.1f %11.3f %11.3f %15.3f\n",
			name, protocols[i].String(),
			s.Raw["performance"][i], s.Measure("performance")[i],
			s.Measure("robustness")[i], s.Measure("aggressiveness")[i])
	}

	// The Robustness/Aggressiveness correlation of Figure 8.
	_, _, r, err := res.Fig8()
	if err == nil {
		fmt.Printf("\nPearson(Robustness, Aggressiveness) = %.3f (paper: 0.96)\n", r)
	}
}
