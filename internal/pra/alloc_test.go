//go:build !race

// The race detector's instrumentation allocates, so this exact
// allocation-count pin only runs in non-race builds.

package pra

import (
	"testing"

	"repro/internal/design"
)

// TestTournamentAllocsIndependentOfEncounterRuns pins that a pairing's
// population is built once, not once per run: every extra run of every
// game costs exactly the two Result slices cyclesim.Run returns.
func TestTournamentAllocsIndependentOfEncounterRuns(t *testing.T) {
	ps := Points([]design.Protocol{design.BitTorrent(), design.SortS()})
	opponents := Points([]design.Protocol{design.BitTorrent(), design.Birds(), design.Freerider()})
	const games = 5 // 2×3 pairings, one of them self-play
	cfg := tiny()
	cfg.Workers = 1
	allocs := func(encounterRuns int) float64 {
		cfg.EncounterRuns = encounterRuns
		return testing.AllocsPerRun(5, func() {
			if _, err := TournamentScores(ps, opponents, 0.5, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, five := allocs(1), allocs(5)
	if extra := five - one; extra != 2*4*games {
		t.Errorf("4 extra runs of %d games allocate %v objects (%v -> %v), want %d (two Result slices a run)",
			games, extra, one, five, 2*4*games)
	}
}
