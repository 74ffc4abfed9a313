package dsa_test

// The joint-scoring contract: dsa.ScoreSlices is per-measure ScoreSlice,
// bit for bit, whatever subset of measures and points a schedule hands
// it — through a domain's JointScorer (delivery) and through the
// fallback loop (swarming, gossip) alike.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/pra"
)

// jointCases is one small sweep per registered domain.
var jointCases = []struct {
	d      dsa.Domain
	cfg    dsa.Config
	stride int
}{
	{pra.Domain(), dsa.Config{Peers: 8, Rounds: 20, PerfRuns: 1, EncounterRuns: 1, Opponents: 2, Seed: 5}, 400},
	{gossip.Domain(), dsa.Config{Peers: 8, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 11}, 40},
	{delivery.Domain(), dsa.Config{Peers: 6, Rounds: 200, PerfRuns: 2, EncounterRuns: 1, Seed: 11}, 36},
}

func TestScoreSlicesMatchesScoreSlice(t *testing.T) {
	for _, tc := range jointCases {
		t.Run(tc.d.Name(), func(t *testing.T) {
			pool := dsa.StridePoints(tc.d, tc.stride)
			opponents := tc.d.SampleOpponents(tc.cfg)
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 5; trial++ {
				// A random non-empty subset of measures in random order
				// (the last trial repeats one), over a random subset of
				// points in random order.
				measures := append([]string(nil), tc.d.Measures()...)
				rng.Shuffle(len(measures), func(i, j int) { measures[i], measures[j] = measures[j], measures[i] })
				measures = measures[:1+rng.Intn(len(measures))]
				if trial == 4 {
					measures = append(measures, measures[0])
				}
				var pts []core.Point
				for _, i := range rng.Perm(len(pool))[:1+rng.Intn(len(pool))] {
					pts = append(pts, pool[i])
				}
				for _, workers := range []int{1, 4} {
					cfg := tc.cfg
					cfg.Workers = workers
					got, err := dsa.ScoreSlices(tc.d, measures, pts, opponents, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(measures) {
						t.Fatalf("%d vectors for %d measures", len(got), len(measures))
					}
					for k, m := range measures {
						want, err := tc.d.ScoreSlice(m, pts, opponents, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(got[k]) != len(want) {
							t.Fatalf("trial %d %v workers=%d: %s has %d values, want %d", trial, measures, workers, m, len(got[k]), len(want))
						}
						for i := range want {
							if math.Float64bits(got[k][i]) != math.Float64bits(want[i]) {
								t.Fatalf("trial %d %v workers=%d: %s[%d] = %v, ScoreSlice says %v", trial, measures, workers, m, i, got[k][i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// sliceSpy counts ScoreSlice calls. Embedding the interface hides a
// JointScorer, so every domain goes through the fallback loop here.
type sliceSpy struct {
	dsa.Domain
	calls atomic.Int64
}

func (s *sliceSpy) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	s.calls.Add(1)
	return s.Domain.ScoreSlice(measure, pts, opponents, cfg)
}

func TestScoreSlicesUnknownMeasureRunsNothing(t *testing.T) {
	for _, tc := range jointCases {
		for _, d := range []dsa.Domain{tc.d, &sliceSpy{Domain: tc.d}} {
			pts := dsa.StridePoints(tc.d, tc.stride)
			_, err := dsa.ScoreSlices(d, []string{tc.d.Measures()[0], "no-such-measure"}, pts, tc.d.SampleOpponents(tc.cfg), tc.cfg)
			if err == nil || !strings.Contains(err.Error(), "no-such-measure") {
				t.Errorf("%s: err = %v, want one naming the unknown measure", tc.d.Name(), err)
			}
			if spy, ok := d.(*sliceSpy); ok && spy.calls.Load() != 0 {
				t.Errorf("%s: %d ScoreSlice calls before the unknown measure was rejected", tc.d.Name(), spy.calls.Load())
			}
		}
	}
}

// TestDeliveryJointKeepsValues pins that sharing runs changed no
// delivery value: no score-version bump (cached scores stay valid), and
// the full space scored jointly renders the CSV whose digest bench/
// committed before the capability existed.
func TestDeliveryJointKeepsValues(t *testing.T) {
	d := delivery.Domain()
	if v, ok := d.(dsa.ScoreVersioned); ok && v.ScoreVersion() != 0 {
		t.Fatalf("delivery score version = %d, want 0", v.ScoreVersion())
	}
	if _, ok := d.(dsa.JointScorer); !ok {
		t.Fatal("delivery lost its JointScorer")
	}
	// bench's delivery sweep: the quick preset over the whole space, in
	// the order its golden seed (1) shuffles the points into.
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	pts := append([]core.Point(nil), d.Space().Enumerate()...)
	rand.New(rand.NewSource(1)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	vecs, err := dsa.ScoreSlices(d, d.Measures(), pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string][]float64{}
	for k, m := range d.Measures() {
		raw[m] = vecs[k]
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dsa.WriteCSV(&csv, d, scores); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../bench/golden/delivery-grid-durable.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv.Bytes())
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("jointly scored delivery CSV digest %s, bench golden %s", got, want)
	}
}
