package delivery

// Golden bytes for the download simulator. The fixture was recorded at
// the commit before run state was pooled, the seeding replaced and the
// chunk scans bounded to the live window, and a change that claims byte
// identity must leave it untouched:
//
//	go test ./internal/delivery -run TestGolden
//
// There is no frozen reference implementation to regenerate from, so
// -update re-records from Run itself — only ever at a commit whose
// bytes are the ones to keep, and the diff must only add cases:
//
//	go test ./internal/delivery -run TestGolden -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bandwidth"
)

var update = flag.Bool("update", false, "re-record testdata/golden.json from Run")

const goldenPath = "testdata/golden.json"

// goldenResult is one pinned download: the integers exactly, the two
// byte counts by their IEEE-754 bit patterns.
type goldenResult struct {
	Name          string `json:"name"`
	Completed     bool   `json:"completed"`
	Seconds       int    `json:"seconds"`
	Restarts      int    `json:"restarts"`
	PeerKiBBits   uint64 `json:"peerKiBBits"`
	MirrorKiBBits uint64 `json:"mirrorKiBBits"`
}

func pin(name string, r Result) goldenResult {
	return goldenResult{
		Name: name, Completed: r.Completed, Seconds: r.Seconds, Restarts: r.Restarts,
		PeerKiBBits: math.Float64bits(r.PeerKiB), MirrorKiBBits: math.Float64bits(r.MirrorKiB),
	}
}

// goldenCase is one (strategy, options) pair of the matrix.
type goldenCase struct {
	name string
	s    Strategy
	opt  Options
}

// goldenRegime is one named option set.
type goldenRegime struct {
	name string
	opt  Options
}

// goldenRegimes are the option sets of the matrix. Between them: stress
// on and off, churn zero and positive, a horizon short enough to censor,
// a two-peer swarm (a fanout above two then finds every peer busy, and
// under stress every peer gone, so pickPeer returns -1), a caller-
// supplied capacity distribution, and a download with more peers and
// more chunks than the rest, which is what leaves a reused run state
// dirtiest for the case after it.
func goldenRegimes(t *testing.T) []goldenRegime {
	t.Helper()
	with := func(m func(*Options)) Options {
		opt := DefaultOptions()
		opt.Peers, opt.MaxSeconds = 8, 400
		m(&opt)
		return opt
	}
	// Half the peers at 20 KiB/s, half at 200: a step a hair either side
	// of the median.
	eps := 1e-9
	twoClass, err := bandwidth.New([]bandwidth.Point{{Q: 0, KBps: 20}, {Q: 0.5 - eps, KBps: 20}, {Q: 0.5 + eps, KBps: 200}, {Q: 1, KBps: 200}})
	if err != nil {
		t.Fatal(err)
	}
	return []goldenRegime{
		{"nominal", with(func(o *Options) { o.Seed = 7 })},
		{"big", with(func(o *Options) { o.Seed = 23; o.Peers = 40; o.FileKiB = 8192; o.ChunkKiB = 64; o.MaxSeconds = 600 })},
		{"stress", with(func(o *Options) { o.Seed = 11; o.Peers = 12; o.Stress = true })},
		{"churn", with(func(o *Options) { o.Seed = 13; o.Churn = 0.05 })},
		{"two-peers", with(func(o *Options) { o.Seed = 29; o.Peers = 2 })},
		{"stress+churn", with(func(o *Options) { o.Seed = 17; o.Peers = 16; o.Stress = true; o.Churn = 0.02 })},
		{"short", with(func(o *Options) { o.Seed = 19; o.MaxSeconds = 12 })},
		{"two-peers-stress", with(func(o *Options) { o.Seed = 31; o.Peers = 2; o.Stress = true; o.MaxSeconds = 300 })},
		{"two-class", with(func(o *Options) { o.Seed = 37; o.Dist = twoClass })},
	}
}

// goldenCases strides the 576-strategy space (5 is coprime to every
// dimension's size, so every value of every dimension appears) and
// walks the regimes alongside (9 regimes against 116 strategies: each
// regime meets a dozen different strategies), then adds the few pairs
// whose path is the point of the case.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	regimes := goldenRegimes(t)
	byName := func(name string) Options {
		for _, r := range regimes {
			if r.name == name {
				return r.opt
			}
		}
		t.Fatalf("no regime %q", name)
		return Options{}
	}
	var cases []goldenCase
	pts := Space().Enumerate()
	for i := 0; i*5 < len(pts); i++ {
		s, err := FromPoint(pts[i*5])
		if err != nil {
			t.Fatal(err)
		}
		r := regimes[i%len(regimes)]
		cases = append(cases, goldenCase{name: s.String() + "@" + r.name, s: s, opt: r.opt})
	}
	// A quick-preset download (its point's second nominal run) that
	// completes at 217 s, and stalls to the horizon when the EWMA updates
	// fuse ewmaKeep*ewma into one multiply-add — what arm64, ppc64le and
	// riscv64 compile them to without their float64 conversions.
	fused := DefaultOptions()
	fused.Peers, fused.MaxSeconds, fused.Seed = 12, 400, 1983728831272741339
	fma := Strategy{Selection: SelLatency, Fanout: 1, Racing: RaceP2POnly, Timeout: TimeoutAdaptive, Scenario: ScenarioColluders}
	cases = append(cases, goldenCase{name: fma.String() + "@quick/fma", s: fma, opt: fused})
	starved := Strategy{Selection: SelBalanced, Fanout: 8, Racing: RaceP2POnly, Timeout: TimeoutFixed}
	fallback := Strategy{Selection: SelLatency, Fanout: 4, Racing: RaceWithFallback, Timeout: TimeoutEager, Scenario: ScenarioSybil}
	for _, c := range []struct {
		s      Strategy
		regime string
	}{
		// Eight fetches wanted, two peers: pickPeer returns -1 from the
		// third chunk of the first second on.
		{starved, "two-peers"},
		// Both peers depart for good; P2POnly then stalls to the horizon.
		{starved, "two-peers-stress"},
		// Same population, but Race turns the -1 into a mirror fetch.
		{fallback, "two-peers-stress"},
		// Free riders deliver nothing and there is no mirror: censored.
		{Strategy{Selection: SelLatency, Fanout: 1, Racing: RaceP2POnly, Timeout: TimeoutFixed, Scenario: ScenarioFreeRiders}, "short"},
		// Every one of the 12 peers has departed by second 128, with 19
		// of 20 chunks in: the download ends there, censored.
		{Strategy{Selection: SelThroughput, Fanout: 4, Racing: RaceP2POnly, Timeout: TimeoutAdaptive, Scenario: ScenarioFreeRiders}, "stress"},
		// MirrorOnly never reads the swarm whose spawns, churn and
		// departures would draw here.
		{Strategy{Selection: SelReliability, Fanout: 4, Racing: RaceMirrorOnly, Timeout: TimeoutAdaptive, Scenario: ScenarioSybil}, "stress+churn"},
		{Strategy{Selection: SelBalanced, Fanout: 8, Racing: RaceMirrorOnly, Timeout: TimeoutEager, Scenario: ScenarioColluders}, "two-class"},
		// Both free riders time out before any chunk completes: every
		// eligible peer's throughput is 0 and the first eligible one wins.
		{Strategy{Selection: SelThroughput, Fanout: 2, Racing: RaceWithFallback, Timeout: TimeoutEager, Scenario: ScenarioFreeRiders}, "two-peers"},
		// Eight fetches, at most two peers: after the first refusal of a
		// second every further chunk goes to the mirror.
		{Strategy{Selection: SelReliability, Fanout: 8, Racing: RaceWithFallback, Timeout: TimeoutEager}, "two-peers-stress"},
		{fallback, "big"},
	} {
		cases = append(cases, goldenCase{name: c.s.String() + "@" + c.regime + "/picked", s: c.s, opt: byName(c.regime)})
	}
	return cases
}

// writeGolden stores one case per line, so a refresh diffs case by case.
func writeGolden(t *testing.T, results []goldenResult) {
	t.Helper()
	lines := make([]string, len(results))
	for i, r := range results {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = "\t" + string(buf)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	body := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
	if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cases)", goldenPath, len(results))
}

func readGolden(t *testing.T) map[string]goldenResult {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (see the file comment before using -update): %v", err)
	}
	var golden []goldenResult
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenResult, len(golden))
	for _, g := range golden {
		byName[g.Name] = g
	}
	return byName
}

// TestGoldenMatrixCoverage keeps the matrix honest about what it claims
// to reach: every value of every dimension, both stress settings, both
// churn settings, and a censored run.
func TestGoldenMatrixCoverage(t *testing.T) {
	cases := goldenCases(t)
	seen := map[string]bool{}
	for _, c := range cases {
		for _, k := range []string{
			"sel:" + c.s.Selection.String(), fmt.Sprint("fanout:", c.s.Fanout), "racing:" + c.s.Racing.String(),
			"timeout:" + c.s.Timeout.String(), "scenario:" + c.s.Scenario.String(),
			fmt.Sprint("stress:", c.opt.Stress), fmt.Sprint("churn:", c.opt.Churn > 0), fmt.Sprint("dist:", c.opt.Dist != nil),
		} {
			seen[k] = true
		}
		if seen["name:"+c.name] {
			t.Fatalf("duplicate case name %q", c.name)
		}
		seen["name:"+c.name] = true
	}
	for _, k := range []string{
		"sel:Latency", "sel:Throughput", "sel:Reliability", "sel:Balanced",
		"fanout:1", "fanout:2", "fanout:4", "fanout:8",
		"racing:P2POnly", "racing:MirrorOnly", "racing:Race",
		"timeout:Fixed", "timeout:Adaptive", "timeout:Eager",
		"scenario:Honest", "scenario:FreeRiders", "scenario:Colluders", "scenario:Sybil",
		"stress:true", "stress:false", "churn:true", "churn:false", "dist:true", "dist:false",
	} {
		if !seen[k] {
			t.Errorf("golden matrix never reaches %s", k)
		}
	}
	censored, completed := false, false
	for _, g := range readGolden(t) {
		censored = censored || !g.Completed
		completed = completed || g.Completed
	}
	if !censored || !completed {
		t.Errorf("golden fixture needs a censored and a completed run: censored %v, completed %v", censored, completed)
	}
}

// TestGolden compares Run with the committed bytes, case by case.
func TestGolden(t *testing.T) {
	cases := goldenCases(t)
	if *update {
		results := make([]goldenResult, len(cases))
		for i, c := range cases {
			res, err := Run(c.s, c.opt)
			if err != nil {
				t.Fatalf("case %s: %v", c.name, err)
			}
			results[i] = pin(c.name, res)
		}
		writeGolden(t, results)
		return
	}
	golden := readGolden(t)
	if len(golden) != len(cases) {
		t.Errorf("fixture holds %d cases, the matrix %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("case %s missing from %s", c.name, goldenPath)
			continue
		}
		res, err := Run(c.s, c.opt)
		if err != nil {
			t.Fatalf("case %s: %v", c.name, err)
		}
		if got := pin(c.name, res); got != want {
			t.Errorf("case %s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// TestGoldenOnReusedState walks the whole matrix through one run state,
// each case twice in a row. The matrix alternates regimes, so a small
// download regularly follows the 40-peer, 128-chunk one and finds its
// peers, chunks and generator in the state they were left in; whatever
// a pooled Run can inherit, this inherits on purpose (sync.Pool itself
// may hand out a fresh state at any time, so Run alone would not).
func TestGoldenOnReusedState(t *testing.T) {
	golden := readGolden(t)
	st := statePool.New().(*runState)
	for _, c := range goldenCases(t) {
		for rep := 0; rep < 2; rep++ {
			if got, want := pin(c.name, st.run(c.s, c.opt)), golden[c.name]; got != want {
				t.Errorf("case %s, repeat %d on a reused state:\n got %+v\nwant %+v", c.name, rep, got, want)
			}
		}
	}
}

// TestGoldenConcurrent runs the matrix through Run from several
// goroutines at once, each starting at a different case, so pooled
// states change hands between goroutines and download sizes; under
// -race this is the check that a state is only ever one download's.
func TestGoldenConcurrent(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				c := cases[(k+g*len(cases)/4)%len(cases)]
				res, err := Run(c.s, c.opt)
				if err != nil {
					t.Errorf("case %s: %v", c.name, err)
					return
				}
				if got, want := pin(c.name, res), golden[c.name]; got != want {
					t.Errorf("case %s, goroutine %d:\n got %+v\nwant %+v", c.name, g, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
