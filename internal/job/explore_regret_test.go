package job

// Whether the explorers earn their code: for every registered domain,
// two blends and three scoring budgets, the best point an explorer finds
// within its first B scored points against the best of B uniformly
// random points, over twenty seeds. The whole space is scored once first,
// so the optimum, the worst point and every rank are known, and that one
// pass warms the cache every search then reads (none simulates).
//
// go test ./internal/job -run TestExplorerRegret -update re-records
// testdata/regret.golden.json from the live explorers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/pra"
	"repro/internal/stats"
)

const regretGoldenPath = "testdata/regret.golden.json"

var (
	regretBudgets = []float64{0.01, 0.03, 0.10} // shares of the space
	regretSeeds   = 20                          // seeds 1..20, paired across methods
)

// regretCase is one domain at exploreCases scale with the blends it is
// measured on: the exploreCases blend and the domain's primary measure
// alone, unless that ties more than 1 % of the space at the optimum (a
// search that finds one of many optima tells nothing); regretStandIns
// then names the blend measured instead.
type regretCase struct {
	d      dsa.Domain
	cfg    dsa.Config
	blends []Weights
}

// regretStandIns replace a primary measure that ties at the optimum:
// swarming's performance alone puts 90 of 3270 points within 1e-9 of it,
// delivery's robustness 493 of 576.
var regretStandIns = map[string]Weights{
	pra.DomainName:      {pra.MeasurePerformance: 1, pra.MeasureAggressiveness: 40},
	delivery.DomainName: {delivery.MeasureMeanTime: -1},
}

func regretCases() []regretCase {
	out := make([]regretCase, len(exploreCases))
	for i, tc := range exploreCases {
		primary, ok := regretStandIns[tc.d.Name()]
		if !ok {
			primary = Weights{tc.d.Measures()[0]: 1}
		}
		out[i] = regretCase{tc.d, tc.cfg, []Weights{tc.w, primary}}
	}
	return out
}

// ci is a stats.MeanCI95 of paired per-seed differences.
type ci struct {
	Mean float64 `json:"mean"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// regretRow is one (domain, blend, budget) line of the table. A gap is
// (opt − best)/(opt − worst): 0 at the optimum, 1 at the worst point. A
// rank is 1 + the number of points scoring strictly higher.
type regretRow struct {
	Domain string             `json:"domain"`
	Blend  string             `json:"blend"`
	Ties   int                `json:"ties_at_optimum"`
	Budget int                `json:"budget"`
	Gap    map[string]float64 `json:"mean_gap"`
	Rank   map[string]float64 `json:"mean_rank"`
	// Explorer → gap(random) − gap(explorer); a low end above 0 means
	// the explorer beats random sampling at this budget.
	VsRandom map[string]ci `json:"random_minus_explorer"`
}

// regretExplorers run one search from a warm cache until ctx is
// cancelled or the search ends on its own; only the order in which they
// score points is read.
var regretExplorers = []struct {
	name string
	run  func(ctx context.Context, d dsa.Domain, w Weights, cfg dsa.Config, seed int64, c dsa.ScoreCache, budget int) error
}{
	{"hillclimb", func(ctx context.Context, d dsa.Domain, w Weights, cfg dsa.Config, seed int64, c dsa.ScoreCache, budget int) error {
		_, _, err := HillClimb(ctx, d, w, cfg, HillClimbConfig{Restarts: budget, MaxSteps: 30, Seed: seed}, c, nil)
		return err
	}},
}

// orderCache serves a warm store and notes the IDs of the points a
// search asks it about, in first-seen order, cancelling the search once
// it has seen stop of them. A batch's tasks each look up the batch's
// points in batch order, so the first-seen order is the search's scoring
// order however the tasks interleave.
type orderCache struct {
	dsa.ScoreCache
	ids    map[dsa.CacheKey]int // key of a blended measure → point ID
	stop   int
	cancel context.CancelFunc

	mu    sync.Mutex
	seen  map[int]bool
	order []int
}

func (c *orderCache) Get(k dsa.CacheKey) (float64, bool) {
	if id, ok := c.ids[k]; ok {
		c.mu.Lock()
		if !c.seen[id] {
			c.seen[id] = true
			if c.order = append(c.order, id); len(c.order) == c.stop {
				c.cancel()
			}
		}
		c.mu.Unlock()
	}
	return c.ScoreCache.Get(k)
}

func TestExplorerRegret(t *testing.T) {
	if len(exploreCases) != len(dsa.Registered()) {
		t.Fatalf("%d explorer cases for %d registered domains", len(exploreCases), len(dsa.Registered()))
	}
	start := time.Now()
	rows := regretTable(t, regretCases())
	t.Logf("regret table in %v", time.Since(start).Round(time.Millisecond))
	for _, ex := range regretExplorers {
		if !slices.ContainsFunc(rows, func(r regretRow) bool { return r.VsRandom[ex.name].Lo > 0 }) {
			t.Errorf("%s beats random sampling on no row", ex.name)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(regretGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(regretGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []regretRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		for i := range max(len(rows), len(want)) {
			if i >= len(rows) || i >= len(want) || !reflect.DeepEqual(rows[i], want[i]) {
				t.Errorf("row %d differs from the golden", i)
			}
		}
	}
}

// regretTable measures every case's blends at every budget.
func regretTable(t *testing.T, cases []regretCase) []regretRow {
	var rows []regretRow
	for _, tc := range cases {
		var sims atomic.Int64
		d := countedDomain{tc.d, &sims}
		pts := d.Space().Enumerate()
		n := len(pts)
		var measures []string
		for _, w := range tc.blends {
			for m := range w {
				if !slices.Contains(measures, m) {
					measures = append(measures, m)
				}
			}
		}
		store, err := cache.Open(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()

		// One pass over the space: every point's raw values, and a warm
		// cache for the searches.
		spec := Spec{Domain: d, Points: pts, Cfg: tc.cfg}
		var tasks []Task
		for _, task := range spec.Tasks() {
			if slices.Contains(measures, task.Measure) {
				tasks = append(tasks, task)
			}
		}
		raw := map[string][]float64{}
		for _, m := range measures {
			raw[m] = make([]float64, n)
		}
		var mu sync.Mutex
		err = ExecTasks(context.Background(), spec, tasks, ExecOptions{Cache: store}, func(task Task, v []float64, _ time.Duration) error {
			mu.Lock()
			copy(raw[task.Measure][task.Lo:task.Hi], v)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		keyer, err := dsa.NewScoreKeyer(d, d.SampleOpponents(tc.cfg), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims.Store(0)

		budgets := make([]int, len(regretBudgets))
		for i, share := range regretBudgets {
			budgets[i] = max(1, int(math.Round(share*float64(n))))
		}
		maxB := budgets[len(budgets)-1]

		for _, w := range tc.blends {
			// Every point's blended score, summed as the explorers sum it.
			score := make([]float64, n)
			ids := map[dsa.CacheKey]int{}
			var blend []string
			for _, m := range d.Measures() {
				if w[m] == 0 {
					continue
				}
				blend = append(blend, fmt.Sprintf("%s=%g", m, w[m]))
				for id := range score {
					score[id] += w[m] * raw[m][id]
					ids[keyer.Key(m, id)] = id
				}
			}
			opt, worst := slices.Max(score), slices.Min(score)
			ties := 0
			for _, s := range score {
				if opt-s <= 1e-9*(opt-worst) {
					ties++
				}
			}
			name := fmt.Sprintf("%s/%s", d.Name(), strings.Join(blend, ","))
			if 100*ties > n {
				t.Fatalf("%s: %d of %d points tie at the optimum; the blend cannot tell searches apart", name, ties, n)
			}
			gap := func(s float64) float64 { return (opt - s) / (opt - worst) }
			rank := func(s float64) float64 {
				r := 1
				for _, o := range score {
					if o > s {
						r++
					}
				}
				return float64(r)
			}
			// bestAt is the best score among the first B points of order,
			// for each budget B.
			bestAt := func(order []int) []float64 {
				out := make([]float64, len(budgets))
				best := math.Inf(-1)
				j := 0
				for b, B := range budgets {
					for ; j < min(B, len(order)); j++ {
						best = max(best, score[order[j]])
					}
					out[b] = best
				}
				return out
			}
			methods := []string{"random"}
			results := map[string][][]float64{}
			for seed := int64(1); seed <= int64(regretSeeds); seed++ {
				results["random"] = append(results["random"], bestAt(rand.New(rand.NewSource(seed)).Perm(n)[:maxB]))
			}
			for _, ex := range regretExplorers {
				methods = append(methods, ex.name)
				for seed := int64(1); seed <= int64(regretSeeds); seed++ {
					ctx, cancel := context.WithCancel(context.Background())
					oc := &orderCache{ScoreCache: store, ids: ids, stop: maxB, cancel: cancel, seen: map[int]bool{}}
					err := ex.run(ctx, d, w, tc.cfg, seed, oc, maxB)
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s %s seed %d: %v", name, ex.name, seed, err)
					}
					results[ex.name] = append(results[ex.name], bestAt(oc.order))
				}
			}
			if s := sims.Load(); s != 0 {
				t.Fatalf("%s: the searches simulated %d scores; the warm cache should serve all", name, s)
			}

			for b, B := range budgets {
				row := regretRow{Domain: d.Name(), Blend: strings.Join(blend, ","), Ties: ties, Budget: B,
					Gap: map[string]float64{}, Rank: map[string]float64{}, VsRandom: map[string]ci{}}
				gaps := map[string][]float64{}
				for _, m := range methods {
					var g, r []float64
					for _, res := range results[m] {
						g, r = append(g, gap(res[b])), append(r, rank(res[b]))
					}
					gaps[m] = g
					row.Gap[m], row.Rank[m] = sig6(stats.Mean(g)), sig6(stats.Mean(r))
				}
				diff := func(a, b string) ci {
					d := make([]float64, regretSeeds)
					for i := range d {
						d[i] = gaps[a][i] - gaps[b][i]
					}
					c := stats.MeanCI95(d)
					return ci{sig6(c.Mean), sig6(c.Lo()), sig6(c.Hi())}
				}
				for _, ex := range regretExplorers {
					row.VsRandom[ex.name] = diff("random", ex.name)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// sig6 rounds x to six significant digits: enough to keep the sign of a
// small interval end, few enough to read.
func sig6(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	return v
}
