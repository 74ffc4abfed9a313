package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/delivery"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/grid"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pra"
)

// The layer probes are fixed-iteration timed loops on the repo's public
// functions, single-threaded unless stated, each reporting the median
// (and, where the issue names one, the tail). They do not depend on the
// workload; every traced run repeats them so each per-layer metric is
// measured, not copied.

// each times n calls of fn, one duration (in ns) per call.
func each(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0))
	}
	return out, nil
}

// perOp times `batches` batches of `per` calls and returns ns per call
// of each batch — for operations too short to time one by one.
func perOp(batches, per int, fn func(i int)) []float64 {
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		out[b] = float64(time.Since(t0)) / float64(per)
	}
	return out
}

const (
	nsToUS = 1e-3
	nsToMS = 1e-6
)

// probeEnumerate times the first Enumerate of each real domain's space.
// It must run before anything else touches the spaces.
func probeEnumerate(r *unitResult) {
	var total float64
	for _, d := range []dsa.Domain{pra.Domain(), delivery.Domain(), gossip.Domain()} {
		t0 := time.Now()
		d.Space().Enumerate()
		total += float64(time.Since(t0))
	}
	r.set("core.enumerate_ms", total*nsToMS, "ms", 3)
}

func runProbes(ctx context.Context, e *env, r *unitResult) error {
	for _, probe := range []func(context.Context, *env, *unitResult) error{
		probeSimulators, probeDSA, probeJob, probeCache, probeGrid, probeGridobs, probeObs,
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := probe(ctx, e, r); err != nil {
			return err
		}
	}
	return nil
}

// sliceProbe reports the median cost per point of ScoreSlice(measure)
// over pts at Workers=1.
func sliceProbe(r *unitResult, name string, d dsa.Domain, measures []string, pts []core.Point, cfg dsa.Config, reps int) error {
	cfg.Workers = 1
	opponents := d.SampleOpponents(cfg)
	ns, err := each(reps, func(int) error {
		for _, m := range measures {
			if _, err := d.ScoreSlice(m, pts, opponents, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, median(ns)*nsToUS/float64(len(pts)*len(measures)), "us", reps)
	return nil
}

func probeSimulators(_ context.Context, e *env, r *unitResult) error {
	// One 30-peer, 150-round BitTorrent-vs-Freerider encounter.
	caps := bandwidth.Piatek().Stratified(30)
	peers := make([]cyclesim.PeerSpec, len(caps))
	for i := range peers {
		proto := design.BitTorrent()
		if i%2 == 1 {
			proto = design.Freerider()
		}
		peers[i] = cyclesim.PeerSpec{Protocol: proto, Capacity: caps[i]}
	}
	ns, err := each(40, func(i int) error {
		_, err := cyclesim.Run(peers, cyclesim.Options{Rounds: 150, Seed: int64(i)})
		return err
	})
	if err != nil {
		return fmt.Errorf("cyclesim.run_us: %w", err)
	}
	r.set("cyclesim.run_us", median(ns)*nsToUS, "us", len(ns))

	sspec, err := swarmingSpec(e)
	if err != nil {
		return err
	}
	spts := sspec.Points[:min(4, len(sspec.Points))]
	for _, m := range sspec.Domain.Measures() {
		if err := sliceProbe(r, "pra.scoreslice."+m+"_us_per_point", sspec.Domain, []string{m}, spts, sspec.Cfg, 3); err != nil {
			return err
		}
	}

	dspec, err := deliverySpec(e)
	if err != nil {
		return err
	}
	if err := sliceProbe(r, "delivery.scoreslice_us_per_point", dspec.Domain, dspec.Domain.Measures(),
		dsa.StridePoints(dspec.Domain, 24), dspec.Cfg, 5); err != nil {
		return err
	}
	// Whole-set ScoreSlice at Workers=P: the raw rate grid.efficiency divides by.
	ns, err = each(3, func(int) error {
		_, _, err := reference(dspec.Domain, dspec.Points, dspec.Cfg)
		return err
	})
	if err != nil {
		return err
	}
	r.set("delivery.raw_scores_per_s", float64(scoreCount(dspec))/(median(ns)*1e-9), "1/s", len(ns))

	gspec, err := gossipSpec(e)
	if err != nil {
		return err
	}
	gpts := dsa.StridePoints(gspec.Domain, 9)
	for _, m := range gspec.Domain.Measures() {
		if err := sliceProbe(r, "gossip.scoreslice."+m+"_us_per_point", gspec.Domain, []string{m}, gpts, gspec.Cfg, 3); err != nil {
			return err
		}
	}
	return nil
}

func probeDSA(_ context.Context, e *env, r *unitResult) error {
	gspec, err := gossipSpec(e)
	if err != nil {
		return err
	}
	opponents := gspec.Domain.SampleOpponents(gspec.Cfg)
	var keyer *dsa.ScoreKeyer
	ns, err := each(200, func(int) (err error) {
		keyer, err = dsa.NewScoreKeyer(gspec.Domain, opponents, gspec.Cfg)
		return err
	})
	if err != nil {
		return err
	}
	r.set("dsa.keyer.new_us", median(ns)*nsToUS, "us", len(ns))
	keyNS := perOp(30, 1000, func(i int) { keyer.Key(gossip.MeasureCoverage, i) })
	r.set("dsa.keyer.key_ns", median(keyNS), "ns", len(keyNS))

	// Full-width floats, as scores are.
	rng := rand.New(rand.NewSource(1))
	vals := make(dsa.JSONFloats, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	var raw []byte
	ns, err = each(50, func(int) (err error) {
		raw, err = json.Marshal(vals)
		return err
	})
	if err != nil {
		return err
	}
	r.set("dsa.jsonfloats.marshal_ns_per_value", median(ns)/float64(len(vals)), "ns", len(ns))
	ns, err = each(50, func(int) error {
		var back dsa.JSONFloats
		return json.Unmarshal(raw, &back)
	})
	if err != nil {
		return err
	}
	r.set("dsa.jsonfloats.unmarshal_ns_per_value", median(ns)/float64(len(vals)), "ns", len(ns))

	scores, _, err := reference(gspec.Domain, gspec.Points, gspec.Cfg)
	if err != nil {
		return err
	}
	rows := float64(len(gspec.Points))
	var buf bytes.Buffer
	ns, err = each(30, func(int) error {
		buf.Reset()
		return dsa.WriteCSV(&buf, gspec.Domain, scores)
	})
	if err != nil {
		return err
	}
	r.set("dsa.csv.write_us_per_row", median(ns)*nsToUS/rows, "us", len(ns))
	ns, err = each(30, func(int) error {
		_, err := dsa.ReadCSV(bytes.NewReader(buf.Bytes()), gspec.Domain)
		return err
	})
	if err != nil {
		return err
	}
	r.set("dsa.csv.read_us_per_row", median(ns)*nsToUS/rows, "us", len(ns))
	return nil
}

// nullSpec is a sweep of the first `tasks` eight-point tasks of the null domain.
func nullSpec(e *env, tasks int) job.Spec {
	cfg, _ := theNullDomain.DefaultConfig("quick")
	cfg.Workers = e.p
	return job.Spec{Domain: theNullDomain, Points: theNullDomain.Space().Enumerate()[:tasks*sweepChunk], Cfg: cfg, Chunk: sweepChunk}
}

// nullResults computes every task of spec directly.
func nullResults(spec job.Spec) map[string][]float64 {
	out := make(map[string][]float64)
	for _, t := range spec.Tasks() {
		out[t.ID()], _ = spec.Domain.ScoreSlice(t.Measure, spec.Points[t.Lo:t.Hi], nil, spec.Cfg)
	}
	return out
}

func probeJob(ctx context.Context, e *env, r *unitResult) error {
	spec := nullSpec(e, 512)
	tasks := spec.Tasks()
	ns, err := each(10, func(int) error {
		return job.ExecTasks(ctx, spec, tasks, job.ExecOptions{Workers: e.p},
			func(job.Task, []float64, time.Duration) error { return nil })
	})
	if err != nil {
		return err
	}
	r.set("job.exec.overhead_us_per_task", median(ns)*nsToUS/float64(len(tasks)), "us", len(ns))

	// Checkpoint write path: one Record per task, counted at the writer seam.
	spec = nullSpec(e, 256)
	tasks = spec.Tasks()
	results := nullResults(spec)
	dir, err := e.freshDir("probe-checkpoint")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seam := newSeamCounter()
	restore := seam.install()
	cp, err := job.OpenCheckpoint(dir, spec)
	if err != nil {
		restore()
		return err
	}
	ns, err = each(len(tasks), func(i int) error {
		return cp.Record(tasks[i], results[tasks[i].ID()], time.Millisecond)
	})
	restore()
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	calls, written := seam.snapshot(fileManifest, fileResult)
	tailV, tailName := tail(ns)
	r.set("job.checkpoint.record_us_p50", median(ns)*nsToUS, "us", len(ns))
	r.setNote("job.checkpoint.record_us_tail", tailV*nsToUS, "us", len(ns), tailName)
	r.set("job.checkpoint.write_calls_per_task", float64(calls)/float64(len(tasks)), "count", len(tasks))
	r.set("job.checkpoint.bytes_per_task", float64(written)/float64(len(tasks)), "B", len(tasks))

	ns, err = each(5, func(int) error {
		cp, err := job.OpenCheckpoint(dir, spec)
		if err != nil {
			return err
		}
		if got := len(cp.Completed()); got != len(tasks) {
			cp.Close()
			return fmt.Errorf("checkpoint restored %d of %d tasks", got, len(tasks))
		}
		return cp.Close()
	})
	if err != nil {
		return err
	}
	r.set("job.checkpoint.open_full_ms", median(ns)*nsToMS, "ms", len(ns))
	ns, err = each(5, func(int) error {
		_, err := job.Load(dir)
		return err
	})
	if err != nil {
		return err
	}
	r.set("job.load_ms", median(ns)*nsToMS, "ms", len(ns))

	// Assemble and the spec codec, on the delivery sweep's shape.
	dspec, err := deliverySpec(e)
	if err != nil {
		return err
	}
	dresults := make(map[string][]float64)
	for _, t := range dspec.Tasks() {
		dresults[t.ID()] = make([]float64, t.Hi-t.Lo)
	}
	ns, err = each(30, func(int) error {
		_, err := dspec.AssembleScores(dresults)
		return err
	})
	if err != nil {
		return err
	}
	r.set("job.assemble_us", median(ns)*nsToUS, "us", len(ns))
	var raw []byte
	ns, err = each(50, func(int) (err error) {
		raw, err = job.EncodeSpec(dspec)
		return err
	})
	if err != nil {
		return err
	}
	r.set("job.spec.encode_us", median(ns)*nsToUS, "us", len(ns))
	ns, err = each(50, func(int) error {
		_, err := job.DecodeSpec(raw)
		return err
	})
	if err != nil {
		return err
	}
	r.set("job.spec.decode_us", median(ns)*nsToUS, "us", len(ns))
	return nil
}

func probeCache(_ context.Context, e *env, r *unitResult) error {
	const n = 4096
	dspec, err := deliverySpec(e)
	if err != nil {
		return err
	}
	keyer, err := dsa.NewScoreKeyer(dspec.Domain, nil, dspec.Cfg)
	if err != nil {
		return err
	}
	keys, absent := make([]dsa.CacheKey, n), make([]dsa.CacheKey, n)
	for i := range keys {
		keys[i] = keyer.Key("present", i)
		absent[i] = keyer.Key("absent", i)
	}
	const batches, per = 32, n / 32

	mem, err := cache.Open(cache.Options{})
	if err != nil {
		return err
	}
	put := perOp(batches, per, func(i int) { mem.Put(keys[i], float64(i)) })
	hit := perOp(batches, per, func(i int) { mem.Get(keys[i]) })
	miss := perOp(batches, per, func(i int) { mem.Get(absent[i]) })
	mem.Close()
	r.set("cache.mem.put_ns", median(put), "ns", batches)
	r.set("cache.mem.get_hit_ns", median(hit), "ns", batches)
	r.set("cache.get_miss_ns", median(miss), "ns", batches)

	// MemEntries below the key count: once full, every Put evicts.
	small, err := cache.Open(cache.Options{MemEntries: n / 4})
	if err != nil {
		return err
	}
	for _, k := range absent {
		small.Put(k, 0)
	}
	evict := perOp(batches, per, func(i int) { small.Put(keys[i], float64(i)) })
	small.Close()
	r.set("cache.lru.evict_put_ns", median(evict), "ns", batches)

	var puts, closes, opens, gets, bytesPer []float64
	for rep := 0; rep < 5; rep++ {
		dir, err := e.freshDir("probe-cache")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := cache.Open(cache.Options{Dir: dir})
		if err != nil {
			return err
		}
		puts = append(puts, perOp(batches, per, func(i int) { store.Put(keys[i], float64(i)) })...)
		st := store.Stats()
		if st.Entries != n || st.Dropped != 0 {
			store.Close()
			return fmt.Errorf("cache probe: %d entries on disk, %d dropped, want %d and 0", st.Entries, st.Dropped, n)
		}
		bytesPer = append(bytesPer, float64(st.Bytes)/float64(st.Entries))
		t0 := time.Now()
		if err := store.Close(); err != nil {
			return err
		}
		closes = append(closes, float64(time.Since(t0)))

		t0 = time.Now()
		store, err = cache.Open(cache.Options{Dir: dir})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/(n/1000.0))
		// Cold LRU, entry on disk.
		gets = append(gets, perOp(batches, per, func(i int) { store.Get(keys[i]) })...)
		if hits := store.Stats().Hits; hits != n {
			store.Close()
			return fmt.Errorf("cache probe: %d of %d disk lookups hit", hits, n)
		}
		store.Close()
	}
	r.set("cache.disk.put_us", median(puts)*nsToUS, "us", len(puts))
	r.set("cache.disk.close_ms", median(closes)*nsToMS, "ms", len(closes))
	r.set("cache.disk.bytes_per_entry", median(bytesPer), "B", len(bytesPer))
	r.set("cache.disk.open_ms_per_kentry", median(opens)*nsToMS, "ms", len(opens))
	r.set("cache.disk.get_us", median(gets)*nsToUS, "us", len(gets))
	return nil
}

func probeGrid(ctx context.Context, e *env, r *unitResult) error {
	dspec, err := deliverySpec(e)
	if err != nil {
		return err
	}
	ns, err := each(10, func(int) error {
		coord := grid.NewCoordinator(grid.CoordinatorOptions{})
		defer coord.Close()
		_, err := coord.AddJob(dspec)
		return err
	})
	if err != nil {
		return err
	}
	r.set("grid.addjob_ms", median(ns)*nsToMS, "ms", len(ns))

	// Direct Lease and Ingest calls, without and with a checkpoint root.
	spec := nullSpec(e, 256)
	results := nullResults(spec)
	dir, err := e.freshDir("probe-grid")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, durable := range []bool{false, true} {
		opts := grid.CoordinatorOptions{}
		if durable {
			opts.Dir = dir
		}
		coord := grid.NewCoordinator(opts)
		id, err := coord.AddJob(spec)
		if err != nil {
			coord.Close()
			return err
		}
		leased := make([]string, 0, len(results))
		leaseNS, err := each(len(results), func(int) error {
			resp, err := coord.Lease(ctx, id, "probe", 1)
			if err == nil && len(resp.Tasks) != 1 {
				err = fmt.Errorf("lease granted %d tasks, want 1", len(resp.Tasks))
			}
			if err == nil {
				leased = append(leased, resp.Tasks[0].Task)
			}
			return err
		})
		var ingestNS []float64
		if err == nil {
			ingestNS, err = each(len(leased), func(i int) error {
				_, err := coord.Ingest(ctx, id, grid.ResultUpload{Worker: "probe", Task: leased[i], Values: results[leased[i]], ElapsedMS: 1})
				return err
			})
		}
		if err == nil && !durable {
			scrape, _ := each(20, func(int) error {
				coord.Metrics().WritePrometheus(io.Discard)
				return nil
			})
			r.set("grid.metrics.scrape_ms", median(scrape)*nsToMS, "ms", len(scrape))
		}
		if cerr := coord.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if !durable {
			r.set("grid.lease.direct_us", median(leaseNS)*nsToUS, "us", len(leaseNS))
			r.set("grid.ingest.mem_us", median(ingestNS)*nsToUS, "us", len(ingestNS))
			continue
		}
		tailV, tailName := tail(ingestNS)
		r.set("grid.ingest.durable_us_p50", median(ingestNS)*nsToUS, "us", len(ingestNS))
		r.setNote("grid.ingest.durable_us_tail", tailV*nsToUS, "us", len(ingestNS), tailName)
	}
	// Restart over the durable state just written: WAL replay + checkpoint restore.
	ns, err = each(5, func(int) error {
		_, err := restartScores(dir, spec)
		return err
	})
	if err != nil {
		return err
	}
	r.set("grid.restart_ms", median(ns)*nsToMS, "ms", len(ns))

	// The grid's own ceiling: the whole HTTP loop over a domain that costs nothing.
	spec = nullSpec(e, 512)
	want := nullResults(spec)
	for _, v := range []struct {
		name    string
		durable bool
		audit   float64
	}{{"mem", false, 0}, {"durable", true, 0}, {"audit", false, 1}} {
		var rates []float64
		for rep := 0; rep < 3; rep++ {
			opts := grid.CoordinatorOptions{AuditRate: v.audit}
			if v.durable {
				if opts.Dir, err = e.freshDir("probe-grid-null"); err != nil {
					return err
				}
				defer os.RemoveAll(opts.Dir)
			}
			// An audit needs a second worker to re-lease the task to.
			workers := e.p
			if v.audit > 0 {
				workers = max(workers, 2)
			}
			t0 := time.Now()
			scores, err := gridSweep(ctx, spec, opts, workers, nil)
			if err != nil {
				return fmt.Errorf("grid.null.%s: %w", v.name, err)
			}
			rates = append(rates, float64(len(want))/time.Since(t0).Seconds())
			for i, got := range scores.Raw[nullMeasure] {
				id, _ := theNullDomain.PointID(spec.Points[i])
				if got != nullScore(id) {
					return fmt.Errorf("grid.null.%s: point %d scored %v, want %v", v.name, id, got, nullScore(id))
				}
			}
		}
		r.set("grid.null.tasks_per_s."+v.name, median(rates), "1/s", len(rates))
	}
	return nil
}

func probeGridobs(_ context.Context, _ *env, r *unitResult) error {
	reg := gridobs.NewRegistry()
	hist := reg.NewHistogram("probe_seconds", "probe", gridobs.DefBuckets)
	counter := reg.NewCounter("probe_total", "probe")
	observe := perOp(30, 1000, func(i int) { hist.Observe(float64(i%100) * 0.001) })
	add := perOp(30, 1000, func(int) { counter.Add(1) })
	r.set("gridobs.histogram.observe_ns", median(observe), "ns", len(observe))
	r.set("gridobs.counter.add_ns", median(add), "ns", len(add))

	wm := gridobs.NewWorkerMetrics(nil)
	for i := 0; i < 100; i++ {
		wm.ObserveLease(1)
		wm.ObserveTask(fmt.Sprintf("m%d", i%4), time.Millisecond, 8, 0)
		wm.ObserveUpload(0)
	}
	write, _ := each(50, func(int) error {
		wm.Registry().WritePrometheus(io.Discard)
		return nil
	})
	r.set("gridobs.registry.write_us", median(write)*nsToUS, "us", len(write))
	return nil
}

func probeObs(ctx context.Context, e *env, r *unitResult) error {
	dir, err := e.freshDir("probe-obs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec, err := obs.OpenDir(dir, "bench")
	if err != nil {
		return err
	}
	record := func(i int) {
		rec.Start(0, "task").Str("measure", "echo").Int("points", int64(i)).End()
	}
	const spans = 20000
	perOp(1, 1000, record) // fill the recorder's freelist
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns := perOp(spans/1000, 1000, record)
	runtime.ReadMemStats(&after)
	if err := rec.Close(); err != nil {
		return err
	}
	r.set("obs.span.record_ns", median(ns), "ns", len(ns))
	r.set("obs.span.allocs", float64(after.Mallocs-before.Mallocs)/spans, "count", spans)

	path := obs.JournalPath(dir, "bench")
	var records []obs.Record
	ns, err = each(5, func(int) (err error) {
		records, err = obs.LoadFile(path)
		return err
	})
	if err != nil {
		return err
	}
	kspans := float64(len(records)) / 1000
	r.set("obs.journal.load_ms_per_kspan", median(ns)*nsToMS/kspans, "ms", len(ns))
	ns, _ = each(5, func(int) error {
		obs.Analyze(records)
		return nil
	})
	r.set("obs.analyze_ms_per_kspan", median(ns)*nsToMS/kspans, "ms", len(ns))

	// Program tracing on vs off, in-memory delivery sweep, alternating.
	dspec, err := deliverySpec(e)
	if err != nil {
		return err
	}
	var plain, traced []float64
	for pair := 0; pair < 4; pair++ {
		for _, on := range []bool{pair%2 == 0, pair%2 != 0} {
			var trace *obs.Recorder
			if on {
				if trace, err = obs.Open(filepath.Join(dir, fmt.Sprintf("sweep-%d.jsonl", pair)), "bench"); err != nil {
					return err
				}
			}
			t0 := time.Now()
			_, err := job.Run(ctx, dspec.Domain, dspec.Points, dspec.Cfg, job.Options{Chunk: sweepChunk, Workers: e.p, Trace: trace})
			if cerr := trace.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, float64(time.Since(t0)))
			} else {
				plain = append(plain, float64(time.Since(t0)))
			}
		}
	}
	r.set("obs.traced_sweep_overhead_share", median(traced)/median(plain)-1, "share", len(traced))
	return nil
}
