package job

// The engine's use of a score cache: a sweep of an overlapping point set
// or under another chunking hits fully, a changed config misses, cache and
// checkpoint compose, and one store serves every domain. (That a cached
// sweep is byte-identical to an uncached one, warm with zero
// simulations, is a conformance law in internal/dsa.) The cache is
// observed through a counting domain wrapper, so "skipped recomputation"
// is an exact claim about ScoreSlice invocations, not a timing heuristic.

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/pra"
)

// countingDomain delegates to a real domain and counts ScoreSlice
// points actually simulated.
type countingDomain struct {
	dsa.Domain
	points atomic.Int64
}

func (c *countingDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	c.points.Add(int64(len(pts)))
	return c.Domain.ScoreSlice(measure, pts, opponents, cfg)
}

func scoresJSON(t *testing.T, s *dsa.Scores) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOverlappingSweepReusesScores: a sweep of a *subset* of cached
// points with a *different* chunking hits fully — the cache is keyed
// per point, so task shapes are irrelevant — and matches its own
// uncached reference exactly.
func TestOverlappingSweepReusesScores(t *testing.T) {
	pts, cfg := tinySweep(gossip.Domain())
	ctx := context.Background()

	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(ctx, gossip.Domain(), pts, cfg, Options{Chunk: 4, Cache: store}); err != nil {
		t.Fatal(err)
	}

	var sub []core.Point
	for i := 0; i < len(pts); i += 2 {
		sub = append(sub, pts[i])
	}
	want, err := Run(ctx, gossip.Domain(), sub, cfg, Options{Chunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingDomain{Domain: gossip.Domain()}
	got, err := Run(ctx, counting, sub, cfg, Options{Chunk: 3, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if n := counting.points.Load(); n != 0 {
		t.Fatalf("overlapping sweep simulated %d points, want 0", n)
	}
	if scoresJSON(t, got) != scoresJSON(t, want) {
		t.Fatal("cache-served subset sweep differs from its uncached reference")
	}
}

// TestConfigChangeMissesCache: the same points under a different seed
// must not reuse cached scores — a mismatched config is a miss, never
// a wrong hit.
func TestConfigChangeMissesCache(t *testing.T) {
	pts, cfg := tinySweep(gossip.Domain())
	ctx := context.Background()

	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(ctx, gossip.Domain(), pts, cfg, Options{Chunk: 4, Cache: store}); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	want, err := Run(ctx, gossip.Domain(), pts, cfg2, Options{Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingDomain{Domain: gossip.Domain()}
	got, err := Run(ctx, counting, pts, cfg2, Options{Chunk: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if counting.points.Load() == 0 {
		t.Fatal("changed seed must re-simulate, not hit the old seed's scores")
	}
	if scoresJSON(t, got) != scoresJSON(t, want) {
		t.Fatal("re-seeded cached sweep differs from its uncached reference")
	}
}

// TestCacheWithResume: cache and checkpoint compose — a resumed sweep
// over a warm cache restores journalled tasks from the checkpoint,
// serves the rest from the cache, and still assembles the reference
// result.
func TestCacheWithResume(t *testing.T) {
	pts, cfg := tinySweep(gossip.Domain())
	ctx := context.Background()
	want, err := Run(ctx, gossip.Domain(), pts, cfg, Options{Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}

	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Warm the cache with a no-checkpoint run...
	if _, err := Run(ctx, gossip.Domain(), pts, cfg, Options{Chunk: 4, Cache: store}); err != nil {
		t.Fatal(err)
	}
	// ...then run the same spec with a checkpoint directory: every
	// task journals cache-served values; a -resume Load sees a
	// complete, correct directory.
	dir := t.TempDir()
	counting := &countingDomain{Domain: gossip.Domain()}
	got, err := Run(ctx, counting, pts, cfg, Options{Chunk: 4, Dir: dir, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if n := counting.points.Load(); n != 0 {
		t.Fatalf("checkpointed warm sweep simulated %d points, want 0", n)
	}
	if scoresJSON(t, got) != scoresJSON(t, want) {
		t.Fatal("checkpointed warm sweep differs from reference")
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if scoresJSON(t, loaded) != scoresJSON(t, want) {
		t.Fatal("checkpoint written from cache-served tasks loads differently")
	}
}

// TestSharedStoreServesAllDomains: one store, three domains swept
// back-to-back, every warm rerun byte-identical and simulation-free —
// isolation and reuse at once, through the real engine.
func TestSharedStoreServesAllDomains(t *testing.T) {
	ctx := context.Background()
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	domains := []dsa.Domain{pra.Domain(), gossip.Domain(), delivery.Domain()}
	wants := make([]string, len(domains))
	for i, d := range domains {
		wants[i] = scoresJSON(t, mustRun(t, d, Options{Chunk: 4, Cache: store}))
	}
	for i, d := range domains {
		counting := &countingDomain{Domain: d}
		pts, cfg := tinySweep(d)
		got, err := Run(ctx, counting, pts, cfg, Options{Chunk: 4, Cache: store})
		if err != nil {
			t.Fatalf("%s warm: %v", d.Name(), err)
		}
		if n := counting.points.Load(); n != 0 {
			t.Fatalf("%s warm rerun simulated %d points, want 0", d.Name(), n)
		}
		if scoresJSON(t, got) != wants[i] {
			t.Fatalf("%s warm rerun differs from its cold run", d.Name())
		}
	}
}
