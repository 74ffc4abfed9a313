package dsa

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// This file is the caching seam of the sweep API: the key derivation
// that makes scores content-addressable, and the minimal interface the
// engine layers (job.ExecTasks — under every sweep and every explorer
// batch — and the grid coordinator) consult. The store itself lives in
// internal/cache; dsa only defines what a key *means*, because only dsa
// knows which inputs a score is a function of.
//
// The determinism contract (Domain.ScoreSlice: seeds derive from point
// identity, never position or schedule) makes a raw score a pure
// function of exactly six inputs:
//
//	(domain name, domain score version, measure, point ID,
//	 opponent panel, score-relevant Config fields)
//
// A CacheKey is a SHA-256 over a canonical encoding of those inputs —
// nothing else. Workers, chunk sizes, shard counts and schedules are
// deliberately absent (they change speed, never values), so a cache
// warmed by any run — single-process, sharded, grid — serves any other
// run of an overlapping spec. Anything that *could* change values
// (engine key schema via cacheSchemaVersion, domain semantics via
// ScoreVersioned) is hashed in, so a change yields a different key: a
// stale entry is a miss, never a wrong hit.

// CacheKey is the content address of one raw score: one (measure,
// point) evaluation under a fixed domain, opponent panel and config.
type CacheKey [32]byte

// String renders the key in hex (for logs and debugging).
func (k CacheKey) String() string { return fmt.Sprintf("%x", k[:]) }

// cacheSchemaVersion is the version of the key derivation itself. Bump
// it whenever the encoding below changes meaning — every previously
// cached score then misses instead of aliasing a new key.
const cacheSchemaVersion = 1

// ScoreVersioned is an optional Domain extension: a domain whose
// ScoreSlice semantics change (a simulator fix, a reseeded measure)
// bumps its score version so every cached score from the old semantics
// becomes a miss. Domains that do not implement it are version 0.
type ScoreVersioned interface {
	ScoreVersion() int
}

// ScoreCache is the memoization seam consulted by the engine layers.
// Implementations must be safe for concurrent use; internal/cache
// provides the real store (one in-memory map over an on-disk segment
// log). Put is best-effort: a store may drop entries (I/O trouble) —
// correctness never depends on a Put being durable, only on Get never
// returning a value for a key it was not given.
type ScoreCache interface {
	// Get returns the cached score for k, if present.
	Get(k CacheKey) (float64, bool)
	// Put records the score for k.
	Put(k CacheKey, v float64)
	// GetOrCompute returns the cached score for k or computes, caches
	// and returns it. Concurrent calls for one key compute at most
	// once (the others wait); a compute error is returned to every
	// waiter and nothing is cached. No engine layer calls it since the
	// explorers score through ExecTasks; it stays while bench/
	// implements it (ROADMAP item 1).
	GetOrCompute(k CacheKey, compute func() (float64, error)) (float64, error)
}

// CacheStats is the observability surface of a score cache, shared by
// `dsa-report cache` and the grid coordinator's /v1/cache endpoint.
type CacheStats struct {
	Entries    int    `json:"entries"` // distinct keys the store serves
	Bytes      int64  `json:"bytes"`   // on-disk bytes across segments
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Puts       uint64 `json:"puts"`
	Dropped    uint64 `json:"dropped"`      // records dropped at open (torn/corrupt) or on write failure
	Flights    uint64 `json:"flights"`      // GetOrCompute calls that actually computed
	FlightWait uint64 `json:"flight_waits"` // GetOrCompute calls that waited on another's computation
}

// ScoreKeyer derives CacheKeys for one evaluation context: a domain,
// an opponent panel and a config. The context digest is computed once;
// per-key work is one short hash over (digest, measure, point ID).
type ScoreKeyer struct {
	context [32]byte
}

// NewScoreKeyer builds the keyer for an evaluation context. The
// opponent panel is hashed by the domain's stable point IDs — the same
// codec checkpoints persist — so the panel's identity, not its memory
// representation, addresses the scores. It fails if an opponent is not
// a point of the domain.
func NewScoreKeyer(d Domain, opponents []core.Point, cfg Config) (*ScoreKeyer, error) {
	b := appendString(nil, "repro/dsa score key")
	b = appendInt(b, cacheSchemaVersion)
	b = appendString(b, d.Name())
	ver := 0
	if v, ok := d.(ScoreVersioned); ok {
		ver = v.ScoreVersion()
	}
	b = appendInt(b, ver)

	// The score-relevant Config subset, in fixed order. Workers is
	// deliberately excluded: it is the one knob the Config contract
	// guarantees affects speed only (the checkpoint spec omits it for
	// the same reason — see job's configJSON).
	b = appendInt(b, cfg.Peers)
	b = appendInt(b, cfg.Rounds)
	b = appendInt(b, cfg.PerfRuns)
	b = appendInt(b, cfg.EncounterRuns)
	b = appendInt(b, cfg.Opponents)
	// Seed is hashed at full int64 width: int(cfg.Seed) would truncate
	// to 32 bits on 32-bit platforms, aliasing seeds that differ only
	// in their high halves — a wrong hit, the one failure the key must
	// make impossible.
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.Seed))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.Churn))

	b = appendInt(b, len(opponents))
	for _, opp := range opponents {
		id, err := d.PointID(opp)
		if err != nil {
			return nil, fmt.Errorf("dsa: score key opponent panel: %w", err)
		}
		b = appendInt(b, id)
	}
	return &ScoreKeyer{context: sha256.Sum256(b)}, nil
}

// Key returns the content address of one (measure, point ID) score in
// this context: the hash of the context, the measure and the ID, laid
// out in a stack buffer so that a key costs no allocation.
func (k *ScoreKeyer) Key(measure string, pointID int) CacheKey {
	var stack [128]byte
	b := append(stack[:0], k.context[:]...)
	return sha256.Sum256(appendInt(appendString(b, measure), pointID))
}

// appendString appends a length-prefixed string, so adjacent fields can
// never alias ("ab","c" vs "a","bc").
func appendString(b []byte, s string) []byte {
	return append(appendInt(b, len(s)), s...)
}

// appendInt appends v as eight little-endian bytes, sign-extended.
func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}
