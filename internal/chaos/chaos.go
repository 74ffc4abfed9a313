// Package chaos is the repo's deterministic fault-injection harness.
// It provides a seeded fault schedule (drop / delay / duplicate /
// corrupt / 5xx-inject) pluggable as an http.RoundTripper on grid
// clients, and a failing-io.Writer seam for checkpoint/WAL writes, so
// robustness tests and scripts/chaos_smoke.sh can replay the exact
// same fault sequence from a seed instead of flaking on real networks.
//
// Determinism contract: the i-th decision drawn from a Schedule is a
// pure function of (seed, i). A single-threaded client therefore sees
// a fully reproducible fault interleaving; concurrent clients share
// the decision sequence, so the schedule itself is still seeded and
// reproducible, but which request draws which decision depends on
// arrival order.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config is a parsed fault schedule: independent per-request fault
// probabilities. All probabilities are in [0, 1].
type Config struct {
	Seed    uint64        // schedule seed; same seed → same decisions
	Drop    float64       // P(request dropped before reaching the wire)
	Delay   float64       // P(request delayed by DelayBy)
	DelayBy time.Duration // how long a delayed request waits
	Dup     float64       // P(request transmitted twice)
	Corrupt float64       // P(one request-body byte flipped in flight)
	Err500  float64       // P(synthetic 500 returned, server never sees it)
}

// ParseSpec parses the CLI fault-schedule syntax:
//
//	seed=7,drop=0.05,delay=0.1:20ms,dup=0.05,corrupt=0.05,err500=0.05
//
// Every field is optional; unknown keys, probabilities outside [0,1]
// (NaN included) and negative delays are errors, so typos in a chaos run
// fail loudly instead of silently testing nothing.
func ParseSpec(s string) (Config, error) {
	cfg := Config{DelayBy: 10 * time.Millisecond}
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: malformed field %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "drop":
			cfg.Drop, err = parseProb(k, v)
		case "dup":
			cfg.Dup, err = parseProb(k, v)
		case "corrupt":
			cfg.Corrupt, err = parseProb(k, v)
		case "err500":
			cfg.Err500, err = parseProb(k, v)
		case "delay":
			p, dur, found := strings.Cut(v, ":")
			cfg.Delay, err = parseProb(k, p)
			if err == nil && found {
				cfg.DelayBy, err = time.ParseDuration(dur)
				if err == nil && cfg.DelayBy < 0 {
					err = fmt.Errorf("negative delay %v", cfg.DelayBy)
				}
			}
		default:
			return Config{}, fmt.Errorf("chaos: unknown field %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: field %q: %w", part, err)
		}
	}
	return cfg, nil
}

func parseProb(k, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // written so that NaN is rejected too
		return 0, fmt.Errorf("%s=%v outside [0,1]", k, p)
	}
	return p, nil
}

// Decision is the fate of one request, drawn from a Schedule.
type Decision struct {
	Drop    bool
	Delay   time.Duration // 0 = no delay
	Dup     bool
	Corrupt bool
	Err500  bool
}

func (d Decision) String() string {
	var parts []string
	if d.Drop {
		parts = append(parts, "drop")
	}
	if d.Delay > 0 {
		parts = append(parts, "delay="+d.Delay.String())
	}
	if d.Dup {
		parts = append(parts, "dup")
	}
	if d.Corrupt {
		parts = append(parts, "corrupt")
	}
	if d.Err500 {
		parts = append(parts, "err500")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, "+")
}

// Schedule hands out per-request fault Decisions from a seeded PRNG.
// Safe for concurrent use; each Next draws a fixed number of variates,
// so decision i depends only on (seed, i).
type Schedule struct {
	cfg Config
	mu  sync.Mutex
	rng *rand.Rand
	n   int
}

// NewSchedule builds the decision stream for cfg.
func NewSchedule(cfg Config) *Schedule {
	return &Schedule{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))}
}

// Next draws the next Decision. At most one of Drop/Err500 fires (a
// dropped request cannot also answer), so retries always make
// progress under any sub-1 fault probability.
func (s *Schedule) Next() Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	// Fixed draw order: the decision stream never shifts when one
	// probability is zero.
	var d Decision
	d.Drop = s.rng.Float64() < s.cfg.Drop
	if s.rng.Float64() < s.cfg.Delay {
		d.Delay = s.cfg.DelayBy
	}
	d.Dup = s.rng.Float64() < s.cfg.Dup
	d.Corrupt = s.rng.Float64() < s.cfg.Corrupt
	d.Err500 = !d.Drop && s.rng.Float64() < s.cfg.Err500
	return d
}
