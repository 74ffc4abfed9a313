package gridobs

import (
	"sync"
	"time"
)

// Limiter is a per-key token-bucket rate limiter: each key (a client
// IP, a worker name) gets its own bucket refilled at Rate tokens per
// second up to Burst. Allow is O(1) and safe for concurrent use.
//
// Buckets are pruned lazily: once the table crosses a size threshold,
// any bucket that has been idle long enough to be full again is
// dropped — dropping a full bucket is behavior-neutral, so the table
// stays bounded by the number of concurrently-active clients without
// a background goroutine.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity (and initial fill)
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// pruneAbove is the table size that triggers a lazy prune pass.
const pruneAbove = 1024

// NewLimiter returns a limiter granting rate tokens/second with the
// given burst capacity. rate <= 0 disables limiting (Allow always
// true). burst <= 0 defaults to max(rate, 1) — one second of traffic.
func NewLimiter(rate, burst float64) *Limiter {
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &Limiter{rate: rate, burst: burst, now: time.Now, buckets: map[string]*bucket{}}
}

// Enabled reports whether the limiter actually limits.
func (l *Limiter) Enabled() bool { return l != nil && l.rate > 0 }

// Allow consumes one token from key's bucket, reporting whether the
// request is admitted. A nil or disabled limiter admits everything.
func (l *Limiter) Allow(key string) bool {
	if !l.Enabled() {
		return true
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) > pruneAbove {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += float64(now.Sub(b.last).Seconds() * l.rate)
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryAfter estimates how long key must wait before a request would
// be admitted — the Retry-After hint on 429 responses.
func (l *Limiter) RetryAfter(key string) time.Duration {
	if !l.Enabled() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok || b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// pruneLocked drops buckets idle long enough to have refilled — their
// absence is indistinguishable from their presence.
func (l *Limiter) pruneLocked(now time.Time) {
	fullAfter := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) > fullAfter {
			delete(l.buckets, k)
		}
	}
}
