package server

import (
	"sync"
	"time"

	"hypodatalog/internal/metrics"
)

// breaker states, exported to metrics as proxy_breaker_state.
const (
	breakerClosed int64 = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is the circuit breaker on the replica→primary write proxy.
// While the primary answers, it is closed and invisible. After
// `threshold` consecutive transport failures it opens: proxied writes
// fail fast with 503 primary_unreachable — no dial, no timeout wait —
// until `cooldown` elapses. Then exactly one request is let through as
// a half-open probe; its success closes the breaker, its failure
// re-opens it for another cooldown. All methods are safe for
// concurrent use.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
	mets      *metrics.Set

	mu       sync.Mutex
	state    int64
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, mets *metrics.Set) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, mets: mets}
}

// allow reports whether a proxied write may attempt the network.
// probe is true when this caller is the single half-open probe; it MUST
// report its outcome via success(true) or failure(true).
func (b *breaker) allow() (proceed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.setStateLocked(breakerHalfOpen)
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// success records a working primary: any success closes the breaker.
func (b *breaker) success(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	b.failures = 0
	if b.state != breakerClosed {
		b.setStateLocked(breakerClosed)
	}
}

// failure records a transport failure. A failed probe re-opens
// immediately; while closed, `threshold` consecutive failures open.
func (b *breaker) failure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		b.openLocked()
		return
	}
	if b.state != breakerClosed {
		return
	}
	if b.failures++; b.failures >= b.threshold {
		b.openLocked()
	}
}

func (b *breaker) openLocked() {
	b.failures = 0
	b.openedAt = b.now()
	b.setStateLocked(breakerOpen)
	b.mets.ProxyBreakerOpens.Inc()
}

func (b *breaker) setStateLocked(st int64) {
	b.state = st
	b.mets.ProxyBreakerState.Set(st)
}
