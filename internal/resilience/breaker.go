package resilience

import (
	"sync"
	"time"
)

// State is the position of a circuit breaker.
type State int32

const (
	// Closed admits every call; consecutive indictable failures are
	// counted toward the trip threshold.
	Closed State = iota
	// Open short-circuits every call until the open window elapses.
	Open
	// HalfOpen admits a bounded number of probe calls; one success
	// closes the breaker, one failure re-opens it.
	HalfOpen
)

// String returns the label used on /metrics and /api/stats.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a three-state circuit breaker with consecutive-failure
// tripping and bounded half-open probe admission. All methods are safe
// for concurrent use.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip the breaker
	openFor   time.Duration // how long Open rejects before probing
	probes    int           // concurrent probe admissions while HalfOpen

	state   State
	fails   int       // consecutive indictable failures while Closed
	until   time.Time // end of the current Open window
	probing int       // probes admitted and not yet reported

	opens     int64 // Closed/HalfOpen → Open transitions
	halfOpens int64 // Open → HalfOpen transitions
	closes    int64 // HalfOpen → Closed transitions

	now func() time.Time // clock hook for tests
}

func newBreaker(threshold int, openFor time.Duration, probes int) *breaker {
	return &breaker{
		threshold: threshold,
		openFor:   openFor,
		probes:    probes,
		now:       time.Now,
	}
}

// allow reports whether a call may proceed, admitting half-open probes
// once the open window has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.halfOpens++
		b.probing = 1
		return true
	default: // HalfOpen
		if b.probing >= b.probes {
			return false
		}
		b.probing++
		return true
	}
}

// success reports a call that completed without an indictable failure.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		// One healthy probe is evidence enough: close and reset.
		b.state = Closed
		b.fails = 0
		b.probing = 0
		b.closes++
	}
	// A success landing while Open (a call admitted before the trip) is
	// ignored: the open window expires on its own.
}

// failure reports an indictable failure (transport-level, 5xx/429, or
// attempt timeout — never an application error).
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case HalfOpen:
		// The probe failed: straight back to Open for a full window.
		if b.probing > 0 {
			b.probing--
		}
		b.trip()
	}
}

// release returns an admitted half-open probe slot without a verdict —
// the call bailed out (context cancelled mid-attempt or during backoff)
// before producing evidence either way.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probing > 0 {
		b.probing--
	}
}

// trip moves to Open. Callers hold b.mu.
func (b *breaker) trip() {
	b.state = Open
	b.fails = 0
	b.until = b.now().Add(b.openFor)
	b.opens++
}

// snapshot returns the current state without transitioning it: a breaker
// whose open window has elapsed still reads Open until a call admits the
// first probe.
func (b *breaker) snapshot() (s State, opens, halfOpens, closes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens, b.halfOpens, b.closes
}
