// Package resilience is the source-fault layer of QR2: a per-source
// policy wrapped around every web-database call.
//
// QR2 is a third-party service over web databases it does not control
// (Gunasekaran et al., ICDE 2018): sources hang, rate-limit, return 5xx
// and disappear mid-crawl. The wrapper produced by Source.Wrap gives
// each call a per-attempt deadline, retries transport-level and
// 5xx/429 failures with capped exponential backoff and jitter, and
// guards the source with a three-state circuit breaker (closed → open →
// half-open with bounded probe admission). It does not cap concurrency
// or rate: the one bound on web-query fan-out is the engine's per-batch
// cap, core.Options.MaxParallel.
//
// Retries are safe here because the hidden-database interface is a pure
// top-k search: every call is idempotent by construction. Only failures
// that indict the transport — net.Error, connection resets, HTTP 5xx
// and 429 (via the HTTPStatus interface), attempt-deadline timeouts —
// are retried and counted toward the breaker; an application-level
// error proves the source is alive and is returned unchanged, exactly
// as without the wrapper.
//
// When the breaker is open (or retries are exhausted) and the policy
// enables degraded serving, the wrapper answers with an empty
// hidden.Result carrying the Degraded marker instead of an error. The
// layers above — answer-cache pool, containment, crawl sets, dense
// index — keep serving everything they already hold without ever
// reaching the leaf, so the marker only surfaces on the residue a dead
// source would otherwise fail; the service tags such responses
// stale-ok. Degraded results must never be admitted into any durable
// layer (see hidden.Result.Degraded).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/relation"
)

// ErrOpen is returned (or wrapped) when a source's circuit breaker
// short-circuits a call without attempting it.
var ErrOpen = errors.New("resilience: circuit open")

// Policy tunes one source's resilience. The zero value means sensible
// defaults (see each field); use a negative value to disable a knob
// whose zero value is a default.
type Policy struct {
	// AttemptTimeout bounds each individual attempt (the per-attempt
	// deadline, propagated via context). Default 10s; negative disables.
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of tries per call, first attempt
	// included. Default 3 (two retries); values below 1 mean 1.
	MaxAttempts int
	// BackoffBase is the pre-jitter backoff before the first retry,
	// doubling per retry. Default 50ms.
	BackoffBase time.Duration
	// BackoffCap caps the exponential backoff. Default 2s.
	BackoffCap time.Duration
	// BreakerThreshold is the consecutive indictable failures that trip
	// the breaker. Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerOpenFor is how long an open breaker rejects before
	// admitting half-open probes. Default 10s.
	BreakerOpenFor time.Duration
	// BreakerProbes is the number of concurrent half-open probe calls.
	// Default 1.
	BreakerProbes int
	// DegradedServe answers with an empty Degraded-marked result instead
	// of an error when the breaker is open or retries are exhausted.
	DegradedServe bool
	// Seed seeds the jitter PRNG (0 picks a fixed default); tests use it
	// for reproducible backoff schedules.
	Seed uint64
}

func (p Policy) withDefaults() Policy {
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = 10 * time.Second
	}
	if p.MaxAttempts < 1 {
		if p.MaxAttempts == 0 {
			p.MaxAttempts = 3
		} else {
			p.MaxAttempts = 1
		}
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 50 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 2 * time.Second
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerOpenFor <= 0 {
		p.BreakerOpenFor = 10 * time.Second
	}
	if p.BreakerProbes < 1 {
		p.BreakerProbes = 1
	}
	if p.Seed == 0 {
		p.Seed = 0x9e3779b97f4a7c15
	}
	return p
}

// Source is the shared runtime state of one source's policy: breaker
// and counters. One Source may back several wrapped databases (the raw
// leaf and, through it, the prober) so they indict and recover together.
type Source struct {
	pol Policy
	br  *breaker // nil when the breaker is disabled
	rng atomic.Uint64

	attempts       atomic.Int64
	retries        atomic.Int64
	failures       atomic.Int64
	shortCircuits  atomic.Int64
	degradedServes atomic.Int64
}

// NewSource builds the runtime for one source from a policy.
func NewSource(pol Policy) *Source {
	pol = pol.withDefaults()
	s := &Source{pol: pol}
	if pol.BreakerThreshold > 0 {
		s.br = newBreaker(pol.BreakerThreshold, pol.BreakerOpenFor, pol.BreakerProbes)
	}
	s.rng.Store(pol.Seed)
	return s
}

// State returns the breaker position (Closed when the breaker is
// disabled).
func (s *Source) State() State {
	if s.br == nil {
		return Closed
	}
	st, _, _, _ := s.br.snapshot()
	return st
}

// Stats is a point-in-time snapshot of one source's resilience
// counters, served on /api/stats and /metrics.
type Stats struct {
	State          string `json:"state"`
	Attempts       int64  `json:"attempts"`
	Retries        int64  `json:"retries"`
	Failures       int64  `json:"failures"`
	ShortCircuits  int64  `json:"short_circuits"`
	DegradedServes int64  `json:"degraded_serves"`
	Opens          int64  `json:"breaker_opens"`
	HalfOpens      int64  `json:"breaker_half_opens"`
	Closes         int64  `json:"breaker_closes"`
}

// Stats snapshots the counters.
func (s *Source) Stats() Stats {
	st := Stats{
		State:          Closed.String(),
		Attempts:       s.attempts.Load(),
		Retries:        s.retries.Load(),
		Failures:       s.failures.Load(),
		ShortCircuits:  s.shortCircuits.Load(),
		DegradedServes: s.degradedServes.Load(),
	}
	if s.br != nil {
		state, opens, halfOpens, closes := s.br.snapshot()
		st.State = state.String()
		st.Opens, st.HalfOpens, st.Closes = opens, halfOpens, closes
	}
	return st
}

// Wrap decorates a hidden database with this source's policy. When the
// inner database counts queries (hidden.Counter) the wrapper forwards
// the capability.
func (s *Source) Wrap(db hidden.DB) hidden.DB {
	d := &DB{inner: db, s: s}
	if c, ok := db.(hidden.Counter); ok {
		return counterDB{d, c}
	}
	return d
}

// DB is a hidden.DB decorated with a Source's resilience policy.
type DB struct {
	inner hidden.DB
	s     *Source
}

type counterDB struct {
	*DB
	hidden.Counter
}

// Name implements hidden.DB.
func (d *DB) Name() string { return d.inner.Name() }

// Schema implements hidden.DB.
func (d *DB) Schema() *relation.Schema { return d.inner.Schema() }

// SystemK implements hidden.DB.
func (d *DB) SystemK() int { return d.inner.SystemK() }

// Search implements hidden.DB: breaker admission, then up to
// MaxAttempts tries under per-attempt deadlines with backoff between
// them, degrading to a fabricated empty answer when the policy allows.
func (d *DB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	s := d.s
	if s.br != nil && !s.br.allow() {
		s.shortCircuits.Add(1)
		return s.degrade(ctx, fmt.Errorf("resilience: %s: %w", d.inner.Name(), ErrOpen))
	}
	// From here on the breaker may hold a half-open probe slot for this
	// call; every return path must report a verdict (success/failure) or
	// release the slot.
	var lastErr error
	for attempt := 0; attempt < s.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			if err := sleep(ctx, s.jitter(s.backoff(attempt))); err != nil {
				s.release()
				return hidden.Result{}, err
			}
		}
		s.attempts.Add(1)
		res, err := d.attempt(ctx, p)
		if err == nil {
			if s.br != nil {
				s.br.success()
			}
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own context expired or was cancelled: no
			// evidence against the source, no degraded substitute.
			s.release()
			return hidden.Result{}, err
		}
		if !Temporary(err) {
			// An application-level answer proves the transport works:
			// return it unchanged and clear the failure streak.
			if s.br != nil {
				s.br.success()
			}
			return hidden.Result{}, err
		}
		s.failures.Add(1)
		if s.br != nil {
			s.br.failure()
			if st, _, _, _ := s.br.snapshot(); st == Open {
				// Our failure (or a concurrent caller's) tripped the
				// breaker: stop spending retry budget on this source.
				break
			}
		}
	}
	return s.degrade(ctx, fmt.Errorf("resilience: %s: attempts exhausted: %w", d.inner.Name(), lastErr))
}

func (s *Source) release() {
	if s.br != nil {
		s.br.release()
	}
}

// attempt runs one try under the per-attempt deadline.
func (d *DB) attempt(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	if d.s.pol.AttemptTimeout > 0 {
		actx, release := newAttemptCtx(ctx, d.s.pol.AttemptTimeout)
		res, err := d.inner.Search(actx, p)
		release()
		return res, err
	}
	return d.inner.Search(ctx, p)
}

// degrade fabricates the empty stale-ok answer when the policy allows,
// or surfaces cause.
func (s *Source) degrade(ctx context.Context, cause error) (hidden.Result, error) {
	if !s.pol.DegradedServe || ctx.Err() != nil {
		return hidden.Result{}, cause
	}
	s.degradedServes.Add(1)
	tm := obs.FromContext(ctx).Start(obs.StageDegraded)
	tm.End(obs.OutcomeDegraded)
	return hidden.Result{Degraded: true}, nil
}

// backoff is the pre-jitter exponential delay before retry `attempt`
// (1-based), capped by the policy.
func (s *Source) backoff(attempt int) time.Duration {
	d := s.pol.BackoffBase << (attempt - 1)
	if d > s.pol.BackoffCap || d <= 0 {
		d = s.pol.BackoffCap
	}
	return d
}

// jitter maps a delay to a uniform value in [d/2, d] so concurrent
// retriers decorrelate instead of thundering in lockstep.
func (s *Source) jitter(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(s.rand63())%(half+1)
}

// rand63 is a lock-free xorshift64* step returning 63 random bits.
func (s *Source) rand63() int64 {
	for {
		old := s.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.rng.CompareAndSwap(old, x) {
			return int64((x * 0x2545f4914f6cdd1d) >> 1)
		}
	}
}

// sleep waits for d or until the context ends.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// HTTPStatus is implemented by errors that carry an HTTP status code
// (wdbhttp.StatusError); resilience classifies 5xx and 429 as
// indictable without importing the transport package.
type HTTPStatus interface {
	HTTPStatus() int
}

// Temporary reports whether an error indicts the transport — and is
// therefore worth a retry and a breaker count — rather than the
// application: network errors, connection resets/refusals, HTTP 5xx and
// 429, and attempt-deadline timeouts. Context cancellation is not
// temporary; neither is any plain application error.
func Temporary(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var hs HTTPStatus
	if errors.As(err, &hs) {
		c := hs.HTTPStatus()
		return c >= 500 || c == 429
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}

// IsUnavailable reports whether an error means "the source is
// unreachable right now" — an open breaker or exhausted transport-level
// retries. The epoch prober uses it to pause (back off) instead of
// counting such rounds as probe errors.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrOpen) || Temporary(err)
}

// Retry is a lightweight retry/deadline policy for idempotent
// request-response calls that are not hidden-database searches (the
// cluster peer protocol). The zero value means a single attempt with no
// added deadline — existing behaviour.
type Retry struct {
	// MaxAttempts is the total number of tries (default 1).
	MaxAttempts int
	// AttemptTimeout bounds each attempt (0 = none beyond the caller's).
	AttemptTimeout time.Duration
	// BackoffBase doubles per retry (default 25ms).
	BackoffBase time.Duration
	// BackoffCap caps the backoff (default 250ms).
	BackoffCap time.Duration
	// RetryIf decides whether an error deserves another attempt; nil
	// means Temporary.
	RetryIf func(error) bool
}

// Do runs fn under the retry policy, passing each attempt its own
// deadline-bounded context.
func Do(ctx context.Context, r Retry, fn func(context.Context) error) error {
	attempts := r.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	retryIf := r.RetryIf
	if retryIf == nil {
		retryIf = Temporary
	}
	base, cap := r.BackoffBase, r.BackoffCap
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := base << (i - 1)
			if d > cap || d <= 0 {
				d = cap
			}
			if serr := sleep(ctx, d); serr != nil {
				return err
			}
		}
		err = func() error {
			actx := ctx
			if r.AttemptTimeout > 0 {
				var cancel context.CancelFunc
				actx, cancel = context.WithTimeout(ctx, r.AttemptTimeout)
				defer cancel()
			}
			return fn(actx)
		}()
		if err == nil || ctx.Err() != nil || !retryIf(err) {
			return err
		}
	}
	return err
}
