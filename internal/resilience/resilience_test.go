package resilience

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/relation"
)

// fakeDB scripts one answer per call by 1-based call number.
type fakeDB struct {
	name  string
	fn    func(n int) (hidden.Result, error)
	calls atomic.Int64
}

func (f *fakeDB) Name() string             { return f.name }
func (f *fakeDB) Schema() *relation.Schema { return nil }
func (f *fakeDB) SystemK() int             { return 5 }
func (f *fakeDB) QueryCount() int64        { return f.calls.Load() }
func (f *fakeDB) ResetQueryCount()         { f.calls.Store(0) }
func (f *fakeDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	if err := ctx.Err(); err != nil {
		return hidden.Result{}, err
	}
	return f.fn(int(f.calls.Add(1)))
}

var transportErr = &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by test")}

// statusErr mimics wdbhttp.StatusError without importing it.
type statusErr struct{ code int }

func (e *statusErr) Error() string   { return fmt.Sprintf("status %d", e.code) }
func (e *statusErr) HTTPStatus() int { return e.code }

// fastPolicy keeps test retries/backoff in the microsecond range.
func fastPolicy() Policy {
	return Policy{
		AttemptTimeout:   time.Second,
		MaxAttempts:      3,
		BackoffBase:      time.Microsecond,
		BackoffCap:       10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerOpenFor:   50 * time.Millisecond,
	}
}

func TestRetryRecoversFromTransportErrors(t *testing.T) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		if n <= 2 {
			return hidden.Result{}, transportErr
		}
		return hidden.Result{Overflow: true}, nil
	}}
	src := NewSource(fastPolicy())
	res, err := src.Wrap(db).Search(context.Background(), relation.Predicate{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.Overflow || res.Degraded {
		t.Fatalf("unexpected result %+v", res)
	}
	st := src.Stats()
	if st.Retries != 2 || st.Failures != 2 || st.Attempts != 3 {
		t.Fatalf("stats %+v, want 2 retries / 2 failures / 3 attempts", st)
	}
	if src.State() != Closed {
		t.Fatalf("breaker %v after recovery, want closed", src.State())
	}
}

func TestApplicationErrorsNeitherRetryNorIndict(t *testing.T) {
	appErr := errors.New("hidden: injected failure")
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{}, appErr
	}}
	src := NewSource(fastPolicy())
	wrapped := src.Wrap(db)
	for i := 0; i < 10; i++ {
		if _, err := wrapped.Search(context.Background(), relation.Predicate{}); !errors.Is(err, appErr) {
			t.Fatalf("Search err = %v, want %v unchanged", err, appErr)
		}
	}
	if got := db.calls.Load(); got != 10 {
		t.Fatalf("inner calls = %d, want 10 (no retries on app errors)", got)
	}
	if src.State() != Closed || src.Stats().Opens != 0 {
		t.Fatalf("app errors tripped the breaker: %+v", src.Stats())
	}
}

func TestFourXXDoesNotRetryButFiveXXDoes(t *testing.T) {
	for _, tc := range []struct {
		code      int
		wantCalls int64
	}{{404, 1}, {503, 3}, {429, 3}} {
		db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
			return hidden.Result{}, &statusErr{tc.code}
		}}
		src := NewSource(fastPolicy())
		if _, err := src.Wrap(db).Search(context.Background(), relation.Predicate{}); err == nil {
			t.Fatalf("code %d: want error", tc.code)
		}
		if got := db.calls.Load(); got != tc.wantCalls {
			t.Errorf("code %d: inner calls = %d, want %d", tc.code, got, tc.wantCalls)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	healthy := atomic.Bool{}
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		if healthy.Load() {
			return hidden.Result{Overflow: true}, nil
		}
		return hidden.Result{}, transportErr
	}}
	pol := fastPolicy()
	pol.MaxAttempts = 1 // one indictment per call, for precise counting
	src := NewSource(pol)
	wrapped := src.Wrap(db)
	now := time.Now()
	src.br.now = func() time.Time { return now }

	ctx := context.Background()
	for i := 0; i < pol.BreakerThreshold; i++ {
		if _, err := wrapped.Search(ctx, relation.Predicate{}); err == nil {
			t.Fatal("want transport error while unhealthy")
		}
	}
	if src.State() != Open {
		t.Fatalf("state %v after %d failures, want open", src.State(), pol.BreakerThreshold)
	}
	// Open: short-circuited without touching the source.
	before := db.calls.Load()
	if _, err := wrapped.Search(ctx, relation.Predicate{}); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if db.calls.Load() != before {
		t.Fatal("open breaker still reached the source")
	}
	if src.Stats().ShortCircuits != 1 {
		t.Fatalf("short circuits = %d, want 1", src.Stats().ShortCircuits)
	}
	// Window elapses; a failing probe re-opens.
	now = now.Add(pol.BreakerOpenFor + time.Millisecond)
	if _, err := wrapped.Search(ctx, relation.Predicate{}); err == nil {
		t.Fatal("want probe failure")
	}
	if src.State() != Open {
		t.Fatalf("state %v after failed probe, want open", src.State())
	}
	// Window elapses again; a healthy probe closes.
	healthy.Store(true)
	now = now.Add(pol.BreakerOpenFor + time.Millisecond)
	if _, err := wrapped.Search(ctx, relation.Predicate{}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if src.State() != Closed {
		t.Fatalf("state %v after healthy probe, want closed", src.State())
	}
	st := src.Stats()
	if st.Opens != 2 || st.HalfOpens != 2 || st.Closes != 1 {
		t.Fatalf("transitions %+v, want 2 opens / 2 half-opens / 1 close", st)
	}
}

func TestHalfOpenAdmitsBoundedProbes(t *testing.T) {
	b := newBreaker(1, 50*time.Millisecond, 1)
	now := time.Now()
	b.now = func() time.Time { return now }
	b.failure()
	if s, _, _, _ := b.snapshot(); s != Open {
		t.Fatalf("state %v, want open", s)
	}
	now = now.Add(51 * time.Millisecond)
	if !b.allow() {
		t.Fatal("first probe should be admitted")
	}
	if b.allow() {
		t.Fatal("second concurrent probe should be rejected with probes=1")
	}
	b.release()
	if !b.allow() {
		t.Fatal("released probe slot should be reusable")
	}
	b.success()
	if s, _, _, _ := b.snapshot(); s != Closed {
		t.Fatalf("state %v after probe success, want closed", s)
	}
}

func TestDegradedServe(t *testing.T) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{}, transportErr
	}}
	pol := fastPolicy()
	pol.DegradedServe = true
	src := NewSource(pol)
	wrapped := src.Wrap(db)
	ctx := context.Background()
	res, err := wrapped.Search(ctx, relation.Predicate{})
	if err != nil {
		t.Fatalf("degraded serve should not error: %v", err)
	}
	if !res.Degraded || len(res.Tuples) != 0 || res.Overflow {
		t.Fatalf("want empty degraded result, got %+v", res)
	}
	// Trip the breaker; short circuits degrade too.
	for i := 0; i < 5; i++ {
		wrapped.Search(ctx, relation.Predicate{})
	}
	if src.State() != Open {
		t.Fatalf("state %v, want open", src.State())
	}
	before := db.calls.Load()
	res, err = wrapped.Search(ctx, relation.Predicate{})
	if err != nil || !res.Degraded {
		t.Fatalf("short-circuit degrade: res=%+v err=%v", res, err)
	}
	if db.calls.Load() != before {
		t.Fatal("open breaker reached the source")
	}
	if src.Stats().DegradedServes < 2 {
		t.Fatalf("degraded serves = %d, want >= 2", src.Stats().DegradedServes)
	}
}

func TestAttemptTimeoutClassifiedTemporary(t *testing.T) {
	db := &fakeDB{name: "src"}
	db.fn = func(n int) (hidden.Result, error) { panic("unused") }
	slow := slowDB{delay: time.Second, inner: db}
	pol := fastPolicy()
	pol.AttemptTimeout = 2 * time.Millisecond
	pol.MaxAttempts = 2
	src := NewSource(pol)
	_, err := src.Wrap(slow).Search(context.Background(), relation.Predicate{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped deadline exceeded", err)
	}
	if st := src.Stats(); st.Retries != 1 || st.Failures != 2 {
		t.Fatalf("stats %+v, want 1 retry / 2 failures", st)
	}
}

// slowDB sleeps before answering, honouring the context.
type slowDB struct {
	delay time.Duration
	inner hidden.DB
}

func (s slowDB) Name() string             { return s.inner.Name() }
func (s slowDB) Schema() *relation.Schema { return s.inner.Schema() }
func (s slowDB) SystemK() int             { return s.inner.SystemK() }
func (s slowDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	select {
	case <-time.After(s.delay):
		return hidden.Result{Overflow: true}, nil
	case <-ctx.Done():
		return hidden.Result{}, ctx.Err()
	}
}

// TestCallerCancelMidAttempt: cancelling the caller's context while an
// attempt is blocked inside the source ends the attempt through the
// attempt context's parent watcher. The caller gets its own error back,
// the source is not indicted, and the next call runs on a fresh attempt
// context rather than the one that fired.
func TestCallerCancelMidAttempt(t *testing.T) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{Overflow: true}, nil
	}}
	started := make(chan struct{}, 1)
	sawDone := make(chan error, 1)
	src := NewSource(fastPolicy())
	blocked := src.Wrap(blockingDB{release: make(chan struct{}), started: started, sawDone: sawDone, inner: db})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := blocked.Search(ctx, relation.Predicate{})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-sawDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("inner search saw %v, want context.Canceled", err)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Search err = %v, want context.Canceled", err)
	}
	if st := src.Stats(); st.Failures != 0 || st.State != Closed.String() {
		t.Fatalf("stats %+v, want 0 failures and a closed breaker", st)
	}
	// fakeDB fails with ctx.Err() when handed an already-done context.
	res, err := src.Wrap(db).Search(context.Background(), relation.Predicate{})
	if err != nil || !res.Overflow {
		t.Fatalf("next call: res=%+v err=%v, want a clean answer", res, err)
	}
}

// blockingDB signals when a search starts and blocks until released or
// until its context is done, reporting the context's error on sawDone.
type blockingDB struct {
	release chan struct{}
	started chan struct{}
	sawDone chan error
	inner   hidden.DB
}

func (b blockingDB) Name() string             { return b.inner.Name() }
func (b blockingDB) Schema() *relation.Schema { return b.inner.Schema() }
func (b blockingDB) SystemK() int             { return b.inner.SystemK() }
func (b blockingDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return hidden.Result{}, nil
	case <-ctx.Done():
		b.sawDone <- ctx.Err()
		return hidden.Result{}, ctx.Err()
	}
}

func TestCounterPassthrough(t *testing.T) {
	db := &fakeDB{name: "src", fn: func(n int) (hidden.Result, error) {
		return hidden.Result{}, nil
	}}
	src := NewSource(fastPolicy())
	wrapped := src.Wrap(db)
	c, ok := wrapped.(hidden.Counter)
	if !ok {
		t.Fatal("wrapper dropped the hidden.Counter capability")
	}
	wrapped.Search(context.Background(), relation.Predicate{})
	if c.QueryCount() != 1 {
		t.Fatalf("QueryCount = %d, want 1", c.QueryCount())
	}
}

func TestTemporaryClassification(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"net.OpError", transportErr, true},
		{"wrapped ECONNRESET", fmt.Errorf("dial: %w", syscall.ECONNRESET), true},
		{"wrapped ECONNREFUSED", fmt.Errorf("dial: %w", syscall.ECONNREFUSED), true},
		{"status 503", &statusErr{503}, true},
		{"status 429", &statusErr{429}, true},
		{"status 404", &statusErr{404}, false},
		{"wrapped status 500", fmt.Errorf("search: %w", &statusErr{500}), true},
		{"deadline", context.DeadlineExceeded, true},
		{"cancel", context.Canceled, false},
		{"app error", errors.New("no such attribute"), false},
	} {
		if got := Temporary(tc.err); got != tc.want {
			t.Errorf("Temporary(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDoRetriesTransportOnly(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Retry{MaxAttempts: 3, BackoffBase: time.Microsecond}, func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return transportErr
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after 3 attempts", err, calls)
	}

	calls = 0
	appErr := errors.New("bad request")
	err = Do(context.Background(), Retry{MaxAttempts: 3, BackoffBase: time.Microsecond}, func(ctx context.Context) error {
		calls++
		return appErr
	})
	if !errors.Is(err, appErr) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want app error after 1 attempt", err, calls)
	}

	// Zero value: single attempt, behaviour unchanged.
	calls = 0
	Do(context.Background(), Retry{}, func(ctx context.Context) error {
		calls++
		return transportErr
	})
	if calls != 1 {
		t.Fatalf("zero-value Retry made %d attempts, want 1", calls)
	}

	// Custom RetryIf overrides classification.
	calls = 0
	Do(context.Background(), Retry{MaxAttempts: 2, BackoffBase: time.Microsecond,
		RetryIf: func(error) bool { return true }}, func(ctx context.Context) error {
		calls++
		return appErr
	})
	if calls != 2 {
		t.Fatalf("RetryIf=always made %d attempts, want 2", calls)
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	var sawDeadline atomic.Bool
	err := Do(context.Background(), Retry{MaxAttempts: 2, AttemptTimeout: 2 * time.Millisecond,
		BackoffBase: time.Microsecond}, func(ctx context.Context) error {
		select {
		case <-time.After(time.Second):
			return nil
		case <-ctx.Done():
			sawDeadline.Store(true)
			return ctx.Err()
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) || !sawDeadline.Load() {
		t.Fatalf("err=%v, want per-attempt deadline to fire", err)
	}
}
