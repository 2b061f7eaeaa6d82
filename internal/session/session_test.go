package session

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

func TestNewSessionsHaveUniqueIDs(t *testing.T) {
	m := NewManager(time.Hour, 0)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		s, err := m.New()
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.ID()] {
			t.Fatal("duplicate session id")
		}
		seen[s.ID()] = true
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestGetRefreshesAndExpires(t *testing.T) {
	m := NewManager(10*time.Minute, 0)
	clock := time.Unix(1000, 0)
	m.SetClock(func() time.Time { return clock })
	s, err := m.New()
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(9 * time.Minute)
	if _, ok := m.Get(s.ID()); !ok {
		t.Fatal("session expired too early")
	}
	// The Get refreshed the timer: another 9 minutes is still fine.
	clock = clock.Add(9 * time.Minute)
	if _, ok := m.Get(s.ID()); !ok {
		t.Fatal("Get did not refresh idle timer")
	}
	clock = clock.Add(11 * time.Minute)
	if _, ok := m.Get(s.ID()); ok {
		t.Fatal("expired session still retrievable")
	}
	if _, ok := m.Get("bogus"); ok {
		t.Fatal("unknown id retrievable")
	}
}

func TestGetOrNew(t *testing.T) {
	m := NewManager(time.Hour, 0)
	s1, err := m.GetOrNew("")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.GetOrNew(s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID() != s1.ID() {
		t.Fatal("GetOrNew did not return existing session")
	}
	s3, err := m.GetOrNew("unknown")
	if err != nil {
		t.Fatal(err)
	}
	if s3.ID() == s1.ID() {
		t.Fatal("GetOrNew returned wrong session")
	}
}

func TestSweep(t *testing.T) {
	m := NewManager(time.Minute, 0)
	clock := time.Unix(0, 0)
	m.SetClock(func() time.Time { return clock })
	for i := 0; i < 5; i++ {
		if _, err := m.New(); err != nil {
			t.Fatal(err)
		}
	}
	clock = clock.Add(2 * time.Minute)
	late, err := m.New()
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Sweep(); n != 5 {
		t.Fatalf("Sweep dropped %d, want 5", n)
	}
	if _, ok := m.Get(late.ID()); !ok {
		t.Fatal("fresh session swept")
	}
}

func TestSessionLimitWithSweepRecovery(t *testing.T) {
	m := NewManager(time.Minute, 3)
	clock := time.Unix(0, 0)
	m.SetClock(func() time.Time { return clock })
	for i := 0; i < 3; i++ {
		if _, err := m.New(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.New(); err == nil {
		t.Fatal("limit not enforced")
	}
	// Once the old sessions expire, New succeeds again via implicit sweep.
	clock = clock.Add(2 * time.Minute)
	if _, err := m.New(); err != nil {
		t.Fatalf("New after expiry: %v", err)
	}
}

func TestCache(t *testing.T) {
	m := NewManager(time.Hour, 0)
	s, _ := m.New()
	s.CacheTuples(
		relation.Tuple{ID: 1, Values: []float64{10}},
		relation.Tuple{ID: 2, Values: []float64{20}},
		relation.Tuple{ID: 3, Values: []float64{30}},
	)
	// Re-caching the same tuple does not duplicate.
	s.CacheTuples(relation.Tuple{ID: 2, Values: []float64{20}})
	if s.CacheSize() != 3 {
		t.Fatalf("CacheSize = %d", s.CacheSize())
	}
	got := s.CachedMatching(relation.Predicate{}.WithInterval(0, relation.Closed(15, 35)))
	if len(got) != 2 {
		t.Fatalf("CachedMatching returned %d", len(got))
	}
}

func TestCursors(t *testing.T) {
	m := NewManager(time.Hour, 0)
	s, _ := m.New()
	if _, ok := s.Cursor("q1"); ok {
		t.Fatal("cursor on fresh session")
	}
	s.SetCursor("q1", 42)
	v, ok := s.Cursor("q1")
	if !ok || v.(int) != 42 {
		t.Fatalf("Cursor = %v, %v", v, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := NewManager(time.Hour, 0)
	s, _ := m.New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.CacheTuples(relation.Tuple{ID: int64(g*1000 + i), Values: []float64{float64(i)}})
				_ = s.CachedMatching(relation.Predicate{})
				_, _ = m.Get(s.ID())
			}
		}(g)
	}
	wg.Wait()
	if s.CacheSize() != 8*200 {
		t.Fatalf("CacheSize = %d", s.CacheSize())
	}
}

// TestScopedCacheIsolatesSources is the regression test for the
// cross-source panic: one session interleaving queries over different
// schemas must never offer one source's tuples as candidates for
// another source's predicate (whose attribute indexes may not even
// exist in those tuples).
func TestScopedCacheIsolatesSources(t *testing.T) {
	m := NewManager(0, 0)
	s, err := m.New()
	if err != nil {
		t.Fatal(err)
	}
	diamonds := s.Scoped("diamonds")
	homes := s.Scoped("homes")
	diamonds.CacheTuples(relation.Tuple{ID: 1, Values: []float64{10, 20}})
	homes.CacheTuples(relation.Tuple{ID: 1, Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}})

	// A predicate on attribute 8 is valid for homes, out of range for
	// the diamonds tuples — which scoping keeps it away from.
	p := relation.Predicate{}.WithInterval(8, relation.Closed(0, 100))
	if got := len(homes.CachedMatching(p)); got != 1 {
		t.Fatalf("homes matched %d tuples, want 1", got)
	}
	if got := len(diamonds.CachedMatching(relation.Predicate{})); got != 1 {
		t.Fatalf("diamonds holds %d tuples, want 1", got)
	}
	// Same tuple ID in both scopes must not collide.
	if s.CacheSize() != 2 {
		t.Fatalf("CacheSize = %d, want 2", s.CacheSize())
	}
	// The unscoped methods are the "" scope.
	s.CacheTuples(relation.Tuple{ID: 7, Values: []float64{1}})
	if got := len(s.CachedMatching(relation.Predicate{})); got != 1 {
		t.Fatalf("default scope matched %d, want 1", got)
	}
}

func TestDropCachedTuplesForgetsOneSourceInEverySession(t *testing.T) {
	m := NewManager(0, 0)
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := m.New()
		if err != nil {
			t.Fatal(err)
		}
		s.Scoped("diamonds").CacheTuples(relation.Tuple{ID: 1, Values: []float64{10}})
		s.Scoped("homes").CacheTuples(relation.Tuple{ID: 2, Values: []float64{20}})
		s.SetCursor("q", i)
		sessions = append(sessions, s)
	}
	m.DropCachedTuples("diamonds")
	for i, s := range sessions {
		if got := len(s.Scoped("diamonds").CachedMatching(relation.Predicate{})); got != 0 {
			t.Fatalf("session %d still holds %d diamonds tuples", i, got)
		}
		if got := len(s.Scoped("homes").CachedMatching(relation.Predicate{})); got != 1 {
			t.Fatalf("session %d holds %d homes tuples, want 1", i, got)
		}
		if v, ok := s.Cursor("q"); !ok || v != i {
			t.Fatalf("session %d cursor = %v, %v", i, v, ok)
		}
	}
	// The source's scope refills as usual afterwards.
	sessions[0].Scoped("diamonds").CacheTuples(relation.Tuple{ID: 3, Values: []float64{30}})
	if got := sessions[0].CacheSize(); got != 2 {
		t.Fatalf("CacheSize = %d, want 2", got)
	}
}
