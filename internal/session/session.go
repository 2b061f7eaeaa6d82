// Package session implements QR2's per-user session state.
//
// The paper's architecture (§II-A) keeps a session variable per connected
// user: a user-level cache of the tuples already "seen" while discovering
// the top-h of a query. The cache accelerates both the current query and
// subsequent get-next operations — every cached tuple matching the filter is
// a ready-made candidate that tightens the rank contour before any web
// database query is issued.
//
// Sessions also carry the open get-next cursors (reranked result streams)
// so that the web service's "get-next" button can resume them. Cursors are
// stored as opaque values to keep this package independent of the algorithm
// layer.
package session

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/relation"
)

// Session is one user's state. All methods are safe for concurrent use.
type Session struct {
	id string

	mu         sync.Mutex
	lastAccess time.Time
	// cache is keyed by source name, then tuple ID: one user session can
	// interleave queries against different sources, and their tuples live
	// in different schemas — matching a predicate from one source against
	// another source's tuples is meaningless at best (attribute indexes
	// out of range at worst), so each source gets its own sub-cache.
	cache   map[string]map[int64]relation.Tuple
	cursors map[string]any
}

// ID returns the session's identifier (the cookie value).
func (s *Session) ID() string { return s.id }

// Scoped returns a view of the session cache restricted to one source's
// tuples. It implements the algorithm layer's TupleCache, so a reranker
// seeded with Scoped(src) only ever sees tuples whose schema matches
// its predicates.
func (s *Session) Scoped(source string) ScopedCache {
	return ScopedCache{s: s, source: source}
}

// ScopedCache is one source's slice of a session cache.
type ScopedCache struct {
	s      *Session
	source string
}

// CacheTuples remembers tuples seen on behalf of this user for this
// source.
func (c ScopedCache) CacheTuples(ts ...relation.Tuple) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	sub := c.s.cache[c.source]
	if sub == nil {
		sub = make(map[int64]relation.Tuple)
		c.s.cache[c.source] = sub
	}
	for _, t := range ts {
		sub[t.ID] = t
	}
}

// CachedMatching returns every cached tuple of this source satisfying p.
func (c ScopedCache) CachedMatching(p relation.Predicate) []relation.Tuple {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	var out []relation.Tuple
	for _, t := range c.s.cache[c.source] {
		if p.Match(t) {
			out = append(out, t)
		}
	}
	return out
}

// CacheTuples remembers tuples under the default (unnamed) source —
// the single-source embedding where no scoping is needed.
func (s *Session) CacheTuples(ts ...relation.Tuple) {
	s.Scoped("").CacheTuples(ts...)
}

// CachedMatching returns every default-source cached tuple satisfying p.
func (s *Session) CachedMatching(p relation.Predicate) []relation.Tuple {
	return s.Scoped("").CachedMatching(p)
}

// CacheSize returns the number of cached tuples across all sources.
func (s *Session) CacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sub := range s.cache {
		n += len(sub)
	}
	return n
}

// Cursor returns the opaque cursor stored under key.
func (s *Session) Cursor(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.cursors[key]
	return v, ok
}

// SetCursor stores an opaque cursor under key.
func (s *Session) SetCursor(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursors[key] = v
}

// Manager tracks sessions with TTL-based expiry. The zero value is not
// usable; call NewManager.
type Manager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	ttl      time.Duration
	maxCount int
	now      func() time.Time
}

// NewManager builds a session manager. Sessions idle for longer than ttl
// are removed by Sweep. maxCount bounds concurrent sessions (0 means 10000).
func NewManager(ttl time.Duration, maxCount int) *Manager {
	if maxCount <= 0 {
		maxCount = 10000
	}
	return &Manager{
		sessions: make(map[string]*Session),
		ttl:      ttl,
		maxCount: maxCount,
		now:      time.Now,
	}
}

// SetClock overrides the manager's time source for tests.
func (m *Manager) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// New creates a fresh session with a cryptographically random identifier.
func (m *Manager) New() (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= m.maxCount {
		m.sweepLocked()
		if len(m.sessions) >= m.maxCount {
			return nil, fmt.Errorf("session: limit of %d concurrent sessions reached", m.maxCount)
		}
	}
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return nil, fmt.Errorf("session: generate id: %w", err)
	}
	s := &Session{
		id:         hex.EncodeToString(raw),
		lastAccess: m.now(),
		cache:      make(map[string]map[int64]relation.Tuple),
		cursors:    make(map[string]any),
	}
	m.sessions[s.id] = s
	return s, nil
}

// Get returns the session with the given id and refreshes its idle timer.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, false
	}
	if m.ttl > 0 && m.now().Sub(s.lastAccess) > m.ttl {
		delete(m.sessions, id)
		return nil, false
	}
	s.mu.Lock()
	s.lastAccess = m.now()
	s.mu.Unlock()
	return s, true
}

// GetOrNew returns the session for id, or a fresh one when id is unknown,
// empty or expired.
func (m *Manager) GetOrNew(id string) (*Session, error) {
	if id != "" {
		if s, ok := m.Get(id); ok {
			return s, nil
		}
	}
	return m.New()
}

// Sweep removes expired sessions and returns how many were dropped.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked()
}

func (m *Manager) sweepLocked() int {
	if m.ttl <= 0 {
		return 0
	}
	cutoff := m.now().Add(-m.ttl)
	dropped := 0
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastAccess.Before(cutoff)
		s.mu.Unlock()
		if idle {
			delete(m.sessions, id)
			dropped++
		}
	}
	return dropped
}

// DropCachedTuples forgets every session's cached tuples of one source,
// for when the source's data changed under them; cursors are kept.
func (m *Manager) DropCachedTuples(source string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		s.mu.Lock()
		delete(s.cache, source)
		s.mu.Unlock()
	}
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}
