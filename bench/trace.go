package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawl"
	"repro/internal/hidden"
	"repro/internal/relation"
)

// This file is the span recorder of the traced pass and the hidden.DB
// decorator that records a span around every Search at one layer
// boundary. Spans are recorded from bench-owned code only, around calls
// into each layer's public functions; spans inside the program are a
// later change. They are kept in memory and written out at exit.

// span is one timed call. Spans of one request share Req; Parent names
// the layer that made the call ("" for the driver's edge span).
type span struct {
	Pass    string `json:"pass"` // "http" or "engine"
	Req     int32  `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e3 } // µs

// recorder collects the spans of one pass. A nil recorder records
// nothing, which is how the untraced in-process pass runs the same code.
type recorder struct {
	pass  string
	epoch time.Time
	next  atomic.Int32

	mu    sync.Mutex
	spans []span
	// preds keeps the first searches made at the top of the source stack,
	// for the allocation micro-loop.
	preds []keptPred
}

type keptPred struct {
	source string
	pred   relation.Predicate
}

func newRecorder(pass string) *recorder { return &recorder{pass: pass, epoch: time.Now()} }

// nextReq allocates a request id (ids start at 1; 0 means "not a traced
// request", e.g. peer-protocol traffic).
func (r *recorder) nextReq() int32 { return r.next.Add(1) }

func (r *recorder) add(req int32, name, parent string, start, end time.Time) {
	if r == nil || req == 0 {
		return
	}
	s := span{Pass: r.pass, Req: req, Name: name, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops everything recorded so far (the warm phase's spans).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans, r.preds = nil, nil
	r.mu.Unlock()
}

const maxKeptPreds = 2048

func (r *recorder) keepPred(source string, p relation.Predicate) {
	r.mu.Lock()
	if len(r.preds) < maxKeptPreds {
		r.preds = append(r.preds, keptPred{source, p})
	}
	r.mu.Unlock()
}

type reqKey struct{}

// withReq tags ctx with the traced request the work belongs to.
func withReq(ctx context.Context, req int32) context.Context {
	return context.WithValue(ctx, reqKey{}, req)
}

func reqOf(ctx context.Context) int32 {
	req, _ := ctx.Value(reqKey{}).(int32)
	return req
}

// reqHeader carries the request id from the driver's edge span to the
// service-side wrapper.
const reqHeader = "X-Bench-Req"

func parseReqHeader(v string) int32 {
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0
	}
	return int32(n)
}

// spanDB records a span around every Search of the database it wraps.
type spanDB struct {
	inner        hidden.DB
	rec          *recorder
	name, parent string
	keepPreds    bool
}

func (s *spanDB) Name() string             { return s.inner.Name() }
func (s *spanDB) Schema() *relation.Schema { return s.inner.Schema() }
func (s *spanDB) SystemK() int             { return s.inner.SystemK() }

func (s *spanDB) Search(ctx context.Context, p relation.Predicate) (hidden.Result, error) {
	req := reqOf(ctx)
	if s.keepPreds && req != 0 {
		s.rec.keepPred(s.inner.Name(), p)
	}
	start := time.Now()
	res, err := s.inner.Search(ctx, p)
	s.rec.add(req, s.name, s.parent, start, time.Now())
	return res, err
}

// The stack type-asserts on optional interfaces: resilience forwards
// hidden.Counter, and crawl.All looks for crawl.Epocher, crawl.Admitter
// and crawl.EpochAdmitter on the engine's database to refill the answer
// cache after a complete crawl. A decorator that hid any of them would
// measure a different program, so there is one decorator type per
// capability set the stack contains, and wrap refuses anything else.
type spanCounterDB struct {
	*spanDB
	hidden.Counter
}

type spanAdmitDB struct {
	*spanDB
	crawl.Admitter
	crawl.EpochAdmitter
	crawl.Epocher
}

// wrap decorates db with a span recorder for the layer called name,
// called by the layer called parent. A nil recorder returns db itself.
func (r *recorder) wrap(db hidden.DB, name, parent string) (hidden.DB, error) {
	if r == nil {
		return db, nil
	}
	base := &spanDB{inner: db, rec: r, name: name, parent: parent, keepPreds: parent == "core"}
	counter, isCounter := db.(hidden.Counter)
	adm, isAdm := db.(crawl.Admitter)
	eadm, isEAdm := db.(crawl.EpochAdmitter)
	ep, isEp := db.(crawl.Epocher)
	switch {
	case !isCounter && !isAdm && !isEAdm && !isEp:
		return base, nil
	case isCounter && !isAdm && !isEAdm && !isEp:
		return spanCounterDB{base, counter}, nil
	case !isCounter && isAdm && isEAdm && isEp:
		return spanAdmitDB{base, adm, eadm, ep}, nil
	}
	return nil, fmt.Errorf("trace: %T (layer %s) has a capability set the span decorator cannot forward (counter=%v admitter=%v epoch-admitter=%v epocher=%v)",
		db, name, isCounter, isAdm, isEAdm, isEp)
}

// writeSpans appends the recorders' spans to path as JSON lines.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				r.mu.Unlock()
				f.Close()
				return err
			}
		}
		r.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byReq groups a recorder's spans by request and layer name.
func (r *recorder) byReq() map[int32]map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int32]map[string][]span{}
	for _, s := range r.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string][]span{}
			out[s.Req] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	return out
}

// busyUs is the time covered by the spans, overlaps counted once.
func busyUs(spans []span) float64 {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.StartNs, s.EndNs}
	}
	return float64(unionLen(ivs)) / 1e3
}

func sumUs(spans []span) float64 {
	total := 0.0
	for _, s := range spans {
		total += s.dur()
	}
	return total
}
