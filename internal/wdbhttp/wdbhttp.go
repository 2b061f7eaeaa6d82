// Package wdbhttp exposes a hidden web database over HTTP and provides the
// matching Go client.
//
// The QR2 paper's whole premise is that the middleware talks to the web
// database through its public, form-based search interface. This package
// makes that literal: Server publishes a database's search form as an
// application/x-www-form-urlencoded endpoint (filters in form fields,
// system-ranked top-k out as JSON), and Client implements hidden.DB over
// that wire format. Every reranking algorithm therefore runs unchanged
// against a remote database.
//
// Form fields understood by POST /search (and GET with a query string):
//
//	min.<attr>=v    inclusive lower bound on a numeric attribute
//	minx.<attr>=v   exclusive lower bound
//	max.<attr>=v    inclusive upper bound
//	maxx.<attr>=v   exclusive upper bound
//	in.<attr>=a,b   allowed category codes of a categorical attribute
//
// GET /schema describes the searchable attributes and the system-k limit.
package wdbhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/relation"
)

// schemaDoc is the JSON document served by GET /schema.
type schemaDoc struct {
	Name    string    `json:"name"`
	SystemK int       `json:"system_k"`
	Attrs   []attrDoc `json:"attrs"`
}

type attrDoc struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Min        float64  `json:"min,omitempty"`
	Max        float64  `json:"max,omitempty"`
	Resolution float64  `json:"resolution,omitempty"`
	Categories []string `json:"categories,omitempty"`
}

// searchDoc is the JSON document served by /search. Trace is the
// server-side span subtree, present only when the caller set the
// X-QR2-Trace header and the server ran with tracing on.
type searchDoc struct {
	Overflow bool         `json:"overflow"`
	Tuples   []tupleDoc   `json:"tuples"`
	Trace    *obs.Subtree `json:"trace,omitempty"`
}

type tupleDoc struct {
	ID     int64     `json:"id"`
	Values []float64 `json:"values"`
}

type errorDoc struct {
	Error string `json:"error"`
}

// Server publishes a hidden database over HTTP.
type Server struct {
	db  hidden.DB
	mux *http.ServeMux
}

// NewServer wraps a database.
func NewServer(db hidden.DB) *Server {
	s := &Server{db: db, mux: http.NewServeMux()}
	s.mux.HandleFunc("/schema", s.handleSchema)
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	schema := s.db.Schema()
	doc := schemaDoc{Name: s.db.Name(), SystemK: s.db.SystemK()}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		doc.Attrs = append(doc.Attrs, attrDoc{
			Name: a.Name, Kind: a.Kind.String(),
			Min: a.Min, Max: a.Max, Resolution: a.Resolution,
			Categories: a.Categories,
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "malformed form: " + err.Error()})
		return
	}
	pred, err := ParseFilterForm(s.db.Schema(), r.Form)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	tm := obs.FromContext(r.Context()).Start(obs.StageWebQuery)
	res, err := s.db.Search(r.Context(), pred)
	tm.EndQueries(obs.ErrOutcome(err, obs.OutcomeOK), 1)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
		return
	}
	doc := searchDoc{Overflow: res.Overflow, Tuples: make([]tupleDoc, 0, len(res.Tuples))}
	for _, t := range res.Tuples {
		doc.Tuples = append(doc.Tuples, tupleDoc{ID: t.ID, Values: t.Values})
	}
	if r.Header.Get(obs.TraceHeader) != "" {
		doc.Trace = obs.FromContext(r.Context()).Export("wdb:" + s.db.Name())
	}
	writeJSON(w, http.StatusOK, doc)
}

// ParseFilterForm decodes the filter form fields into a predicate. It is
// shared by this server and the QR2 service's own filtering section.
func ParseFilterForm(schema *relation.Schema, form url.Values) (relation.Predicate, error) {
	var pred relation.Predicate
	for key, vals := range form {
		prefix, attrName, ok := strings.Cut(key, ".")
		if !ok || len(vals) == 0 {
			continue
		}
		var kind string
		switch prefix {
		case "min", "minx", "max", "maxx", "in":
			kind = prefix
		default:
			continue
		}
		idx, found := schema.Lookup(attrName)
		if !found {
			return relation.Predicate{}, fmt.Errorf("wdbhttp: unknown attribute %q", attrName)
		}
		a := schema.Attr(idx)
		raw := vals[len(vals)-1] // last value wins, like HTML forms
		if kind == "in" {
			if a.Kind != relation.Categorical {
				return relation.Predicate{}, fmt.Errorf("wdbhttp: attribute %q is not categorical", attrName)
			}
			var cats []int
			for _, part := range strings.Split(raw, ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				code, err := strconv.Atoi(part)
				if err != nil || code < 0 || code >= len(a.Categories) {
					return relation.Predicate{}, fmt.Errorf("wdbhttp: bad category code %q for %q", part, attrName)
				}
				cats = append(cats, code)
			}
			pred = pred.WithCategories(idx, cats)
			continue
		}
		if a.Kind != relation.Numeric {
			return relation.Predicate{}, fmt.Errorf("wdbhttp: attribute %q is not numeric", attrName)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return relation.Predicate{}, fmt.Errorf("wdbhttp: bad bound %q for %q", raw, attrName)
		}
		var iv relation.Interval
		switch kind {
		case "min":
			iv = relation.Full()
			iv.Lo = v
		case "minx":
			iv = relation.Full()
			iv.Lo, iv.LoOpen = v, true
		case "max":
			iv = relation.Full()
			iv.Hi = v
		case "maxx":
			iv = relation.Full()
			iv.Hi, iv.HiOpen = v, true
		}
		pred = pred.WithInterval(idx, iv)
	}
	return pred, nil
}

// EncodeFilterForm renders a predicate as the form fields ParseFilterForm
// understands. Infinite bounds are omitted.
func EncodeFilterForm(schema *relation.Schema, pred relation.Predicate) url.Values {
	form := url.Values{}
	for _, c := range pred.Conditions() {
		name := schema.Attr(c.Attr).Name
		if c.Cats != nil {
			parts := make([]string, len(c.Cats))
			for i, code := range c.Cats {
				parts[i] = strconv.Itoa(code)
			}
			form.Set("in."+name, strings.Join(parts, ","))
			continue
		}
		iv := c.Iv
		if !isInf(iv.Lo, -1) {
			key := "min." + name
			if iv.LoOpen {
				key = "minx." + name
			}
			form.Set(key, strconv.FormatFloat(iv.Lo, 'g', -1, 64))
		}
		if !isInf(iv.Hi, 1) {
			key := "max." + name
			if iv.HiOpen {
				key = "maxx." + name
			}
			form.Set(key, strconv.FormatFloat(iv.Hi, 'g', -1, 64))
		}
	}
	return form
}

func isInf(v float64, sign int) bool {
	return (sign < 0 && v < -1.7e308) || (sign > 0 && v > 1.7e308)
}

// StatusError reports a non-200 response from the web database, keeping
// the numeric code so callers can classify it: the resilience layer
// treats 5xx and 429 as transport-level (retryable, breaker-indicting)
// while other 4xx indict only the request that earned them.
type StatusError struct {
	// Op names the endpoint, e.g. "search" or "schema endpoint".
	Op string
	// Code is the numeric HTTP status.
	Code int
	// Status is the full status line, e.g. "503 Service Unavailable".
	Status string
	// Msg is the server-provided error body, possibly empty.
	Msg string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wdbhttp: %s returned %s", e.Op, e.Status)
	}
	return fmt.Sprintf("wdbhttp: %s returned %s: %s", e.Op, e.Status, e.Msg)
}

// HTTPStatus implements the resilience layer's status interface.
func (e *StatusError) HTTPStatus() int { return e.Code }

// DrainClose consumes any unread body bytes before closing so the
// keep-alive connection returns to the transport's pool instead of
// being torn down — under retry storms, re-dialing every connection
// multiplies the damage. An early-return error path that closes an
// undrained body silently costs a re-dial per request, which is why
// every HTTP client in this codebase (the source-facing client here,
// the cluster peer protocol, the health prober) defers this instead of
// a bare Body.Close. The limit bounds a hostile unbounded body.
func DrainClose(r *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
	r.Body.Close()
}

// Client is a hidden.DB implementation over the wire format above.
type Client struct {
	base    string
	hc      *http.Client
	name    string
	schema  *relation.Schema
	systemK int
	queries atomic.Int64
}

// DialOption tunes Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	attempts int
	backoff  time.Duration
}

// WithRetry makes Dial retry the /schema fetch up to attempts times,
// doubling backoff between tries. Only transport errors and 5xx
// responses are retried — a 404 or a malformed schema document will
// not heal with time. The common case this rescues: a web database
// that finishes booting a few seconds after the service that dials
// it, which without retry would permanently lose the source.
func WithRetry(attempts int, backoff time.Duration) DialOption {
	return func(dc *dialConfig) {
		if attempts > 0 {
			dc.attempts = attempts
		}
		if backoff > 0 {
			dc.backoff = backoff
		}
	}
}

// idleConnsPerHost is the idle pool of the transport Dial builds when given
// no client. The rerank engine keeps up to 8 searches of a batch in flight
// (core.Options.MaxParallel) and concurrent requests batch at once, so
// net/http's default of 2 idle connections per host would close and redial
// most of every batch's connections.
const idleConnsPerHost = 64

// Dial fetches the remote schema and returns a ready client. A nil hc gets a
// client of its own, with a 30 s timeout and a keep-alive pool sized to the
// engine's fan-out.
func Dial(ctx context.Context, baseURL string, hc *http.Client, opts ...DialOption) (*Client, error) {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = idleConnsPerHost
		hc = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	dc := dialConfig{attempts: 1, backoff: 500 * time.Millisecond}
	for _, opt := range opts {
		opt(&dc)
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
	var doc schemaDoc
	var err error
	backoff := dc.backoff
	for attempt := 1; ; attempt++ {
		doc, err = c.fetchSchema(ctx)
		if err == nil {
			break
		}
		if attempt >= dc.attempts || !retryableDial(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 8*time.Second {
			backoff *= 2
		}
	}
	attrs := make([]relation.Attribute, 0, len(doc.Attrs))
	for _, ad := range doc.Attrs {
		kind := relation.Numeric
		if ad.Kind == relation.Categorical.String() {
			kind = relation.Categorical
		}
		attrs = append(attrs, relation.Attribute{
			Name: ad.Name, Kind: kind,
			Min: ad.Min, Max: ad.Max, Resolution: ad.Resolution,
			Categories: ad.Categories,
		})
	}
	schema, err := relation.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("wdbhttp: remote schema invalid: %w", err)
	}
	c.name, c.schema, c.systemK = doc.Name, schema, doc.SystemK
	if c.systemK <= 0 {
		return nil, fmt.Errorf("wdbhttp: remote system-k %d invalid", c.systemK)
	}
	return c, nil
}

// fetchSchema performs one GET /schema round trip.
func (c *Client) fetchSchema(ctx context.Context) (schemaDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/schema", nil)
	if err != nil {
		return schemaDoc{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return schemaDoc{}, fmt.Errorf("wdbhttp: fetch schema: %w", err)
	}
	defer DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return schemaDoc{}, &StatusError{
			Op: "schema endpoint", Code: resp.StatusCode, Status: resp.Status,
		}
	}
	var doc schemaDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return schemaDoc{}, fmt.Errorf("wdbhttp: decode schema: %w", err)
	}
	return doc, nil
}

// retryableDial reports whether a schema-fetch failure can heal with
// time: transport errors (server not yet listening — *url.Error from
// hc.Do implements net.Error) and 5xx/429 responses. Decode failures
// and other 4xx are permanent: the endpoint exists and is wrong.
func retryableDial(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= http.StatusInternalServerError || se.Code == http.StatusTooManyRequests
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Name implements hidden.DB.
func (c *Client) Name() string { return c.name }

// Schema implements hidden.DB.
func (c *Client) Schema() *relation.Schema { return c.schema }

// SystemK implements hidden.DB.
func (c *Client) SystemK() int { return c.systemK }

// Search implements hidden.DB by POSTing the filter form. Each call is
// one web-database round trip: it records one web_query span on the
// request's trace and forwards the request ID so the remote server's
// logs correlate with this client's trace.
func (c *Client) Search(ctx context.Context, p relation.Predicate) (res hidden.Result, err error) {
	tr := obs.FromContext(ctx)
	tm := tr.Start(obs.StageWebQuery)
	defer func() { tm.EndQueries(obs.ErrOutcome(err, obs.OutcomeOK), 1) }()
	c.queries.Add(1)
	form := EncodeFilterForm(c.schema, p)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/search",
		strings.NewReader(form.Encode()))
	if err != nil {
		return hidden.Result{}, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(obs.RequestHeader, rid)
	}
	if tr != nil {
		req.Header.Set(obs.TraceHeader, "1")
	}
	began := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return hidden.Result{}, fmt.Errorf("wdbhttp: search: %w", err)
	}
	defer DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		var ed errorDoc
		_ = json.NewDecoder(resp.Body).Decode(&ed)
		return hidden.Result{}, &StatusError{
			Op: "search", Code: resp.StatusCode, Status: resp.Status, Msg: ed.Error,
		}
	}
	var doc searchDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return hidden.Result{}, fmt.Errorf("wdbhttp: decode search result: %w", err)
	}
	tr.Stitch(doc.Trace, began)
	res = hidden.Result{Overflow: doc.Overflow}
	for _, td := range doc.Tuples {
		if len(td.Values) != c.schema.Len() {
			return hidden.Result{}, fmt.Errorf("wdbhttp: tuple %d has %d values, schema has %d",
				td.ID, len(td.Values), c.schema.Len())
		}
		res.Tuples = append(res.Tuples, relation.Tuple{ID: td.ID, Values: td.Values})
	}
	return res, nil
}

// QueryCount implements hidden.Counter.
func (c *Client) QueryCount() int64 { return c.queries.Load() }

// ResetQueryCount implements hidden.Counter.
func (c *Client) ResetQueryCount() { c.queries.Store(0) }

var (
	_ hidden.DB      = (*Client)(nil)
	_ hidden.Counter = (*Client)(nil)
)
