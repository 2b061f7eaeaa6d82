package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ridCounter disambiguates request IDs minted in the same nanosecond.
var ridCounter atomic.Uint64

// requestID returns the inbound X-QR2-Request header (a forwarded peer
// lookup keeps its origin's ID) or mints a process-unique one.
func requestID(r *http.Request) string {
	if id := r.Header.Get(obs.RequestHeader); id != "" {
		return id
	}
	return fmt.Sprintf("r%x-%x", time.Now().UnixNano(), ridCounter.Add(1))
}

// startTrace opens a trace for one user request and attaches it to the
// request context. With tracing disabled the trace is nil and the
// request is returned unchanged.
func (s *Server) startTrace(r *http.Request, op string) (*obs.Trace, string, *http.Request) {
	rid := requestID(r)
	t := s.obsC.Start(op, rid)
	if t == nil {
		return nil, rid, r
	}
	return t, rid, r.WithContext(obs.With(r.Context(), t))
}

// finishRequest completes a trace and emits one structured log line per
// request. doc (when non-nil) gains the trace ID so clients can fetch
// the matching /api/trace entry.
func (s *Server) finishRequest(t *obs.Trace, op, rid string, doc *queryDoc, err error) {
	if doc != nil {
		doc.Trace = t.ID()
	}
	td := s.obsC.Done(t, err)
	attrs := []any{"id", rid}
	if doc != nil {
		attrs = append(attrs,
			"source", doc.Source, "qid", doc.QID,
			"rows", len(doc.Rows), "page", doc.Page)
	}
	if td != nil {
		attrs = append(attrs,
			"path", td.Path, "web_queries", td.WebQueries,
			"elapsed", time.Duration(td.ElapsedNS))
	}
	if err != nil {
		s.log.Warn(op, append(attrs, "err", err)...)
		return
	}
	s.log.Info(op, attrs...)
}

// discardLogger drops everything; the service is silent unless the
// deployment provides Config.Logger.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
