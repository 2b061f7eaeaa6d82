// Command wdbserver runs a simulated hidden web database over HTTP: a
// synthetic Blue Nile or Zillow catalog behind the form-encoded top-k
// search interface of internal/wdbhttp.
//
// QR2 (cmd/qr2server) can then be pointed at this server exactly as it
// would be pointed at a real web database. The catalog is fully
// determined by -source, -n and -seed, so servers started with the same
// three flags serve the same database, and every search pays -latency.
// Beyond -latency a search costs little CPU: the simulator (internal/hidden)
// builds a value index per attribute at start-up, answers a selective
// search from it, and scans in system-rank order only for a broad one,
// stopping at system-k matches plus one; both paths return the same tuples.
//
// Observability mirrors qr2server's: every /search runs under an
// internal/obs trace (the search handler and the simulator record spans
// on it), -trace-buffer sizes the /api/trace + /debug/requests
// inspector, -slow-query gates the slow-query log, and -debug-addr
// serves net/http/pprof on a private side mux, never on the public -addr.
//
// Usage:
//
//	wdbserver -source bluenile -n 20000 -k 50 -addr :8081 -latency 300ms
//	wdbserver -fault 'pass:20,stall=2s:10,reset:3,loop'   # rehearse an outage
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/hidden"
	"repro/internal/obs"
	"repro/internal/wdbhttp"
)

func main() {
	var (
		addr    = flag.String("addr", ":8081", "listen address")
		source  = flag.String("source", "bluenile", "catalog: bluenile or zillow")
		n       = flag.Int("n", 20000, "catalog size")
		seed    = flag.Int64("seed", 7, "generator seed")
		systemK = flag.Int("k", 50, "system-k: tuples returned per search")
		latency = flag.Duration("latency", 0, "artificial per-query latency")

		traceBuffer = flag.Int("trace-buffer", 0,
			"recent search traces kept for /api/trace and /debug/requests (0 = default 256, negative disables tracing)")
		slowQuery = flag.Duration("slow-query", 0,
			"slow-search threshold: searches at or above it are logged and kept in /api/trace?slow=1 (0 disables)")
		debugAddr = flag.String("debug-addr", "",
			"listen address for the pprof side mux (/debug/pprof); empty disables — never exposed on the public -addr mux")
		fault = flag.String("fault", "",
			"fault-injection schedule applied to incoming requests, e.g. 'pass:20,stall=2s:10,status=503:5,reset:3,loop' (see internal/faultinject); empty disables")
	)
	flag.Parse()

	var cat *datagen.Catalog
	switch *source {
	case "bluenile":
		cat = datagen.BlueNile(*n, *seed)
	case "zillow":
		cat = datagen.Zillow(*n, *seed)
	default:
		log.Fatalf("wdbserver: unknown source %q (want bluenile or zillow)", *source)
	}
	db, err := hidden.NewLocal(cat.Name, cat.Rel, *systemK, cat.Rank, hidden.WithLatency(*latency))
	if err != nil {
		log.Fatalf("wdbserver: %v", err)
	}
	var root http.Handler = wdbhttp.NewServer(db)
	if *fault != "" {
		loop, steps, err := faultinject.ParseSchedule(*fault)
		if err != nil {
			log.Fatalf("wdbserver: -fault: %v", err)
		}
		inj := faultinject.New()
		inj.SetSchedule(loop, steps...)
		root = inj.Middleware(root)
		log.Printf("wdbserver: fault injection armed (%d steps, loop=%v)", len(steps), loop)
	}
	if *traceBuffer >= 0 {
		col := obs.NewCollector(obs.CollectorConfig{
			Buffer: *traceBuffer,
			Slow:   *slowQuery,
			Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
		})
		mux := http.NewServeMux()
		mux.HandleFunc("GET /api/trace", col.ServeTraces)
		mux.HandleFunc("GET /debug/requests", col.ServeDebug)
		mux.Handle("/", traceSearches(col, root))
		root = mux
	}
	if *debugAddr != "" {
		// pprof lives on its own mux and listener: profiling endpoints on
		// the public address would hand any user heap dumps and CPU time.
		go func() {
			log.Printf("wdbserver: pprof on %s/debug/pprof/", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, pprofMux()))
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("wdbserver: serving %s (%d tuples, system-k %d, latency %s) on %s",
		cat.Name, cat.Rel.Len(), *systemK, *latency, *addr)
	log.Fatal(srv.ListenAndServe())
}

// traceSearches runs every /search under an obs trace so the search
// handler and the simulator record spans; the request ID is
// taken from the caller's X-QR2-Request header when present, making the
// server-side trace correlatable with the QR2 replica that issued it.
func traceSearches(col *obs.Collector, next http.Handler) http.Handler {
	var counter atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			next.ServeHTTP(w, r)
			return
		}
		rid := r.Header.Get(obs.RequestHeader)
		if rid == "" {
			rid = fmt.Sprintf("w%x-%x", time.Now().UnixNano(), counter.Add(1))
		}
		t := col.Start("search", rid)
		next.ServeHTTP(w, r.WithContext(obs.With(r.Context(), t)))
		col.Done(t, nil)
	})
}

// pprofMux builds a mux exposing only the net/http/pprof handlers, kept
// apart from the public database mux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
