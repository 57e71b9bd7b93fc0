package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Connection timeouts of every server ServeHandler starts. They bound what a
// hostile or broken client can hold open: headers must arrive within
// readHeaderTimeout (a slowloris client trickling header lines is cut off),
// the whole request including its body within readTimeout, and an idle
// keep-alive connection is closed after idleTimeout. There is deliberately
// no write timeout: a synchronous solve or an /events stream may run for
// minutes, and the read deadline is lifted once the request has been read.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeOptions configures the telemetry handler. Every field is optional:
// a zero ServeOptions still serves /healthz, /readyz and /debug/pprof/.
type ServeOptions struct {
	// Registry backs /metrics (Prometheus text exposition of every metric)
	// and /runs (the JSON progress view over the well-known run gauges).
	Registry *Registry
	// Flight backs /debug/flight: an on-demand JSONL dump of the retained
	// event window. nil makes the endpoint a 404.
	Flight *FlightRecorder
	// Ready gates /readyz; nil means always ready. /healthz is pure
	// liveness — reachable process, 200 — and takes no hook on purpose.
	Ready func() bool
	// History backs /history: the embedded metric-history ring (see
	// internal/obs/history, whose Store.Handler fits here). nil makes the
	// endpoint a 404.
	History http.Handler
	// Events backs /events: the live SSE trace-event stream (an *SSEBroker
	// fits here). nil makes the endpoint a 404.
	Events http.Handler
}

// RunStatus is the JSON document the /runs endpoint serves: live progress of
// the covering-schedule run(s) feeding the registry, assembled from the
// well-known gauges and counters the driver and CLIs maintain. Fields whose
// metric has never been written are -1, so "slot 0" is never ambiguous with
// "no run started".
type RunStatus struct {
	// Slot is the slot the driver is currently executing (gauge
	// "mcs.slot.current").
	Slot int64 `json:"slot"`
	// TagsRead is the cumulative tags-read count (gauge "mcs.tags.read").
	TagsRead int64 `json:"tags_read"`
	// AnytimeSlots counts per-slot budget truncations (counter
	// "mcs.slots.truncated"); 0 when the counter does not exist, since a
	// budget-free run legitimately never creates it.
	AnytimeSlots int64 `json:"anytime_slots"`
	// CheckpointLastSlot is the newest durable slot (gauge
	// "checkpoint.last_slot").
	CheckpointLastSlot int64 `json:"checkpoint_last_slot"`
	// CheckpointLag is Slot - CheckpointLastSlot when both gauges exist
	// (healthy: 0 or 1), -1 otherwise.
	CheckpointLag int64 `json:"checkpoint_lag"`
	// CheckpointsWritten counts durable records appended (counter
	// "checkpoint.records").
	CheckpointsWritten int64 `json:"checkpoints_written"`
	// SuperviseAttempt is the watchdog's current attempt number, starting
	// at 0 (gauge "supervise.attempt"); -1 outside supervised runs.
	SuperviseAttempt int64 `json:"supervise_attempt"`
	// RunsCompleted counts run_completed trace events folded into the
	// registry (counter "events.run_completed").
	RunsCompleted int64 `json:"runs_completed"`
}

// RunStatusFrom assembles the /runs document from a registry snapshot.
func RunStatusFrom(s Snapshot) RunStatus {
	gauge := func(name string) int64 {
		v, ok := s.Gauges[name]
		if !ok {
			return -1
		}
		return int64(v)
	}
	st := RunStatus{
		Slot:               gauge("mcs.slot.current"),
		TagsRead:           gauge("mcs.tags.read"),
		AnytimeSlots:       s.Counters["mcs.slots.truncated"],
		CheckpointLastSlot: gauge("checkpoint.last_slot"),
		CheckpointLag:      -1,
		CheckpointsWritten: s.Counters["checkpoint.records"],
		SuperviseAttempt:   gauge("supervise.attempt"),
		RunsCompleted:      s.Counters["events.run_completed"],
	}
	if st.Slot >= 0 && st.CheckpointLastSlot >= 0 {
		st.CheckpointLag = st.Slot - st.CheckpointLastSlot
	}
	return st
}

// requireGet rejects non-GET/HEAD methods with 405 before running h. Every
// telemetry endpoint is a read; answering a stray POST with data would hide
// client bugs, and the Allow header is part of the 405 contract.
func requireGet(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// Handler builds the telemetry endpoint mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/runs           JSON run progress (RunStatus)
//	/history        JSON metric history (ring time-series store)
//	/events         live SSE stream of trace events
//	/healthz        liveness — always 200 while the process serves
//	/readyz         readiness — 200, or 503 while ServeOptions.Ready is false
//	/debug/flight   JSONL dump of the flight recorder's retained window
//	/debug/pprof/   the standard net/http/pprof profiling endpoints
//
// Every typed endpoint declares its Content-Type, marks its payload
// uncacheable (Cache-Control: no-store — all of it is live state; a cached
// /metrics or /readyz is actively misleading), and rejects non-GET methods
// with 405 + Allow. The handler only reads atomic metric state and event
// copies, so serving concurrently with a live run is safe and perturbs
// nothing the engines compute — the determinism contract extends to
// scraping (DESIGN.md §13).
func Handler(opts ServeOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", requireGet(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		w.Header().Set("Cache-Control", "no-store")
		if opts.Registry == nil {
			return
		}
		// Errors past the first byte are undetectable anyway (headers are
		// gone); an error here just means the client went away.
		_ = opts.Registry.Snapshot().WriteExposition(w)
	}))
	mux.HandleFunc("/runs", requireGet(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		var st RunStatus
		if opts.Registry != nil {
			st = RunStatusFrom(opts.Registry.Snapshot())
		} else {
			st = RunStatusFrom(Snapshot{})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	}))
	mux.HandleFunc("/healthz", requireGet(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write([]byte("ok\n"))
	}))
	mux.HandleFunc("/readyz", requireGet(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if opts.Ready != nil && !opts.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	}))
	mux.HandleFunc("/debug/flight", requireGet(func(w http.ResponseWriter, r *http.Request) {
		if opts.Flight == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		_ = opts.Flight.WriteJSONL(w)
	}))
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		if opts.History == nil {
			http.NotFound(w, r)
			return
		}
		opts.History.ServeHTTP(w, r)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if opts.Events == nil {
			http.NotFound(w, r)
			return
		}
		opts.Events.ServeHTTP(w, r)
	})
	// net/http/pprof self-registers on http.DefaultServeMux at import; wire
	// its handlers onto this mux explicitly so the telemetry server works
	// without exposing the process-global mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry server. Close shuts it down.
type Server struct {
	// Addr is the resolved listen address ("127.0.0.1:43125" for ":0"
	// requests), ready to print or curl.
	Addr string
	srv  *http.Server
}

// Serve binds addr (host:port; ":0" picks a free port) and serves the
// telemetry Handler on it in a background goroutine. It returns once the
// listener is bound, so the endpoints are reachable immediately — callers
// start it before kicking off the run they want observed.
func Serve(addr string, opts ServeOptions) (*Server, error) {
	return ServeHandler(addr, Handler(opts))
}

// ServeHandler is Serve for an arbitrary handler: bind addr, serve h in a
// background goroutine, return once the listener is bound with the resolved
// address. Services that mount their own routes on top of the telemetry mux
// (rfidserved wraps Handler with /v1/*) use this to get the same
// bind-then-report lifecycle the telemetry server has.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		// ErrServerClosed on Close is the expected shutdown path; any other
		// serve error has no caller left to report to.
		_ = srv.Serve(ln)
	}()
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close stops the server, closing the listener and any open connections.
func (s *Server) Close() error { return s.srv.Close() }
