package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"armus/internal/obs"
	"armus/internal/segment"
)

// Version reports the build's module version and Go toolchain version —
// the labels of armus_serve_build_info and the armus-serve startup banner.
func Version() (version, goVersion string) {
	version = "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
}

// Metrics are the server's operational series, each declared where it is
// counted (see obs.WriteMetrics): /metrics renders this struct under
// armus_serve_, /healthz, the loadgen/CI assertions and the tests read its
// fields. All hot paths touch them with lock-free atomic adds only.
type Metrics struct {
	SessionsOpen       obs.Gauge   `metric:"sessions_open" help:"Sessions currently in the table."`
	SessionsTotal      obs.Counter `metric:"sessions_total" help:"Sessions ever opened."`
	SessionsGCed       obs.Counter `metric:"sessions_gced_total" help:"Sessions expired by the lease janitor."`
	SessionsRehydrated obs.Counter `metric:"session_rehydrated_total" help:"Sessions rebuilt from a store snapshot on attach (fleet failover)."`
	SessionsForeign    obs.Counter `metric:"sessions_foreign_total" help:"Attached sessions the fleet shard map assigns to another member."`

	SnapshotsPersisted obs.Counter `metric:"snapshots_persisted_total" help:"Session snapshots written to the store."`
	SnapshotsDropped   obs.Counter `metric:"snapshots_dropped_total" help:"Session snapshot writes and GC deletes dropped on persister backlog."`
	SnapshotErrors     obs.Counter `metric:"snapshot_errors_total" help:"Store or codec failures on the snapshot path (write, GC delete, rehydration read)."`

	ConnsOpen  obs.Gauge   `metric:"conns_open" help:"Live client connections."`
	ConnsTotal obs.Counter `metric:"conns_total" help:"Connections ever accepted."`

	Events       obs.Counter `metric:"events_total" help:"Verifier events ingested."`
	Batches      obs.Counter `metric:"batches_total" help:"Batches applied: what one read loop found buffered."`
	GateAllowed  obs.Counter `metric:"gate_allowed_total" help:"Avoidance blocks admitted."`
	GateRejected obs.Counter `metric:"gate_rejected_total" help:"Avoidance blocks refused (deadlock would close)."`
	Checkpoints  obs.Counter `metric:"checkpoints_total" help:"Verdict checkpoints answered."`
	Reports      obs.Counter `metric:"reports_total" help:"Deadlock reports pushed to subscribers."`

	MalformedConns  obs.Counter `metric:"malformed_conns_total" help:"Connections dropped for violating the trace framing."`
	SlowDisconnects obs.Counter `metric:"slow_disconnects_total" help:"Connections dropped for an overflowing coalesce buffer."`

	// QueueDepth is summed over live connections when read.
	QueueDepth obs.GaugeFunc `metric:"queue_depth" help:"Summed undelivered responses over live connections."`
	// ExecQueueDepth is the quiescence gauge /healthz reports even while
	// draining, so an orchestrator can tell "draining, work pending" from
	// "draining, quiesced" (session.apply).
	ExecQueueDepth obs.Gauge `metric:"exec_queue_depth" help:"Batches decoded and not yet applied."`

	// Segment is the durable trace archive's own declaration (nil, and
	// served as zeros, when archiving is disabled).
	Segment *segment.Metrics `metric:"segment_"`

	// A batch is what one read loop found buffered, so this histogram is a
	// direct read on how much each apply amortises.
	ExecBatchEvents obs.Hist `metric:"exec_batch_events" le:"256" per:"1" help:"Events per applied batch."`

	// Server-wide stage latencies, in nanoseconds: where a gate's
	// server-side time goes. Always on — each observation is two atomic
	// adds under the session lock (queue-wait, verify) or on the connection
	// writer (flush). Per-session copies live in session.ob; these aggregate
	// across sessions and survive session GC, which is what a Prometheus
	// scrape needs (monotone cumulative series).
	StageQueueWait obs.Hist `metric:"stage_queue_wait_us" le:"16384" per:"1000" help:"Batch queue wait: decode to session lock taken, µs."`
	StageVerify    obs.Hist `metric:"stage_verify_us" le:"16384" per:"1000" help:"Batch verify: session lock occupancy per batch, µs."`
	StageFlush     obs.Hist `metric:"stage_flush_us" le:"16384" per:"1000" help:"Response flush: oldest buffered response to write completion, µs."`

	BuildInfo obs.Info      `metric:"build_info" help:"Build metadata (always 1)."`
	Uptime    obs.GaugeFunc `metric:"uptime_seconds" help:"Seconds since the server started."`
}

// Metrics returns the server's live series.
func (s *Server) Metrics() *Metrics { return &s.m }

// initMetrics binds the series that are computed rather than counted.
func (s *Server) initMetrics() {
	start := time.Now()
	version, goVersion := Version()
	s.m.BuildInfo = obs.Info(fmt.Sprintf("version=%q,go=%q", version, goVersion))
	s.m.Uptime = func() int64 { return int64(time.Since(start) / time.Second) }
	s.m.QueueDepth = func() int64 {
		var depth int64
		s.mu.Lock()
		for c := range s.conns {
			depth += int64(c.queueDepth())
		}
		s.mu.Unlock()
		return depth
	}
}

// Handler returns the HTTP observability surface: GET /healthz (liveness
// plus a small JSON status), GET /metrics (Prometheus text format),
// GET /debug/armus/sessions (live per-session introspection, debug.go)
// and — only with Config.Pprof — /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining || s.closed
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if draining {
			// Still report the apply backlog: exec_queue_depth reaching 0
			// is the quiescence signal a drain orchestrator polls for
			// (replacing "sleep and hope" kill windows).
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"draining","exec_queue_depth":%d}`+"\n", s.m.ExecQueueDepth.Load())
			return
		}
		fmt.Fprintf(w, `{"status":"ok","sessions":%d,"conns":%d,"events":%d,"exec_queue_depth":%d}`+"\n",
			s.m.SessionsOpen.Load(), s.m.ConnsOpen.Load(), s.m.Events.Load(), s.m.ExecQueueDepth.Load())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteMetrics(w, "armus_serve_", &s.m)
	})
	s.registerDebug(mux)
	return mux
}
