// Command armus-serve runs the Armus verification service
// (internal/server): a multi-tenant TCP server that ingests verifier
// events from remote client processes (internal/client SDK, or anything
// speaking the internal/trace stream format) and serves deadlock
// verdicts — gated blocks for avoidance sessions, pushed reports for
// detection sessions.
//
//	armus-serve -listen 127.0.0.1:7777 -http 127.0.0.1:7778
//
// Observability: GET /healthz (liveness JSON with the batches decoded and
// not yet applied), GET /metrics (Prometheus text: sessions, events, queue
// depth, gate verdicts, stage-latency histograms, ...) and GET
// /debug/armus/sessions (live per-session introspection) on the -http
// address; /debug/pprof only with -pprof.
//
// Lifecycle: SIGINT/SIGTERM drains gracefully (stop accepting, goodbye
// every client, wait up to -drain-grace, exit 0); a second signal
// force-closes immediately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"armus/internal/server"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7777", "TCP address to serve the verification protocol on")
		httpAddr = flag.String("http", "", "HTTP address for /healthz and /metrics (empty disables)")
		lease    = flag.Duration("lease", 30*time.Second, "how long a session with no connections survives before GC")
		grace    = flag.Duration("drain-grace", 5*time.Second, "graceful-shutdown wait for connections to finish")
		storeDSN = flag.String("store", "", "armus-store address for session-snapshot persistence (empty disables)")
		snapEv   = flag.Int("snapshot-every", 64, "persist a session snapshot every n applied batches")
		fleetCSV = flag.String("fleet", "", "comma-separated fleet shard map (the same list clients route with)")
		selfAddr = flag.String("self", "", "this server's entry in -fleet (foreign-session accounting)")
		segDir   = flag.String("segment-dir", "", "directory for the durable trace archive (empty disables; query with armus-trace query)")
		segMaxA  = flag.Duration("segment-max-age", 0, "rotate/seal a session's segment after this idle age (0 = 5m default)")
		retainB  = flag.Int64("retain-bytes", 0, "retention: cap total sealed-segment bytes, deleting oldest-first (0 = unlimited)")
		retainA  = flag.Duration("retain-age", 0, "retention: delete sealed segments older than this (0 = keep forever)")
		slowGate = flag.Duration("slow-gate", 0, "dump a session's flight recorder when a gate's server-side time reaches this (0 disables; rejections always dump)")
		pprofOn  = flag.Bool("pprof", false, "expose /debug/pprof on the -http address (operator networks only)")
		quiet    = flag.Bool("quiet", false, "suppress per-session log lines (flight-recorder dumps still log)")
	)
	flag.Parse()

	cfg := server.Config{
		Addr:               *listen,
		Lease:              *lease,
		DrainGrace:         *grace,
		StoreAddr:          *storeDSN,
		SnapshotEvery:      *snapEv,
		SelfAddr:           *selfAddr,
		SegmentDir:         *segDir,
		SegmentMaxAge:      *segMaxA,
		SegmentRetainBytes: *retainB,
		SegmentRetainAge:   *retainA,
		SlowGate:           *slowGate,
		Pprof:              *pprofOn,
	}
	if *fleetCSV != "" {
		cfg.Fleet = strings.Split(*fleetCSV, ",")
	}
	if *quiet {
		cfg.Logf = func(string, ...any) {}
		// Flight-recorder dumps are exceptional, rate-limited diagnostics
		// (gate rejections, -slow-gate breaches) — they survive -quiet.
		cfg.DumpLogf = log.Printf
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "armus-serve:", err)
		os.Exit(1)
	}
	// Bind the HTTP listener before announcing anything: an -http address
	// that cannot be bound ends the process, rather than leaving it serving
	// the protocol with a /healthz that never answers.
	var hl net.Listener
	if *httpAddr != "" {
		if hl, err = net.Listen("tcp", *httpAddr); err != nil {
			s.Close()
			fmt.Fprintln(os.Stderr, "armus-serve: http:", err)
			os.Exit(1)
		}
	}
	// Startup banner: one structured line carrying the same fields as the
	// armus_serve_build_info / armus_serve_uptime_seconds metrics, so log
	// scrapers and the metrics pipeline agree on what is running.
	version, goVersion := server.Version()
	banner, _ := json.Marshal(map[string]any{
		"msg":     "armus-serve started",
		"version": version,
		"go":      goVersion,
		"pid":     os.Getpid(),
		"listen":  s.Addr(),
		"http":    *httpAddr,
		"pprof":   *pprofOn,
	})
	log.Printf("armus-serve: %s", banner)
	log.Printf("armus-serve: listening on %s (lease %v)", s.Addr(), *lease)
	if *storeDSN != "" {
		log.Printf("armus-serve: persisting session snapshots to %s (every %d batches)", *storeDSN, *snapEv)
	}
	if *segDir != "" {
		log.Printf("armus-serve: archiving trace segments to %s (retain-bytes %d, retain-age %v)",
			*segDir, *retainB, *retainA)
	}

	var hs *http.Server
	if hl != nil {
		hs = &http.Server{Handler: s.Handler()}
		go func() {
			log.Printf("armus-serve: /healthz and /metrics on http://%s", hl.Addr())
			if err := hs.Serve(hl); err != nil && err != http.ErrServerClosed {
				log.Printf("armus-serve: http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	first := <-sig
	log.Printf("armus-serve: %v received, draining (grace %v; signal again to force)", first, *grace)
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-sig:
		log.Printf("armus-serve: second signal, closing now")
		s.Close()
		<-done
	}
	if hs != nil {
		hs.Close()
	}
	m := s.Metrics()
	log.Printf("armus-serve: bye (served %d conns, %d sessions, %d events, %d gate rejections, %d reports)",
		m.ConnsTotal.Load(), m.SessionsTotal.Load(), m.Events.Load(), m.GateRejected.Load(), m.Reports.Load())
}
