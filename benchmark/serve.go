package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"armus/benchmark/gen"
	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/segment"
	"armus/internal/trace"
)

// serveWL is the two service workloads. Both start armus-serve as a
// subprocess and drive it over a loopback TCP connection with a session of
// its own, through the SDK in package client.
//
// serve-gate is the latency path: avoidance sessions on the task-heavy SPMD
// shape, a server with nothing switched on, every block one outstanding
// gate round trip (batches of one to three events).
//
// serve-stream is the throughput path through the same layers: detection
// sessions on the phaser-heavy Mesh shape, events sent without waiting, a
// checkpoint every 256 mutations, and the production configuration —
// snapshots persisted to an armus-store subprocess and every event teed
// into the segment archive.
type serveWL struct {
	e      env
	seed   int64
	secs   float64
	stream bool

	dir       string
	store     *proc
	storeAddr string // as this process dials it
	serve     *proc
	echo      *echoPeer
	httpURL   string
	clients   []*client.Client
	conns     []*connState
	reps      int // set-ups so far: session names must not repeat within a lease
}

// connState is one connection's place in its trace; it survives from one
// stretch of driving to the next, because the session's state does.
type connState struct {
	in      *input
	session string
	pos     int   // next event of the trace
	lapMut  int   // mutations sent in the current lap
	muts    int64 // mutations sent in all
	ord     int64 // operations so far, for span sampling
}

const (
	// serveConns is one: every process of a run shares a CPU (affinity.go),
	// where a second connection adds no load the first does not, only a
	// second schedule for the two to fall in and out of step with.
	serveConns = 1
	// checkEvery is the stream workload's checkpoint period, in mutations.
	checkEvery = 256
	// Span names, by index.
	spOp, spBlock, spEmit, spCheckpoint = 0, 1, 2, 3
)

func newServe(e env, seed int64, secs float64, stream bool) *serveWL {
	return &serveWL{e: e, seed: seed, secs: secs, stream: stream}
}

func (s *serveWL) name() string {
	if s.stream {
		return "serve-stream"
	}
	return "serve-gate"
}

func (s *serveWL) setUp() (err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, s.tearDown())
		}
	}()
	s.reps++
	s.conns = nil
	shape, rounds, mode := gen.SPMD(32, 2), 64, core.ModeAvoid
	if s.stream {
		shape, rounds, mode = gen.Mesh(8, 8), 48, core.ModeDetect
	}
	for i := 0; i < serveConns; i++ {
		in, err := makeInput(gen.Config{
			Shape: shape, Seed: s.seed*serveConns + int64(i), Rounds: rounds,
			Mode: mode, InjectEvery: 1000,
		})
		if err != nil {
			return err
		}
		s.conns = append(s.conns, &connState{
			in:      in,
			session: fmt.Sprintf("%s-%d-%d-%d", s.name(), os.Getpid(), s.reps, i),
		})
	}
	if s.dir, err = runDir(s.e, s.name()); err != nil {
		return err
	}
	listen, err := freeAddr()
	if err != nil {
		return err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return err
	}
	s.httpURL = "http://" + httpAddr
	args := []string{"-listen", listen, "-http", httpAddr, "-quiet"}
	if s.stream {
		if s.store, s.storeAddr, err = startStore(s.e, s.dir); err != nil {
			return err
		}
		// Relative paths: the server runs in the run directory.
		args = append(args, "-store", "unix:store.sock", "-segment-dir", "segments",
			"-retain-bytes", fmt.Sprint(256<<20))
	}
	if s.serve, err = startProc(s.dir, filepath.Join(s.e.bin, "armus-serve"), args...); err != nil {
		return err
	}
	if err := s.serve.waitFor(func() error { return httpOK(s.httpURL + "/healthz") }); err != nil {
		return err
	}
	echoAddr, err := freeAddr()
	if err != nil {
		return err
	}
	if s.echo, err = startEcho(s.e, s.dir, "tcp", echoAddr, serveConns); err != nil {
		return err
	}
	for _, cs := range s.conns {
		c, err := client.Dial(client.Config{Addr: listen, Session: cs.session, Mode: mode})
		if err != nil {
			return fmt.Errorf("dial %s: %w", cs.session, err)
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

func (s *serveWL) tearDown() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	s.clients = nil
	errs = append(errs, s.echo.stop(), s.serve.stop(), s.store.stop())
	s.echo, s.serve, s.store = nil, nil, nil
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
		s.dir = ""
	}
	return errors.Join(errs...)
}

// cpuTimes reads the CPU time armus-serve and armus-store (0 without one)
// have used so far.
func (s *serveWL) cpuTimes() (serve, store time.Duration, err error) {
	if serve, err = s.serve.cpu(); err != nil || s.store == nil {
		return serve, 0, err
	}
	store, err = s.store.cpu()
	return serve, store, err
}

func (s *serveWL) drive(d time.Duration, sp *spanLog) (*window, error) {
	var before map[string]float64
	var err error
	if sp != nil {
		if before, err = scrape(s.httpURL + "/metrics"); err != nil {
			return nil, err
		}
	}
	serve0, store0, err := s.cpuTimes()
	if err != nil {
		return nil, err
	}
	parts := make([]window, len(s.conns))
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	self0, start := selfCPU(), time.Now()
	deadline := start.Add(d)
	for i := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.stream {
				errs[i] = s.streamWorker(i, deadline, sp, &parts[i])
			} else {
				errs[i] = s.gateWorker(i, deadline, sp, &parts[i])
			}
		}()
	}
	wg.Wait()
	wall, self := time.Since(start), selfCPU()-self0
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	serve1, store1, err := s.cpuTimes()
	if err != nil {
		return nil, err
	}
	w := &window{}
	for i := range parts {
		w.merge(&parts[i])
	}
	w.wall, w.selfCPU, w.sutCPU = wall, self, serve1-serve0+store1-store0
	if sp == nil {
		return w, nil
	}
	after, err := scrape(s.httpURL + "/metrics")
	if err != nil {
		return nil, err
	}
	w.counts = metrics{
		"serve_cpu_us": float64((serve1 - serve0).Microseconds()),
		"store_cpu_us": float64((store1 - store0).Microseconds()),
	}
	for name, v := range after {
		w.counts[name] = v - before[name]
	}
	return w, nil
}

// gateWorker replays connection i's trace in a loop until the deadline:
// every block, ordinary or injected, is one gate round trip whose decision
// must match the mirror's; everything else is sent without waiting.
func (s *serveWL) gateWorker(i int, deadline time.Time, sp *spanLog, w *window) error {
	cs, c := s.conns[i], s.clients[i]
	events := cs.in.tr.Events
	for {
		ev := &events[cs.pos]
		gated := ev.Kind == trace.KindBlock || cs.in.refuse[cs.pos]
		sb := sp.sampled(i, cs.ord)
		root := sb.begin(spOp, -1, cs.ord)
		var now time.Time
		switch {
		case gated:
			call := sb.begin(spBlock, root, cs.ord)
			t0 := time.Now()
			err := c.Block(ev.Status)
			now = time.Now()
			sb.end(call)
			w.lat.Observe(int64(now.Sub(t0)))
			w.ops++
			var ge *client.GateError
			if refused := errors.As(err, &ge); err != nil && !refused {
				return fmt.Errorf("%s: block: %w", cs.session, err)
			} else if refused != cs.in.refuse[cs.pos] {
				w.failed++
			}
			if cs.in.refuse[cs.pos] {
				w.positives++
			}
		case ev.Kind == trace.KindVerdict:
			// A recorded verdict that is not a refusal: nothing to send.
		default:
			call := sb.begin(spEmit, root, cs.ord)
			err := c.Emit(*ev)
			sb.end(call)
			if err != nil {
				return fmt.Errorf("%s: emit: %w", cs.session, err)
			}
		}
		sb.end(root)
		w.events++
		cs.ord++
		if cs.pos++; cs.pos == len(events) {
			cs.pos = 0
		}
		if gated && now.After(deadline) {
			return nil
		}
	}
}

// streamWorker replays connection i's trace in a loop without waiting for
// anything but the SDK's own backpressure, and every checkEvery mutations
// asks for a verdict, which must equal what the in-process detection replay
// computed for the same point of the trace. It ends on a checkpoint, so
// every event counted has been applied.
func (s *serveWL) streamWorker(i int, deadline time.Time, sp *spanLog, w *window) error {
	cs, c := s.conns[i], s.clients[i]
	events := cs.in.tr.Events
	for {
		ev := &events[cs.pos]
		sb := sp.sampled(i, cs.ord)
		root := sb.begin(spOp, -1, cs.ord)
		call := sb.begin(spEmit, root, cs.ord)
		var err error
		if ev.Kind == trace.KindBlock {
			err = c.Block(ev.Status)
		} else {
			err = c.Emit(*ev)
		}
		sb.end(call)
		if err != nil {
			return fmt.Errorf("%s: emit: %w", cs.session, err)
		}
		w.events++
		if cs.pos++; cs.pos == len(events) {
			cs.pos = 0
		}
		var now time.Time
		if ev.IsMutation() {
			cs.lapMut++
			if cs.muts++; cs.muts%checkEvery == 0 {
				call := sb.begin(spCheckpoint, root, cs.ord)
				t0 := time.Now()
				got, err := c.Checkpoint()
				now = time.Now()
				sb.end(call)
				if err != nil {
					return fmt.Errorf("%s: checkpoint: %w", cs.session, err)
				}
				w.lat.Observe(int64(now.Sub(t0)))
				w.ops++
				if got != cs.in.verdicts[cs.lapMut-1] {
					w.failed++
				}
				if cs.in.verdicts[cs.lapMut-1] {
					w.positives++
				}
			}
			if cs.lapMut == cs.in.mutations {
				cs.lapMut = 0
			}
		}
		sb.end(root)
		cs.ord++
		if !now.IsZero() && now.After(deadline) {
			return nil
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns what the server's counters advanced by over the traced
// stretches into the client.* and server.* (and the archive's tee and the
// persister's store) metrics.
func (s *serveWL) perLayer(w, all *window, sp *spanLog) metrics {
	d := func(name string) float64 { return w.counts["armus_serve_"+name] }
	stage := func(name string) float64 { return ratio(d("stage_"+name+"_us_sum"), d("stage_"+name+"_us_count")) }
	events := d("events_total")
	var reconnects int64
	for _, c := range s.clients {
		reconnects += c.Reconnects()
	}
	m := metrics{
		"server.queue_wait_mean_us":    stage("queue_wait"),
		"server.verify_mean_us":        stage("verify"),
		"server.flush_mean_us":         stage("flush"),
		"server.events_per_batch":      ratio(events, d("batches_total")),
		"server.exec_parks_per_kevent": 1000 * ratio(d("exec_parks_total"), events),
		"server.gate_rejected_share":   ratio(d("gate_rejected_total"), d("gate_rejected_total")+d("gate_allowed_total")),
		"server.slow_disconnects":      d("slow_disconnects_total"),
		"server.snapshots_persisted":   d("snapshots_persisted_total"),
		"server.snapshots_dropped":     d("snapshots_dropped_total"),
		"server.cpu_us_per_event":      ratio(w.counts["serve_cpu_us"], events),
		"segment.tee_dropped_share": ratio(d("segment_batches_dropped_total"),
			d("segment_batches_dropped_total")+d("segment_batches_total")),
		"client.cpu_us_per_event": ratio(float64(w.selfCPU.Microseconds()), float64(w.events)),
		"client.reconnects":       float64(reconnects),
		"client.emit_ns":          sp.meanNs(spEmit),
		// Filled in below for the workload that has them.
		"client.block_rtt_mean_us":      0,
		"client.checkpoint_rtt_mean_us": 0,
	}
	if s.stream {
		m["client.checkpoint_rtt_mean_us"] = w.lat.Mean() / 1e3
		// A round of the store here is one snapshot the persister wrote.
		// Over all traced stretches: the store's CPU time comes in 10 ms
		// ticks, and in the fastest eighth it uses less than one.
		m["store.cpu_us_per_round"] = ratio(all.counts["store_cpu_us"], all.counts["armus_serve_snapshots_persisted_total"])
	} else {
		m["client.block_rtt_mean_us"] = w.lat.Mean() / 1e3
	}
	return m
}

func (s *serveWL) floor(d time.Duration) (float64, error) { return s.echo.measure(d) }

func (s *serveWL) peakRSSMiB() (float64, error) { return s.serve.peakRSSMiB() }

// newSpans: the gate workload completes some 10^5 operations a second and
// the stream workload several times that; the buffers hold 2^18 spans.
func (s *serveWL) newSpans() *spanLog {
	every := int64(8)
	if s.stream {
		every = 64
	}
	return newSpanLog(serveConns, every, "op", "client.Block", "client.Emit", "client.Checkpoint")
}

func (s *serveWL) layers() []string {
	l := []string{"floor", "deps", "core", "trace", "proto", "client", "server"}
	if s.stream {
		l = append(l, "graph", "store", "segment")
	}
	return l
}

func (s *serveWL) ladder(floorNs float64, m metrics) error {
	in, n := s.conns[0].in, ladderCalls(s.secs)
	m["floor.echo_rtt_p50_us"] = floorNs / 1e3
	m["floor.lib_unchecked_ns_per_op"] = 0 // no phaser runs in this process
	m["core.avoid_ns_per_op"], m["core.detect_ns_per_op"] = 0, 0
	ladderDeps(in, n, m)
	ladderCore(in, n, m)
	if err := ladderTrace(in, n, m); err != nil {
		return err
	}
	if err := ladderProto(s.stream, n, m); err != nil {
		return err
	}
	if !s.stream {
		m["deps.snapshot_ns"], m["deps.build_ns"] = 0, 0 // an avoidance session never scans
		// The decomposition the roadmap asks for: what of a gate's mean
		// round trip the floor, the server's stamped stages and the two
		// codecs on the path account for, and what nothing accounts for.
		m["client.unattributed_mean_us"] = m["client.block_rtt_mean_us"] - (m["floor.echo_rtt_p50_us"] +
			m["server.queue_wait_mean_us"] + m["server.verify_mean_us"] + m["server.flush_mean_us"] +
			(m["trace.encode_ns_per_event"]+m["trace.decode_ns_per_event"]+
				m["proto.resp_encode_ns"]+m["proto.resp_decode_ns"])/1e3)
		m["segment.tee_dropped_share"] = 0 // the tee is off
		return nil
	}
	m["client.unattributed_mean_us"] = 0
	ladderGraph(in, n, m)
	if err := ladderStore(s.storeAddr, n, m); err != nil {
		return err
	}
	m["store.cmds_per_round"], m["store.round_trips_per_round"] = 0, 0 // no dist round here
	return ladderSegment(in, filepath.Join(s.dir, "ladder-segments"), n, m)
}

// audit checks conservation through the archive after a traced stream run:
// with the server stopped and every segment sealed, the events stitched
// back from the archive, plus those in batches the tee counted as dropped,
// must be the events the clients sent.
func (s *serveWL) audit(sent *window) error {
	if !s.stream {
		return nil
	}
	final, err := scrape(s.httpURL + "/metrics")
	if err != nil {
		return err
	}
	for _, c := range s.clients {
		if err := c.Close(); err != nil {
			return err
		}
	}
	s.clients = nil
	if err := s.serve.stop(); err != nil {
		return err
	}
	s.serve = nil
	var archived int64
	for _, cs := range s.conns {
		n, _, err := segment.Stitch(io.Discard, filepath.Join(s.dir, "segments"), cs.session,
			func(path string, err error) { fmt.Fprintf(os.Stderr, "stitch %s: %v\n", path, err) })
		if err != nil {
			return fmt.Errorf("stitch %s: %w", cs.session, err)
		}
		archived += n
	}
	// Every event the server ingested went through the tee (warm-up
	// included), as did one annotation per deadlock report and one
	// checkpoint event per verdict asked for.
	ingested := int64(final["armus_serve_events_total"])
	reports := int64(final["armus_serve_reports_total"])
	dropped := int64(final["armus_serve_segment_batches_dropped_total"])
	fmt.Printf("# archive: %d events ingested, %d report annotations, %d stitched back, %d tee batches dropped\n",
		ingested, reports, archived, dropped)
	if dropped == 0 && archived != ingested+reports {
		sent.failed++
		return fmt.Errorf("archive holds %d events, the server ingested %d and annotated %d reports, and no batch was dropped",
			archived, ingested, reports)
	}
	if archived > ingested+reports {
		sent.failed++
		return fmt.Errorf("archive holds %d events, more than the %d ingested and annotated", archived, ingested+reports)
	}
	return nil
}
