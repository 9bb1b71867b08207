package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"armus/benchmark/stats"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/graph"
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/store"
	"armus/internal/trace"
)

// The ladder pushes a workload's own generated events through one lower
// layer at a time, single-threaded and from outside, through the layer's
// exported functions. What a rung reports is the cost of a call with
// nothing else running: the share of an end-to-end number that layer can
// account for, and the most a change to it alone can win back.
//
// Whole passes are timed, not single calls, wherever a pass is a plain
// loop: reading the clock costs about as much as the cheapest calls here.
// A rung repeats its pass and reports the fastest one, for the reason
// runMeasured gives: a pass that fell into one of the host's slow seconds
// says nothing about the layer, and a mean over passes moved by a factor of
// two from one run to the next.

// fastestLap runs lap k times and returns the shortest time one took.
func fastestLap(k int, lap func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		lap()
		best = min(best, time.Since(t0))
	}
	return best
}

// laps is how many passes over a trace give about n of the counted calls.
func laps(n, perLap int) int { return max(1, n/max(1, perLap)) }

// ladderCalls is the number of calls a rung aims for, from the run length:
// 200k for a full run, fewer for the smoke test's short ones.
func ladderCalls(secs float64) int { return max(2000, min(200_000, int(secs*10_000))) }

// applyMutation applies a block or unblock event to a dependency state.
func applyMutation(st *deps.State, e *trace.Event) {
	if e.Kind == trace.KindBlock {
		st.SetBlocked(e.Status)
	} else {
		st.Clear(e.Task)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderDeps is the deps rung: the incremental index behind the avoidance
// gate. A pass that only inserts and clears statuses, then the same pass
// with the targeted cycle query after each insert; the difference is the
// query.
func ladderDeps(in *input, n int, m metrics) {
	st := deps.NewState()
	var sc deps.CycleScratch
	var gates, calls, edges int64
	pass := func(query bool) {
		for i := range in.tr.Events {
			switch e := &in.tr.Events[i]; {
			case e.Kind == trace.KindBlock || (in.refuse != nil && in.refuse[i]):
				st.SetBlocked(e.Status)
				calls++
				if query {
					_, ed := st.CycleThrough(e.Status.Task, &sc)
					gates++
					edges += int64(ed)
				}
				if e.Kind != trace.KindBlock {
					st.Clear(e.Status.Task) // the refused block is rolled back
					calls++
				}
			case e.Kind == trace.KindUnblock:
				st.Clear(e.Task)
				calls++
			}
		}
	}
	pass(true) // warm the state's storage and the scratch
	k := laps(n, in.mutations)
	calls = 0
	plain := fastestLap(k, func() { pass(false) })
	perLap := float64(calls) / float64(k) // every pass makes the same calls
	gates, edges = 0, 0
	a0 := mallocs()
	queried := fastestLap(k, func() { pass(true) })
	allocs := mallocs() - a0
	m["deps.set_clear_ns"] = float64(plain) / perLap
	m["deps.cycle_through_ns"] = max(0, float64(queried-plain)) / (float64(gates) / float64(k))
	m["deps.cycle_edges_per_gate"] = float64(edges) / float64(gates)
	m["deps.allocs_per_gate"] = float64(allocs) / float64(gates)
}

// ladderGraph is the full-scan rung: snapshot the state, build the graph
// under the adaptive model, search it for a cycle — what a detection check
// or a site's analysis of the merged view does — on every fourth state the
// trace passes through.
func ladderGraph(in *input, n int, m metrics) {
	st := deps.NewState()
	bd := deps.NewBuilder()
	var scratch graph.Scratch
	var buf []deps.Blocked
	snapNs, buildNs, findNs := math.Inf(1), math.Inf(1), math.Inf(1) // per check, fastest lap
	var checks, edges, mut int64
	for lap, k := 0, laps(n, in.mutations/4); lap <= k; lap++ {
		var snap, build, find time.Duration
		var lapChecks int64
		for i := range in.tr.Events {
			e := &in.tr.Events[i]
			if !e.IsMutation() {
				continue
			}
			applyMutation(st, e)
			if mut++; mut%4 != 0 {
				continue
			}
			t0 := time.Now()
			buf = st.SnapshotInto(buf)
			t1 := time.Now()
			a := bd.Build(deps.ModelAuto, buf)
			t2 := time.Now()
			a.Graph.FindCycleIn(&scratch)
			t3 := time.Now()
			snap, build, find = snap+t1.Sub(t0), build+t2.Sub(t1), find+t3.Sub(t2)
			lapChecks++
			if lap > 0 { // lap 0 warms up
				checks++
				edges += int64(a.Graph.NumEdges())
			}
		}
		if lap > 0 && lapChecks > 0 {
			snapNs = min(snapNs, float64(snap)/float64(lapChecks))
			buildNs = min(buildNs, float64(build)/float64(lapChecks))
			findNs = min(findNs, float64(find)/float64(lapChecks))
		}
	}
	m["deps.snapshot_ns"] = snapNs
	m["deps.build_ns"] = buildNs
	m["graph.find_cycle_ns"] = findNs
	m["graph.edges_per_check"] = float64(edges) / float64(checks)
}

// ladderCore is the verifier rung: one state mutation and one synchronous
// full check per mutation of the trace, through a core.Verifier, as a
// detection session of the server does per batch.
func ladderCore(in *input, n int, m metrics) {
	v := core.New(core.WithMode(core.ModeObserve))
	defer v.Close()
	pass := func() {
		for i := range in.tr.Events {
			switch e := &in.tr.Events[i]; e.Kind {
			case trace.KindBlock:
				v.State().SetBlocked(e.Status)
				v.CheckNow()
			case trace.KindUnblock:
				v.State().Clear(e.Task)
				v.CheckNow()
			}
		}
	}
	pass()
	k := laps(n, in.mutations)
	s0, a0 := v.Stats(), mallocs()
	lap := fastestLap(k, pass)
	allocs, s1 := mallocs()-a0, v.Stats()
	checks := float64(s1.Checks - s0.Checks)
	m["core.check_now_ns"] = float64(lap) / float64(in.mutations)
	m["core.allocs_per_op"] = float64(allocs) / float64(k*in.mutations)
	m["core.avg_edges"] = ratio(float64(s1.TotalEdges-s0.TotalEdges), checks)
	m["core.sg_build_share"] = ratio(float64(s1.SGBuilds-s0.SGBuilds), checks)
}

// ladderTrace is the ingress codec rung: every event of the trace framed as
// the SDK frames it, and decoded as the server's read loop decodes it.
func ladderTrace(in *input, n int, m metrics) error {
	var buf []byte
	var err error
	encode := func() error {
		buf = buf[:0]
		for i := range in.tr.Events {
			if buf, err = trace.AppendEventFrame(buf, in.tr.Events[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var ev trace.Event
	decode := func() error {
		rest := buf
		for len(rest) > 0 {
			var payload []byte
			if payload, rest, err = trace.NextFrame(rest); err != nil {
				return err
			}
			if err = trace.DecodeFramePayload(payload, &ev); err != nil {
				return err
			}
		}
		return nil
	}
	if err := encode(); err != nil {
		return err
	}
	if err := decode(); err != nil {
		return err
	}
	k := laps(n, len(in.tr.Events))
	var lapErr error
	enc := fastestLap(k, func() { lapErr = errors.Join(lapErr, encode()) })
	dec := fastestLap(k, func() { lapErr = errors.Join(lapErr, decode()) })
	if lapErr != nil {
		return lapErr
	}
	events := float64(len(in.tr.Events))
	m["trace.encode_ns_per_event"] = float64(enc) / events
	m["trace.decode_ns_per_event"] = float64(dec) / events
	m["trace.bytes_per_event"] = float64(len(buf)) / float64(len(in.tr.Events))
	return nil
}

// ladderProto is the egress codec rung: the response the workload reads
// most — an admitted gate, or a checkpoint's verdict — encoded as the
// server encodes it and decoded as the SDK's reader decodes it.
func ladderProto(verdict bool, n int, m metrics) error {
	resp := proto.Response{Kind: proto.RespGate, Task: 17, Allowed: true}
	if verdict {
		resp = proto.Response{Kind: proto.RespVerdict, Seq: 123456}
	}
	const frames = 1000 // a lap
	var buf []byte
	var err error
	enc := fastestLap(laps(n, frames), func() {
		buf = buf[:0]
		for i := 0; i < frames && err == nil; i++ {
			buf, err = proto.AppendResponse(buf, &resp)
		}
	})
	if err != nil {
		return err
	}
	rd := bytes.NewReader(buf)
	br := bufio.NewReader(rd)
	var got proto.Response
	dec := fastestLap(laps(n, frames), func() {
		rd.Reset(buf)
		br.Reset(rd)
		for i := 0; i < frames && err == nil; i++ {
			err = proto.ReadResponse(br, &got)
		}
	})
	if err != nil {
		return err
	}
	if got.Kind != resp.Kind {
		return fmt.Errorf("proto rung: decoded a %v, encoded a %v", got.Kind, resp.Kind)
	}
	m["proto.resp_encode_ns"] = float64(enc) / frames
	m["proto.resp_decode_ns"] = float64(dec) / frames
	m["proto.bytes_per_resp"] = float64(len(buf)) / frames
	return nil
}

// ladderStore is the store rung, against the workload's own armus-store
// subprocess: single commands, and the pipelined write-plus-prefix-read a
// site's round is made of.
func ladderStore(addr string, n int, m metrics) error {
	c := store.Dial(addr)
	defer c.Close()
	val := bytes.Repeat([]byte{0xA5}, 256)
	p := c.Pipeline()
	// Laps of 100 exchanges, some 5 ms: the medians of the lap whose
	// median was lowest.
	bestSingle, bestPiped := int64(math.MaxInt64), int64(math.MaxInt64)
	for lap := 0; lap < max(2, n/5000); lap++ {
		var single, piped stats.Hist
		for i := 0; i < 100; i++ {
			t0 := time.Now()
			if err := c.Set("bench:k", val); err != nil {
				return fmt.Errorf("store rung: %w", err)
			}
			t1 := time.Now()
			if _, err := c.Get("bench:k"); err != nil {
				return fmt.Errorf("store rung: %w", err)
			}
			t2 := time.Now()
			p.HSet("bench:h", "delta", val)
			p.MGetPrefix("bench:")
			if _, err := p.Exec(); err != nil {
				return fmt.Errorf("store rung: %w", err)
			}
			single.Observe(int64(t1.Sub(t0)))
			single.Observe(int64(t2.Sub(t1)))
			piped.Observe(int64(time.Since(t2)))
		}
		bestSingle, bestPiped = min(bestSingle, single.Median()), min(bestPiped, piped.Median())
	}
	if _, err := c.Del("bench:k", "bench:h"); err != nil {
		return fmt.Errorf("store rung: %w", err)
	}
	m["store.set_get_rtt_p50_us"] = float64(bestSingle) / 1e3
	m["store.pipeline_exec_p50_us"] = float64(bestPiped) / 1e3
	return nil
}

// ladderDist is the dist rung: the snapshot codec on every fourth state of
// the trace, and a site's publish — diff, delta or base encoding, one store
// write — after every mutation, against the workload's store.
func ladderDist(in *input, addr string, n int, m metrics) error {
	st := deps.NewState()
	var buf []deps.Blocked
	encNs, decNs := math.Inf(1), math.Inf(1) // per snapshot, fastest lap
	var mut int64
	for lap, k := 0, laps(n/8, in.mutations/4); lap <= k; lap++ {
		var enc, dec time.Duration
		var snaps int64
		for i := range in.tr.Events {
			e := &in.tr.Events[i]
			if !e.IsMutation() {
				continue
			}
			applyMutation(st, e)
			if mut++; mut%4 != 0 {
				continue
			}
			buf = st.SnapshotInto(buf)
			t0 := time.Now()
			payload := dist.EncodeSnapshot(1, uint64(mut), buf)
			t1 := time.Now()
			if _, _, _, err := dist.DecodeSnapshot(payload); err != nil {
				return fmt.Errorf("dist rung: %w", err)
			}
			t2 := time.Now()
			enc, dec, snaps = enc+t1.Sub(t0), dec+t2.Sub(t1), snaps+1
		}
		if lap > 0 && snaps > 0 { // lap 0 warms up
			encNs, decNs = min(encNs, float64(enc)/float64(snaps)), min(decNs, float64(dec)/float64(snaps))
		}
	}
	m["dist.snapshot_encode_ns"] = encNs
	m["dist.snapshot_decode_ns"] = decNs

	// A site of its own (ID 9, outside the workload's 1..3), so that what
	// it publishes is exactly this trace.
	site := dist.NewSite(9, addr)
	defer site.Close()
	peek := store.Dial(addr)
	defer peek.Close()
	pubNs := math.Inf(1) // per publish, fastest lap
	var pubs, sent int64
	for lap, k := 0, laps(n/8, in.mutations); lap < k; lap++ {
		var lapNs time.Duration
		lapPubs := pubs
		for i := range in.tr.Events {
			e := &in.tr.Events[i]
			if !e.IsMutation() {
				continue
			}
			applyMutation(site.Verifier().State(), e)
			s0 := site.Stats()
			t0 := time.Now()
			if err := site.PublishOnce(); err != nil {
				return fmt.Errorf("dist rung: %w", err)
			}
			lapNs += time.Since(t0)
			pubs++
			// What went over the wire is what now sits in the field the
			// site wrote (it overwrites in place): read it back, untimed.
			field := "delta"
			if site.Stats().FullSnapshots > s0.FullSnapshots {
				field = "base"
			}
			b, err := peek.HGet("armus:site:9", field)
			if err != nil {
				return fmt.Errorf("dist rung: reading back the published %s: %w", field, err)
			}
			sent += int64(len(b))
		}
		pubNs = min(pubNs, float64(lapNs)/float64(pubs-lapPubs))
	}
	m["dist.publish_ns"] = pubNs
	m["dist.bytes_per_publish"] = float64(sent) / float64(pubs)
	return nil
}

// ladderSegment is the archive rung: the trace's frames appended in batches
// of 256 events as the tee appends them, the segment sealed, then found
// again by its index and stitched back into one stream.
func ladderSegment(in *input, dir string, n int, m metrics) error {
	type batch struct {
		frames   []byte
		events   int
		verdicts []int
	}
	var batches []batch
	for i := 0; i < len(in.tr.Events); {
		var b batch
		for ; i < len(in.tr.Events) && b.events < 256; i++ {
			var err error
			if b.frames, err = trace.AppendEventFrame(b.frames, in.tr.Events[i]); err != nil {
				return err
			}
			if in.tr.Events[i].Kind == trace.KindVerdict {
				b.verdicts = append(b.verdicts, b.events)
			}
			b.events++
		}
		batches = append(batches, b)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var written int64
	w, err := segment.NewWriter(segment.WriterConfig{
		Dir: dir, Session: "ladder", Mode: in.tr.Mode, OnWrite: func(n int) { written += int64(n) },
	})
	if err != nil {
		return fmt.Errorf("segment rung: %w", err)
	}
	var events int64
	appendNs := fastestLap(laps(n, len(in.tr.Events)), func() {
		for _, b := range batches {
			if err == nil {
				err = w.Append(b.frames, b.events, b.verdicts, time.Now())
			}
			events += int64(b.events)
		}
	})
	if err != nil {
		return fmt.Errorf("segment rung: %w", err)
	}
	t0 := time.Now()
	if err := w.Seal(time.Now()); err != nil {
		return fmt.Errorf("segment rung: %w", err)
	}
	seal := time.Since(t0)
	t0 = time.Now()
	refs, err := segment.Scan(dir, false, nil)
	if err != nil {
		return fmt.Errorf("segment rung: %w", err)
	}
	scan := time.Since(t0)
	t0 = time.Now()
	stitched, _, err := segment.Stitch(io.Discard, dir, "ladder", nil)
	if err != nil {
		return fmt.Errorf("segment rung: %w", err)
	}
	stitch := time.Since(t0)
	if stitched != events || len(refs) == 0 {
		return fmt.Errorf("segment rung: appended %d events, stitched %d back from %d segments", events, stitched, len(refs))
	}
	m["segment.append_ns_per_event"] = float64(appendNs) / float64(len(in.tr.Events))
	m["segment.seal_ms"] = float64(seal) / 1e6
	m["segment.bytes_per_event"] = float64(written) / float64(events)
	m["segment.scan_ms"] = float64(scan) / 1e6
	m["segment.stitch_events_per_s"] = float64(stitched) / stitch.Seconds()
	return nil
}
