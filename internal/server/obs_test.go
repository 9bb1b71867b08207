package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
)

// TestStageSumsConsistentWithRTT is the acceptance check for the stage
// histograms: over a strictly sequential client (one gate in flight at a
// time), queue-wait and verify of successive batches are adjacent,
// non-overlapping intervals, so their sums can never exceed the wall clock
// the client observed for the whole run. If a stamp were taken at the wrong
// point (double-counting a stage, timing across batches), the sums would
// blow past the window. Flush is NOT part of that bound: writeLoop takes
// its end stamp after nc.Write returns, and by then the client may already
// have sent the next gate and its read loop answered it, so flush interval i
// overlaps queue-wait/verify of gate i+1 (Hist.Sum is exact — no bucket
// rounding is involved). Flush is only required to have been observed.
func TestStageSumsConsistentWithRTT(t *testing.T) {
	const gates = 200
	s := testServer(t, Config{})

	start := time.Now()
	c := dialTest(t, s, client.Config{Session: "stages", Mode: core.ModeAvoid})
	for i := 1; i <= gates; i++ {
		q := int64(i%8 + 1)
		// Arrived at its own phaser, so every block is admitted.
		if err := c.Block(status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The connection deregisters only after its writer's final flush, so
	// once the gauge drops every stage observation has landed.
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	window := time.Since(start)

	m := s.Metrics() // of a fresh server: the histograms hold this run only
	qw, vf, fl := m.StageQueueWait.Snapshot(), m.StageVerify.Snapshot(), m.StageFlush.Snapshot()

	// Queue-wait and verify are observed per processed batch, in the same
	// place: their counts agree exactly, and a sequential client means one
	// batch per gate.
	if qw.Count != vf.Count {
		t.Fatalf("queue-wait count %d != verify count %d", qw.Count, vf.Count)
	}
	if vf.Count != gates {
		t.Fatalf("verify count = %d, want %d (one batch per sequential gate)", vf.Count, gates)
	}
	if fl.Count == 0 || fl.Count > gates+2 {
		t.Fatalf("flush count = %d, want 1..%d", fl.Count, gates+2)
	}
	if qw.Sum+vf.Sum <= 0 || fl.Sum <= 0 {
		t.Fatalf("stage sums empty: qw=%d vf=%d fl=%d", qw.Sum, vf.Sum, fl.Sum)
	}
	if qw.Sum+vf.Sum > int64(window) {
		t.Fatalf("stage sums exceed the measured window: queue %v + verify %v > %v",
			time.Duration(qw.Sum), time.Duration(vf.Sum), window)
	}
}

// TestDebugSessionsEndpoint exercises /debug/armus/sessions: the
// server-wide stage block, the per-session row, and the ?session= flight
// ring with its gate-ordinal linkage.
func TestDebugSessionsEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "dbg", Mode: core.ModeAvoid})
	const gates = 5
	for i := 1; i <= gates; i++ {
		q := int64(i%4 + 1)
		if err := c.Block(status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	h := httptest.NewServer(s.Handler())
	defer h.Close()

	var doc struct {
		UptimeSeconds int64      `json:"uptime_seconds"`
		Draining      bool       `json:"draining"`
		Stages        obs.Stages `json:"stages"`
		Sessions      []struct {
			Name           string           `json:"name"`
			Mode           string           `json:"mode"`
			Conns          int              `json:"conns"`
			BlockedTasks   int              `json:"blocked_tasks"`
			Gates          int64            `json:"gates"`
			Rejections     int64            `json:"rejections"`
			Checkpoints    int64            `json:"checkpoints"`
			LastDeadlocked bool             `json:"last_deadlocked"`
			Stages         obs.Stages       `json:"stages"`
			Flight         []obs.GateRecord `json:"flight"`
		} `json:"sessions"`
	}
	body := httpGet(t, h.URL+"/debug/armus/sessions?session=dbg", 200)
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding debug reply: %v\n%s", err, body)
	}
	if doc.Draining {
		t.Fatal("live server reports draining")
	}
	if doc.Stages.Verify.Count < gates {
		t.Fatalf("server-wide verify count = %d, want >= %d", doc.Stages.Verify.Count, gates)
	}
	if len(doc.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1\n%s", len(doc.Sessions), body)
	}
	row := doc.Sessions[0]
	if row.Name != "dbg" || row.Mode != "avoid" {
		t.Fatalf("session row = %+v", row)
	}
	if row.Conns != 1 || row.BlockedTasks != gates || row.Gates != gates ||
		row.Rejections != 0 || row.Checkpoints != 1 || row.LastDeadlocked {
		t.Fatalf("session row = %+v", row)
	}
	// Every batch took the session lock before the last answer went out, but the
	// last batch's verify stage ends after its answer: it may still be open.
	if v := row.Stages.Verify.Count; row.Stages.QueueWait.Count != gates+1 || v != gates && v != gates+1 {
		t.Fatalf("session stage counts = %+v", row.Stages)
	}
	// The flight ring holds every decision, oldest first, with per-kind
	// ordinals — the linkage `armus-trace query` resolves.
	if len(row.Flight) != gates+1 { // 5 gates + 1 checkpoint
		t.Fatalf("flight ring holds %d records, want %d", len(row.Flight), gates+1)
	}
	for i := 0; i < gates; i++ {
		r := row.Flight[i]
		if r.Kind != obs.RecordGate || r.Ordinal != uint64(i+1) || r.Task != int64(i+1) || r.Rejected {
			t.Fatalf("flight gate record %d = %+v", i, r)
		}
	}
	if last := row.Flight[gates]; last.Kind != obs.RecordCheckpoint || last.Ordinal != 1 || last.Deadlocked {
		t.Fatalf("flight checkpoint record = %+v", last)
	}

	// Without ?session=, no flight payload rides along.
	body = httpGet(t, h.URL+"/debug/armus/sessions", 200)
	if strings.Contains(body, `"flight"`) {
		t.Fatal("flight ring served without ?session= selection")
	}
	// pprof stays off unless Config.Pprof opts in.
	httpGet(t, h.URL+"/debug/pprof/", 404)
}

// TestPprofOptIn: the profile endpoints exist only behind Config.Pprof.
func TestPprofOptIn(t *testing.T) {
	s := testServer(t, Config{Pprof: true})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	body := httpGet(t, h.URL+"/debug/pprof/", 200)
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %q", body)
	}
}

// logCapture collects Logf lines for assertion.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

// flightDumps waits for the first flight-recorder dump to be logged, then
// extracts and decodes every one logged so far. The wait is the point: the
// server answers a gate BEFORE it logs the dump (a refusal must not queue
// behind a JSON encode), so a test reading the log right after Block
// returns can be ahead of the server.
func (lc *logCapture) flightDumps(t *testing.T) []flightDump {
	t.Helper()
	waitFor(t, func() bool {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		for _, line := range lc.lines {
			if strings.Contains(line, "flight-recorder ") {
				return true
			}
		}
		return false
	})
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var out []flightDump
	for _, line := range lc.lines {
		_, j, ok := strings.Cut(line, "flight-recorder ")
		if !ok {
			continue
		}
		var d flightDump
		if err := json.Unmarshal([]byte(j), &d); err != nil {
			t.Fatalf("flight dump is not valid JSON: %v\n%s", err, j)
		}
		out = append(out, d)
	}
	return out
}

// TestFlightDumpOnRejection: a refused gate emits one structured dump with
// the triggering record and the session's ring.
func TestFlightDumpOnRejection(t *testing.T) {
	var lc logCapture
	s := testServer(t, Config{Logf: lc.logf})
	c := dialTest(t, s, client.Config{Session: "rej", Mode: core.ModeAvoid})
	if err := c.Block(status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})); err != nil {
		t.Fatalf("block task1: %v", err)
	}
	err := c.Block(status(2, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)}))
	var ge *client.GateError
	if !errors.As(err, &ge) {
		t.Fatalf("deadlock-closing block: got %v, want *GateError", err)
	}
	dumps := lc.flightDumps(t)
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Session != "rej" || d.Mode != "avoid" || d.Trigger != "gate-rejected" {
		t.Fatalf("dump header = %+v", d)
	}
	if !d.Record.Rejected || d.Record.Kind != obs.RecordGate || d.Record.Task != 2 || d.Record.Ordinal != 2 {
		t.Fatalf("dump record = %+v", d.Record)
	}
	if len(d.Ring) != 2 || d.Ring[1] != d.Record {
		t.Fatalf("dump ring = %+v", d.Ring)
	}
}

// TestFlightDumpSurvivesQuietLogf: DumpLogf defaults to Logf, but when
// set separately (armus-serve -quiet does this) dumps keep flowing while
// per-session logging is silenced.
func TestFlightDumpSurvivesQuietLogf(t *testing.T) {
	var lc logCapture
	s := testServer(t, Config{Logf: func(string, ...any) {}, DumpLogf: lc.logf})
	c := dialTest(t, s, client.Config{Session: "quiet", Mode: core.ModeAvoid})
	if err := c.Block(status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})); err != nil {
		t.Fatalf("block task1: %v", err)
	}
	err := c.Block(status(2, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)}))
	var ge *client.GateError
	if !errors.As(err, &ge) {
		t.Fatalf("deadlock-closing block: got %v, want *GateError", err)
	}
	if dumps := lc.flightDumps(t); len(dumps) != 1 || dumps[0].Trigger != "gate-rejected" {
		t.Fatalf("dumps through DumpLogf = %+v", dumps)
	}
}

// TestFlightDumpOnSlowGate: with -slow-gate configured, an admitted gate
// crossing the threshold dumps too — and the per-session rate limit keeps
// a storm down to one dump per window.
func TestFlightDumpOnSlowGate(t *testing.T) {
	var lc logCapture
	// Every gate takes longer than a nanosecond: each would trigger, so
	// this also exercises the rate limit.
	s := testServer(t, Config{SlowGate: time.Nanosecond, Logf: lc.logf})
	c := dialTest(t, s, client.Config{Session: "slow", Mode: core.ModeAvoid})
	const gates = 10
	for i := 1; i <= gates; i++ {
		q := int64(i%4 + 1)
		if err := c.Block(status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	dumps := lc.flightDumps(t)
	if len(dumps) == 0 {
		t.Fatal("no slow-gate dump despite a 1ns threshold")
	}
	// 10 sequential gates land well inside one rate-limit window.
	if len(dumps) > 2 {
		t.Fatalf("rate limit failed: %d dumps for %d gates", len(dumps), gates)
	}
	d := dumps[0]
	if d.Trigger != "slow-gate" || d.Session != "slow" || d.Record.Rejected {
		t.Fatalf("dump = %+v", d)
	}
	if d.Record.QueueNs+d.Record.VerifyNs < 1 {
		t.Fatalf("dump record carries no stage timing: %+v", d.Record)
	}
}
