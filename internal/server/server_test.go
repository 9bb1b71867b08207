package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// testServer starts a server with quiet logging and test-friendly timing.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func dialTest(t *testing.T, s *Server, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Addr = s.Addr()
	c, err := client.Dial(cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// status builds a realistic blocked status: the task awaits the given
// events and is registered (arrived) at the given phases.
func status(task int64, waits []deps.Resource, regs []deps.Reg) deps.Blocked {
	return deps.Blocked{Task: deps.TaskID(task), WaitsFor: waits, Regs: regs}
}

func res(q, n int64) deps.Resource { return deps.Resource{Phaser: deps.PhaserID(q), Phase: n} }
func reg(q, n int64) deps.Reg      { return deps.Reg{Phaser: deps.PhaserID(q), Phase: n} }

// TestAvoidGateOverWire drives the avoidance gate end to end: admitted
// blocks return nil, the deadlock-closing block is refused with its
// cycle, and the session state stays deadlock-free.
func TestAvoidGateOverWire(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "gate", Mode: core.ModeAvoid})

	// task1 waits for phaser2@1 while still impeding phaser1@1.
	if err := c.Block(status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})); err != nil {
		t.Fatalf("block task1: %v", err)
	}
	// task2 closing the cycle (waits phaser1@1, impedes phaser2@1) must be
	// refused with the cycle.
	err := c.Block(status(2, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)}))
	var ge *client.GateError
	if !errors.As(err, &ge) {
		t.Fatalf("deadlock-closing block: got %v, want *GateError", err)
	}
	if len(ge.Tasks) != 2 {
		t.Fatalf("refused cycle names tasks %v, want 2 tasks", ge.Tasks)
	}
	// The refused status was rolled back: an unrelated block is admitted
	// and the verdict stays clean.
	if err := c.Block(status(3, []deps.Resource{res(3, 1)}, []deps.Reg{reg(3, 1)})); err != nil {
		t.Fatalf("block task3: %v", err)
	}
	d, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if d {
		t.Fatal("avoidance session reports deadlocked state")
	}
	m := s.Metrics()
	if m.GateAllowed.Load() != 2 || m.GateRejected.Load() != 1 {
		t.Fatalf("gate counters = %d allowed / %d rejected, want 2/1", m.GateAllowed.Load(), m.GateRejected.Load())
	}
}

// TestCrossClientDeadlockReport is the service's reason to exist: two
// separate client connections feed one detection session, neither sees the
// whole cycle, and both subscribers receive the cross-client report.
func TestCrossClientDeadlockReport(t *testing.T) {
	s := testServer(t, Config{})
	var mu sync.Mutex
	got := make(map[string][]deps.TaskID)
	reportCh := make(chan struct{}, 2)
	onReport := func(name string) func(client.Report) {
		return func(r client.Report) {
			mu.Lock()
			got[name] = append([]deps.TaskID(nil), r.Tasks...)
			mu.Unlock()
			reportCh <- struct{}{}
		}
	}
	a := dialTest(t, s, client.Config{Session: "app", Mode: core.ModeDetect,
		Subscribe: true, OnReport: onReport("a")})
	b := dialTest(t, s, client.Config{Session: "app", Mode: core.ModeDetect,
		Subscribe: true, OnReport: onReport("b")})

	// Client a's task1 and client b's task2 deadlock across processes.
	if err := a.Block(status(1, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)})); err != nil {
		t.Fatalf("a block: %v", err)
	}
	if d, err := a.Checkpoint(); err != nil || d {
		t.Fatalf("premature deadlock: %v %v", d, err)
	}
	if err := b.Block(status(2, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})); err != nil {
		t.Fatalf("b block: %v", err)
	}
	if d, err := b.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	} else if !d {
		t.Fatal("cross-client deadlock not detected")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-reportCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 subscribers got the report", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for name, tasks := range got {
		if len(tasks) != 2 {
			t.Fatalf("subscriber %s got cycle %v, want both tasks", name, tasks)
		}
	}
	// One deadlock transition = one report (delivered to both subscribers).
	if m := s.Metrics(); m.Reports.Load() != 1 {
		t.Fatalf("reports pushed = %d, want 1", m.Reports.Load())
	}
}

// TestSessionModeConflict: a second connection asking for a different
// mode is refused, the first lives on.
func TestSessionModeConflict(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "m", Mode: core.ModeAvoid})
	_, err := client.Dial(client.Config{
		Addr: s.Addr(), Session: "m", Mode: core.ModeDetect, RedialAttempts: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("mode conflict not refused: %v", err)
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("original session disturbed: %v %v", d, err)
	}
}

// corpusTraces loads every checked-in corpus trace.
func corpusTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	out := make(map[string]*trace.Trace, len(paths))
	for _, p := range paths {
		tr, err := trace.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = tr
	}
	return out
}

// TestCorpusParityDetect is the acceptance gate: every corpus trace
// ingested over the wire into a detection session produces, checkpoint
// for checkpoint, the per-mutation verdict sequence the in-process
// replayer computes.
func TestCorpusParityDetect(t *testing.T) {
	s := testServer(t, Config{})
	for name, tr := range corpusTraces(t) {
		expected, err := replay.ReplayTrace(tr, replay.Detect, replay.Options{})
		if err != nil {
			t.Fatalf("%s: in-process replay: %v", name, err)
		}
		c := dialTest(t, s, client.Config{Session: "parity-" + name, Mode: core.ModeDetect})
		st, err := client.ReplayTrace(c, tr, client.ReplayOptions{
			CheckEvery: 1, Expected: expected.Verdicts,
		})
		if err != nil {
			t.Fatalf("%s: wire replay: %v", name, err)
		}
		if st.Mutations != expected.Mutations {
			t.Fatalf("%s: %d mutations over the wire, %d in process", name, st.Mutations, expected.Mutations)
		}
		if st.Checkpoints != expected.Mutations {
			t.Fatalf("%s: %d checkpoints for %d mutations", name, st.Checkpoints, expected.Mutations)
		}
		c.Close()
	}
}

// TestCorpusParityAvoidGate ingests every corpus trace through an
// avoidance session: the server's gate must agree decision-for-decision
// with a local mirror of the in-process gate machinery, and every
// checkpoint verdict must match the mirror's (always deadlock-free: the
// gate refuses every deadlock-closing block).
func TestCorpusParityAvoidGate(t *testing.T) {
	s := testServer(t, Config{})
	sawRejection := false
	for name, tr := range corpusTraces(t) {
		c := dialTest(t, s, client.Config{Session: "gate-" + name, Mode: core.ModeAvoid})
		st, err := client.ReplayTrace(c, tr, client.ReplayOptions{CheckEvery: 1})
		if err != nil {
			t.Fatalf("%s: wire replay: %v", name, err)
		}
		for i, v := range st.Verdicts {
			if v {
				t.Fatalf("%s: avoidance session deadlocked at checkpoint %d", name, i)
			}
		}
		if st.Rejections > 0 {
			sawRejection = true
		}
		c.Close()
	}
	if !sawRejection {
		t.Fatal("no corpus trace exercised a gate rejection (corpus regressed?)")
	}
}

// TestCleanCloseIsCompleteTrace: a client that closes cleanly has written
// the trace end sentinel and CRC, which the server verifies (EOF without
// a malformed-connection count).
func TestCleanCloseIsCompleteTrace(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "clean", Mode: core.ModeDetect})
	if err := c.Register(1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	if m := s.Metrics(); m.MalformedConns.Load() != 0 {
		t.Fatalf("clean close counted as malformed (%d)", m.MalformedConns.Load())
	}
}

// TestHTTPEndpoints exercises /healthz and /metrics.
func TestHTTPEndpoints(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "obs", Mode: core.ModeDetect})
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	body := httpGet(t, h.URL+"/healthz", 200)
	if !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"sessions":1`) {
		t.Fatalf("healthz = %q", body)
	}
	body = httpGet(t, h.URL+"/metrics", 200)
	for _, want := range []string{
		"armus_serve_sessions_open 1",
		"armus_serve_conns_open 1",
		"armus_serve_checkpoints_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// The zero-allocation guard for the ingest hot path lives in
// apply_test.go (TestExecutorPathZeroAlloc): it covers the full
// decode -> apply (mutate+gate) -> coalesced response path.

func httpGet(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, wantCode, body)
	}
	return string(body)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
