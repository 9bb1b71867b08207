package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"armus/internal/store"
)

// storeChildArg makes the test binary a store server instead of a test run
// (see TestMain): the allocation guard and the benchmark count what a site
// allocates per round, which an in-process store would drown in its own.
const storeChildArg = "armus-dist-test-store"

// TestMain runs the tests — or, started as "<binary> armus-dist-test-store
// <addr>", serves a store on addr until standard input closes, which it
// does when the parent test process ends, however it ends.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == storeChildArg {
		srv, err := store.NewServer(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		_, _ = io.Copy(io.Discard, os.Stdin)
		srv.Close()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startStoreProcess runs a store on a unix socket in a child process and
// returns its address once it answers.
func startStoreProcess(tb testing.TB) string {
	tb.Helper()
	dir, err := os.MkdirTemp("", "armus-dist")
	if err != nil {
		tb.Fatal(err)
	}
	addr := "unix:" + filepath.Join(dir, "s")
	cmd := exec.Command(os.Args[0], storeChildArg, addr)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		tb.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		stdin.Close()
		_ = cmd.Wait()
		os.RemoveAll(dir)
	})
	c := store.Dial(addr)
	defer c.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if err = c.Ping(); err == nil {
			return addr
		}
		if time.Now().After(deadline) {
			tb.Fatalf("store process never answered on %s: %v", addr, err)
		}
	}
}

// roundLoop is the harness of the allocation guard and the benchmark: three
// sites on one out-of-process store, and a step that blocks or unblocks one
// task of the next site in turn and runs that site's round. Site i's tasks
// lag site i+1's phaser and the last site's lag nobody's, so there is work
// for the search and never a cycle.
type roundLoop struct {
	sites []*Site
	n     int
}

func newRoundLoop(tb testing.TB) *roundLoop {
	addr := startStoreProcess(tb)
	l := &roundLoop{}
	for id := 1; id <= 3; id++ {
		s := NewSite(id, addr)
		tb.Cleanup(s.Close)
		l.sites = append(l.sites, s)
	}
	return l
}

func (l *roundLoop) step(tb testing.TB) {
	const tasks = 4
	site := int64(l.n%len(l.sites)) + 1
	turn := l.n / len(l.sites) // of this site: block its tasks in turn, then unblock them
	s := l.sites[site-1]
	if b := blockedOn(site, int64(turn%tasks)+1, site+1); turn/tasks%2 == 0 {
		s.Verifier().State().SetBlocked(b)
	} else {
		s.Verifier().State().Clear(b.Task)
	}
	l.n++
	rep, err := s.RoundOnce()
	if err != nil || rep != nil {
		tb.Fatalf("round %d: report %v, error %v", l.n, rep, err)
	}
}

// TestRoundOnceSteadyStateAllocs is the allocation guard of the round: warm,
// a site's RoundOnce — queue the publish, one store round trip, parse the
// reply, decode what changed, apply it to the merged view, search — may
// allocate next to nothing. This harness measured 48.0 allocations (2046 B)
// per round before the round was made incremental (PR 19) and 0 after; the
// bound is a quarter of the former.
func TestRoundOnceSteadyStateAllocs(t *testing.T) {
	l := newRoundLoop(t)
	for i := 0; i < 600; i++ { // several re-base periods of every site
		l.step(t)
	}
	if got := testing.AllocsPerRun(600, func() { l.step(t) }); got > 12 {
		t.Fatalf("a warm round allocates %.1f times, want at most 12", got)
	} else {
		t.Logf("%.2f allocations per warm round", got)
	}
	var deltas, fulls int64
	for _, s := range l.sites {
		st := s.Stats()
		deltas, fulls = deltas+st.DeltaSnapshots, fulls+st.FullSnapshots
		if st.PublishErrors+st.CheckErrors+st.SnapshotsDropped+st.DeltaFallbacks+st.AnalysisSkips != 0 {
			t.Fatalf("site %d: the measured rounds were not all clean full rounds: %+v", s.ID(), st)
		}
	}
	if deltas == 0 || fulls <= int64(len(l.sites)) {
		t.Fatalf("measured %d delta and %d full publishes, want both kinds", deltas, fulls)
	}
}

// BenchmarkRoundOnce is one mutation and one verification round of one of
// three sites against an out-of-process store.
func BenchmarkRoundOnce(b *testing.B) {
	l := newRoundLoop(b)
	for i := 0; i < 200; i++ {
		l.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step(b)
	}
}

// TestRoundOnceRacingCloseLeavesNoKey: a RoundOnce that was already waiting
// for Close to finish must not run once it has — it would find the site's
// key gone, take that for a store that lost it, and publish it again, so
// that survivors keep merging the statuses of a cleanly closed site.
func TestRoundOnceRacingCloseLeavesNoKey(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := store.Dial(srv.Addr())
	defer c.Close()
	for i := 0; i < 20; i++ {
		s := NewSite(1, srv.Addr())
		s.Verifier().State().SetBlocked(blockedOn(1, 1, 2))
		if _, err := s.RoundOnce(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		started := make(chan struct{}, 4)
		for g := 0; g < cap(started); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for {
					if _, err := s.RoundOnce(); err != nil {
						if !errors.Is(err, ErrSiteClosed) {
							t.Errorf("round racing Close: %v", err)
						}
						return
					}
				}
			}()
		}
		for g := 0; g < cap(started); g++ {
			<-started
		}
		s.Close()
		wg.Wait()
		entries, err := c.MGetPrefix(keyPrefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if string(e.Key) == s.key() {
				t.Fatalf("iteration %d: closed site's %s/%s is back in the store", i, e.Key, e.Field)
			}
		}
	}
}
