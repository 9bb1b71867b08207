package gen

import (
	"bytes"
	"testing"

	"armus/internal/core"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

var cases = []struct {
	name string
	cfg  Config
}{
	{"spmd-avoid", Config{Shape: SPMD(32, 2), Rounds: 12, Mode: core.ModeAvoid, InjectEvery: 100}},
	{"mesh-detect", Config{Shape: Mesh(8, 8), Rounds: 6, Mode: core.ModeDetect, InjectEvery: 200}},
	{"cross-observe", Config{Shape: Cross(3, 8), Rounds: 12, Mode: core.ModeObserve, InjectEvery: 150}},
}

func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, c := range cases {
		c.cfg.Seed = 42
		a, err := Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < 3; i++ {
			b, err := Generate(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(encode(t, a), encode(t, b)) {
				t.Fatalf("%s: two generations from seed 42 encode differently", c.name)
			}
		}
		c.cfg.Seed = 43
		other, err := Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if bytes.Equal(encode(t, a), encode(t, other)) {
			t.Fatalf("%s: seeds 42 and 43 give the same trace", c.name)
		}
	}
}

// Every generated trace must pass the repository's own three replay
// pipelines with verdict-for-verdict agreement, and carry the injections
// that were asked for.
func TestGeneratedTracesVerify(t *testing.T) {
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			c.cfg.Seed = seed
			tr, err := Generate(c.cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			res, err := replay.VerifyAll(tr, replay.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			r := res[0]
			if r.Deadlocked {
				t.Errorf("%s seed %d: trace ends deadlocked", c.name, seed)
			}
			if c.cfg.Mode == core.ModeAvoid {
				if r.Rejections == 0 || r.DeadlockSteps != 0 {
					t.Errorf("%s seed %d: %d rejections, %d deadlocked steps; want some, none",
						c.name, seed, r.Rejections, r.DeadlockSteps)
				}
			} else if r.DeadlockSteps == 0 {
				t.Errorf("%s seed %d: no deadlock episode in %d mutations", c.name, seed, r.Mutations)
			}
		}
	}
}

func TestShapes(t *testing.T) {
	m := Mesh(8, 8)
	regs := map[int]int{}
	for _, p := range m.Phasers {
		if len(p.Members) != 2 || p.Members[0] == p.Members[1] {
			t.Fatalf("mesh phaser %d has members %v", p.ID, p.Members)
		}
		regs[p.Members[0]]++
		regs[p.Members[1]]++
	}
	if len(m.Phasers) != 64 {
		t.Fatalf("mesh has %d phasers, want 64", len(m.Phasers))
	}
	for task, n := range regs {
		if n != 16 {
			t.Errorf("mesh task %d has %d registrations, want 16", task, n)
		}
	}
	if c := Cross(3, 8); len(c.Tasks) != 24 || len(c.Phasers) != 7 {
		t.Fatalf("cross has %d tasks and %d phasers, want 24 and 7", len(c.Tasks), len(c.Phasers))
	}
}
