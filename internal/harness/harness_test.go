package harness

import (
	"strings"
	"testing"
	"time"

	"armus/internal/core"
)

func TestMeasurementStats(t *testing.T) {
	m := Measurement{Samples: []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
	}}
	if got := m.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
	if m.CI95() <= 0 {
		t.Fatal("CI95 should be positive for varying samples")
	}
	if (Measurement{}).Mean() != 0 || (Measurement{}).CI95() != 0 {
		t.Fatal("empty measurement should be zero")
	}
	one := Measurement{Samples: []time.Duration{time.Second}}
	if one.CI95() != 0 {
		t.Fatal("single sample has no CI")
	}
}

func TestOverhead(t *testing.T) {
	base := Measurement{Samples: []time.Duration{100 * time.Millisecond}}
	checked := Measurement{Samples: []time.Duration{110 * time.Millisecond}}
	if got := Overhead(checked, base); got < 0.099 || got > 0.101 {
		t.Fatalf("Overhead = %v, want 0.10", got)
	}
	if Overhead(checked, Measurement{}) != 0 {
		t.Fatal("zero baseline should yield zero overhead")
	}
}

func TestMeasureLocalDiscardsWarmup(t *testing.T) {
	calls := 0
	m, err := MeasureLocal(3, core.ModeOff, 0, func(v *core.Verifier) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("runs = %d, want samples+1 = 4", calls)
	}
	if len(m.Samples) != 3 {
		t.Fatalf("samples kept = %d, want 3", len(m.Samples))
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"A", "BB"},
		Rows:   [][]string{{"x", "y"}, {"longer", "z"}},
	}
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"T\n", "A", "BB", "longer", "------"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output %q missing %q", out, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.07) != "7%" {
		t.Fatalf("Pct = %q", Pct(0.07))
	}
	if Pct(-0.04) != "-4%" {
		t.Fatalf("Pct = %q", Pct(-0.04))
	}
	if Dur(1500*time.Microsecond) != "1.5ms" {
		t.Fatalf("Dur = %q", Dur(1500*time.Microsecond))
	}
}

// tiny returns the smallest possible experiment configuration so each
// experiment runs end-to-end in CI time.
func tiny() Options {
	return Options{
		Samples:      1,
		Class:        1,
		TaskCounts:   []int{2},
		CourseSize:   10,
		Sites:        2,
		TasksPerSite: 2,
		DetectPeriod: 5 * time.Millisecond,
	}
}

func TestRunTable1Tiny(t *testing.T) {
	tab, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // BT CG FT MG RT SP
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunTable2Tiny(t *testing.T) {
	tab, err := RunTable2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunFig6Tiny(t *testing.T) {
	tabs, err := RunFig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 6 {
		t.Fatalf("tables = %d", len(tabs))
	}
}

func TestRunFig7Tiny(t *testing.T) {
	tab, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // FT KMEANS JACOBI SSCA2 STREAM
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunFig8Fig9Tiny(t *testing.T) {
	if _, err := RunFig8(tiny()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig9(tiny()); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable3Tiny(t *testing.T) {
	tab, err := RunTable3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // SE FI FR BFS PS
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	names := ExperimentNames()
	// armus-bench regenerates the paper's §6 evaluation and nothing else:
	// the service is measured by benchmark/, not here.
	if want := "table1 table2 fig6 fig7 fig8 fig9 table3"; strings.Join(names, " ") != want {
		t.Fatalf("experiments = %q, want exactly %q", strings.Join(names, " "), want)
	}
	if len(exps) != len(names) {
		t.Fatalf("registry size %d != names %d", len(exps), len(names))
	}
	for _, n := range names {
		if _, ok := exps[n]; !ok {
			t.Fatalf("experiment %q missing from registry", n)
		}
	}
}
