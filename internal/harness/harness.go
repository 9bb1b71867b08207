// Package harness is the evaluation driver (§6): it measures workload
// execution times following the start-up methodology of Georges et al.
// (take k+1 samples, discard the first, report the mean with a 95%
// confidence interval using the standard normal z-statistic) and
// regenerates every table and figure of the paper's evaluation.
package harness

import (
	"fmt"
	"io"
	"math"

	"strings"
	"time"

	"armus/internal/core"
)

// Measurement is a set of timed samples plus the verifier counters of the
// last sample.
type Measurement struct {
	Samples []time.Duration
	Stats   core.Stats
}

// Mean returns the sample mean.
func (m Measurement) Mean() time.Duration {
	if len(m.Samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range m.Samples {
		total += s
	}
	return total / time.Duration(len(m.Samples))
}

// CI95 returns the half-width of the 95% confidence interval of the mean,
// using the z-statistic (z = 1.96), per the Georges et al. methodology the
// paper follows.
func (m Measurement) CI95() time.Duration {
	n := len(m.Samples)
	if n < 2 {
		return 0
	}
	mean := float64(m.Mean())
	var ss float64
	for _, s := range m.Samples {
		d := float64(s) - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return time.Duration(1.96 * sd / math.Sqrt(float64(n)))
}

// Overhead returns the relative execution overhead of checked versus base,
// e.g. 0.07 for 7%.
func Overhead(checked, base Measurement) float64 {
	b := float64(base.Mean())
	if b == 0 {
		return 0
	}
	return (float64(checked.Mean()) - b) / b
}

// MeasureLocal times run under a fresh verifier per sample. samples+1 runs
// are performed and the first is discarded (start-up methodology).
func MeasureLocal(samples int, mode core.Mode, period time.Duration,
	run func(v *core.Verifier) error) (Measurement, error) {
	var m Measurement
	for i := 0; i <= samples; i++ {
		opts := []core.Option{core.WithMode(mode)}
		if period > 0 {
			opts = append(opts, core.WithPeriod(period))
		}
		v := core.New(opts...)
		start := time.Now()
		err := run(v)
		elapsed := time.Since(start)
		stats := v.Stats()
		v.Close()
		if err != nil {
			return m, err
		}
		if i == 0 {
			continue // warm-up sample discarded
		}
		m.Samples = append(m.Samples, elapsed)
		m.Stats = stats
	}
	return m, nil
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Pct formats a ratio as a signed percentage, e.g. "7%" / "-4%".
func Pct(x float64) string {
	return fmt.Sprintf("%.0f%%", x*100)
}

// Dur formats a duration in milliseconds with 1 decimal.
func Dur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// Options configures an experiment run. Zero values select the defaults,
// which are sized so the complete suite finishes in a few minutes on a
// laptop; raise Samples/Class for paper-scale runs.
type Options struct {
	Out io.Writer
	// Samples per configuration after the discarded warm-up (paper: 30).
	Samples int
	// Class is the problem-size class for the NPB kernels.
	Class int
	// TaskCounts are the team sizes for Tables 1-2 / Figure 6 (paper:
	// 2..64 on a 64-core machine).
	TaskCounts []int
	// CourseSize scales the §6.3 programs.
	CourseSize int
	// Sites and TasksPerSite shape the Figure 7 cluster (paper: 64 tasks
	// over X10 places).
	Sites        int
	TasksPerSite int
	// DetectPeriod overrides the detection-scan period (paper: 100 ms
	// local, 200 ms distributed).
	DetectPeriod time.Duration
}

func (o *Options) defaults() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Samples == 0 {
		o.Samples = 5
	}
	if o.Class == 0 {
		o.Class = 2
	}
	if len(o.TaskCounts) == 0 {
		o.TaskCounts = []int{2, 4, 8, 16, 32, 64}
	}
	if o.CourseSize == 0 {
		o.CourseSize = 48
	}
	if o.Sites == 0 {
		o.Sites = 4
	}
	if o.TasksPerSite == 0 {
		o.TasksPerSite = 4
	}
	if o.DetectPeriod == 0 {
		o.DetectPeriod = core.DefaultPeriod
	}
}
