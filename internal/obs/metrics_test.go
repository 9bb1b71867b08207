package obs

import (
	"regexp"
	"strings"
	"testing"
)

type innerDecl struct {
	Writes Counter `metric:"writes_total" help:"Writes."`
}

type outerDecl struct {
	Open   Gauge      `metric:"open" help:"Open things."`
	Depth  GaugeFunc  `metric:"depth" help:"Computed when read."`
	On     *innerDecl `metric:"on_"`
	Off    *innerDecl `metric:"off_"`
	Size   Hist       `metric:"size" le:"4" per:"1" help:"Sizes."`
	WaitUs Hist       `metric:"wait_us" le:"2" per:"1000" help:"Waits, µs."`
	Build  Info       `metric:"build_info" help:"Build."`
}

func TestWriteMetrics(t *testing.T) {
	d := outerDecl{On: &innerDecl{}, Build: `v="1"`}
	d.Open.Store(3)
	d.Depth = func() int64 { return 7 }
	d.On.Writes.Add(2)
	for _, v := range []int64{1, 3, 4, 9} {
		d.Size.Observe(v)
	}
	// 1000 ns is inside the bucket (960, 1024], which straddles le="1": it
	// is counted under le="2". A fold may under-count, never over-count.
	for _, ns := range []int64{900, 1_000, 1_500, 2_500} {
		d.WaitUs.Observe(ns)
	}
	var b strings.Builder
	WriteMetrics(&b, "x_", &d)
	const want = `# TYPE x_open gauge
x_open 3
# TYPE x_depth gauge
x_depth 7
# TYPE x_on_writes_total counter
x_on_writes_total 2
# TYPE x_off_writes_total counter
x_off_writes_total 0
# TYPE x_size histogram
x_size_bucket{le="1"} 1
x_size_bucket{le="2"} 1
x_size_bucket{le="4"} 3
x_size_bucket{le="+Inf"} 4
x_size_sum 17
x_size_count 4
# TYPE x_wait_us histogram
x_wait_us_bucket{le="1"} 1
x_wait_us_bucket{le="2"} 3
x_wait_us_bucket{le="+Inf"} 4
x_wait_us_sum 5
x_wait_us_count 4
# TYPE x_build_info gauge
x_build_info{v="1"} 1
`
	help := regexp.MustCompile(`(?m)^# HELP x_\w+ [A-Z].*\.\n`)
	if n := len(help.FindAllString(b.String(), -1)); n != 7 {
		t.Errorf("%d HELP lines, want 7", n)
	}
	if got := help.ReplaceAllString(b.String(), ""); got != want {
		t.Fatalf("WriteMetrics without its HELP lines:\n%s\nwant:\n%s", got, want)
	}
}
