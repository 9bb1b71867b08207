package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact is the sorted-slice oracle: nearest-rank percentile.
func exact(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(300) },
		"lognormal-us":  func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 10)) },
		"heavy-tail":    func() int64 { return int64(1000 / (1 - rng.Float64()*0.999999)) },
		"seconds":       func() int64 { return 8_000_000 + rng.Int63n(20_000_000_000) }, // beyond LatencyHist's 8 ms cap
	}
	for name, draw := range dists {
		var h Hist
		vals := make([]int64, 50_000)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 99.99, 100} {
			want, got := exact(vals, p), h.Quantile(p)
			if math.Abs(float64(got-want)) > 0.01*float64(want) {
				t.Errorf("%s p%v: got %d, exact %d (error %.3f%%)", name, p, got, want,
					100*float64(got-want)/float64(want))
			}
		}
		if h.Max() != vals[len(vals)-1] || h.Count() != int64(len(vals)) {
			t.Errorf("%s: max/count %d/%d, want %d/%d", name, h.Max(), h.Count(), vals[len(vals)-1], len(vals))
		}
	}
}

func TestBucketEdges(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1 << 20, 1<<20 + 1, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucketOf(%d)=%d is below an earlier bucket %d", v, i, prev)
		}
		prev = i
		low, high := edgesOf(i)
		if v < low || v > high {
			t.Fatalf("value %d in bucket %d with edges [%d, %d]", v, i, low, high)
		}
		if i > 0 {
			if _, below := edgesOf(i - 1); below != low-1 {
				t.Fatalf("gap or overlap between buckets %d and %d", i-1, i)
			}
		}
	}
	if bucketOf(math.MaxInt64) >= numBuckets {
		t.Fatalf("MaxInt64 overflows the bucket array")
	}
}

func TestMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var whole, a, b Hist
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Observe(v)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged histogram differs from the single one")
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		var h Hist
		for i := 0; i < c.n; i++ {
			h.Observe(int64(i))
		}
		if p, _ := h.Tail(); p != c.want {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.want)
		}
	}
}
