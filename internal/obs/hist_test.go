package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketGeometry(t *testing.T) {
	if bucketOf(-5) != 0 || bucketOf(0) != 0 || bucketOf(1<<40+1) != NumBuckets-1 || bucketOf(1<<62) != NumBuckets-1 {
		t.Error("0 and the values outside [0, 2^40] are not in the end buckets")
	}
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketBound(i-1)+1, BucketBound(i) // the smallest and largest value of bucket i
		if got := bucketOf(hi); got != i {
			t.Fatalf("bucketOf(BucketBound(%d)=%d) = %d", i, hi, got)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d (buckets %d and %d not adjacent)", lo, got, i, i-1, i)
		}
		if hi <= 16 && hi != lo {
			t.Fatalf("bucket %d = [%d, %d], want exact up to 16", i, lo, hi)
		}
		if (hi-lo+1)*8 > lo+7 { // width ≤ ⌈lo/8⌉
			t.Fatalf("bucket %d = [%d, %d] is wider than 1/8 of its values", i, lo, hi)
		}
	}
	// Every power of two closes a bucket, so power-of-two bounds fold exactly.
	for k := 0; k <= topBits; k++ {
		if v := int64(1) << k; BucketBound(bucketOf(v)) != v {
			t.Errorf("2^%d is inside bucket %d, not its bound", k, bucketOf(v))
		}
	}
	if max := BucketBound(NumBuckets - 1); max < int64(10*time.Minute) {
		t.Fatalf("range ends at %v, want >= 10 minutes of nanoseconds", time.Duration(max))
	}
}

// An interval (after.Sub(before)) must describe only its own observations:
// an outlier recorded before the interval must not surface in it.
func TestIntervalPercentileIgnoresEarlierOutlier(t *testing.T) {
	var h Hist
	h.Observe(int64(30 * time.Second))
	before := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(2_000)
	}
	d := h.Snapshot().Sub(before)
	if d.Count != 100 || d.Sum != 200_000 {
		t.Fatalf("interval count/sum = %d/%d, want 100/200000", d.Count, d.Sum)
	}
	if p99, p100 := d.Percentile(99), d.Percentile(100); p99 > 2_250 || p100 > 2_250 {
		t.Fatalf("interval p99 = %d, max = %d: the 30 s observation made before it leaked in", p99, p100)
	}
}

// Eight goroutines write four histograms (two writers each); the merged
// snapshot must agree with a sorted reference. Run with -race -count=10.
func TestHistMergeConcurrent(t *testing.T) {
	const writers, per = 8, 20_000
	var hists [writers / 2]Hist
	ref := make([]int64, writers*per) // each writer fills its own stretch
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w * per; i < (w+1)*per; i++ {
				// Log-uniform over 0 .. 2^40, the whole bucketed range.
				ref[i] = rng.Int63n(2 << rng.Intn(topBits))
				hists[w/2].Observe(ref[i])
			}
		}(w)
	}
	wg.Wait()
	var merged HistSnapshot
	for i := range hists {
		merged = merged.Merge(hists[i].Snapshot())
	}
	var sum int64
	for _, v := range ref {
		sum += v
	}
	if merged.Count != writers*per || merged.Sum != sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", merged.Count, merged.Sum, writers*per, sum)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
		want := ref[int(p/100*float64(len(ref))+0.5)-1]
		if got := merged.Percentile(p); got < want || got > want+(want+7)/8 {
			t.Errorf("p%v = %d, reference %d: outside [ref, ref*9/8]", p, got, want)
		}
	}
	if (HistSnapshot{}).Percentile(99) != 0 {
		t.Fatal("empty histogram reports a non-zero percentile")
	}
}
