package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram geometry: log-linear buckets over non-negative int64 values of
// any unit (nanoseconds for latencies, events for batch sizes). Every
// power-of-two octave is cut into 8 equal sub-buckets, so a bucket is never
// wider than 1/8 of the values it holds; values up to 16 get a bucket each
// (exact). Buckets are upper-inclusive — 2^k is always the top of a bucket
// — so power-of-two bounds can be read off exactly by folding whole
// buckets. The geometry is one compile-time constant set for every user
// (server stages, batch sizes, SDK gate latency), which is what makes their
// snapshots mergeable and their percentiles comparable bucket for bucket.
const (
	subBits = 3
	sub     = 1 << subBits
	// topBits bounds the range: values above 2^40 (18 minutes in
	// nanoseconds) are counted in the last bucket, whose bound they exceed.
	topBits = 40
	// NumBuckets: bucket 0 holds the value 0, then 2*sub exact buckets,
	// then sub buckets for each octave from 2^(subBits+1) to 2^topBits.
	NumBuckets = 1 + 2*sub + (topBits-subBits-1)*sub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v - 1) // upper-inclusive: v = 2^k closes a bucket
	if u < 2*sub {
		return int(u) + 1
	}
	shift := bits.Len64(u) - 1 - subBits
	return min(shift<<subBits+int(u>>shift)+1, NumBuckets-1)
}

// BucketBound returns the largest value bucket i holds.
func BucketBound(i int) int64 {
	if i <= 2*sub {
		return int64(i)
	}
	i--
	return int64(i&(sub-1)|sub+1) << (i>>subBits - 1)
}

// Hist is a histogram safe for any number of concurrent writers and
// readers. Observe is two atomic adds — no lock, no allocation — so it can
// sit on the ingest hot path.
type Hist struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one value; negative values count as 0.
func (h *Hist) Observe(v int64) {
	v = max(v, 0)
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's counters. The copy is not atomic across
// buckets (observations may land mid-copy), which is fine for monitoring:
// every bucket value is individually coherent and monotone.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist. Snapshots subtract (one
// interval of a cumulative histogram) and merge (several writers' private
// histograms), and percentiles come from the buckets alone, so they are as
// valid for a difference or a union as for the original.
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	Sum     int64
}

// Sub returns the histogram of observations made after prev was taken.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot { return s.plus(prev, -1) }

// Merge returns the histogram of s's and o's observations together.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot { return s.plus(o, 1) }

func (s HistSnapshot) plus(o HistSnapshot, sign int64) HistSnapshot {
	for i := range s.Buckets {
		s.Buckets[i] += sign * o.Buckets[i]
	}
	s.Count += sign * o.Count
	s.Sum += sign * o.Sum
	return s
}

// Percentile returns the p-th percentile (0..100, nearest-rank) as the
// bound of the bucket the rank falls in: at most 1/8 above the true value,
// exact up to 16. Percentile(100) is the maximum; zero when empty.
func (s HistSnapshot) Percentile(p float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := max(1, min(s.Count, int64(p/100*float64(s.Count)+0.5)))
	i, seen := 0, s.Buckets[0]
	for seen < rank && i < NumBuckets-1 {
		i++
		seen += s.Buckets[i]
	}
	return BucketBound(i)
}

// CountLE returns how many observations the buckets place at or below
// bound: exact when bound is a bucket bound (every power of two is),
// otherwise short by the part of one straddling bucket.
func (s HistSnapshot) CountLE(bound int64) int64 {
	var n int64
	for i := 0; i < NumBuckets && BucketBound(i) <= bound; i++ {
		n += s.Buckets[i]
	}
	return n
}
