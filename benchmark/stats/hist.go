// Package stats holds the benchmark's latency histogram: log-linear buckets
// (128 per power of two, so a reported quantile is within 1 % of the exact
// one), no upper cap, mergeable across workers.
//
// It exists because the two histograms the repository already has cannot
// carry a bound of a few percent: client.LatencyHist saturates at 8 ms and
// obs.Hist has power-of-two buckets.
package stats

import (
	"math"
	"math/bits"
)

const (
	subBits  = 7 // 128 sub-buckets per octave: bucket width ≤ 1/128 of its value
	subCount = 1 << subBits
	// Values are int64 nanoseconds: 63 significant bits, so the octaves
	// above the linear range number 63-subBits.
	numBuckets = (64 - subBits) * subCount
)

// Hist counts non-negative int64 samples (nanoseconds by convention). The
// zero value is ready to use. Not safe for concurrent use: give each worker
// its own and Merge them.
type Hist struct {
	counts [numBuckets]uint32
	n      int64
	sum    int64
	max    int64
}

func bucketOf(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := bits.Len64(u) - 1 - subBits
	return (e+1)<<subBits + int(u>>uint(e)) - subCount
}

// edgesOf returns the smallest and the largest value that land in bucket i.
func edgesOf(i int) (low, high int64) {
	if i < subCount {
		return int64(i), int64(i)
	}
	e := uint(i>>subBits - 1)
	low = int64(subCount+i&(subCount-1)) << e
	return low, low + (1 << e) - 1
}

// Observe records one sample; negative samples count as zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Max is the largest sample, exact.
func (h *Hist) Max() int64 { return h.max }

// Mean is the arithmetic mean, exact (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the nearest-rank p-th percentile (0 < p ≤ 100). The
// bucket the rank falls in fixes it to within 1/128; inside the bucket the
// samples are taken as evenly spread, so the result moves smoothly with the
// data and does not jump from one bucket edge to the next. 0 when empty.
func (h *Hist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= rank {
			low, high := edgesOf(i)
			high = min(high, h.max)
			into := float64(rank-(cum-int64(c))) / float64(c) // (0, 1]
			return low + int64(into*float64(high-low))
		}
	}
	return h.max
}

// Median is Quantile(50).
func (h *Hist) Median() int64 { return h.Quantile(50) }

// tailLadder lists the percentiles a report may quote, ascending, in
// hundredths of a percent so the ten-sample rule is integer arithmetic.
var tailLadder = []int64{5000, 9000, 9900, 9990, 9999}

// Tail returns the highest percentile of the ladder 50, 90, 99, 99.9, 99.99
// that still has at least ten samples beyond it, and its value: a higher
// one would be set by fewer than ten observations and does not repeat.
// With fewer than a hundred samples it falls back to the median.
func (h *Hist) Tail() (p float64, v int64) {
	bp := tailLadder[0]
	for _, q := range tailLadder[1:] {
		if h.n*(10000-q) >= 10*10000 {
			bp = q
		}
	}
	p = float64(bp) / 100
	return p, h.Quantile(p)
}
