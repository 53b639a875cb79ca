package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a percentile backed by fewer would move with single outliers.
const minBeyond = 10

// timing is one latency distribution: the median plus the highest
// percentile, up to the named one, that still has minBeyond samples above
// it.
type timing struct {
	Median float64 // in the metric's unit
	Tail   float64
	TailP  float64 // the percentile Tail was taken at, in (0,1); 0 = none
	N      int
	Chunks int // > 0: Tail is the median of this many per-chunk tails
}

// tailPercentile returns the highest percentile not above want that leaves at
// least minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	p := 1 - float64(minBeyond)/float64(n)
	if p > want {
		p = want
	}
	return p
}

// quantile returns the p-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summarize reduces samples to a timing whose tail is taken at want (0.99
// for a p99 metric) or lower when the sample count cannot support it. With
// too few samples for any tail the maximum stands in and TailP reads 0.
func summarize(samples []float64, want float64) timing {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.Median = quantile(xs, 0.5)
	if p := tailPercentile(len(xs), want); p > 0 {
		t.Tail, t.TailP = quantile(xs, p), p
	} else {
		t.Tail = xs[len(xs)-1]
	}
	return t
}

// tailChunk is the chunk size of chunkedTail: the smallest sample count
// whose p99 still has minBeyond samples beyond it.
const tailChunk = minBeyond * 100

// chunkedTail summarizes a latency series given in time order. The median is
// over every sample. With at least two chunks of tailChunk samples, the tail
// is the median of the per-chunk p99s (a trailing partial chunk joins the
// one before it), so one stall on a shared host moves one chunk's p99, not
// the run's; with fewer samples it falls back to summarize.
func chunkedTail(ordered []float64) timing {
	t := summarize(ordered, 0.99)
	k := len(ordered) / tailChunk
	if k < 2 {
		return t
	}
	tails := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		end := (c + 1) * tailChunk
		if c == k-1 {
			end = len(ordered)
		}
		tails = append(tails, summarize(ordered[c*tailChunk:end], 0.99).Tail)
	}
	t.Tail, t.TailP, t.Chunks = median(tails), 0.99, k
	return t
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs, 0.5).Median }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
