package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects one operation class's samples in seconds, each with
// the wall-clock time it completed.  A failed operation is a sample of
// +Inf: it misses every latency bound.
type latencies struct {
	samples  []float64
	ends     []int64 // completion times, Unix ns, parallel to samples
	failures int
}

func (l *latencies) add(d time.Duration) { l.record(d.Seconds()) }

func (l *latencies) fail() {
	l.record(math.Inf(1))
	l.failures++
}

func (l *latencies) record(secs float64) {
	l.samples = append(l.samples, secs)
	l.ends = append(l.ends, time.Now().UnixNano())
}

func (l *latencies) merge(o *latencies) {
	l.samples = append(l.samples, o.samples...)
	l.ends = append(l.ends, o.ends...)
	l.failures += o.failures
}

// count is the number of samples, failures included; succeeded excludes
// them.
func (l *latencies) count() int { return len(l.samples) }

func (l *latencies) succeeded() int { return len(l.samples) - l.failures }

// quantile returns the q-th quantile (nearest rank) over every sample and
// whether at least ten samples lie beyond it, the floor below which a tail
// percentile is not reported.
func (l *latencies) quantile(q float64) (float64, bool) { return quantileOf(l.samples, q) }

// Block sizes for blockQuantile: a block of blockSamples has ten samples
// beyond its p99.
const (
	blockSamples = 1000
	maxBlocks    = 15
)

// blockQuantile splits the samples, in completion order, into consecutive
// blocks of equal count, at least blockSamples each and at most maxBlocks
// of them, and returns the median of the blocks' q-th quantiles and whether
// every block has ten samples beyond its quantile.  A stretch in which the
// shared host stalls the benchmark then moves only the blocks it falls in,
// not the whole run's tail.  Below two blocks' worth of samples it is the
// plain quantile.
func (l *latencies) blockQuantile(q float64) (float64, bool) {
	n, b := len(l.samples), l.blocks()
	if b < 2 {
		return l.quantile(q)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return l.ends[order[i]] < l.ends[order[j]] })
	vals := make([]float64, b)
	ok := true
	for k := range vals {
		lo, hi := k*n/b, (k+1)*n/b
		block := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			block = append(block, l.samples[i])
		}
		v, enough := quantileOf(block, q)
		vals[k], ok = v, ok && enough
	}
	return median(vals), ok
}

// blockRate splits the samples the same way and returns the median over
// blocks of the operations completed per second, each block's time running
// from the previous block's last completion (from start for the first).
// Below two blocks it is the whole run's rate up to its last completion.
func (l *latencies) blockRate(start time.Time) float64 {
	ends := append([]int64(nil), l.ends...)
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	n, b := len(ends), max(1, l.blocks())
	if n == 0 {
		return 0
	}
	rates := make([]float64, b)
	from := start.UnixNano()
	for k := range rates {
		hi := (k + 1) * n / b
		rates[k] = ratio(float64(hi-k*n/b), float64(ends[hi-1]-from)/1e9)
		from = ends[hi-1]
	}
	return median(rates)
}

// blocks is the number of blocks blockQuantile splits the samples into.
func (l *latencies) blocks() int { return min(maxBlocks, len(l.samples)/blockSamples) }

// quantileOf returns the q-th quantile (nearest rank) of xs, which it does
// not modify, and whether at least ten values lie beyond it.
func quantileOf(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= 10
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
