package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]); 0 for an empty sample. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values; 0 if any value is
// not positive (a missing or degenerate fidelity row).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// digest folds simulated outputs into one comparable 64-bit value:
// float bits exactly, so any change to any simulated statistic shows.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) str(s string) {
	d.ints(len(s))
	d.h.Write([]byte(s))
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// Runtime counters read from runtime/metrics at layer boundaries.
const (
	metricAllocs   = "/gc/heap/allocs:objects"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
	metricLiveHeap = "/gc/heap/live:bytes"
)

// counters reads the cumulative heap-object allocation and GC-cycle
// counts. The allocation count is flushed per span of the allocator's
// per-P caches, so it is exact only in aggregate: sum it over many
// boundaries, never read one short interval alone.
type counters struct{ samples []metrics.Sample }

func newCounters() *counters {
	return &counters{samples: []metrics.Sample{{Name: metricAllocs}, {Name: metricGCCycles}}}
}

func (c *counters) read() (allocs, gcCycles uint64) {
	metrics.Read(c.samples)
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}

// liveHeapBytes forces a collection and returns the heap it found live.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: metricLiveHeap}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
