package rng

import (
	"slices"
	"testing"
)

func TestMixSpreadsEveryArgument(t *testing.T) {
	base := Mix(1, 2, 3)
	if Mix(1, 2, 3) != base {
		t.Fatal("Mix is not deterministic")
	}
	for _, other := range []uint64{Mix(2, 2, 3), Mix(1, 3, 3), Mix(1, 2, 4), Mix(0, 0, 0)} {
		if other == base {
			t.Fatalf("Mix collision with base %#x", base)
		}
	}
	// Adjacent keys — the (round, device) pattern the population engine
	// feeds it — must not produce adjacent seeds.
	if Mix(7, 1, 100)^Mix(7, 1, 101) < 1<<16 {
		t.Error("adjacent device indices yield near-identical seeds")
	}
}

// TestReseedableMatchesNew pins the interchange contract: Seed(x)
// yields exactly the sequence New(x) would, so keyed per-device
// streams reproduce what a dedicated stream per device would draw.
func TestReseedableMatchesNew(t *testing.T) {
	rs := NewReseedable()
	for _, seed := range []uint64{0, 1, 42, 1 << 60} {
		fresh := New(seed)
		keyed := rs.Seed(seed)
		for i := 0; i < 32; i++ {
			if f, k := fresh.Uint64(), keyed.Uint64(); f != k {
				t.Fatalf("seed %d draw %d: New=%#x Reseedable=%#x", seed, i, f, k)
			}
		}
		// Interleave a float draw to cover the non-integer path too.
		if f, k := fresh.Float64(), keyed.Float64(); f != k {
			t.Fatalf("seed %d: Float64 diverges: %v vs %v", seed, f, k)
		}
	}
}

func TestSamplerDrawsDistinctInRange(t *testing.T) {
	const n, k = 100, 10
	sp := NewSampler(n)
	if sp.Len() != n {
		t.Fatalf("Len = %d, want %d", sp.Len(), n)
	}
	out := make([]int32, k)
	s := New(7)
	for draw := 0; draw < 200; draw++ {
		sp.SampleInto(s, out)
		seen := make(map[int32]bool, k)
		for _, v := range out {
			if v < 0 || v >= n {
				t.Fatalf("draw %d: index %d out of range", draw, v)
			}
			if seen[v] {
				t.Fatalf("draw %d: duplicate index %d", draw, v)
			}
			seen[v] = true
		}
	}
}

// TestSamplerUndoRestoresIdentity pins the clearing of the
// displacement table: one Sampler drawing twice from identically
// seeded streams must produce identical samples, which only holds if
// each draw starts from the identity array (an empty table).
func TestSamplerUndoRestoresIdentity(t *testing.T) {
	sp := NewSampler(500)
	a, b := make([]int32, 64), make([]int32, 64)
	rs := NewReseedable()
	sp.SampleInto(rs.Seed(99), a)
	sp.SampleInto(rs.Seed(99), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %d vs %d — identity array not restored between draws", i, a[i], b[i])
		}
	}
}

func TestSamplerFullDrawIsPermutation(t *testing.T) {
	const n = 64
	sp := NewSampler(n)
	out := make([]int32, n)
	sp.SampleInto(New(3), out)
	var seen [n]bool
	for _, v := range out {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full draw is not a permutation: %d missing", i)
		}
	}
}

// TestSamplerMarginalsRoughlyUniform is a coarse distribution sanity
// check: over many draws every element's inclusion rate concentrates
// around k/n.
func TestSamplerMarginalsRoughlyUniform(t *testing.T) {
	const n, k, draws = 50, 5, 2000
	sp := NewSampler(n)
	out := make([]int32, k)
	s := New(11)
	var hits [n]int
	for d := 0; d < draws; d++ {
		sp.SampleInto(s, out)
		for _, v := range out {
			hits[v]++
		}
	}
	want := float64(draws) * k / n // 200
	for i, h := range hits {
		if f := float64(h); f < want/2 || f > want*1.5 {
			t.Errorf("element %d drawn %d times, want ≈ %.0f", i, h, want)
		}
	}
}

func TestSamplerPanicsOnOversizedDraw(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto with k > n did not panic")
		}
	}()
	NewSampler(3).SampleInto(New(1), make([]int32, 4))
}

// denseSampler is the reference the sparse Sampler must reproduce: a
// partial Fisher–Yates shuffle over a materialized identity array,
// undone after each draw, returning the k drawn indices in draw order.
type denseSampler struct {
	idx  []int32
	swap []int32
}

func newDenseSampler(n int) *denseSampler {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return &denseSampler{idx: idx}
}

func (sp *denseSampler) sampleInto(s *Stream, out []int32) {
	k, n := len(out), len(sp.idx)
	if cap(sp.swap) < k {
		sp.swap = make([]int32, k)
	}
	swap := sp.swap[:k]
	for i := 0; i < k; i++ {
		j := i + s.IntN(n-i)
		swap[i] = int32(j)
		sp.idx[i], sp.idx[j] = sp.idx[j], sp.idx[i]
		out[i] = sp.idx[i]
	}
	for i := k - 1; i >= 0; i-- {
		j := swap[i]
		sp.idx[i], sp.idx[j] = sp.idx[j], sp.idx[i]
	}
}

// checkAgainstDense draws k from both samplers on identically seeded
// streams and requires the sparse output to be exactly the sorted
// reference output, with the streams left in the same state.
func checkAgainstDense(t *testing.T, sp *Sampler, ref *denseSampler, seed uint64, k int) {
	t.Helper()
	want, got := make([]int32, k), make([]int32, k)
	rs, ss := New(seed), New(seed)
	ref.sampleInto(rs, want)
	sp.SampleInto(ss, got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d seed=%d: sparse draw differs from the sorted dense draw", sp.Len(), k, seed)
	}
	if rs.Uint64() != ss.Uint64() {
		t.Fatalf("n=%d k=%d seed=%d: samplers consumed different draw counts", sp.Len(), k, seed)
	}
}

// TestSamplerMatchesDenseReference pins the sparse sampler to the dense
// Fisher–Yates shuffle it replaces: same draws consumed, same set,
// returned in ascending order.
func TestSamplerMatchesDenseReference(t *testing.T) {
	cases := []struct{ n, k int }{
		{1, 0}, {1, 1},
		{100, 0}, {100, 1}, {100, 100},
		{4096, 4096},
		{1_000_000, 4096},
	}
	for _, c := range cases {
		checkAgainstDense(t, NewSampler(c.n), newDenseSampler(c.n), uint64(c.n*31+c.k), c.k)
	}

	// Many draws of varying k on one Sampler: the table and sort buffer
	// grow and shrink in use, and every draw must start clean.
	const n = 300_000
	sp, ref := NewSampler(n), newDenseSampler(n)
	sizes := New(5)
	for d := 0; d < 200; d++ {
		k := sizes.IntN(5000)
		if d%50 == 0 {
			k = 0
		}
		checkAgainstDense(t, sp, ref, uint64(d), k)
	}
}

// TestSamplerSteadyStateAllocs pins the sampler's allocation contract:
// construction allocates nothing proportional to n, and repeat draws
// no larger than an earlier one allocate nothing.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	sp := NewSampler(1_000_000)
	out := make([]int32, 4096)
	s := New(1)
	sp.SampleInto(s, out)
	if avg := testing.AllocsPerRun(20, func() { sp.SampleInto(s, out) }); avg != 0 {
		t.Errorf("steady-state draw allocates %v objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { sp.SampleInto(s, out[:100]) }); avg != 0 {
		t.Errorf("smaller draw allocates %v objects, want 0", avg)
	}
}

// BenchmarkSampler1M times one population-engine-sized draw: 4,096
// candidates from a million devices, sorted.
func BenchmarkSampler1M(b *testing.B) {
	sp := NewSampler(1_000_000)
	out := make([]int32, 4096)
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.SampleInto(s, out)
	}
}
