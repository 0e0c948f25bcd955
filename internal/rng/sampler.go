package rng

import (
	"math/bits"
	"math/rand/v2"
)

// splitMix64 is the SplitMix64 finalizer: a cheap, well-mixed bijection
// on 64-bit words. It is the standard seed-spreading hash (Steele et
// al., OOPSLA 2014) and the basis of Mix.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix hashes three words into one well-spread 64-bit seed. The
// population engine uses it to derive per-item streams — for example
// Mix(envSeed, round, deviceIndex) — so that each (round, device)
// pair's draws are a pure function of identity, independent of which
// shard or goroutine evaluates them.
func Mix(a, b, c uint64) uint64 {
	h := splitMix64(a)
	h = splitMix64(h ^ b)
	h = splitMix64(h ^ c)
	return h
}

// Reseedable is a Stream whose generator can be re-seeded in place,
// with no per-seed allocation. One Reseedable per shard lets a
// parallel loop give every item its own deterministic sequence —
// Seed(Mix(base, round, item)) — while the engine's steady state
// allocates nothing.
type Reseedable struct {
	pcg rand.PCG
	s   Stream
}

// NewReseedable returns an unseeded reseedable stream. Call Seed
// before drawing.
func NewReseedable() *Reseedable {
	r := &Reseedable{}
	r.s = Stream{r: rand.New(&r.pcg)}
	return r
}

// Seed resets the generator and returns the stream. Seed(x) yields the
// exact sequence New(x) would, so keyed streams and forked streams are
// interchangeable in tests.
func (r *Reseedable) Seed(seed uint64) *Stream {
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	return &r.s
}

// Sampler draws k distinct indices from [0, n) in O(k) per draw
// without materializing permutations — the population engine's
// replacement for Sample, whose Perm(n) allocation and O(n) shuffle
// are a wall at n = 10⁶ devices per round.
//
// A draw is a partial Fisher–Yates shuffle of the identity array over
// its first k positions, with the array kept sparse. Positions below k
// live in out itself; above k, an open-addressed table records only
// the positions a swap has displaced (position → value), every other
// position holding its own index. The table has O(k) slots and is
// cleared after each draw, so resident state is independent of n. The
// draws consumed and the set produced are exactly those of the dense
// shuffle, whose marginal distribution is that of the first k elements
// of a full Fisher–Yates permutation.
//
// The set is returned in ascending order, sorted by an O(k) LSD radix
// sort: deterministic, cache-friendly for callers that walk per-index
// state, and stable for positional policy state (tie priorities,
// pools). A Sampler is not safe for concurrent use.
type Sampler struct {
	n int
	// slots is the displacement table; its length is a power of two at
	// least twice the largest draw.
	slots []slot
	shift uint // 32 - log2(len(slots)), for the multiplicative hash
	// tmp and count are the radix sort's ping-pong buffer and digit
	// histograms.
	tmp   []int32
	count [radixPasses][1 << radixBits]int32
}

// slot is one displacement-table entry: position key-1 holds val. The
// zero slot is empty.
type slot struct{ key, val int32 }

const (
	radixBits   = 11
	radixPasses = 31/radixBits + 1 // indices are non-negative int32s
)

// NewSampler returns a sampler over [0, n). It allocates nothing
// proportional to n: the displacement table and sort buffer grow with
// the largest draw instead.
func NewSampler(n int) *Sampler { return &Sampler{n: n} }

// Len returns the population size n.
func (sp *Sampler) Len() int { return sp.n }

// SampleInto fills out with len(out) distinct indices drawn uniformly
// from [0, n) using draws from s, in ascending order. It panics if
// len(out) > n.
func (sp *Sampler) SampleInto(s *Stream, out []int32) {
	k, n := len(out), sp.n
	if k > n {
		panic("rng: SampleInto with k > n")
	}
	sp.reserve(k)
	for i := range out {
		out[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		// Swap positions i and j; position i is then final.
		j := i + s.IntN(n-i)
		if j < k {
			out[i], out[j] = out[j], out[i]
		} else {
			out[i] = sp.displace(int32(j), out[i])
		}
	}
	clear(sp.slots)
	sp.sort(out)
}

// reserve sizes the table and the sort buffer for a k-element draw.
func (sp *Sampler) reserve(k int) {
	size := 16
	for size < 2*k {
		size <<= 1
	}
	if len(sp.slots) >= size {
		return
	}
	sp.slots = make([]slot, size)
	sp.shift = uint(32 - bits.TrailingZeros(uint(size)))
	sp.tmp = make([]int32, size/2)
}

// displace stores v at position j (j >= k) and returns the value j
// held.
func (sp *Sampler) displace(j, v int32) int32 {
	mask := len(sp.slots) - 1
	h := int(uint32(j) * 0x9e3779b9 >> sp.shift) // Fibonacci hashing
	for sp.slots[h].key != 0 && sp.slots[h].key != j+1 {
		h = (h + 1) & mask
	}
	old := j
	if sp.slots[h].key != 0 {
		old = sp.slots[h].val
	}
	sp.slots[h] = slot{key: j + 1, val: v}
	return old
}

// sort orders out ascending with an LSD radix sort over the digits
// that can be non-zero for indices below n.
func (sp *Sampler) sort(out []int32) {
	if len(out) < 2 {
		return
	}
	passes := (bits.Len32(uint32(sp.n-1)) + radixBits - 1) / radixBits
	const mask = 1<<radixBits - 1
	for d := 0; d < passes; d++ {
		clear(sp.count[d][:])
	}
	for _, v := range out {
		for d := 0; d < passes; d++ {
			sp.count[d][uint32(v)>>(d*radixBits)&mask]++
		}
	}
	src, dst := out, sp.tmp[:len(out)]
	for d := 0; d < passes; d++ {
		c := &sp.count[d]
		sum := int32(0)
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		shift := d * radixBits
		for _, v := range src {
			b := uint32(v) >> shift & mask
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(out, src)
	}
}
