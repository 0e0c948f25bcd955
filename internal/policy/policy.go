// Package policy implements the participant-selection policies the
// AutoFL paper evaluates against (§5.1):
//
//   - FedAvg-Random — the de-facto baseline, uniform random K.
//   - Performance — cluster C1 of Table 4 (high-end devices only).
//   - Power — cluster C7 (lowest-power devices only).
//   - the full C0–C7 characterization clusters of Table 4.
//   - Oparticipant — an oracle that, each round, evaluates every
//     candidate cluster against the true observed device states and
//     picks the one maximizing predicted progress-per-joule.
//   - OFL — Oparticipant plus per-device execution-target and DVFS
//     optimization (the paper's upper bound for AutoFL).
//   - FedNova and FEDL — prior-work comparators (§6.3): random
//     selection with partial updates and update normalization /
//     gradient correction.
//
// The AutoFL controller itself lives in internal/core.
package policy

import (
	"autofl/internal/device"
	"autofl/internal/rng"
	"autofl/internal/sim"
)

// Cluster is a Table 4 row: how many devices of each tier participate.
type Cluster struct {
	Name    string
	H, M, L int
}

// Total is the cluster's participant count.
func (c Cluster) Total() int { return c.H + c.M + c.L }

// Counts returns the per-tier counts indexed by device.Category.
func (c Cluster) Counts() [device.NumCategories]int {
	return [device.NumCategories]int{c.H, c.M, c.L}
}

// Scaled proportionally rescales the cluster to k total participants
// using largest-remainder rounding, preserving the tier mix. Table 4
// is specified for K = 20; settings like S4 use K = 10.
func (c Cluster) Scaled(k int) Cluster {
	total := c.Total()
	if total == 0 || k == total {
		return c
	}
	counts := [3]int{c.H, c.M, c.L}
	type rem struct {
		idx  int
		frac float64
	}
	var out [3]int
	var rems [3]rem
	assigned := 0
	for i, n := range counts {
		exact := float64(n) * float64(k) / float64(total)
		out[i] = int(exact)
		assigned += out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	// Largest remainder first, index as the deterministic tie-break;
	// three elements, sorted in place without the sort package.
	less := func(a, b rem) bool {
		if a.frac != b.frac {
			return a.frac > b.frac
		}
		return a.idx < b.idx
	}
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && less(rems[j], rems[j-1]); j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for i := 0; assigned < k; i = (i + 1) % len(rems) {
		out[rems[i].idx]++
		assigned++
	}
	return Cluster{Name: c.Name, H: out[0], M: out[1], L: out[2]}
}

// Table4 returns the characterization clusters C1–C7 (C0, random
// selection, is the Random policy). Counts are the paper's for K=20.
func Table4() []Cluster {
	return []Cluster{
		{Name: "C1", H: 20, M: 0, L: 0},
		{Name: "C2", H: 15, M: 5, L: 0},
		{Name: "C3", H: 10, M: 5, L: 5},
		{Name: "C4", H: 5, M: 10, L: 5},
		{Name: "C5", H: 5, M: 5, L: 10},
		{Name: "C6", H: 0, M: 5, L: 15},
		{Name: "C7", H: 0, M: 0, L: 20},
	}
}

// ClusterByName returns the Table 4 cluster with the given name.
func ClusterByName(name string) (Cluster, bool) {
	for _, c := range Table4() {
		if c.Name == name {
			return c, true
		}
	}
	return Cluster{}, false
}

// Random is the FedAvg-Random baseline (C0): uniform random K
// participants, CPU at top frequency.
type Random struct {
	s *rng.Stream
	// perm and sels are reused across rounds so Select allocates
	// nothing in steady state — at population scale the candidate view
	// is thousands of devices per round, and a fresh Perm per round
	// was the policy-side allocation hot spot. PermInto consumes
	// exactly the variates Sample did, so draws are unchanged.
	perm []int
	sels []sim.Selection
}

// NewRandom builds the baseline with its own random stream.
func NewRandom(seed uint64) *Random { return &Random{s: rng.New(seed)} }

// Name implements sim.Policy.
func (p *Random) Name() string { return "FedAvg-Random" }

// Select implements sim.Policy.
func (p *Random) Select(ctx *sim.RoundContext) []sim.Selection {
	n, k := len(ctx.Devices), ctx.Params.K
	if cap(p.perm) < n {
		p.perm = make([]int, n)
	}
	perm := p.perm[:n]
	p.s.PermInto(perm)
	if k > n {
		k = n
	}
	out := p.sels[:0]
	for _, i := range perm[:k] {
		out = append(out, sim.Selection{Index: i, Target: device.CPU, Step: -1})
	}
	p.sels = out
	return out
}

// Static selects a fixed Table 4 cluster every round, with members
// drawn randomly within each tier (the cluster fixes counts, not
// identities).
type Static struct {
	name    string
	cluster Cluster
	s       *rng.Stream
	// pool, perm and sels are reused across rounds so Select allocates
	// nothing in steady state; PermInto consumes exactly the variates
	// Sample did, so draws are unchanged.
	pool []int
	perm []int
	sels []sim.Selection
}

// NewStatic builds a fixed-cluster policy.
func NewStatic(name string, c Cluster, seed uint64) *Static {
	return &Static{name: name, cluster: c, s: rng.New(seed)}
}

// NewPerformance returns the Performance policy: Table 4's C1, the
// best-execution-time cluster.
func NewPerformance(seed uint64) *Static {
	c, _ := ClusterByName("C1")
	return NewStatic("Performance", c, seed)
}

// NewPower returns the Power policy: Table 4's C7, the minimum power
// draw cluster.
func NewPower(seed uint64) *Static {
	c, _ := ClusterByName("C7")
	return NewStatic("Power", c, seed)
}

// Name implements sim.Policy.
func (p *Static) Name() string { return p.name }

// Select implements sim.Policy.
func (p *Static) Select(ctx *sim.RoundContext) []sim.Selection {
	counts := p.cluster.Scaled(ctx.Params.K).Counts()
	out := p.sels[:0]
	for cat, want := range counts {
		if want == 0 {
			continue
		}
		pool := p.pool[:0]
		for i := range ctx.Devices {
			if ctx.Devices[i].Device.Category() == device.Category(cat) {
				pool = append(pool, i)
			}
		}
		p.pool = pool
		if cap(p.perm) < len(pool) {
			p.perm = make([]int, len(pool))
		}
		perm := p.perm[:len(pool)]
		p.s.PermInto(perm)
		for _, j := range perm[:min(want, len(pool))] {
			out = append(out, sim.Selection{Index: pool[j], Target: device.CPU, Step: -1})
		}
	}
	p.sels = out
	return out
}

// FedNova is the prior-work comparator of Wang et al. (NeurIPS 2020):
// random selection, partial updates from stragglers, and normalized
// averaging that removes objective inconsistency from heterogeneous
// local steps.
type FedNova struct{ Random }

// NewFedNova builds the comparator.
func NewFedNova(seed uint64) *FedNova { return &FedNova{Random{s: rng.New(seed)}} }

// Name implements sim.Policy.
func (p *FedNova) Name() string { return "FedNova" }

// Traits implements sim.TraitsPolicy.
func (p *FedNova) Traits() sim.AggregationTraits {
	return sim.AggregationTraits{
		PartialUpdates:    true,
		DivergenceDamping: 0.35,
		NormalizedWeights: true,
	}
}

// FEDL is the comparator of Dinh et al. (ToN 2021): random selection
// with client-side approximate gradient correction against the global
// weights.
type FEDL struct{ Random }

// NewFEDL builds the comparator.
func NewFEDL(seed uint64) *FEDL { return &FEDL{Random{s: rng.New(seed)}} }

// Name implements sim.Policy.
func (p *FEDL) Name() string { return "FEDL" }

// Traits implements sim.TraitsPolicy.
func (p *FEDL) Traits() sim.AggregationTraits {
	return sim.AggregationTraits{
		PartialUpdates:    true,
		DivergenceDamping: 0.45,
	}
}

// Compile-time interface checks.
var (
	_ sim.Policy       = (*Random)(nil)
	_ sim.Policy       = (*Static)(nil)
	_ sim.TraitsPolicy = (*FedNova)(nil)
	_ sim.TraitsPolicy = (*FEDL)(nil)
)
