package core

import (
	"autofl/internal/device"
	"autofl/internal/qlearn"
	"autofl/internal/rng"
	"autofl/internal/sim"
)

// DVFS levels exposed as second-level actions. The paper augments the
// execution-target action with the device's V/F steps; three coarse
// levels per target keep the Q-tables compact while spanning the
// energy-relevant range of the ladder (the energy-optimal operating
// point sits in the interior — see internal/device tests).
var dvfsLevels = []float64{0.45, 0.70, 1.00}

// Actions enumerates the 2 targets × 3 DVFS levels. The slice order is
// the controller's action index space; it is lexicographic by action
// name, so index-order argmax tie-breaking matches the legacy
// sorted-name behavior.
func Actions() []qlearn.Action {
	var out []qlearn.Action
	for _, t := range []device.Target{device.CPU, device.GPU} {
		for lvl := range dvfsLevels {
			out = append(out, qlearn.FormatAction(t.String(), lvl))
		}
	}
	return out
}

// DecodeAction maps an action key back to a concrete (target, step)
// for a given device spec.
func DecodeAction(a qlearn.Action, spec *device.Spec) (device.Target, int) {
	target := device.CPU
	s := string(a)
	lvl := 2
	if len(s) > 0 {
		if s[0] == 'G' {
			target = device.GPU
		}
		lvl = int(s[len(s)-1] - '0')
		if lvl < 0 || lvl >= len(dvfsLevels) {
			lvl = len(dvfsLevels) - 1
		}
	}
	proc := spec.Proc(target)
	step := int(dvfsLevels[lvl]*float64(proc.TopStep()) + 0.5)
	return target, step
}

// Options configures the AutoFL controller.
type Options struct {
	// Epsilon is the exploration probability (paper default 0.1).
	Epsilon float64
	// LearningRate is γ of Algorithm 1 (paper default 0.9).
	LearningRate float64
	// Discount is µ of Algorithm 1 (paper default 0.1).
	Discount float64
	// Alpha and Beta weight the accuracy and accuracy-improvement
	// reward terms of Eq (7).
	Alpha, Beta float64
	// FairnessWeight scales an energy-fairness extension to the Eq (7)
	// reward: each participant is additionally credited with its state
	// of charge (sim.DeviceState.Battery), so under a battery model the
	// controller learns to rotate load toward charged devices instead
	// of re-draining the same cohort. Zero — the default — leaves the
	// published reward untouched; without a battery model the term is
	// constant across devices and the advantage baseline cancels it.
	FairnessWeight float64
	// SharedTables keys Q-tables by device performance category
	// instead of device identity (§4 "Scalability", Fig 15): faster
	// reward convergence at a small prediction-accuracy cost.
	SharedTables bool
	// Buckets discretize the continuous state features; zero value
	// selects Table 1 defaults.
	Buckets *Buckets
	// Seed drives exploration and tie-breaking.
	Seed uint64
}

// DefaultOptions returns the paper's hyperparameters.
func DefaultOptions(seed uint64) Options {
	return Options{
		Epsilon:      qlearn.DefaultEpsilon,
		LearningRate: qlearn.DefaultLearningRate,
		Discount:     qlearn.DefaultDiscount,
		Alpha:        0.05,
		Beta:         2.0,
		Seed:         seed,
	}
}

// Controller is the AutoFL policy. It implements sim.FeedbackPolicy.
//
// States are packed qlearn.StateKeys (StateCoder), and every agent's
// Q-table lives in one flat qlearn.Store, so a device seen for the
// first time costs a store record and its rows, not heap objects of
// its own. Every per-round structure — state keys, the device ranking,
// the selection list, the pending (S, A, R) record — lives in
// controller-owned buffers reused across rounds. Once every candidate
// the controller sees has its agent and its visited-state rows (a
// fixed fleet after warm-up), Select and Feedback do not allocate; in
// sampled populations, where most candidates are new, allocation is
// amortized O(1) per new agent or row.
type Controller struct {
	opts    Options
	buckets Buckets
	coder   StateCoder
	actions []qlearn.Action // fixed action ordering (index space)
	// store holds one agent per device ID, or per performance category
	// with SharedTables (see agentKey). Each agent's value prior is an
	// exponential moving average of its rewards, used as the
	// initialization base for its Q-table rows: device-constant traits
	// (data quality, hardware efficiency) generalize across the
	// runtime-variance states, instead of a punished device looking
	// neutral again the moment its co-runner bucket flips.
	store   *qlearn.Store
	explore *rng.Stream

	// Pending round bookkeeping: one round's (S, A) pairs held until
	// the next round's observation provides (S', A') for the Algorithm
	// 1 update. Parallel slices in selection order, reused across
	// rounds.
	pendIdx     []int   // selected device indices
	pendSlot    []int32 // their store agents
	pendKey     []qlearn.StateKey
	pendAct     []int8 // action indices
	pendReward  []float64
	havePending bool
	pendReady   bool // reward computed

	// tiePriority breaks Q-value ties between devices. It is random —
	// avoiding the biased selection §4.2 warns about — but drawn once
	// per controller, so equally-valued devices keep a consistent
	// order: the learned cohort stays stable round over round, which
	// is what lets FedAvg converge on its union data distribution
	// under heavy non-IID populations. Drawn lazily on first use and
	// indexed by candidate index: with a fixed fleet that is the
	// device, but in sampled runs (sim.Config.Sample) it is the
	// candidate's slot in the round's view, so a slot keeps its
	// priority as different devices are sampled into it.
	tiePriority []float64
	tieDrawn    []bool

	// Reference energies anchor the Eq (7) energy terms to a unitless
	// scale; initialized from the first observed round.
	refGlobalEnergy float64
	refLocalEnergy  float64

	// stallStreak counts consecutive rounds without accuracy
	// improvement. Eq (7)'s hard stalled branch applies only once the
	// streak passes stallPatience: a single noisy round must not
	// collapse the learned ranking (which would churn the cohort and
	// prevent the stable selection FedAvg needs under non-IID data),
	// while a genuine plateau still triggers the shake-up the branch
	// exists for.
	stallStreak int

	rewardTrace []float64

	// Reusable round buffers (sized to the fleet on first Select).
	keys    []qlearn.StateKey
	ranked  []ranked
	selBuf  []sim.Selection
	permBuf []int

	// Decision bookkeeping for prediction-accuracy analysis (Fig 12).
	lastExplored bool
}

// New builds an AutoFL controller.
func New(opts Options) *Controller {
	if opts.Epsilon == 0 && opts.LearningRate == 0 && opts.Discount == 0 {
		opts = DefaultOptions(opts.Seed)
	}
	b := DefaultBuckets()
	if opts.Buckets != nil {
		b = *opts.Buckets
	}
	actions := Actions()
	return &Controller{
		opts:    opts,
		buckets: b,
		coder:   NewStateCoder(b),
		actions: actions,
		store:   qlearn.NewStore(len(actions)),
		explore: rng.New(opts.Seed ^ 0xa07f1),
	}
}

// Name implements sim.Policy.
func (c *Controller) Name() string { return "AutoFL" }

// RewardTrace returns the mean per-round reward history (Fig 15).
func (c *Controller) RewardTrace() []float64 { return c.rewardTrace }

// Explored reports whether the most recent Select was an exploration
// round.
func (c *Controller) Explored() bool { return c.lastExplored }

// MemoryBytes estimates the controller's Q-table footprint (§6.4).
func (c *Controller) MemoryBytes() int { return c.store.MemoryBytes() }

// agentFor returns the store slot of a device's Q-learning agent,
// creating it on first use (four draws from the explore stream). With
// SharedTables, devices of the same performance category share one
// agent.
//
// A new agent's value prior is informed: the FL protocol reports each
// device's data-class count to the server (paper footnote 3), and
// class coverage is the single strongest predictor of a device's
// usefulness under data heterogeneity (§3.3). Seeding the prior with
// it gives the ranking a sensible starting order that reward feedback
// then corrects for energy, interference and network behaviour. The
// scale matches a typical improving-round reward.
func (c *Controller) agentFor(ds *sim.DeviceState) int32 {
	return c.store.Agent(c.agentKey(ds), 0.5*ds.Data.ClassFraction, c.explore)
}

func (c *Controller) agentKey(ds *sim.DeviceState) int {
	if c.opts.SharedTables {
		return -1 - int(ds.Device.Category())
	}
	return ds.Device.ID
}

// ensureFleet sizes the reusable per-device buffers.
func (c *Controller) ensureFleet(n int) {
	if cap(c.keys) < n {
		c.keys = make([]qlearn.StateKey, n)
		c.ranked = make([]ranked, n)
		c.permBuf = make([]int, n)
		tp := make([]float64, n)
		copy(tp, c.tiePriority)
		td := make([]bool, n)
		copy(td, c.tieDrawn)
		c.tiePriority, c.tieDrawn = tp, td
	}
	c.keys = c.keys[:n]
	c.ranked = c.ranked[:n]
	c.permBuf = c.permBuf[:n]
	c.tiePriority = c.tiePriority[:n]
	c.tieDrawn = c.tieDrawn[:n]
}

// stage records one selected device's (S, A) pair for the next round's
// value update.
func (c *Controller) stage(idx int, slot int32, key qlearn.StateKey, act int) {
	c.pendIdx = append(c.pendIdx, idx)
	c.pendSlot = append(c.pendSlot, slot)
	c.pendKey = append(c.pendKey, key)
	c.pendAct = append(c.pendAct, int8(act))
}

// Select implements Algorithm 1's decision step: with probability ε
// pick K random participants and random actions; otherwise rank
// devices by Q(S_global, S_local, A) and take the top K with their
// argmax actions. It also completes the previous round's value update,
// for which this round's states provide (S', A').
//
// The returned slice is a controller-owned buffer, valid until the
// next Select call.
func (c *Controller) Select(ctx *sim.RoundContext) []sim.Selection {
	n := len(ctx.Devices)
	c.ensureFleet(n)

	global := c.coder.GlobalKey(ctx.Workload, ctx.Params)
	for i := range ctx.Devices {
		c.keys[i] = c.coder.Key(global, &ctx.Devices[i])
	}

	c.completePendingUpdate(ctx)

	c.pendIdx = c.pendIdx[:0]
	c.pendSlot = c.pendSlot[:0]
	c.pendKey = c.pendKey[:0]
	c.pendAct = c.pendAct[:0]
	c.pendReward = c.pendReward[:0]
	c.havePending = true
	c.pendReady = false
	selections := c.selBuf[:0]

	c.lastExplored = c.explore.Bool(c.opts.Epsilon)
	if c.lastExplored {
		// Exploration: uniform random participants and actions.
		k := ctx.Params.K
		if k > n {
			k = n
		}
		c.explore.PermInto(c.permBuf)
		for _, i := range c.permBuf[:k] {
			slot := c.agentFor(&ctx.Devices[i])
			action := c.store.RandomAction(slot)
			target, step := DecodeAction(c.actions[action], ctx.Devices[i].Device.Spec)
			selections = append(selections, sim.Selection{Index: i, Target: target, Step: step})
			c.stage(i, slot, c.keys[i], action)
		}
		c.selBuf = selections
		return selections
	}

	// Exploitation: rank all devices by their best Q-value. Every
	// candidate is visited in index order — agent creation, row
	// materialization (Touch) and its tie priority each draw from a
	// stream, so the order pins those draws to the decision step.
	for i := range ctx.Devices {
		slot := c.agentFor(&ctx.Devices[i])
		row := c.store.Touch(slot, c.keys[i])
		action, value := c.store.BestAt(row)
		c.ranked[i] = ranked{idx: i, slot: slot, value: value, tie: c.tieFor(i), action: int8(action)}
	}

	for _, r := range topRanked(c.ranked, ctx.Params.K) {
		target, step := DecodeAction(c.actions[r.action], ctx.Devices[r.idx].Device.Spec)
		selections = append(selections, sim.Selection{Index: r.idx, Target: target, Step: step})
		c.stage(r.idx, r.slot, c.keys[r.idx], int(r.action))
	}
	c.selBuf = selections
	return selections
}

// ranked is one device's standing in the exploitation ranking.
type ranked struct {
	idx    int
	value  float64
	tie    float64
	slot   int32
	action int8
}

// tieFor returns the device's stable random tie-break priority,
// drawing it on first use.
func (c *Controller) tieFor(idx int) float64 {
	if !c.tieDrawn[idx] {
		c.tiePriority[idx] = c.explore.Float64()
		c.tieDrawn[idx] = true
	}
	return c.tiePriority[idx]
}

// ahead reports whether a ranks strictly before b: higher value, then
// higher tie priority.
func ahead(a, b *ranked) bool {
	if a.value != b.value {
		return a.value > b.value
	}
	return a.tie > b.tie
}

// topRanked returns the first min(k, len(r)) entries of r's stable
// ranking — value descending, then tie descending, then position in r
// ascending — built in place in r's prefix; the entries after it are
// left unspecified. It keeps a sorted k-entry prefix and
// insertion-places each later entry that beats the prefix's last: one
// compare for most entries, so O(len(r)·k) in the worst case instead
// of a full sort's O(len(r)²).
func topRanked(r []ranked, k int) []ranked {
	k = max(0, min(k, len(r)))
	if k == 0 {
		return r[:0]
	}
	for i := 1; i < len(r); i++ {
		m := min(i, k) // the prefix r[:m] is sorted
		if m == k && !ahead(&r[i], &r[k-1]) {
			continue
		}
		x := r[i]
		j := min(m, k-1) // drop r[k-1] once the prefix is full
		for ; j > 0 && ahead(&x, &r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
	return r[:k]
}

// Feedback implements the measurement step: compute the Eq (5)–(7)
// reward for every participant and stage it; the Q update completes at
// the next Select when (S', A') is known.
func (c *Controller) Feedback(ctx *sim.RoundContext, res *sim.RoundResult) {
	if !c.havePending {
		return
	}
	if c.refGlobalEnergy == 0 {
		// Anchor the energy scale to the first observed round.
		c.refGlobalEnergy = res.EnergyTotalJ
		n := 0
		for i := range res.Devices {
			if res.Devices[i].Selected {
				n++
			}
		}
		if n > 0 {
			c.refLocalEnergy = res.EnergyParticipantsJ / float64(n)
		}
		if c.refGlobalEnergy == 0 {
			c.refGlobalEnergy = 1
		}
		if c.refLocalEnergy == 0 {
			c.refLocalEnergy = 1
		}
	}

	accuracy := res.Accuracy * 100
	deltaAcc := (res.Accuracy - res.PrevAccuracy) * 100
	globalTerm := res.EnergyTotalJ / c.refGlobalEnergy

	if deltaAcc <= 0 {
		c.stallStreak++
	} else {
		c.stallStreak = 0
	}
	// stallPatience is the hysteresis on Eq (7)'s stalled branch: see
	// the stallStreak field comment.
	const stallPatience = 3
	plateaued := c.stallStreak >= stallPatience

	c.pendReward = c.pendReward[:0]
	sum, n := 0.0, 0
	for _, idx := range c.pendIdx {
		var r float64
		switch {
		case res.Devices[idx].UpdateFraction == 0:
			// The device missed the straggler deadline: its action
			// contributed nothing to accuracy, so it takes the Eq (7)
			// stalled branch individually.
			r = accuracy - 100
		case deltaAcc <= 0 && plateaued:
			// Eq (7), stalled branch: distance from perfect accuracy,
			// strongly discouraging the actions that produced a
			// sustained plateau. The punishment is skewed by class
			// coverage — concentrated-data devices are the likeliest
			// cause of the drift plateau — so repeated sweeps leave
			// the Q-ranking ordered by coverage and the next cohort
			// is the one that can escape it.
			skew := 1 + 0.5*(1-ctx.Devices[idx].Data.ClassFraction)
			r = (accuracy - 100) * skew
		default:
			local := res.Devices[idx].EnergyJ / c.refLocalEnergy
			// The improvement credit is attributed per device, scaled
			// by its reported class coverage: the FL protocol already
			// ships each device's data-class count to the server
			// (paper footnote 3), and a device holding most classes
			// contributed more to an unbiased aggregate than a
			// single-class one. This is what lets the Q-tables
			// separate high- from low-coverage devices instead of
			// waiting for the (weak) round-composition covariance.
			credit := 0.25 + 0.75*ctx.Devices[idx].Data.ClassFraction
			r = -globalTerm - local + c.opts.Alpha*accuracy + c.opts.Beta*deltaAcc*credit
			if c.opts.FairnessWeight != 0 {
				// Energy-fairness extension: credit charge headroom.
				// Only the per-device differences survive the advantage
				// baseline below, so this steers *which* devices are
				// picked, not the overall reward level.
				r += c.opts.FairnessWeight * ctx.Devices[idx].Battery
			}
		}
		c.pendReward = append(c.pendReward, r)
		sum += r
		n++
	}
	c.pendReady = true
	if n > 0 {
		c.rewardTrace = append(c.rewardTrace, sum/float64(n))
	}

	// Center the stored rewards on the round mean (an advantage
	// baseline): the terms shared by every participant — global
	// energy, absolute accuracy, the improvement level — cancel, so
	// the Q-ranking is driven purely by per-device differentiation
	// (energy draw, drop penalties, class-coverage credit). Without
	// the baseline, merely having participated in a good round lifts a
	// device above everyone idle, and selection degenerates into
	// incumbency.
	if n > 0 {
		mean := sum / float64(n)
		const valueEMA = 0.05
		for j, slot := range c.pendSlot {
			c.pendReward[j] -= mean
			// The prior EMA moves slowly: single noisy rounds must
			// not reshuffle the device ranking.
			c.store.SetPrior(slot, (1-valueEMA)*c.store.Prior(slot)+valueEMA*c.pendReward[j])
		}
	}
}

// completePendingUpdate applies the Algorithm 1 update for the
// previous round using this round's states as S' and the greedy
// actions as A'. Touching S' here (before reading its argmax)
// reproduces the legacy row-creation order: S' rows materialize
// before the S row a first Update creates.
func (c *Controller) completePendingUpdate(ctx *sim.RoundContext) {
	if !c.havePending || !c.pendReady {
		return
	}
	for j, idx := range c.pendIdx {
		slot := c.agentFor(&ctx.Devices[idx])
		rowNext := c.store.Touch(slot, c.keys[idx])
		aNext, _ := c.store.BestAt(rowNext)
		rowS := c.store.Touch(slot, c.pendKey[j])
		c.store.UpdateAt(rowS, int(c.pendAct[j]), c.pendReward[j],
			rowNext, aNext, c.opts.LearningRate, c.opts.Discount)
	}
	c.havePending = false
	c.pendReady = false
}

// Compile-time interface checks.
var (
	_ sim.Policy         = (*Controller)(nil)
	_ sim.FeedbackPolicy = (*Controller)(nil)
)
