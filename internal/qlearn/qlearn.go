// Package qlearn implements the tabular Q-learning machinery behind
// AutoFL (§4.2, Algorithm 1): lookup-table value functions keyed by
// (state, action), epsilon-greedy exploration, and the SARSA-style
// update rule
//
//	Q(S,A) ← Q(S,A) + γ [ R + µ·Q(S',A') − Q(S,A) ]
//
// where γ is the learning rate and µ the discount factor (the paper's
// notation; note γ is *not* the discount here). The paper selects
// γ = 0.9 and µ = 0.1 by sensitivity analysis (§5.3); those are the
// defaults.
package qlearn

import (
	"fmt"
	"sort"

	"autofl/internal/rng"
)

// Default hyperparameters from the paper's sensitivity study (§5.3)
// and epsilon from footnote 6.
const (
	DefaultLearningRate = 0.9
	DefaultDiscount     = 0.1
	DefaultEpsilon      = 0.1
)

// State is a discrete state key. AutoFL builds it from the Table 1
// features; this package only requires comparability.
type State string

// Action is a discrete action key.
type Action string

// Table is one Q-table: accumulated rewards per (state, action) pair.
// Rows are initialized lazily with small random values, matching
// Algorithm 1's "initialize Q with random values" without allocating
// the full (huge) cross product up front. Rows are created only by the
// write path (Touch, Set, Update); reads (Q, Best, BestValue) are
// side-effect free and report the Init prior for never-visited states.
//
// Table keys states by string and is kept for debugging,
// serialization, and tests; the controller hot path uses the packed
// Store instead.
type Table struct {
	q       map[State]map[Action]float64
	actions []Action // caller-supplied order (the action index space)
	ordered []Action // sorted by name, for deterministic argmax
	initRng *rng.Stream

	// Init, when set, supplies the base value for lazily-created
	// entries (a small random jitter is still added on top for
	// tie-breaking). AutoFL uses it to seed fresh state rows with a
	// per-device value prior, so that device-constant knowledge (for
	// example, its data quality) generalizes to runtime-variance
	// states the device has not been observed in yet.
	Init func() float64
}

// NewTable creates a Q-table over a fixed action set. The rng stream
// drives random initialization of lazily-created entries.
func NewTable(actions []Action, s *rng.Stream) *Table {
	if len(actions) == 0 {
		panic("qlearn: NewTable requires at least one action")
	}
	cp := append([]Action(nil), actions...)
	ordered := append([]Action(nil), actions...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	return &Table{
		q:       make(map[State]map[Action]float64),
		actions: cp,
		ordered: ordered,
		initRng: s,
	}
}

// Actions returns the table's action set (shared slice; callers must
// not mutate).
func (t *Table) Actions() []Action { return t.actions }

// base returns the prior value for entries of not-yet-created rows.
func (t *Table) base() float64 {
	if t.Init != nil {
		return t.Init()
	}
	return 0
}

// row returns (creating if needed) the action-value row for a state.
// Only the write path calls it: row creation draws from initRng, and
// letting reads do that made results depend on read order.
func (t *Table) row(s State) map[Action]float64 {
	r, ok := t.q[s]
	if !ok {
		base := t.base()
		r = make(map[Action]float64, len(t.actions))
		for _, a := range t.actions {
			// Small random init breaks ties during early exploration.
			r[a] = base + t.initRng.Float64()*1e-3
		}
		t.q[s] = r
	}
	return r
}

// Touch materializes the row for s, drawing its random initialization
// now. Decision paths call it to pin exactly when a state's init
// values are drawn; subsequent reads are then stable.
func (t *Table) Touch(s State) { t.row(s) }

// Q returns the current value estimate for (s, a). It is side-effect
// free: reading a never-visited state reports the Init prior (with no
// jitter) and neither creates the row nor advances the init stream.
func (t *Table) Q(s State, a Action) float64 {
	if r, ok := t.q[s]; ok {
		return r[a]
	}
	return t.base()
}

// Set overwrites the value for (s, a); primarily for tests and
// deserialization. Creates the row if absent.
func (t *Table) Set(s State, a Action, v float64) { t.row(s)[a] = v }

// Best returns the action with the highest value in state s, and that
// value. Ties break deterministically by action name so runs are
// reproducible. Like Q, it is a pure read: a never-visited state
// reports the name-first action at the Init prior.
func (t *Table) Best(s State) (Action, float64) {
	r, ok := t.q[s]
	if !ok {
		return t.ordered[0], t.base()
	}
	best, bestV := Action(""), 0.0
	first := true
	for _, a := range t.ordered {
		if v, seen := r[a]; seen && (first || v > bestV) {
			best, bestV, first = a, v, false
		}
	}
	return best, bestV
}

// BestValue returns max_a Q(s, a) — the device-ranking score Algorithm
// 1 sorts by.
func (t *Table) BestValue(s State) float64 {
	_, v := t.Best(s)
	return v
}

// Update applies the Algorithm 1 value update for the transition
// (s, a) → (s', a') with reward r. As a write, it creates the row for
// s; the (s', a') operand is a pure read.
func (t *Table) Update(s State, a Action, reward float64, sNext State, aNext Action, learningRate, discount float64) {
	r := t.row(s)
	cur := r[a]
	target := reward + discount*t.Q(sNext, aNext)
	r[a] = cur + learningRate*(target-cur)
}

// States returns the number of distinct states the table has touched.
func (t *Table) States() int { return len(t.q) }

// MemoryBytes estimates the table's resident size: useful for the
// §6.4 footprint analysis (the paper reports 80 MB for 200 per-device
// tables).
func (t *Table) MemoryBytes() int {
	// Rough accounting: each entry stores a float64 plus map overhead
	// (~48 bytes per entry including keys), each state row ~64 bytes.
	entries := 0
	for _, r := range t.q {
		entries += len(r)
	}
	return entries*48 + len(t.q)*64
}

// Agent couples a Q-table with the epsilon-greedy policy and the
// paper's hyperparameters.
type Agent struct {
	Table *Table
	// LearningRate is γ in the paper's Algorithm 1.
	LearningRate float64
	// Discount is µ.
	Discount float64
	// Epsilon is the exploration probability.
	Epsilon float64

	explore *rng.Stream
}

// NewAgent builds an agent with the paper's default hyperparameters.
func NewAgent(actions []Action, s *rng.Stream) *Agent {
	return &Agent{
		Table:        NewTable(actions, s.Fork()),
		LearningRate: DefaultLearningRate,
		Discount:     DefaultDiscount,
		Epsilon:      DefaultEpsilon,
		explore:      s.Fork(),
	}
}

// Explore reports whether this decision should be exploratory (a
// uniform-random draw below epsilon), per Algorithm 1.
func (a *Agent) Explore() bool { return a.explore.Bool(a.Epsilon) }

// RandomAction returns a uniformly random action, used on exploration
// steps.
func (a *Agent) RandomAction() Action {
	acts := a.Table.Actions()
	return acts[a.explore.IntN(len(acts))]
}

// ChooseGreedy returns the best-known action for s.
func (a *Agent) ChooseGreedy(s State) Action {
	act, _ := a.Table.Best(s)
	return act
}

// Choose picks an action with epsilon-greedy exploration.
func (a *Agent) Choose(s State) Action {
	if a.Explore() {
		return a.RandomAction()
	}
	return a.ChooseGreedy(s)
}

// Learn applies the update rule with the agent's hyperparameters.
func (a *Agent) Learn(s State, act Action, reward float64, sNext State, aNext Action) {
	a.Table.Update(s, act, reward, sNext, aNext, a.LearningRate, a.Discount)
}

// JoinState builds a composite state key from parts. It exists so the
// caller never has to worry about separator collisions.
func JoinState(parts ...string) State {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "|"
		}
		out += p
	}
	return State(out)
}

// FormatAction builds an action key from a target name and a discrete
// level.
func FormatAction(target string, level int) Action {
	return Action(fmt.Sprintf("%s@%d", target, level))
}
