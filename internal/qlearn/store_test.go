package qlearn

import (
	"runtime"
	"runtime/debug"
	"testing"

	"autofl/internal/rng"
)

// The Store keeps every agent's action values in dense rows; these
// tests pin that representation to the legacy string-keyed Table and
// Agent draw for draw.

// q reads an entry through a row handle.
func (s *Store) q(row int32, a int) float64 { return s.values[int(row)*s.numActions+a] }

// TestDenseMatchesTable pins one store agent to the legacy Agent's
// table: identically seeded, they must produce identical init values,
// argmax decisions, and update trajectories. This is the equivalence
// that lets the controller use the store without changing any
// simulated number.
func TestDenseMatchesTable(t *testing.T) {
	acts := actions() // name-sorted, so index order == sorted-name order
	legacy := NewAgent(acts, rng.New(42)).Table
	store := NewStore(len(acts))
	slot := store.Agent(0, 0, rng.New(42))

	states := []State{"s0", "s1", "s2", "s3"}
	keys := []StateKey{10, 11, 12, 13}
	rows := make([]int32, len(keys))

	// Same materialization order → same init draws.
	for i := range states {
		legacy.Touch(states[i])
		rows[i] = store.Touch(slot, keys[i])
	}
	check := func(when string) {
		t.Helper()
		for i := range states {
			for ai, a := range acts {
				if lv, dv := legacy.Q(states[i], a), store.q(rows[i], ai); lv != dv {
					t.Fatalf("%s mismatch at (%s,%s): %v vs %v", when, states[i], a, lv, dv)
				}
			}
			la, lv := legacy.Best(states[i])
			da, dv := store.BestAt(rows[i])
			if string(la) != string(acts[da]) || lv != dv {
				t.Fatalf("%s argmax mismatch at %s: (%s,%v) vs (%s,%v)", when, states[i], la, lv, acts[da], dv)
			}
		}
	}
	check("init")

	// Identical update sequences stay identical.
	seq := []struct {
		s, sn  int
		a, an  int
		reward float64
	}{
		{0, 1, 0, 2, 1.5}, {1, 2, 2, 1, -0.7}, {2, 0, 1, 0, 3.2}, {0, 3, 2, 2, 0.05},
	}
	for _, u := range seq {
		legacy.Update(states[u.s], acts[u.a], u.reward, states[u.sn], acts[u.an], 0.9, 0.1)
		store.UpdateAt(rows[u.s], u.a, u.reward, rows[u.sn], u.an, 0.9, 0.1)
	}
	check("post-update")
}

// TestDenseReadsAreSideEffectFree: reads, repeated Touches and
// lookups of existing agents draw nothing — neither from an agent's
// init generator nor from the parent stream.
func TestDenseReadsAreSideEffectFree(t *testing.T) {
	pa, pb := rng.New(5), rng.New(5)
	a, b := NewStore(3), NewStore(3)
	sa, sb := a.Agent(1, 0, pa), b.Agent(1, 0, pb)
	ra := a.Touch(sa, 100)
	b.Touch(sb, 100)
	for i := 0; i < 100; i++ {
		_ = a.q(ra, i%3)
		_, _ = a.BestAt(ra)
		_ = a.Prior(sa)
		if a.Touch(sa, 100) != ra {
			t.Fatal("Touch of a visited state returned a new row")
		}
		if a.Agent(1, 9, pa) != sa {
			t.Fatal("Agent of an existing key returned a new slot")
		}
	}
	if len(a.rows) != 1 || a.Agents() != 1 {
		t.Fatalf("reads created state: %d rows, %d agents", len(a.rows), a.Agents())
	}
	if pa.Uint64() != pb.Uint64() {
		t.Fatal("existing-agent lookups drew from the parent stream")
	}
	// The init generator must be untouched: both stores draw the same
	// next row.
	rx, ry := a.Touch(sa, 7), b.Touch(sb, 7)
	for i := 0; i < 3; i++ {
		if a.q(rx, i) != b.q(ry, i) {
			t.Fatal("reads advanced the init generator")
		}
	}
}

// TestDenseUnseenReadsReportPrior: a fresh row starts at its agent's
// value prior plus a jitter below 1e-3, and a prior change moves only
// rows created afterwards.
func TestDenseUnseenReadsReportPrior(t *testing.T) {
	s := NewStore(4)
	slot := s.Agent(3, -1.5, rng.New(6))
	r1 := s.Touch(slot, 99)
	for a := 0; a < 4; a++ {
		if v := s.q(r1, a); v < -1.5 || v >= -1.5+1e-3 {
			t.Errorf("fresh row value %v, want prior -1.5 plus jitter", v)
		}
	}
	before := s.q(r1, 0)
	s.SetPrior(slot, 5)
	if s.Prior(slot) != 5 {
		t.Errorf("Prior = %v after SetPrior(5)", s.Prior(slot))
	}
	if s.q(r1, 0) != before {
		t.Error("existing rows must not move when the prior changes")
	}
	if v := s.q(s.Touch(slot, 100), 2); v < 5 || v >= 5+1e-3 {
		t.Errorf("row after SetPrior = %v, want prior 5 plus jitter", v)
	}
}

func TestDenseBestTieBreaksToLowestIndex(t *testing.T) {
	s := NewStore(3)
	slot := s.Agent(0, 0, rng.New(7))
	row := s.Touch(slot, 1)
	set := func(vs ...float64) { copy(s.values[int(row)*3:], vs) }
	set(2, 2, 2)
	if a, _ := s.BestAt(row); a != 0 {
		t.Errorf("tie broke to %d, want lowest index 0", a)
	}
	set(1, 5, 5)
	if a, v := s.BestAt(row); a != 1 || v != 5 {
		t.Errorf("BestAt = (%d, %v), want (1, 5)", a, v)
	}
}

func TestDenseSteadyStateOpsAllocFree(t *testing.T) {
	parent := rng.New(8)
	s := NewStore(6)
	for k := 0; k < 8; k++ {
		slot := s.Agent(k, 0, parent)
		for st := 0; st < 64; st++ {
			s.Touch(slot, StateKey(st))
		}
	}
	ops := func() {
		slot := s.Agent(3, 0, parent)
		row := s.Touch(slot, 17)
		_, _ = s.BestAt(row)
		next := s.Touch(slot, 23)
		s.UpdateAt(row, 1, 0.7, next, 2, 0.9, 0.1)
		_ = s.RandomAction(slot)
		s.SetPrior(slot, s.Prior(slot)+0.01)
	}
	if avg := testing.AllocsPerRun(200, ops); avg != 0 {
		t.Errorf("steady-state store ops allocated %.2f/run, want 0", avg)
	}
}

// fillStore creates agents keyed 0..agents-1 and touches states
// 0..states-1, spread round-robin over the agents.
func fillStore(agents, states int) *Store {
	parent := rng.New(9)
	s := NewStore(6)
	for st := 0; st < states; st++ {
		slot := s.Agent(st%agents, 0.1, parent)
		s.Touch(slot, StateKey(st/agents))
	}
	return s
}

// TestDenseMemoryBytesAgainstMeasuredBaseline keeps the §6.4 footprint
// accounting honest: MemoryBytes must track the measured heap growth
// of a populated store within a factor of two in both directions, for
// a population of per-device agents and for a few shared ones, and
// sharing must come out smaller.
func TestDenseMemoryBytesAgainstMeasuredBaseline(t *testing.T) {
	const rows = 1 << 14
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	measure := func(agents, states int) (*Store, int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := fillStore(agents, states)
		// Collect the append-growth garbage so only live structures
		// count.
		runtime.GC()
		runtime.ReadMemStats(&after)
		return s, int(after.HeapAlloc - before.HeapAlloc)
	}
	perDevice, pdHeap := measure(rows, rows)
	// Shared tables: a few agents whose devices revisit the same
	// states, so far fewer rows for the same decisions.
	shared, shHeap := measure(4, rows/16)
	for _, c := range []struct {
		name     string
		s        *Store
		measured int
	}{{"per-device", perDevice, pdHeap}, {"shared", shared, shHeap}} {
		got := c.s.MemoryBytes()
		t.Logf("%s: MemoryBytes %d, measured heap growth %d", c.name, got, c.measured)
		if got < c.measured/2 || got > c.measured*2 {
			t.Errorf("%s: MemoryBytes = %d, measured heap growth = %d; accounting drifted beyond 2x",
				c.name, got, c.measured)
		}
	}
	if shared.MemoryBytes() >= perDevice.MemoryBytes() {
		t.Errorf("shared MemoryBytes %d not below per-device %d", shared.MemoryBytes(), perDevice.MemoryBytes())
	}
	// And the store must undercut the legacy map accounting for the
	// same content — the point of the representation.
	legacy := NewTable(actions6(), rng.New(9))
	for st := 0; st < rows; st++ {
		legacy.Touch(State(rune('a'+st%26)) + State(rune('a'+(st/26)%26)) + State(rune('a'+st/676)))
	}
	if perDevice.MemoryBytes() >= legacy.MemoryBytes() {
		t.Errorf("store MemoryBytes %d not below legacy %d", perDevice.MemoryBytes(), legacy.MemoryBytes())
	}
}

func actions6() []Action {
	return []Action{"CPU@0", "CPU@1", "CPU@2", "GPU@0", "GPU@1", "GPU@2"}
}

// TestDenseAgentMatchesAgent verifies a store agent's exploration
// stays draw-for-draw aligned with the legacy Agent built from the same
// parent stream, with init draws interleaved to prove the two
// generators are independent.
func TestDenseAgentMatchesAgent(t *testing.T) {
	acts := actions()
	legacy := NewAgent(acts, rng.New(77))
	store := NewStore(len(acts))
	slot := store.Agent(0, 0, rng.New(77))
	for i := 0; i < 500; i++ {
		la := legacy.RandomAction()
		da := store.RandomAction(slot)
		if string(la) != string(acts[da]) {
			t.Fatalf("random action draw %d diverged: %s vs %s", i, la, acts[da])
		}
		if i%7 == 0 {
			legacy.Table.Touch(State(rune(i)))
			store.Touch(slot, StateKey(i))
		}
	}
}

func TestNewDensePanicsWithoutActions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStore with no actions should panic")
		}
	}()
	NewStore(0)
}

// TestDenseUpdateAtMatchesUpdate pins the multi-agent draw contract:
// agents created one after another from one parent stream match Agents
// built by NewAgent in the same order on an identical stream, through
// interleaved row creation, updates, and exploration.
func TestDenseUpdateAtMatchesUpdate(t *testing.T) {
	acts := actions()
	pl, ps := rng.New(55), rng.New(55)
	store := NewStore(len(acts))
	var legacy []*Agent
	var slots []int32
	for k := 0; k < 5; k++ {
		legacy = append(legacy, NewAgent(acts, pl))
		slots = append(slots, store.Agent(100+k, 0, ps))
	}
	for step := 0; step < 200; step++ {
		k := step * 7 % 5
		s, sn := State(rune('a'+step%4)), State(rune('a'+(step+1)%4))
		row := store.Touch(slots[k], StateKey(step%4))
		next := store.Touch(slots[k], StateKey((step+1)%4))
		legacy[k].Table.Touch(s)
		legacy[k].Table.Touch(sn)
		a := legacy[k].RandomAction()
		if da := store.RandomAction(slots[k]); acts[da] != a {
			t.Fatalf("step %d: random action %s vs %s", step, acts[da], a)
		}
		an, _ := legacy[k].Table.Best(sn)
		dn, _ := store.BestAt(next)
		if acts[dn] != an {
			t.Fatalf("step %d: argmax %s vs %s", step, acts[dn], an)
		}
		r := float64(step%11) - 5
		legacy[k].Learn(s, a, r, sn, an)
		store.UpdateAt(row, indexOf(acts, a), r, next, dn, DefaultLearningRate, DefaultDiscount)
		for ai, act := range acts {
			if lv, dv := legacy[k].Table.Q(s, act), store.q(row, ai); lv != dv {
				t.Fatalf("step %d: Q(%s,%s) %v vs %v", step, s, act, lv, dv)
			}
		}
	}
	if pl.Uint64() != ps.Uint64() {
		t.Error("agent creation drew a different amount from the parent stream")
	}
}

func indexOf(acts []Action, a Action) int {
	for i, x := range acts {
		if x == a {
			return i
		}
	}
	return -1
}
