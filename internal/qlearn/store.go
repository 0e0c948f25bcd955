package qlearn

import (
	"math/rand/v2"

	"autofl/internal/rng"
)

// StateKey is a packed integer state: every Table 1 feature bucket
// occupies one digit of a mixed-radix encoding (see internal/core's
// StateCoder). A StateKey compares, hashes, and copies as a single
// machine word, which is what lets the store's hot path run without
// allocating — the string form built by JoinState is kept only for
// debugging and serialization.
type StateKey uint64

// Store holds the Q-tables of a whole population of agents in one flat
// structure: an agent-key → slot map, one record per slot, one
// (slot, state) → row interner over the *visited* states, and all
// action values in one []float64 indexed by row*numActions+action. A
// new agent costs a record and a map entry, not a heap object graph,
// and steady-state reads and updates are allocation-free.
//
// Every agent draws from its own two generators, held by value in its
// record: one initializes its rows, the other drives its exploration.
// They are forked from the caller's stream exactly as NewAgent forks
// them (table first, exploration second), so a slot draws the same
// values as an Agent built from the same stream.
//
// The write/read contract matches Table: rows are created only by
// Touch, which draws their random initialization; BestAt and UpdateAt
// read and write rows that already exist.
type Store struct {
	numActions int
	slots      map[int]int32    // agent key → slot
	recs       []record         // per slot
	rows       map[rowKey]int32 // visited (slot, state) → row
	values     []float64        // row-major action values

	// src points rnd at one record's generator for the duration of a
	// draw, so every agent shares one rand.Rand and no draw allocates.
	src pcgRef
	rnd *rand.Rand
}

// record is one agent's generators and value prior.
type record struct {
	init, explore rand.PCG
	// prior is the base value of the agent's lazily-created rows (a
	// small random jitter is still added per entry for tie-breaking).
	prior float64
}

type rowKey struct {
	slot  uint64
	state StateKey
}

// pcgRef is a rand.Source over a generator it does not own.
type pcgRef struct{ p *rand.PCG }

func (r *pcgRef) Uint64() uint64 { return r.p.Uint64() }

// NewStore creates an empty store over numActions actions.
func NewStore(numActions int) *Store {
	if numActions <= 0 {
		panic("qlearn: NewStore requires at least one action")
	}
	s := &Store{
		numActions: numActions,
		slots:      make(map[int]int32),
		rows:       make(map[rowKey]int32),
	}
	s.rnd = rand.New(&s.src)
	return s
}

// Agent returns the slot of the agent keyed key, creating it on first
// use: creation draws four Uint64 from parent — the init generator's
// seed pair, then the exploration generator's, as Fork draws them —
// and sets the agent's value prior.
func (s *Store) Agent(key int, prior float64, parent *rng.Stream) int32 {
	if slot, ok := s.slots[key]; ok {
		return slot
	}
	var r record
	hi, lo := parent.Uint64(), parent.Uint64()
	r.init.Seed(hi, lo)
	hi, lo = parent.Uint64(), parent.Uint64()
	r.explore.Seed(hi, lo)
	r.prior = prior
	slot := int32(len(s.recs))
	s.recs = append(s.recs, r)
	s.slots[key] = slot
	return slot
}

// Agents returns the number of agents created.
func (s *Store) Agents() int { return len(s.recs) }

// Prior returns an agent's value prior.
func (s *Store) Prior(slot int32) float64 { return s.recs[slot].prior }

// SetPrior replaces an agent's value prior; rows created afterwards
// start from it, existing rows keep their values.
func (s *Store) SetPrior(slot int32, v float64) { s.recs[slot].prior = v }

// Touch materializes the agent's row for state st — drawing one
// Float64 per action from the agent's init generator — and returns its
// row handle. Decision paths call it to pin exactly when a state's
// init values are drawn; the handle feeds the *At accessors without a
// second interner lookup.
func (s *Store) Touch(slot int32, st StateKey) int32 {
	k := rowKey{uint64(slot), st}
	if row, ok := s.rows[k]; ok {
		return row
	}
	row := int32(len(s.values) / s.numActions)
	base := s.recs[slot].prior
	s.src.p = &s.recs[slot].init
	for i := 0; i < s.numActions; i++ {
		s.values = append(s.values, base+s.rnd.Float64()*1e-3)
	}
	s.rows[k] = row
	return row
}

// BestAt returns the argmax action index and value of a row: a linear
// scan over its contiguous values. Ties break to the lowest action
// index, which matches Table's sorted-name tie-breaking when actions
// are indexed in name order.
func (s *Store) BestAt(row int32) (int, float64) {
	off := int(row) * s.numActions
	best, bestV := 0, s.values[off]
	for a := 1; a < s.numActions; a++ {
		if v := s.values[off+a]; v > bestV {
			best, bestV = a, v
		}
	}
	return best, bestV
}

// UpdateAt applies the Algorithm 1 value update for the transition
// (row, a) → (rowNext, aNext) with the given reward.
func (s *Store) UpdateAt(row int32, a int, reward float64, rowNext int32, aNext int, learningRate, discount float64) {
	i := int(row)*s.numActions + a
	cur := s.values[i]
	target := reward + discount*s.values[int(rowNext)*s.numActions+aNext]
	s.values[i] = cur + learningRate*(target-cur)
}

// RandomAction returns a uniformly random action index drawn from the
// agent's exploration generator, for exploration steps.
func (s *Store) RandomAction(slot int32) int {
	s.src.p = &s.recs[slot].explore
	return s.rnd.IntN(s.numActions)
}

// MemoryBytes estimates the store's resident size for the §6.4
// footprint analysis: the value array and the records at capacity
// (append over-allocates); each map entry as its key and value padded
// to a map slot plus the slot's control byte, spread over the ~2/3
// average load of a growing Go map; and the store itself.
// TestDenseMemoryBytesAgainstMeasuredBaseline checks the estimate
// against measured heap growth.
func (s *Store) MemoryBytes() int {
	const (
		recordBytes    = 40 // two rand.PCG and the prior
		slotEntryBytes = 26 // map[int]int32
		rowEntryBytes  = 38 // map[rowKey]int32
	)
	return cap(s.values)*8 + cap(s.recs)*recordBytes +
		len(s.slots)*slotEntryBytes + len(s.rows)*rowEntryBytes + 128
}
