package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// layer: its name, its interval on the recorder's clock, the span that
// caused it, and the round or job it belongs to.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // e.g. the policy of a sweep cell
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	ID     int64  `json:"id"`     // round number or job sequence number
	// Allocs counts heap objects allocated inside the span, from
	// runtime/metrics; only spans begun with counting carry it.
	Allocs uint64 `json:"allocs,omitempty"`
	Self   int64  `json:"self_ns"` // filled by accountSelf
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; the benchmark
// writes them out once it has finished measuring. It is safe for
// concurrent use: sweep cells finish on worker goroutines while the
// client records its own spans.
type recorder struct {
	epoch time.Time
	// parent is the span the next begin nests under when its caller
	// has no parent of its own in hand: the engine step around a
	// policy call, or the job whose cells the workers are running.
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
	cnt   *counters // read under mu
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), cnt: newCounters()}
	r.parent.Store(-1)
	return r
}

// begin opens a span and returns its index for end. With count set,
// the span also records the heap objects allocated until end.
func (r *recorder) begin(name string, parent int, id int64, count bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{Name: name, Parent: parent, ID: id}
	if count {
		s.Allocs, _ = r.cnt.read()
	}
	s.Start = int64(time.Since(r.epoch))
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int, count bool) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.End = now
	if count {
		a, _ := r.cnt.read()
		s.Allocs = a - s.Allocs
	}
}

// add records a span whose interval the caller measured itself.
func (r *recorder) add(name, tag string, parent int, id int64, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Tag: tag, Parent: parent, ID: id,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return len(r.spans) - 1
}

// accountSelf sets each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (cells
// on two workers) are counted once, so self time plus covered time is
// the parent's wall time exactly. It returns the number of children
// that are open or stray outside their parent's interval, which would
// make that accounting wrong.
func (r *recorder) accountSelf() (stray int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		p := &r.spans[i]
		if p.End < p.Start {
			stray++
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			c := r.spans[k]
			if c.Start < p.Start || c.End > p.End || c.End < c.Start {
				stray++
				continue
			}
			if c.End <= reach {
				continue
			}
			covered += c.End - max(c.Start, reach)
			reach = c.End
		}
		p.Self = p.dur() - covered
	}
	return stray
}

// byName returns the spans named name, in recording order; a non-empty
// tag keeps only the spans carrying it.
func (r *recorder) byName(name, tag string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in the given unit.
func (r *recorder) durations(name, tag string, unit time.Duration) []float64 {
	spans := r.byName(name, tag)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// selfTimes returns the self times of the named spans in the given
// unit; call accountSelf first.
func (r *recorder) selfTimes(name string, unit time.Duration) []float64 {
	spans := r.byName(name, "")
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Self) / float64(unit)
	}
	return out
}

// allocsPer returns the named spans' allocation count divided by the
// number of spans.
func (r *recorder) allocsPer(name string) float64 {
	spans := r.byName(name, "")
	if len(spans) == 0 {
		return 0
	}
	total := uint64(0)
	for _, s := range spans {
		total += s.Allocs
	}
	return float64(total) / float64(len(spans))
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
