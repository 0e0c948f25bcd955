package main

import "autofl/internal/sim"

// The optional policy interfaces the engine and run finalizer look
// for by type assertion. A timing wrapper must implement exactly the
// ones its policy implements, or the traced run would be a different
// program: a dropped Feedback stops learning, a dropped Traits changes
// aggregation, and a spurious one changes behaviour the other way.
type (
	feedbacker interface {
		Feedback(*sim.RoundContext, *sim.RoundResult)
	}
	traitser     interface{ Traits() sim.AggregationTraits }
	rewardTracer interface{ RewardTrace() []float64 }
)

// timedPolicy records a span around every Select, nested under the
// recorder's current parent (the engine step that called it).
type timedPolicy struct {
	inner sim.Policy
	rec   *recorder
	layer string // span name prefix: "policy" or "core"
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Select(ctx *sim.RoundContext) []sim.Selection {
	i := p.rec.begin(p.layer+".Select", int(p.rec.parent.Load()), int64(ctx.Round), true)
	sels := p.inner.Select(ctx)
	p.rec.end(i, true)
	return sels
}

// timedFeedback adds the Feedback span for learning policies.
type timedFeedback struct {
	fb  feedbacker
	rec *recorder
	pfx string
}

func (p timedFeedback) Feedback(ctx *sim.RoundContext, res *sim.RoundResult) {
	i := p.rec.begin(p.pfx+".Feedback", int(p.rec.parent.Load()), int64(ctx.Round), true)
	p.fb.Feedback(ctx, res)
	p.rec.end(i, true)
}

// wrapPolicy returns p with every Select (and Feedback) timed into
// rec, implementing the same optional interfaces as p and no others.
func wrapPolicy(p sim.Policy, rec *recorder, layer string) sim.Policy {
	t := &timedPolicy{inner: p, rec: rec, layer: layer}
	fb, hasFb := p.(feedbacker)
	tf := timedFeedback{fb: fb, rec: rec, pfx: layer}
	tr, hasTr := p.(traitser)
	rt, hasRt := p.(rewardTracer)
	switch {
	case hasFb && hasTr && hasRt:
		return struct {
			*timedPolicy
			timedFeedback
			traitser
			rewardTracer
		}{t, tf, tr, rt}
	case hasFb && hasTr:
		return struct {
			*timedPolicy
			timedFeedback
			traitser
		}{t, tf, tr}
	case hasFb && hasRt:
		return struct {
			*timedPolicy
			timedFeedback
			rewardTracer
		}{t, tf, rt}
	case hasTr && hasRt:
		return struct {
			*timedPolicy
			traitser
			rewardTracer
		}{t, tr, rt}
	case hasFb:
		return struct {
			*timedPolicy
			timedFeedback
		}{t, tf}
	case hasTr:
		return struct {
			*timedPolicy
			traitser
		}{t, tr}
	case hasRt:
		return struct {
			*timedPolicy
			rewardTracer
		}{t, rt}
	}
	return t
}
