package sim

import (
	"math"
	"testing"

	"autofl/internal/device"
	"autofl/internal/workload"
)

// refEstimate is the completion-time estimate computed straight from
// the workload model, as every estimate did before the run's workload
// constants were hoisted into the engine.
func refEstimate(ctx *RoundContext, idx int, target device.Target, step int) (compSec, commSec float64) {
	ds := &ctx.Devices[idx]
	spec := ds.Device.Spec
	if step < 0 {
		step = spec.Proc(target).TopStep()
	}
	load := ds.Load
	intensity := ctx.Workload.Intensity(ctx.Params.B)
	tput := spec.EffectiveGFLOPS(target, step, intensity, load.CPUContention(), load.MemContention())
	work := float64(ctx.Params.E) * float64(ds.Data.Samples) * ctx.Workload.TrainFLOPsPerSample()
	compSec = spec.SetupSec + work/(tput*1e9)
	payload := 2 * ctx.Workload.GradientBytes()
	commSec = ctx.cfg.Env.Network.CommSeconds(payload, ds.BandwidthMbps)
	return compSec, commSec
}

// TestCostMatchesEstimateAndEnergy: for every device, target and DVFS
// step of a context, Cost returns exactly (Estimate's comp+comm,
// EstimateEnergy over that time), and Estimate matches the reference
// computed from the workload model — to the bit, on both the
// exhaustive fleet and a sampled population view.
func TestCostMatchesEstimateAndEnergy(t *testing.T) {
	fleet := quickCfg(31)
	fleet.Env = EnvField()
	lstm := fleet
	lstm.Workload = workload.LSTMShakespeare()
	lstm.Params = workload.S4
	pop, err := device.NewPopulation(300, 700, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sampled := fleet
	sampled.Population = pop
	sampled.Sample = 128

	bits := math.Float64bits
	for name, cfg := range map[string]Config{"fleet": fleet, "lstm-s4": lstm, "sampled": sampled} {
		eng := New(cfg)
		p := newRandomPolicy(3)
		for round := 0; round < 4; round++ {
			ctx, _ := eng.RunRound(p, round, 0.3)
			for idx := range ctx.Devices {
				for _, target := range []device.Target{device.CPU, device.GPU} {
					for step := -1; step <= ctx.TopStep(idx, target); step++ {
						comp, comm := ctx.Estimate(idx, target, step)
						rc, rm := refEstimate(ctx, idx, target, step)
						if bits(comp) != bits(rc) || bits(comm) != bits(rm) {
							t.Fatalf("%s round %d dev %d %v/%d: Estimate (%v, %v) != reference (%v, %v)",
								name, round, idx, target, step, comp, comm, rc, rm)
						}
						sec, joules := ctx.Cost(idx, target, step)
						want := ctx.EstimateEnergy(idx, target, step, comp+comm)
						if bits(sec) != bits(comp+comm) || bits(joules) != bits(want) {
							t.Fatalf("%s round %d dev %d %v/%d: Cost = (%v, %v), want (%v, %v)",
								name, round, idx, target, step, sec, joules, comp+comm, want)
						}
					}
				}
			}
		}
	}
}
