package policy

import (
	"math"
	"slices"
	"sort"
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/interference"
	"autofl/internal/network"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// refPickMembers is the per-cluster member selection the oracles used
// before rankTiers: scan the tier, score every device, sort, and take
// the first want.
func refPickMembers(ctx *sim.RoundContext, c Cluster) []int {
	counts := c.Counts()
	var members []int
	for cat := 0; cat < device.NumCategories; cat++ {
		want := counts[cat]
		if want == 0 {
			continue
		}
		var pool []scoredDevice
		for i := range ctx.Devices {
			if ctx.Devices[i].Device.Category() == device.Category(cat) {
				comp, comm := ctx.Estimate(i, device.CPU, -1)
				total := comp + comm
				energy := ctx.EstimateEnergy(i, device.CPU, -1, total)
				q := ctx.Devices[i].Data.IIDQuality()
				pool = append(pool, scoredDevice{i, math.Pow(q, 3) / (energy * total)})
			}
		}
		slices.SortFunc(pool, func(a, b scoredDevice) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			default:
				return a.idx - b.idx
			}
		})
		if want > len(pool) {
			want = len(pool)
		}
		for _, s := range pool[:want] {
			members = append(members, s.idx)
		}
	}
	return members
}

// refEvaluateCluster is evaluateCluster estimating every member's time
// and energy itself instead of reading rankTiers' per-device costs.
func refEvaluateCluster(ctx *sim.RoundContext, members []int) clusterEval {
	if len(members) == 0 {
		return clusterEval{}
	}
	times := make([]float64, len(members))
	clean := make([]float64, len(members))
	for i, idx := range members {
		comp, comm := ctx.Estimate(idx, device.CPU, -1)
		times[i] = comp + comm
		cc, cm := ctx.CleanCompletionTime(idx)
		clean[i] = cc + cm
	}
	sort.Float64s(clean)
	med := clean[len(clean)/2]
	if len(clean)%2 == 0 {
		med = (clean[len(clean)/2-1] + clean[len(clean)/2]) / 2
	}
	deadline := ctx.StragglerFactor() * med
	roundSec := 0.0
	mass, qualMass := 0.0, 0.0
	var keptEnergy float64
	for i, idx := range members {
		d := ctx.Devices[idx].Data
		if times[i] <= deadline {
			if times[i] > roundSec {
				roundSec = times[i]
			}
			risk := ctx.DropRisk(idx, device.CPU, -1, deadline)
			w := (1 - risk) * float64(ctx.Params.E) * float64(d.Samples)
			mass += w
			qualMass += w * d.IIDQuality()
			base := ctx.EstimateEnergy(idx, device.CPU, -1, times[i])
			waste := base * (deadline/times[i] - 1)
			keptEnergy += base + risk*waste
			continue
		}
		if deadline > roundSec {
			roundSec = deadline
		}
		base := ctx.EstimateEnergy(idx, device.CPU, -1, times[i])
		keptEnergy += base * deadline / times[i]
	}
	if mass == 0 {
		return clusterEval{members: members, score: 0, deadline: deadline}
	}
	meanQ := qualMass / mass
	idleWatts := ctx.FleetIdleWatts()
	for _, idx := range members {
		idleWatts -= ctx.Devices[idx].Device.Spec.IdleWatts()
	}
	fleetEnergy := keptEnergy + idleWatts*roundSec
	refMass := 20.0 * float64(ctx.Params.E) * float64(ctx.Workload.Dataset.SamplesPerDevice)
	progress := math.Pow(mass/refMass, 0.6) * math.Pow(meanQ, 1.5)
	return clusterEval{members: members, score: progress / fleetEnergy, deadline: deadline}
}

// refBestCluster is bestCluster over the reference selection and
// evaluation.
func refBestCluster(ctx *sim.RoundContext) clusterEval {
	var best clusterEval
	for i, c := range Table4() {
		eval := refEvaluateCluster(ctx, refPickMembers(ctx, c.Scaled(ctx.Params.K)))
		if i == 0 || eval.score > best.score {
			best = eval
		}
	}
	return best
}

// checkedOracle runs bestCluster and the reference side by side on
// every context the engine hands it, then selects like OFL so the run
// visits the states an oracle-driven fleet reaches.
type checkedOracle struct {
	t      *testing.T
	name   string
	ofl    *OFL
	sc     oracleScratch // reused across rounds, as the oracles reuse theirs
	rounds int
}

func (c *checkedOracle) Name() string { return "checked-" + c.ofl.Name() }

func (c *checkedOracle) Select(ctx *sim.RoundContext) []sim.Selection {
	c.t.Helper()
	got := bestCluster(ctx, &c.sc)
	want := refBestCluster(ctx)
	bits := math.Float64bits
	if !slices.Equal(got.members, want.members) || bits(got.score) != bits(want.score) ||
		bits(got.deadline) != bits(want.deadline) {
		c.t.Fatalf("%s round %d: bestCluster = (%v, %v, %v), reference = (%v, %v, %v)",
			c.name, ctx.Round, got.members, got.score, got.deadline,
			want.members, want.score, want.deadline)
	}
	c.rounds++
	return c.ofl.Select(ctx)
}

// fixedNetCfg is an ideal-IID run on a link with no bandwidth
// variance and no co-runners: same-tier devices with equal sample
// counts then score exactly alike, so the member ranking falls back to
// its index tie-break.
func fixedNetCfg(seed uint64) sim.Config {
	cfg := baseCfg(seed)
	cfg.MaxRounds = 40
	cfg.TargetAccuracy = 1.1
	cfg.Env = sim.Env{
		Interference: interference.None(),
		Network:      network.Profile{Name: "fixed", MeanMbps: 100, MinMbps: 100, MaxMbps: 100, BaseLatencySec: 0.5},
	}
	return cfg
}

// TestOracleBestClusterMatchesPerClusterReference: ranking each tier once
// per round selects exactly the members, score and deadline that
// scoring and sorting each tier per candidate cluster did — to the
// bit, on the exhaustive fleet and on sampled views, at K=20 and K=10,
// IID and non-IID, with and without drop risk, and with exact score
// ties between same-tier devices.
func TestOracleBestClusterMatchesPerClusterReference(t *testing.T) {
	ideal := baseCfg(41)
	ideal.MaxRounds = 40
	ideal.TargetAccuracy = 1.1
	field := ideal
	field.Env = sim.EnvField()
	field.Data = data.NonIID50
	k10 := field
	k10.Params = workload.S4
	interf := k10
	interf.Env = sim.EnvInterference()
	interf.Workload = workload.LSTMShakespeare()
	pop, err := device.NewPopulation(1500, 3500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	sampled := field
	sampled.Population = pop
	sampled.Sample = 256
	sampled10 := sampled
	sampled10.Params = workload.S4
	sampled10.Env = sim.EnvInterference()

	for name, cfg := range map[string]sim.Config{
		"fleet-k20-ideal":        ideal,
		"fleet-k20-fixed-net":    fixedNetCfg(41),
		"fleet-k20-field":        field,
		"fleet-k10-field":        k10,
		"fleet-k10-interference": interf,
		"sampled-k20-field":      sampled,
		"sampled-k10-interf":     sampled10,
	} {
		c := &checkedOracle{t: t, name: name, ofl: NewOFL()}
		sim.New(cfg).Run(c)
		if c.rounds < cfg.MaxRounds {
			t.Errorf("%s: checked %d rounds, want %d", name, c.rounds, cfg.MaxRounds)
		}
	}
}
