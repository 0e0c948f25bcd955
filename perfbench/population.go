package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"autofl/internal/battery"
	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// popWorkload is a population-scale workload: a cohort population in
// the testbed's tier mix, sampled Sample candidates a round, stepped a
// fixed number of rounds per repetition under an unreachable accuracy
// target. Every repetition builds its own population and engine, so
// set-up is measured once per repetition and every repetition must
// produce the same simulated outputs.
type popWorkload struct {
	devices, sample int
	// rounds are the timed rounds per repetition; prefix rounds are
	// replayed on a Shards: 1 engine to check shard invariance.
	rounds, prefix int
	configure      func(*sim.Config)
	policy         func(seed uint64) sim.Policy
	// layer prefixes the policy's span names: "policy" for a selection
	// baseline, "core" for the AutoFL controller.
	layer string
}

const (
	minReps       = 3 // untraced repetitions, for the set-up median
	minTracedReps = 2
)

// populationEngine: the engine does almost all the work. Solar-diurnal
// batteries keep the fleet cycling and battery-weighted selection is
// cheap, so sampling, observation, battery settle and the barrier
// dominate each round.
func populationEngine(o options, res *result) error {
	w := popWorkload{
		devices: 1_000_000, sample: 4096, rounds: 200, prefix: 50,
		configure: func(c *sim.Config) {
			c.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}
		},
		policy: func(seed uint64) sim.Policy { return policy.NewBatteryWeighted(seed) },
		layer:  "policy",
	}
	if o.short {
		w.devices, w.sample, w.rounds, w.prefix = 20_000, 512, 30, 10
	}
	return w.measure(o, res)
}

// populationAutoFL: the AutoFL controller does almost all the work,
// and asynchronous aggregation runs the engine's event-queue path.
func populationAutoFL(o options, res *result) error {
	w := popWorkload{
		devices: 1_000_000, sample: 4096, rounds: 50, prefix: 10,
		configure: func(c *sim.Config) { c.Mode = sim.ModeAsync },
		policy:    func(seed uint64) sim.Policy { return core.New(core.DefaultOptions(seed)) },
		layer:     "core",
	}
	if o.short {
		w.devices, w.sample, w.rounds, w.prefix = 20_000, 512, 10, 5
	}
	return w.measure(o, res)
}

func (w popWorkload) config(seed uint64, pop *device.Population) sim.Config {
	cfg := sim.Config{
		Workload:   workload.CNNMNIST(),
		Params:     workload.S3,
		Population: pop,
		Sample:     w.sample,
		Data:       data.IdealIID,
		Env:        sim.EnvField(),
		Seed:       seed,
		MaxRounds:  w.rounds,
		// Unreachable: every repetition runs all its rounds.
		TargetAccuracy: 1.1,
	}
	w.configure(&cfg)
	return cfg
}

// tieredPopulation builds n devices in the testbed's high/mid/low mix.
func tieredPopulation(n int) (*device.Population, error) {
	high := n * device.DefaultHighCount / 200
	mid := n * device.DefaultMidCount / 200
	return device.NewPopulation(high, mid, n-high-mid)
}

// policySeed derives the policy's stream from the workload seed, apart
// from the engine's.
func policySeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

// repOutcome is one repetition's measurements.
type repOutcome struct {
	steps []time.Duration
	loop  time.Duration
	// CPU time of the process (see cpuNow) over set-up, each step and
	// the step loop.
	setupCPU, loopCPU time.Duration
	stepsCPU          []time.Duration
	digest, prefix    uint64
	heapEnd           float64 // live heap at the end of the timed rounds
	heapGrowth        float64 // of which grown since the engine was built
	gcCycles          uint64
	// Simulated totals over the rounds.
	kept, participants, available, depleted int
	failed                                  int
}

// rep runs one repetition of the given number of rounds; rec is nil
// for an untraced one.
func (w popWorkload) rep(seed uint64, rec *recorder, shards, rounds int) (repOutcome, error) {
	var out repOutcome
	runtime.GC() // start from a collected heap, outside every timer
	repSpan := -1
	if rec != nil {
		repSpan = rec.begin("bench.repetition", -1, 0, false)
		defer rec.end(repSpan, false)
	}
	c0, t0 := cpuNow(), time.Now()
	pop, err := tieredPopulation(w.devices)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	cfg := w.config(seed, pop)
	cfg.Shards = shards
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return out, err
	}
	t2, c2 := time.Now(), cpuNow()
	out.setupCPU = c2 - c0
	if rec != nil {
		rec.add("device.NewPopulation", "", repSpan, 0, t0, t1)
		rec.add("sim.NewEngine", "", repSpan, 0, t1, t2)
	}
	heap0 := liveHeapBytes()

	p := w.policy(policySeed(seed))
	if rec != nil {
		p = wrapPolicy(p, rec, w.layer)
	}
	run := eng.Start(p)
	cnt := newCounters()
	_, gc0 := cnt.read()
	d := newDigest()
	out.steps = make([]time.Duration, 0, rounds)
	out.stepsCPU = make([]time.Duration, 0, rounds)
	loop, loopCPU := time.Now(), cpuNow()
	for i := 0; i < rounds; i++ {
		sc, s := cpuNow(), time.Now()
		si := -1
		if rec != nil {
			si = rec.begin("sim.Step", repSpan, int64(i), true)
			rec.parent.Store(int64(si))
		}
		ok := run.Step()
		if rec != nil {
			rec.end(si, true)
		}
		out.steps = append(out.steps, time.Since(s))
		out.stepsCPU = append(out.stepsCPU, cpuNow()-sc)
		if !ok {
			return out, fmt.Errorf("run ended after %d of %d rounds", i, rounds)
		}
		info := run.Last()
		if !roundValid(info, i, w.sample) {
			out.failed++
		}
		foldRound(d, info)
		if i+1 == w.prefix {
			out.prefix = d.sum()
		}
		out.kept += info.Kept
		out.participants += info.Participants
		out.available += info.BatteryAvailable
		out.depleted += info.BatteryDepleted
	}
	out.loop, out.loopCPU = time.Since(loop), cpuNow()-loopCPU
	_, gc1 := cnt.read()
	out.gcCycles = gc1 - gc0
	out.digest = d.sum()
	out.heapEnd = liveHeapBytes()
	out.heapGrowth = out.heapEnd - heap0
	runtime.KeepAlive(run)
	return out, nil
}

// roundValid checks one round's summary: the round index advanced,
// every statistic is finite and in range, and no more devices took
// part than were sampled.
func roundValid(info sim.RoundInfo, i, sample int) bool {
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return false
			}
		}
		return true
	}
	return info.Round == i+1 &&
		finite(info.Accuracy, info.RoundSec, info.EnergyJ, info.ParticipantEnergyJ,
			info.VirtualSec, info.MeanStaleness, info.BatteryMeanCharge, info.ParticipationJain) &&
		info.Accuracy <= 1 && info.Participants <= sample && info.Kept <= sample &&
		info.BatteryAvailable <= sample && info.BatteryDepleted <= sample
}

// foldRound adds every field of a round's summary to the digest.
func foldRound(d digest, info sim.RoundInfo) {
	d.ints(info.Round, info.Participants, info.Kept, info.Dropped, info.Pending,
		info.BatteryAvailable, info.BatteryDepleted)
	d.floats(info.Accuracy, info.RoundSec, info.EnergyJ, info.ParticipantEnergyJ,
		info.VirtualSec, info.MeanStaleness, info.BatteryMeanCharge, info.ParticipationJain)
	if info.Converged {
		d.ints(1)
	}
}

func (w popWorkload) measure(o options, res *result) error {
	plain, traced, err := repeatFor(o, minReps, minTracedReps, func(_ int, traced bool) (repOutcome, error) {
		if traced {
			return w.rep(o.seed, res.rec, 0, w.rounds)
		}
		return w.rep(o.seed, nil, 0, w.rounds)
	})
	if err != nil {
		return err
	}

	// Correctness: every repetition, traced or not, simulates the same
	// rounds, and so does a single-shard engine over the prefix.
	all := append(append([]repOutcome(nil), plain...), traced...)
	for i, r := range all {
		res.Attempted += w.rounds
		res.Failed += r.failed
		if r.digest != all[0].digest {
			res.problemf("repetition %d simulated different rounds (digest %x, first %x)", i, r.digest, all[0].digest)
		}
	}
	if err := w.checkShardInvariance(o.seed, all[0].prefix, res); err != nil {
		return err
	}

	// The end-to-end figures are CPU time over the repetitions (the
	// first one, which faults the population's pages in, left out when
	// there are more); wall time is reported per layer. Throughput is
	// all rounds over all their CPU time, not a median of repetitions,
	// because garbage collections fall on some repetitions and not on
	// others.
	var setups, steps, stepsCPU, heaps, rates []float64
	var loopCPU time.Duration
	for i, r := range plain {
		if i == 0 && len(plain) > minReps {
			continue
		}
		setups = append(setups, r.setupCPU.Seconds())
		steps = append(steps, seconds(r.steps)...)
		stepsCPU = append(stepsCPU, seconds(r.stepsCPU)...)
		heaps = append(heaps, r.heapEnd)
		rates = append(rates, float64(w.rounds)/r.loop.Seconds())
		loopCPU += r.loopCPU
	}
	rate := median(rates)
	res.e2e("setup_s", median(setups))
	res.e2e("work_per_cpu_s", float64(w.rounds*len(rates))/loopCPU.Seconds())
	res.e2e("cpu_ms_per_op_p50", median(stepsCPU)*1e3)
	res.e2e("live_heap_mb", median(heaps)/1e6)
	if !o.trace {
		return nil
	}

	res.layer("rounds_per_s", rate)
	res.layer("round_wall_ms_p50", median(steps)*1e3)
	res.layer("heap_bytes_per_device", median(heaps)/float64(w.devices))
	res.tail(scaled(steps, 1e3))
	var tRounds, kept, participants, available, depleted int
	var tRates, gcs, growth []float64
	for _, r := range traced {
		tRounds += w.rounds
		tRates = append(tRates, float64(w.rounds)/r.loop.Seconds())
		kept += r.kept
		participants += r.participants
		available += r.available
		depleted += r.depleted
		gcs = append(gcs, float64(r.gcCycles))
		growth = append(growth, r.heapGrowth)
	}
	res.layer("trace.overhead_frac", rate/median(tRates)-1)

	rec := res.rec
	rec.accountSelf()
	stepUS := rec.durations("sim.Step", "", time.Microsecond)
	res.layer("sim.step_us_p50", median(stepUS))
	res.layer("sim.step_us_p99", quantile(stepUS, 0.99))
	res.layer("sim.self_us_per_round", mean(rec.selfTimes("sim.Step", time.Microsecond)))
	res.layer("sim.allocs_per_round", rec.allocsPer("sim.Step"))
	res.layer("runtime.gc_cycles", median(gcs))
	res.layer("device.population_build_s", median(rec.durations("device.NewPopulation", "", time.Second)))
	res.layer("sim.new_engine_s", median(rec.durations("sim.NewEngine", "", time.Second)))
	if participants > 0 {
		res.layer("sim.kept_frac", float64(kept)/float64(participants))
	}
	res.layer("battery.available_frac", float64(available)/float64(tRounds*w.sample))
	res.layer("battery.depleted_mean", float64(depleted)/float64(tRounds))

	selectUS := rec.durations(w.layer+".Select", "", time.Microsecond)
	res.layer(w.layer+".select_us_p50", median(selectUS))
	if w.layer == "core" {
		res.layer("core.select_us_p99", quantile(selectUS, 0.99))
		res.layer("core.select_ns_per_candidate", median(selectUS)*1e3/float64(w.sample))
		res.layer("core.feedback_us_p50", median(rec.durations("core.Feedback", "", time.Microsecond)))
		res.layer("core.allocs_per_select", rec.allocsPer("core.Select"))
		res.layer("core.heap_growth_bytes_per_device", median(growth)/float64(w.devices))
	}
	return nil
}

// checkShardInvariance replays the prefix on a single-shard engine:
// the engine's contract is that the shard count never changes output.
func (w popWorkload) checkShardInvariance(seed, want uint64, res *result) error {
	r, err := w.rep(seed, nil, 1, w.prefix)
	if err != nil {
		return fmt.Errorf("single-shard replay: %w", err)
	}
	if r.digest != want {
		res.problemf("Shards: 1 replay of the first %d rounds differs from the default-shard run", w.prefix)
	}
	return nil
}
