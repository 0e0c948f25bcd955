package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// populationFingerprints pins the controller at population scale: a
// 20k-device tiered population sampled 512 candidates a round under
// asynchronous aggregation for 30 rounds. Each value is an FNV-64a
// digest of every RoundInfo field and every selection (index, target,
// step), captured from the controller that insertion-sorted all
// candidates and kept one DenseAgent per device, before the top-K
// ranking and the flat Q-store replaced them. Any change to the
// ranking order, the init or exploration draw order, or the value
// prior shows up here.
var populationFingerprints = map[string]string{
	"per-device": "506b847bc61dfcf8",
	"shared":     "731b78c68d41e252",
	"battery":    "4930e82f47506ab8",
}

func populationPinConfig(t *testing.T, mut func(*sim.Config)) sim.Config {
	t.Helper()
	const n = 20_000
	high := n * device.DefaultHighCount / 200
	mid := n * device.DefaultMidCount / 200
	pop, err := device.NewPopulation(high, mid, n-high-mid)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Workload:       workload.CNNMNIST(),
		Params:         workload.S3,
		Population:     pop,
		Sample:         512,
		Mode:           sim.ModeAsync,
		Data:           data.NonIID50,
		Env:            sim.EnvField(),
		Seed:           42,
		MaxRounds:      30,
		TargetAccuracy: 1.1,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// recordingController folds every selection into a digest as the
// engine receives it.
type recordingController struct {
	*Controller
	fold func(...uint64)
}

func (r recordingController) Select(ctx *sim.RoundContext) []sim.Selection {
	sels := r.Controller.Select(ctx)
	for _, s := range sels {
		r.fold(uint64(s.Index), uint64(s.Target), uint64(s.Step))
	}
	return sels
}

func TestPopulationControllerPinned(t *testing.T) {
	cases := []struct {
		name string
		opts func(*Options)
		cfg  func(*sim.Config)
	}{
		{name: "per-device"},
		{name: "shared", opts: func(o *Options) { o.SharedTables = true }},
		{
			name: "battery",
			opts: func(o *Options) {
				b := DefaultBuckets()
				b.Battery = []float64{0.5, 0.85}
				o.Buckets = &b
				o.FairnessWeight = 0.5
			},
			cfg: func(c *sim.Config) {
				c.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileCharger}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := populationPinConfig(t, tc.cfg)
			eng, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions(7)
			if tc.opts != nil {
				tc.opts(&opts)
			}
			h := fnv.New64a()
			fold := func(vs ...uint64) {
				for _, v := range vs {
					h.Write(binary.LittleEndian.AppendUint64(nil, v))
				}
			}
			f := math.Float64bits
			run := eng.Start(recordingController{New(opts), fold})
			for i := 0; i < cfg.MaxRounds; i++ {
				if !run.Step() {
					t.Fatalf("run ended after %d rounds", i)
				}
				r := run.Last()
				conv := uint64(0)
				if r.Converged {
					conv = 1
				}
				fold(uint64(r.Round), f(r.Accuracy), f(r.RoundSec), f(r.EnergyJ),
					f(r.ParticipantEnergyJ), uint64(r.Participants), uint64(r.Kept),
					uint64(r.Dropped), f(r.VirtualSec), uint64(r.Pending),
					f(r.MeanStaleness), uint64(r.BatteryAvailable),
					uint64(r.BatteryDepleted), f(r.BatteryMeanCharge),
					f(r.ParticipationJain), conv)
			}
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := populationFingerprints[tc.name]; got != want {
				t.Errorf("population run drifted from the pinned controller\n got %s\nwant %s", got, want)
			}
		})
	}
}
