package policy

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// recorder folds every selection its policy returns into a digest
// before handing the slice on to the engine unchanged.
type recorder struct {
	sim.Policy
	h hash.Hash64
}

func (r *recorder) Select(ctx *sim.RoundContext) []sim.Selection {
	sels := r.Policy.Select(ctx)
	foldU64(r.h, uint64(len(sels)))
	for _, s := range sels {
		foldU64(r.h, uint64(s.Index), uint64(s.Target), uint64(int64(s.Step)))
	}
	return sels
}

func foldU64(h hash.Hash64, vs ...uint64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
}

// pinnedConfigs are the scenarios TestSelectionsPinned covers: the
// default fleet under each environment the oracles plan against, a
// scaled cluster (K=10), a heavier non-IID workload, a link without
// variance (exact member-score ties), and the sampled population path
// under asynchronous aggregation.
func pinnedConfigs(t *testing.T) map[string]sim.Config {
	base := baseCfg(21)
	base.MaxRounds = 60
	base.TargetAccuracy = 1.1 // never converges: every config runs the full horizon

	s4 := base
	s4.Params = workload.S4
	interf := base
	interf.Env = sim.EnvInterference()
	weak := base
	weak.Env = sim.EnvWeakNetwork()
	lstm := base
	lstm.Workload = workload.LSTMShakespeare()
	lstm.Data = data.NonIID75

	const n = 20_000
	pop, err := device.NewPopulation(n*15/100, n*35/100, n-n*15/100-n*35/100)
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.Population = pop
	sampled.Sample = 512
	sampled.Mode = sim.ModeAsync
	sampled.Env = sim.EnvField()
	sampled.MaxRounds = 40

	return map[string]sim.Config{
		"cnn-s3-ideal":        base,
		"cnn-s4-ideal":        s4,
		"cnn-s3-interference": interf,
		"cnn-s3-weak":         weak,
		"lstm-s3-noniid75":    lstm,
		"cnn-s3-fixed-net":    fixedNetCfg(21),
		"pop20k-s512-async":   sampled,
	}
}

// selectionPins are FNV-1a digests of every selection (index, target,
// step) and every RoundInfo field of each config × policy run,
// captured before the oracle search was restructured to rank each
// tier once per round. Any drift in the oracles' or the Static
// policies' output bytes shows up here.
var selectionPins = map[string]string{
	"cnn-s3-ideal/OFL":                 "3b6a4303160ab3e1",
	"cnn-s3-ideal/Oparticipant":        "62a4a9e501b914c9",
	"cnn-s3-ideal/Performance":         "d27860dc44813855",
	"cnn-s3-ideal/Power":               "b88e0918ae5c5825",
	"cnn-s4-ideal/OFL":                 "5734c337628dcf0c",
	"cnn-s4-ideal/Oparticipant":        "d36bd9a78fa187ec",
	"cnn-s4-ideal/Performance":         "20b81fd4a1590d4e",
	"cnn-s4-ideal/Power":               "9ea3e60219a91abc",
	"cnn-s3-interference/OFL":          "4ea6e691f56f2c83",
	"cnn-s3-interference/Oparticipant": "9dbdbb78451d69de",
	"cnn-s3-interference/Performance":  "e17e70649e70c731",
	"cnn-s3-interference/Power":        "97a3a826f411a8af",
	"cnn-s3-weak/OFL":                  "9c465c552122afab",
	"cnn-s3-weak/Oparticipant":         "ca9fc9c32adf403d",
	"cnn-s3-weak/Performance":          "14cd8e1fd9f22586",
	"cnn-s3-weak/Power":                "45a857732969fc8f",
	"lstm-s3-noniid75/OFL":             "f493efb2c99a0f39",
	"lstm-s3-noniid75/Oparticipant":    "d50fa17268701597",
	"lstm-s3-noniid75/Performance":     "e354ca5a0d984b1f",
	"lstm-s3-noniid75/Power":           "0384b18f124c0e04",
	"pop20k-s512-async/OFL":            "20bbf5a4de106834",
	"pop20k-s512-async/Oparticipant":   "ecbe166a605848ef",
	"pop20k-s512-async/Performance":    "ef661dc5ca90d612",
	"pop20k-s512-async/Power":          "0b90db9ba2cbce07",
	"cnn-s3-fixed-net/OFL":             "332832e6fc18a5b3",
	"cnn-s3-fixed-net/Oparticipant":    "008dfe036ba81192",
	"cnn-s3-fixed-net/Performance":     "9004d9acef7bb27c",
	"cnn-s3-fixed-net/Power":           "d5d75bd754a31447",
}

// TestSelectionsPinned pins the exact selections and round outcomes of
// OFL, Oparticipant, Performance and Power across the configs above.
func TestSelectionsPinned(t *testing.T) {
	policies := []func() sim.Policy{
		func() sim.Policy { return NewOFL() },
		func() sim.Policy { return NewOParticipant() },
		func() sim.Policy { return NewPerformance(9) },
		func() sim.Policy { return NewPower(9) },
	}
	f := math.Float64bits
	for cname, cfg := range pinnedConfigs(t) {
		for _, mk := range policies {
			rec := &recorder{Policy: mk(), h: fnv.New64a()}
			key := cname + "/" + rec.Name()
			eng, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := eng.Start(rec)
			for i := 0; i < cfg.MaxRounds && run.Step(); i++ {
				r := run.Last()
				conv := uint64(0)
				if r.Converged {
					conv = 1
				}
				foldU64(rec.h, uint64(r.Round), f(r.Accuracy), f(r.RoundSec), f(r.EnergyJ),
					f(r.ParticipantEnergyJ), uint64(r.Participants), uint64(r.Kept),
					uint64(r.Dropped), f(r.VirtualSec), uint64(r.Pending),
					f(r.MeanStaleness), uint64(r.BatteryAvailable),
					uint64(r.BatteryDepleted), f(r.BatteryMeanCharge),
					f(r.ParticipationJain), conv)
			}
			if got := fmt.Sprintf("%016x", rec.h.Sum64()); got != selectionPins[key] {
				t.Errorf("%s drifted from the pinned selections\n got %q\nwant %q", key, got, selectionPins[key])
			}
		}
	}
}
