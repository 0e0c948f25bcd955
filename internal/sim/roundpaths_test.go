package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// roundPathPins holds one digest per cell of TestRoundPathsPinned's
// matrix (layout/regime/battery/policy), captured on the engine before
// its fleet and population round paths were folded into one function
// per aggregation regime.
var roundPathPins = map[string]string{
	"fleet/sync/none/Random":                      "7d2762e0d0eb5f92",
	"fleet/sync/none/FedNova":                     "c3e28305db224965",
	"fleet/sync/none/FEDL":                        "626e96de1d1466a0",
	"fleet/sync/none/BatteryWeighted":             "a31e68aaed0bf30c",
	"fleet/sync/solar/Random":                     "8b3be9bbc50ba01c",
	"fleet/sync/solar/FedNova":                    "2cf6144ff4a13a27",
	"fleet/sync/solar/FEDL":                       "778dd1d847094c4a",
	"fleet/sync/solar/BatteryWeighted":            "ebb4edcf81d2d8be",
	"fleet/semi-async/none/Random":                "da42eb1314ae5f62",
	"fleet/semi-async/none/FedNova":               "df6f2baef69c8c1c",
	"fleet/semi-async/none/FEDL":                  "1d7231b11c28a293",
	"fleet/semi-async/none/BatteryWeighted":       "b0fdcd337c8e8346",
	"fleet/semi-async/solar/Random":               "7664db2722f5a5f6",
	"fleet/semi-async/solar/FedNova":              "b86efb3300371284",
	"fleet/semi-async/solar/FEDL":                 "18bde536432794b3",
	"fleet/semi-async/solar/BatteryWeighted":      "fc377483826de714",
	"fleet/async/none/Random":                     "2b17f7220e280a2d",
	"fleet/async/none/FedNova":                    "c81568d66ac3b978",
	"fleet/async/none/FEDL":                       "63d78154141330f5",
	"fleet/async/none/BatteryWeighted":            "4bf29b6a17b80673",
	"fleet/async/solar/Random":                    "c0c6d0826a4824e3",
	"fleet/async/solar/FedNova":                   "114cce17e3f99952",
	"fleet/async/solar/FEDL":                      "566acd747b91dc4f",
	"fleet/async/solar/BatteryWeighted":           "567fc1a87e6ec43e",
	"population/sync/none/Random":                 "3a32a7860add6058",
	"population/sync/none/FedNova":                "4cc4071562833051",
	"population/sync/none/FEDL":                   "ab5c03ed77c3830c",
	"population/sync/none/BatteryWeighted":        "f2b35addb62dbc36",
	"population/sync/solar/Random":                "51a7fcf59053b25b",
	"population/sync/solar/FedNova":               "9979f6dff7be8786",
	"population/sync/solar/FEDL":                  "4d2255bc0de92703",
	"population/sync/solar/BatteryWeighted":       "d8d601c05699f831",
	"population/semi-async/none/Random":           "56fb4244b0a71b9e",
	"population/semi-async/none/FedNova":          "56c46f968c1dedc0",
	"population/semi-async/none/FEDL":             "fd52e7a73f4c94bd",
	"population/semi-async/none/BatteryWeighted":  "9a21d35337023a04",
	"population/semi-async/solar/Random":          "912a1024b5de5917",
	"population/semi-async/solar/FedNova":         "93c6e6a714a7dc35",
	"population/semi-async/solar/FEDL":            "00a8bdc95efb953c",
	"population/semi-async/solar/BatteryWeighted": "14176516ef616116",
	"population/async/none/Random":                "d9560916b7a7e6ec",
	"population/async/none/FedNova":               "01c86fbdb756b529",
	"population/async/none/FEDL":                  "81cec31b1a0f1ec0",
	"population/async/none/BatteryWeighted":       "a8d26975055a1cb5",
	"population/async/solar/Random":               "40b2d6ab9b321f17",
	"population/async/solar/FedNova":              "fe4f41bbcf5049ca",
	"population/async/solar/FEDL":                 "39e33933ff58b207",
	"population/async/solar/BatteryWeighted":      "83ff7b800be3a594",
}

// TestRoundPathsPinned digests every RoundInfo field of every round
// over the engine's layout × regime × battery × policy matrix, in the
// field environment so stragglers drop. The policies cover plain
// FedAvg weights (Random, BatteryWeighted), partial updates with
// normalized weights and damping (FedNova), and damping alone (FEDL),
// so each branch of the round functions and the convergence step
// feeds some digest.
func TestRoundPathsPinned(t *testing.T) {
	layouts := []struct {
		name      string
		n, sample int
	}{{"fleet", 200, 0}, {"population", 20_000, 512}}
	modes := []sim.AggregationMode{sim.ModeSync, sim.ModeSemiAsync, sim.ModeAsync}
	policies := []struct {
		name string
		make func() sim.Policy
	}{
		{"Random", func() sim.Policy { return policy.NewRandom(11) }},
		{"FedNova", func() sim.Policy { return policy.NewFedNova(11) }},
		{"FEDL", func() sim.Policy { return policy.NewFEDL(11) }},
		{"BatteryWeighted", func() sim.Policy { return policy.NewBatteryWeighted(11) }},
	}
	for _, l := range layouts {
		pop := tieredPopulation(t, l.n)
		for _, mode := range modes {
			for _, solar := range []bool{false, true} {
				for _, pc := range policies {
					batt := "none"
					cfg := sim.Config{
						Workload:       workload.CNNMNIST(),
						Params:         workload.S3,
						Population:     pop,
						Sample:         l.sample,
						Shards:         2,
						Data:           data.NonIID50,
						Env:            sim.EnvField(),
						Seed:           23,
						MaxRounds:      30,
						TargetAccuracy: 1.1, // unreachable: every run executes all rounds
						Mode:           mode,
					}
					if solar {
						batt = "solar"
						cfg.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}
					}
					name := fmt.Sprintf("%s/%s/%s/%s", l.name, mode, batt, pc.name)
					got, dropped := roundPathDigest(t, cfg, pc.make())
					if want := roundPathPins[name]; got != want {
						t.Errorf("%s: round digest %s, want %s", name, got, want)
					}
					if mode == sim.ModeSync && dropped == 0 {
						t.Errorf("%s: no straggler missed the deadline; the clipping branch goes unpinned", name)
					}
				}
			}
		}
	}
}

// roundPathDigest runs cfg to its horizon and returns an FNV-64a
// digest over every field of every round's RoundInfo, plus the run's
// count of deadline-missing participants.
func roundPathDigest(tb testing.TB, cfg sim.Config, p sim.Policy) (digest string, dropped int) {
	tb.Helper()
	run := mustEngine(tb, cfg).Start(p)
	h := fnv.New64a()
	var buf [8]byte
	for run.Step() {
		info := run.Last()
		dropped += info.Dropped
		v := reflect.ValueOf(info)
		for i := 0; i < v.NumField(); i++ {
			var bits uint64
			switch f := v.Field(i); f.Kind() {
			case reflect.Int:
				bits = uint64(f.Int())
			case reflect.Float64:
				bits = math.Float64bits(f.Float())
			case reflect.Bool:
				if f.Bool() {
					bits = 1
				}
			default:
				tb.Fatalf("RoundInfo.%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
			}
			binary.LittleEndian.PutUint64(buf[:], bits)
			h.Write(buf[:])
		}
	}
	if got := run.Result().Rounds; got != cfg.MaxRounds {
		tb.Fatalf("run executed %d rounds, want %d", got, cfg.MaxRounds)
	}
	return fmt.Sprintf("%016x", h.Sum64()), dropped
}
