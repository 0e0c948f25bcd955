package main

import (
	"fmt"
	"math"
	"time"

	"autofl/internal/experiments"
)

// recordedSeed is the seed the fidelity metrics are reported at:
// autofl-bench's default, so the figures match what it prints.
const recordedSeed = 42

// overheadTimings are the points of the "overhead" figure that time
// the controller on this host; they vary by design and stay out of the
// series digest.
var overheadTimings = map[string]bool{"select-us": true, "feedback-us": true, "round-share-%": true}

// suitePass is one run of every experiment in paper order.
type suitePass struct {
	wall, cpu time.Duration
	figs      map[string]*experiments.Figure
	// What the checks and metrics need of figs, which the benchmark
	// drops so the live heap stays the program's.
	digest    uint64
	bad       []string
	ppw, conv map[string]float64 // fig08 gains
}

// runSuite runs every id of experiments.IDs() as autofl-bench does.
func runSuite(o experiments.Options, rec *recorder, pass int) (suitePass, error) {
	p := suitePass{figs: map[string]*experiments.Figure{}}
	passSpan := -1
	if rec != nil {
		passSpan = rec.begin("experiments.Suite", -1, int64(pass), false)
	}
	start, startCPU := time.Now(), cpuNow()
	for _, id := range experiments.IDs() {
		runner, ok := experiments.ByID(id)
		if !ok {
			return p, fmt.Errorf("experiment %s listed but not registered", id)
		}
		t0 := time.Now()
		p.figs[id] = runner(o)
		t1 := time.Now()
		if rec != nil {
			rec.add("experiments."+id, "", passSpan, int64(pass), t0, t1)
		}
	}
	p.wall, p.cpu = time.Since(start), cpuNow()-startCPU
	if rec != nil {
		rec.end(passSpan, false)
	}
	p.digest = seriesDigest(p.figs)
	p.bad = badFigures(p.figs)
	p.ppw, p.conv = fig08Gains(p.figs["fig08"])
	return p, nil
}

// seriesDigest folds every figure's series, in paper order, into one
// value, leaving out the overhead figure's host timings.
func seriesDigest(figs map[string]*experiments.Figure) uint64 {
	d := newDigest()
	for _, id := range experiments.IDs() {
		f := figs[id]
		if f == nil {
			continue
		}
		d.str(f.ID)
		for _, s := range f.Series {
			d.str(s.Label)
			for _, pt := range s.Points {
				if f.ID == "overhead" && overheadTimings[pt.X] {
					continue
				}
				d.str(pt.X)
				d.floats(pt.Y)
			}
		}
	}
	return d.sum()
}

// badFigures returns the ids that are missing, misnamed, empty, or
// carry a NaN or infinite value.
func badFigures(figs map[string]*experiments.Figure) []string {
	var bad []string
	for _, id := range experiments.IDs() {
		f := figs[id]
		if f == nil || f.ID != id || len(f.Series) == 0 {
			bad = append(bad, id)
			continue
		}
	check:
		for _, s := range f.Series {
			for _, pt := range s.Points {
				if math.IsNaN(pt.Y) || math.IsInf(pt.Y, 0) {
					bad = append(bad, id)
					break check
				}
			}
		}
	}
	return bad
}

// fig08Gains returns AutoFL's PPW and convergence-time gains over
// FedAvg-Random for each fig08 workload.
func fig08Gains(f *experiments.Figure) (ppw, conv map[string]float64) {
	ppw, conv = map[string]float64{}, map[string]float64{}
	if f == nil {
		return ppw, conv
	}
	ratio := func(label string) float64 {
		var auto, base float64
		for _, s := range f.Series {
			if s.Label != label {
				continue
			}
			for _, pt := range s.Points {
				switch pt.X {
				case "AutoFL":
					auto = pt.Y
				case "FedAvg-Random":
					base = pt.Y
				}
			}
		}
		if base == 0 {
			return 0
		}
		return auto / base
	}
	for _, w := range fig08Workloads() {
		ppw[w] = ratio(w + " PPW")
		conv[w] = ratio(w + " conv-time")
	}
	return ppw, conv
}

func geomeanOf(m map[string]float64) float64 {
	var xs []float64
	for _, w := range fig08Workloads() {
		xs = append(xs, m[w])
	}
	return geomean(xs)
}

// fidelityProbe reports the headline fidelity metrics — fig08 at the
// recorded seed — on every workload, after its timed part. They are
// deterministic: a change that only makes the program faster or
// simpler leaves them exactly as they were.
func fidelityProbe(res *result) {
	ppw, conv := fig08Gains(experiments.Fig08Overview(experiments.Options{Seed: recordedSeed}))
	res.e2e("autofl_ppw_gain", geomeanOf(ppw))
	res.e2e("autofl_conv_speedup", geomeanOf(conv))
}

// paperFigures runs the whole evaluation suite at full horizon, as
// autofl-bench runs it, repeatedly. Set-up is a quick-horizon pass of
// the suite that warms the process before timing.
func paperFigures(o options, res *result) error {
	opts := experiments.Options{Seed: o.seed, Quick: o.short}
	warmups := 3
	if o.short {
		warmups = 1
	}
	var setups []float64
	for i := 0; i < warmups; i++ {
		p, err := runSuite(experiments.Options{Seed: o.seed, Quick: true}, nil, i)
		if err != nil {
			return err
		}
		setups = append(setups, p.cpu.Seconds())
	}

	var heaps []float64
	plain, traced, err := repeatFor(o, 2, 1, func(i int, traced bool) (suitePass, error) {
		rec := res.rec
		if !traced {
			rec = nil
		}
		p, err := runSuite(opts, rec, i)
		if !traced {
			heaps = append(heaps, liveHeapBytes()) // with this pass's figures live
		}
		p.figs = nil
		return p, err
	})
	if err != nil {
		return err
	}

	all := append(append([]suitePass(nil), plain...), traced...)
	for i, p := range all {
		res.Attempted += len(experiments.IDs())
		res.Failed += len(p.bad)
		if len(p.bad) > 0 {
			res.problemf("pass %d: figures missing or non-finite: %v", i, p.bad)
		}
		if p.digest != all[0].digest {
			res.problemf("pass %d produced different series (digest %x, first %x)", i, p.digest, all[0].digest)
		}
	}

	// The end-to-end figures are CPU time: throughput over all passes,
	// per-pass time the median; wall time is reported per layer.
	var walls, cpus []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	res.e2e("setup_s", median(setups))
	res.e2e("work_per_cpu_s", float64(len(experiments.IDs()))/mean(cpus))
	res.e2e("cpu_ms_per_op_p50", median(cpus)*1e3)
	res.e2e("live_heap_mb", median(heaps)/1e6)
	if !o.trace {
		return nil
	}

	res.layer("figures_s", median(walls))
	res.tail(scaled(walls, 1e3))
	var tWalls []float64
	for _, p := range traced {
		tWalls = append(tWalls, p.wall.Seconds())
	}
	res.layer("trace.overhead_frac", median(tWalls)/median(walls)-1)
	for _, id := range experiments.IDs() {
		res.layer("experiments."+id+"_ms", median(res.rec.durations("experiments."+id, "", time.Millisecond)))
	}
	for _, w := range fig08Workloads() {
		res.layer("experiments.fig08."+w+".ppw_gain", plain[0].ppw[w])
		res.layer("experiments.fig08."+w+".conv_speedup", plain[0].conv[w])
	}
	return nil
}
