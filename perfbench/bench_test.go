package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"autofl"
	"autofl/internal/core"
	"autofl/internal/experiments"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/svc"
)

func shortOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: time.Millisecond,
		trace: trace, dir: t.TempDir(), short: true,
	}
}

// TestShortWorkloadsReportEveryMetric runs each workload at smoke-test
// size, untraced and traced, and checks that the run is correct and
// reports every catalogued metric with its unit.
func TestShortWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				o := shortOptions(t, name, trace)
				res, err := measure(o, workloads[name])
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
				}
				want, got := endToEnd, res.EndToEnd
				if trace {
					want, got = perLayer(), res.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(got), len(want))
				}
				for _, m := range want {
					if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
				var out bytes.Buffer
				report(&out, res, o)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON verdict: %v", err)
				}
				if !last.Correct || last.Attempted < 1 || last.Failed == nil || len(last.Metrics) != len(want) {
					t.Errorf("verdict %+v", last)
				}
				for _, m := range want {
					if !strings.Contains(out.String(), " "+m.Name+" ") {
						t.Errorf("report does not print %s by name", m.Name)
					}
				}
				if err := save(res, o); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTracedPopulationMatchesUntraced checks the traced run simulates
// exactly what the untraced run does, for both population workloads:
// measure fails a run whose repetitions' digests differ, and a traced
// run mixes both kinds of repetition.
func TestTracedPopulationMatchesUntraced(t *testing.T) {
	for _, name := range []string{"population-engine", "population-autofl"} {
		res, err := measure(shortOptions(t, name, true), workloads[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Problems {
			t.Errorf("%s: %s", name, p)
		}
		if res.PerLayer["sim.step_us_p50"].Value <= 0 || res.PerLayer["trace.stray_spans"].Value != 0 {
			t.Errorf("%s: traced run recorded no usable steps: %+v", name, res.PerLayer)
		}
	}
}

// TestTamperedSweepCellFails flips one cell's value in a job's result
// bytes and expects the byte-identity check against the serial local
// run to fail the run.
func TestTamperedSweepCellFails(t *testing.T) {
	plan := sweepPlan{jobs: 3, longRounds: 20, shortR: 10, policies: []string{"FedAvg-Random", "AutoFL"}}
	specs := plan.specs(5)
	pass, err := servicePass(specs, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialReference(specs)
	if err != nil {
		t.Fatal(err)
	}
	clean := newResult(shortOptions(t, "sweep-service", false))
	checkPasses([]passRecord{pass}, want, clean)
	if len(clean.Problems) > 0 || clean.Failed > 0 {
		t.Fatalf("untampered pass fails: %v", clean.Problems)
	}

	// The pass matched, so job 1 delivered exactly the serial bytes:
	// flip one cell's round count in them.
	body := serialBytes(t, specs[1])
	loc := regexp.MustCompile(`"rounds": (\d+)`).FindSubmatchIndex(body)
	if loc == nil {
		t.Fatalf("no cell rounds field in %s", body)
	}
	n, _ := strconv.Atoi(string(body[loc[2]:loc[3]]))
	tampered := append(append(append([]byte(nil), body[:loc[2]]...), strconv.Itoa(n+1)...), body[loc[3]:]...)
	pass.jobs[1].sum = sha256.Sum256(tampered)
	bad := newResult(shortOptions(t, "sweep-service", false))
	checkPasses([]passRecord{pass}, want, bad)
	if len(bad.Problems) != 1 {
		t.Errorf("tampered cell gave problems %v, want exactly one", bad.Problems)
	}
}

func serialBytes(t *testing.T, spec svc.JobSpec) []byte {
	t.Helper()
	store, err := sweep.Run(context.Background(), spec.Grid, autofl.SweepRunner(spec.Rounds), sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := store.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTamperedFigureFails changes one figure value and expects the
// series digest to change, and a non-finite value to fail the figure.
func TestTamperedFigureFails(t *testing.T) {
	pass, err := runSuite(experiments.Options{Seed: 3, Quick: true}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := badFigures(pass.figs); len(bad) > 0 {
		t.Fatalf("clean suite has bad figures %v", bad)
	}
	pt := &pass.figs["fig08"].Series[0].Points[0]
	pt.Y += 0.01
	if seriesDigest(pass.figs) == pass.digest {
		t.Error("a changed fig08 value left the series digest unchanged")
	}
	pt.Y = math.NaN()
	if bad := badFigures(pass.figs); len(bad) != 1 || bad[0] != "fig08" {
		t.Errorf("NaN in fig08 flagged %v, want [fig08]", bad)
	}

	// The overhead figure's host timings are the only values left out.
	ov := pass.figs["overhead"]
	before := seriesDigest(pass.figs)
	for i := range ov.Series[0].Points {
		if overheadTimings[ov.Series[0].Points[i].X] {
			ov.Series[0].Points[i].Y *= 2
		}
	}
	if seriesDigest(pass.figs) != before {
		t.Error("overhead timings leak into the series digest")
	}
}

// TestShardReplayMismatchFails feeds the shard-invariance check a
// wrong prefix digest.
func TestShardReplayMismatchFails(t *testing.T) {
	w := popWorkload{
		devices: 5000, sample: 256, rounds: 6, prefix: 3,
		configure: func(*sim.Config) {},
		policy:    func(seed uint64) sim.Policy { return policy.NewRandom(seed) },
		layer:     "policy",
	}
	r, err := w.rep(9, nil, 0, w.rounds)
	if err != nil {
		t.Fatal(err)
	}
	ok := newResult(shortOptions(t, "population-engine", false))
	if err := w.checkShardInvariance(9, r.prefix, ok); err != nil || len(ok.Problems) > 0 {
		t.Fatalf("matching replay: err %v problems %v", err, ok.Problems)
	}
	bad := newResult(shortOptions(t, "population-engine", false))
	if err := w.checkShardInvariance(9, r.prefix^1, bad); err != nil || len(bad.Problems) != 1 {
		t.Errorf("mismatching replay: err %v problems %v", err, bad.Problems)
	}
}

// TestWrapPolicyPreservesInterfaces checks the timing wrapper forwards
// exactly the optional interfaces its policy implements.
func TestWrapPolicyPreservesInterfaces(t *testing.T) {
	rec := newRecorder()
	for _, p := range []sim.Policy{
		policy.NewRandom(1),
		policy.NewBatteryWeighted(1),
		policy.NewFedNova(1),
		core.New(core.DefaultOptions(1)),
	} {
		w := wrapPolicy(p, rec, "policy")
		check := func(iface string, inner, outer bool) {
			if inner != outer {
				t.Errorf("%s: %s implemented %v by the policy, %v by the wrapper", p.Name(), iface, inner, outer)
			}
		}
		_, a := p.(sim.FeedbackPolicy)
		_, b := w.(sim.FeedbackPolicy)
		check("FeedbackPolicy", a, b)
		_, a = p.(sim.TraitsPolicy)
		_, b = w.(sim.TraitsPolicy)
		check("TraitsPolicy", a, b)
		_, a = p.(rewardTracer)
		_, b = w.(rewardTracer)
		check("RewardTrace", a, b)
		if w.Name() != p.Name() {
			t.Errorf("wrapper renames %s to %s", p.Name(), w.Name())
		}
	}
}

// TestAccountSelf checks self time plus covered child time is the
// parent's wall time, with overlapping children counted once, and
// that a child outside its parent is reported.
func TestAccountSelf(t *testing.T) {
	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	p := rec.add("parent", "", -1, 0, at(0), at(100))
	rec.add("child", "", p, 0, at(10), at(30))
	rec.add("child", "", p, 0, at(20), at(50)) // overlaps the first
	rec.add("child", "", p, 0, at(60), at(70))
	if stray := rec.accountSelf(); stray != 0 {
		t.Fatalf("stray = %d, want 0", stray)
	}
	if got := rec.selfTimes("parent", time.Nanosecond)[0]; got != 50 {
		t.Errorf("parent self = %v ns, want 50", got)
	}
	rec.add("child", "", p, 0, at(90), at(120))
	if stray := rec.accountSelf(); stray != 1 {
		t.Errorf("stray = %d, want 1 for a child ending after its parent", stray)
	}
}

func TestSnakeNeighboursDifferInOneAxis(t *testing.T) {
	chain := snake([]int{2, 4, 2, 4})
	if len(chain) != 64 {
		t.Fatalf("chain has %d points, want 64", len(chain))
	}
	for i := 1; i < len(chain); i++ {
		diff := 0
		for a := range chain[i] {
			if chain[i][a] != chain[i-1][a] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("links %d and %d differ in %d axes", i-1, i, diff)
		}
	}
}

// TestSweepPlanMix checks every job after the first is half reads and
// half new cells.
func TestSweepPlanMix(t *testing.T) {
	plan := sweepPlan{jobs: 24, longRounds: 1000, shortR: 100, policies: make([]string, 8)}
	specs := plan.specs(1)
	if len(specs) != 24 || specs[0].Grid.Size() != 8 {
		t.Fatalf("plan has %d jobs, first of %d cells", len(specs), specs[0].Grid.Size())
	}
	for i, s := range specs[1:] {
		if s.Grid.Size() != 16 {
			t.Errorf("job %d has %d cells, want 16", i+1, s.Grid.Size())
		}
	}
}

// TestCompareRefusesDifferentGOMAXPROCS writes two result files that
// differ only in GOMAXPROCS.
func TestCompareRefusesDifferentGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		r := result{Env: envRecord{Workload: "paper-figures", GOMAXPROCS: procs}, EndToEnd: map[string]metric{}}
		for _, m := range endToEnd {
			r.EndToEnd[m.Name] = metric{1, m.Unit}
		}
		raw, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 4)
	var out, errOut bytes.Buffer
	if code := compareFiles([]string{a, b}, &out, &errOut); code != 0 {
		t.Errorf("same GOMAXPROCS: exit %d: %s", code, errOut.String())
	}
	if code := compareFiles([]string{a, c}, &out, &errOut); code == 0 {
		t.Error("compared runs with GOMAXPROCS 2 and 4")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's
// BENCHMARK.json and the metrics this program reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
