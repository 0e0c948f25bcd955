// Command perfbench is the repository's benchmark: one command that
// runs a workload, measures it end to end or layer by layer, checks
// that the program's outputs are correct, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload population-engine --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures untraced and reports the end-to-end metrics;
// --trace 1 adds a traced run that times every layer boundary, reports
// the per-layer metrics and the tracing overhead, and writes the spans
// to .perfbench/. Result files land in .perfbench/results/;
//
//	perfbench --compare old.json new.json
//
// prints the end-to-end ratios of two of them, and refuses runs whose
// GOMAXPROCS differ. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // for results, traces and scratch files
	// short shrinks every workload to a smoke-test size; the
	// benchmark's own tests use it.
	short bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation measured and checked.
type result struct {
	Env       envRecord         `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`

	rec *recorder // spans of the traced run; nil untraced
}

// newResult starts a result with every per-layer metric at 0, the
// value of a layer the workload does not reach.
func newResult(o options) *result {
	r := &result{Env: recordEnv(o), EndToEnd: map[string]metric{}}
	if o.trace {
		r.PerLayer = map[string]metric{}
		for _, m := range perLayer() {
			r.PerLayer[m.Name] = metric{0, m.Unit}
		}
	}
	return r
}

// e2e and layer set one metric, taking the unit from the catalog so a
// name and its unit cannot drift apart.
func (r *result) e2e(name string, v float64) { r.EndToEnd[name] = metric{v, unitOf(endToEnd, name)} }

func (r *result) layer(name string, v float64) {
	if r.PerLayer != nil {
		r.PerLayer[name] = metric{v, unitOf(perLayer(), name)}
	}
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: metric not in catalog: " + name)
}

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// tail sets the latency tail metrics: the highest of the usual
// percentiles with at least ten samples beyond it, its quantile, and
// the sample count.
func (r *result) tail(latenciesMS []float64) {
	n := len(latenciesMS)
	for _, q := range []float64{0.99, 0.9, 0.75, 0.5} {
		if float64(n)*(1-q) >= 10 || q == 0.5 {
			r.layer("latency_tail_ms", quantile(latenciesMS, q))
			r.layer("latency_tail_q", q)
			break
		}
	}
	r.layer("latency_samples", float64(n))
}

// finish completes the failure accounting and the verdict.
func (r *result) finish() error {
	for _, m := range endToEnd {
		v, ok := r.EndToEnd[m.Name]
		if !ok {
			return fmt.Errorf("workload did not report %s", m.Name)
		}
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			r.problemf("end-to-end metric %s = %v, want a positive finite value", m.Name, v.Value)
		}
	}
	if r.Attempted < 1 {
		return errors.New("workload attempted nothing")
	}
	r.layer("failed_frac", float64(r.Failed)/float64(r.Attempted))
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	return nil
}

// repeatFor runs unit until the run's time has passed. Untraced, every
// unit is untraced and there are at least minPlain. Traced, untraced
// and traced units alternate, at least minPlain and minTraced of each,
// so a drift in the host's speed during the run falls on both alike
// and the tracing overhead and the equality of traced and untraced
// outputs are measured side by side.
func repeatFor[T any](o options, minPlain, minTraced int, unit func(i int, traced bool) (T, error)) (plain, traced []T, err error) {
	if !o.trace {
		minTraced = 0
	}
	for end := time.Now().Add(o.seconds); len(plain) < minPlain || len(traced) < minTraced || time.Now().Before(end); {
		var u T
		if o.trace && len(traced) < len(plain) {
			u, err = unit(len(traced), true)
			traced = append(traced, u)
		} else {
			u, err = unit(len(plain), false)
			plain = append(plain, u)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return plain, traced, nil
}

var workloads = map[string]func(options, *result) error{
	"population-engine": populationEngine,
	"population-autofl": populationAutoFL,
	"sweep-service":     sweepService,
	"paper-figures":     paperFigures,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "population-engine, population-autofl, sweep-service or paper-figures")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs    = fs.Int("seconds", 10, "how long to measure")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = fs.String("out", ".perfbench", "directory for result and trace files")
		compare = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second,
		trace: *trace == 1, dir: *outDir,
	}
	res, err := measure(o, wl)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := save(res, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, res, o)
	return 0
}

// measure runs one workload and completes its result.
func measure(o options, wl func(options, *result) error) (*result, error) {
	res := newResult(o)
	if o.trace {
		res.rec = newRecorder()
	}
	if err := wl(o, res); err != nil {
		return nil, err
	}
	fidelityProbe(res)
	if res.rec != nil {
		stray := res.rec.accountSelf()
		res.layer("trace.stray_spans", float64(stray))
		if stray > 0 {
			res.problemf("%d spans open or outside their parent: self times do not account for wall time", stray)
		}
	}
	return res, res.finish()
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// save writes the result file and, for a traced run, the spans.
func save(res *result, o options) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	rdir := filepath.Join(o.dir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rdir, base+".json"), raw, 0o644); err != nil {
		return err
	}
	if res.rec == nil {
		return nil
	}
	tdir := filepath.Join(o.dir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return res.rec.writeJSONL(filepath.Join(tdir, base+".jsonl"))
}

// report prints the run record, every metric by name with its unit,
// the paper values beside the measured ones, any problems, and last
// the one-line JSON verdict.
func report(w io.Writer, res *result, o options) {
	e := res.Env
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source=%s poll=%s\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.GOMAXPROCS, e.NumCPU, e.CPU, e.GoVersion, e.Commit, e.SourceDigest, e.PollInterval)
	printMetrics(w, "end_to_end", res.EndToEnd)
	printMetrics(w, "per_layer", res.PerLayer)
	for _, wl := range fig08Workloads() {
		fmt.Fprintf(w, "paper experiments.fig08.%s.ppw_gain %g x\n", wl, paperPPWGain[wl])
	}
	fmt.Fprintf(w, "paper autofl_conv_speedup %g x\n", paperConvSpeedup)
	for _, o := range paperOverheadUS {
		fmt.Fprintf(w, "paper controller overhead %s %g us per round\n", o.phase, o.us)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	out := res.EndToEnd
	if o.trace {
		out = res.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// compareFiles prints new/old ratios of the end-to-end metrics of two
// result files of the same workload. Runs with different GOMAXPROCS
// measure different programs (the engine's shard fan-out follows it)
// and are refused.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare needs two result files")
		return 2
	}
	var rs [2]result
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := rs[0].Env, rs[1].Env
	if a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: GOMAXPROCS %d vs %d\n", a.GOMAXPROCS, b.GOMAXPROCS)
		return 3
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(stderr, "perfbench: refusing to compare workloads %s and %s\n", a.Workload, b.Workload)
		return 3
	}
	for _, m := range endToEnd {
		old, cur := rs[0].EndToEnd[m.Name], rs[1].EndToEnd[m.Name]
		fmt.Fprintf(stdout, "%-22s %12.6g -> %12.6g %s  x%.4f (%s is better)\n",
			m.Name, old.Value, cur.Value, m.Unit, cur.Value/old.Value, m.Better)
	}
	return 0
}
