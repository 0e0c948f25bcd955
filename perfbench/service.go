package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autofl"
	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/svc"
)

// setupSamples is how many extra daemon set-ups a run times.
const setupSamples = 20

// workerNames name the daemon's dial-in workers, each of parallelism 1.
var workerNames = []string{"w1", "w2"}

// pollInterval is the client's Client.Wait poll interval: a finished
// job is noticed up to one interval late.
const pollInterval = 10 * time.Millisecond

// The sweep-service job sequence walks a chain of testbed scenarios
// (workload × setting × data × environment) in which neighbours differ
// in one axis, so two neighbours form a grid. Each "long" job runs its
// chain link and the one before it at the paper's 1000-round horizon
// with all eight policies: the older scenario was computed by the job
// before (8 cache hits) and the newer one is new (8 misses). Every
// fourth job is "short": one scenario at 100 rounds as two replicates,
// where replicate 0 is served from the 1000-round entries by
// trace-prefix replay and replicate 1 is new. Every job is thus half
// reads and half writes, and the first job, which primes the chain, is
// its only all-miss job.
var (
	chainWorkloads = []string{string(autofl.CNNMNIST), string(autofl.LSTMShakespeare)}
	chainSettings  = []string{"S1", "S2", "S3", "S4"}
	chainData      = []string{string(autofl.IdealIID), string(autofl.NonIID50)}
	chainEnvs      = []string{
		string(autofl.EnvIdeal), string(autofl.EnvInterference),
		string(autofl.EnvWeakNetwork), string(autofl.EnvField),
	}
)

// sweepPlan is the job sequence a sweep-service pass submits.
type sweepPlan struct {
	jobs               int
	longRounds, shortR int
	policies           []string
}

func (p sweepPlan) specs(gridSeed uint64) []svc.JobSpec {
	chain := snake([]int{len(chainWorkloads), len(chainSettings), len(chainData), len(chainEnvs)})
	grid := func(links ...[]int) sweep.Grid {
		g := sweep.Grid{Policies: p.policies, Seed: gridSeed}
		for _, l := range links {
			g.Workloads = appendNew(g.Workloads, chainWorkloads[l[0]])
			g.Settings = appendNew(g.Settings, chainSettings[l[1]])
			g.Data = appendNew(g.Data, chainData[l[2]])
			g.Envs = appendNew(g.Envs, chainEnvs[l[3]])
		}
		return g
	}
	specs := []svc.JobSpec{{Grid: grid(chain[0]), Rounds: p.longRounds, Name: "prime"}}
	for i := 1; len(specs) < p.jobs; i++ {
		specs = append(specs, svc.JobSpec{Grid: grid(chain[i-1], chain[i]), Rounds: p.longRounds, Name: "long"})
		if i%3 == 0 && len(specs) < p.jobs {
			g := grid(chain[i])
			g.Replicates = 2
			specs = append(specs, svc.JobSpec{Grid: g, Rounds: p.shortR, Name: "short"})
		}
	}
	return specs
}

func appendNew(xs []string, x string) []string {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// snake lists every point of a mixed-radix grid so that consecutive
// points differ in exactly one coordinate (a reflected Gray code).
func snake(radix []int) [][]int {
	if len(radix) == 0 {
		return [][]int{{}}
	}
	sub := snake(radix[1:])
	var out [][]int
	for v := 0; v < radix[0]; v++ {
		for j := range sub {
			s := sub[j]
			if v%2 == 1 {
				s = sub[len(sub)-1-j]
			}
			out = append(out, append([]int{v}, s...))
		}
	}
	return out
}

// jobRecord is what the client saw of one job.
type jobRecord struct {
	spec         svc.JobSpec
	submit, seen time.Time // Submit called; terminal state seen
	done         time.Time // Result bytes in hand
	// Process CPU time (see cpuNow) at submit and at done.
	cpuSubmit, cpuDone time.Duration
	resultCall         time.Duration
	final              svc.JobStatus
	sum                [sha256.Size]byte // of the result bytes; not kept, so the heap stays the daemon's
	statusCalls        int64
}

// passRecord is one daemon lifetime: set-up, the job sequence, and
// the state left behind.
type passRecord struct {
	setup, setupCPU time.Duration
	jobs            []jobRecord
	heap            float64 // live heap the daemon holds after its last job
	dirBytes        int64
	// Worker-side cell spans are in the recorder; busy is their total.
	cellBusy time.Duration
}

// sweepService runs an in-process sweepd — svc.New with a cache
// directory and a worker Registry, its HTTP API on loopback — with
// two dial-in loopback workers of parallelism 1, driven by one
// closed-loop client. Each pass starts a fresh daemon on an empty
// cache and submits the same job sequence.
func sweepService(o options, res *result) error {
	plan := sweepPlan{jobs: 24, longRounds: 1000, shortR: 100}
	for _, p := range autofl.Policies() {
		plan.policies = append(plan.policies, string(p))
	}
	if o.short {
		plan = sweepPlan{jobs: 5, longRounds: 30, shortR: 10, policies: plan.policies}
	}
	specs := plan.specs(o.seed)
	work := filepath.Join(o.dir, "work", fmt.Sprintf("sweep-%d", os.Getpid()))
	defer os.RemoveAll(work)

	want, err := serialReference(specs)
	if err != nil {
		return err
	}

	// Set-up is a millisecond or two, so it is sampled many times
	// beyond the passes' own.
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		d := newDaemon(filepath.Join(work, fmt.Sprintf("setup%d", i)), nil)
		start := cpuNow()
		err := d.start()
		setups = append(setups, (cpuNow() - start).Seconds())
		d.stop()
		if err != nil {
			return err
		}
	}
	plain, traced, err := repeatFor(o, 2, 1, func(i int, traced bool) (passRecord, error) {
		if traced {
			return servicePass(specs, filepath.Join(work, fmt.Sprintf("t%d", i)), res.rec)
		}
		return servicePass(specs, filepath.Join(work, fmt.Sprint(i)), nil)
	})
	if err != nil {
		return err
	}

	all := append(append([]passRecord(nil), plain...), traced...)
	checkPasses(all, want, res)

	// The end-to-end figures are CPU time: throughput over all passes,
	// per-job time the median; wall time is reported per layer.
	var latencies, jobCPU, heaps, rates []float64
	var cells int
	var passCPU time.Duration
	for _, p := range plain {
		setups = append(setups, p.setupCPU.Seconds())
		heaps = append(heaps, p.heap)
		for _, j := range p.jobs {
			latencies = append(latencies, j.done.Sub(j.submit).Seconds())
			jobCPU = append(jobCPU, (j.cpuDone - j.cpuSubmit).Seconds())
		}
		rates = append(rates, p.cellsPerSecond())
		cells += p.cells()
		passCPU += p.jobs[len(p.jobs)-1].cpuDone - p.jobs[0].cpuSubmit
	}
	rate := median(rates)
	res.e2e("setup_s", median(setups))
	res.e2e("work_per_cpu_s", float64(cells)/passCPU.Seconds())
	res.e2e("cpu_ms_per_op_p50", median(jobCPU)*1e3)
	res.e2e("live_heap_mb", median(heaps)/1e6)
	if !o.trace {
		return nil
	}

	res.layer("cells_per_s", rate)
	res.layer("job_latency_p50_s", median(latencies))
	res.tail(scaled(latencies, 1e3))
	tWall := 0.0
	var tRates, queue, runMS, result, lag, calls []float64
	var busy time.Duration
	for _, p := range traced {
		for _, j := range p.jobs {
			f := j.final
			if f.StartedAt != nil && f.FinishedAt != nil {
				queue = append(queue, ms(f.StartedAt.Sub(f.SubmittedAt)))
				runMS = append(runMS, ms(f.FinishedAt.Sub(*f.StartedAt)))
				lag = append(lag, ms(j.seen.Sub(*f.FinishedAt)))
			}
			result = append(result, ms(j.resultCall))
			calls = append(calls, float64(j.statusCalls))
		}
		tRates = append(tRates, p.cellsPerSecond())
		tWall += p.wall().Seconds()
		busy += p.cellBusy
	}
	res.layer("trace.overhead_frac", rate/median(tRates)-1)
	res.layer("svc.queue_ms_p50", median(queue))
	res.layer("svc.run_ms_p50", median(runMS))
	res.layer("svc.result_ms_p50", median(result))
	res.layer("svc.notify_lag_ms_p50", median(lag))
	res.layer("svc.status_calls_per_job", mean(calls))

	cellMS := res.rec.durations("sweep.Cell", "", time.Millisecond)
	res.layer("sweep.cell_ms_p50", median(cellMS))
	res.layer("sweep.cell_ms_p99", quantile(cellMS, 0.99))
	for _, p := range plan.policies {
		res.layer("sweep.cell_ms_p50."+p, median(res.rec.durations("sweep.Cell", p, time.Millisecond)))
	}
	res.layer("sweep.worker_busy_frac", busy.Seconds()/(tWall*float64(len(workerNames))))

	// Counts are per pass: the job sequence fixes them.
	first := traced[0]
	var hits, prefix, misses, executed, requeues int
	perWorker := map[string]int{}
	for _, j := range first.jobs {
		hits += j.final.CacheHits
		prefix += j.final.CachePrefixHits
		misses += j.final.CacheMisses
		requeues += j.final.Requeues
		for w, n := range j.final.Workers {
			perWorker[w] += n
			executed += n
		}
	}
	res.layer("sweep.cells_executed", float64(executed))
	res.layer("cache.hits", float64(hits))
	res.layer("cache.prefix_hits", float64(prefix))
	res.layer("cache.misses", float64(misses))
	res.layer("cache.dir_bytes", float64(first.dirBytes))
	res.layer("dist.requeues", float64(requeues))
	if len(perWorker) == len(workerNames) {
		lo, hi := -1, 0
		for _, n := range perWorker {
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		if lo > 0 {
			res.layer("dist.worker_cells_max_over_min", float64(hi)/float64(lo))
		}
	}
	return nil
}

// cellsPerSecond is the cells the pass delivered, cache hits included,
// over its wall time.
func (p passRecord) cellsPerSecond() float64 { return float64(p.cells()) / p.wall().Seconds() }

func (p passRecord) cells() int {
	cells := 0
	for _, j := range p.jobs {
		cells += j.final.Total
	}
	return cells
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wall is the pass's wall time from the first Submit to the last
// Result bytes.
func (p passRecord) wall() time.Duration {
	return p.jobs[len(p.jobs)-1].done.Sub(p.jobs[0].submit)
}

// checkPasses counts every delivered cell as attempted and fails the
// cells of jobs that did not finish cleanly; any job whose JSON is
// not byte-identical to the serial local run (compared by SHA-256) is
// a problem.
func checkPasses(passes []passRecord, want [][sha256.Size]byte, res *result) {
	for pi, p := range passes {
		for ji, j := range p.jobs {
			f := j.final
			res.Attempted += max(f.Total, 1)
			switch {
			case f.State != svc.StateDone:
				res.Failed += max(f.Total, 1)
				res.problemf("pass %d job %d ended %s: %s", pi, ji, f.State, f.Error)
			case f.FailedCells > 0 || f.Requeues > 0:
				res.Failed += f.FailedCells + f.Requeues
				res.problemf("pass %d job %d: %d failed cells, %d requeues", pi, ji, f.FailedCells, f.Requeues)
			}
			if f.State == svc.StateDone && j.sum != want[ji] {
				res.problemf("pass %d job %d result differs from a serial local sweep.Run of its grid", pi, ji)
			}
		}
	}
}

// serialReference computes the SHA-256 of every job's expected result
// bytes with a local serial sweep.Run of its grid. Cells are pure
// functions of (cell, seed, horizon), so a cell that several grids
// share is computed once and reused; no cache layer is involved.
func serialReference(specs []svc.JobSpec) ([][sha256.Size]byte, error) {
	type key struct {
		cell   sweep.Cell
		seed   uint64
		rounds int
	}
	memo := map[key]sweep.Outcome{}
	var out [][sha256.Size]byte
	for _, spec := range specs {
		inner := autofl.SweepRunner(spec.Rounds)
		run := func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			k := key{c, seed, spec.Rounds}
			if o, ok := memo[k]; ok {
				return o, nil
			}
			o, err := inner(ctx, c, seed)
			if err == nil {
				memo[k] = o
			}
			return o, err
		}
		store, err := sweep.Run(context.Background(), spec.Grid, run, sweep.Options{Parallel: 1})
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		var b bytes.Buffer
		if err := store.WriteJSON(&b); err != nil {
			return nil, err
		}
		out = append(out, sha256.Sum256(b.Bytes()))
	}
	return out, nil
}

// servicePass starts a daemon and two workers, submits every job in
// order (each after the previous one's result is in hand), and shuts
// everything down. With rec, it times the client's calls per job, the
// workers' cells, and counts the client's status polls.
func servicePass(specs []svc.JobSpec, dir string, rec *recorder) (passRecord, error) {
	var p passRecord
	base := liveHeapBytes()
	d := newDaemon(dir, rec)
	defer d.stop()
	startCPU, start := cpuNow(), time.Now()
	if err := d.start(); err != nil {
		return p, err
	}
	p.setup, p.setupCPU = time.Since(start), cpuNow()-startCPU
	if rec != nil {
		rec.add("svc.Setup", "", -1, 0, start, start.Add(p.setup))
	}

	ctx := context.Background()
	client := d.client
	for i, spec := range specs {
		var j jobRecord
		var jobSpan int
		if rec != nil {
			jobSpan = rec.begin("svc.Job", -1, int64(i), false)
			rec.parent.Store(int64(jobSpan))
			d.job.Store(int64(i))
		}
		calls0 := d.statusCalls.Load()
		j.cpuSubmit, j.submit = cpuNow(), time.Now()
		st, err := client.Submit(ctx, spec)
		if err != nil {
			return p, fmt.Errorf("submit job %d: %w", i, err)
		}
		submitted := time.Now()
		j.final, err = client.Wait(ctx, st.ID, pollInterval, nil)
		if err != nil {
			return p, fmt.Errorf("wait job %d: %w", i, err)
		}
		j.seen = time.Now()
		if j.final.State == svc.StateDone {
			body, err := client.Result(ctx, st.ID, "json")
			if err != nil {
				return p, fmt.Errorf("result job %d: %w", i, err)
			}
			j.sum = sha256.Sum256(body)
		}
		j.done, j.cpuDone = time.Now(), cpuNow()
		j.resultCall = j.done.Sub(j.seen)
		j.statusCalls = d.statusCalls.Load() - calls0
		if rec != nil {
			rec.add("svc.Submit", "", jobSpan, int64(i), j.submit, submitted)
			rec.add("svc.Wait", "", jobSpan, int64(i), submitted, j.seen)
			rec.add("svc.Result", "", jobSpan, int64(i), j.seen, j.done)
			rec.end(jobSpan, false)
		}
		p.jobs = append(p.jobs, j)
	}
	p.heap = liveHeapBytes() - base
	p.dirBytes = dirSize(dir)
	p.cellBusy = time.Duration(d.cellBusy.Load())
	return p, nil
}

// daemon is one in-process sweepd with its two dial-in workers.
type daemon struct {
	dir string
	rec *recorder

	reg     *svc.Registry
	workers []*dist.Worker
	service *svc.Service
	ln      net.Listener
	srv     *http.Server
	hc      *http.Client
	client  *svc.Client
	wg      sync.WaitGroup // Register loops and the HTTP server

	job         atomic.Int64 // sequence number of the job in flight
	statusCalls atomic.Int64
	cellBusy    atomic.Int64 // ns of worker-side cell execution
}

func newDaemon(dir string, rec *recorder) *daemon { return &daemon{dir: dir, rec: rec} }

// runners is the dist.RunnerFor handed to each worker: the scenario
// bridge, wrapped to time every cell when tracing.
func (d *daemon) runners(rounds int, traced bool) sweep.Runner {
	inner := autofl.SweepRunners(rounds, traced)
	if d.rec == nil {
		return inner
	}
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		parent, job := int(d.rec.parent.Load()), d.job.Load()
		start := time.Now()
		out, err := inner(ctx, c, seed)
		end := time.Now()
		d.rec.add("sweep.Cell", c.Policy, parent, job, start, end)
		d.cellBusy.Add(int64(end.Sub(start)))
		return out, err
	}
}

func (d *daemon) start() error {
	d.reg = svc.NewRegistry()
	regAddr, err := d.reg.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for _, name := range workerNames {
		w, err := dist.NewDialWorker(name, 1, d.runners)
		if err != nil {
			return err
		}
		d.workers = append(d.workers, w)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = w.Register(context.Background(), regAddr, dist.RegisterOptions{MinBackoff: 5 * time.Millisecond})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); d.reg.Len() < len(workerNames); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers never registered (have %d)", d.reg.Len())
		}
	}
	d.service, err = svc.New(svc.Config{Runners: d.runners, Registry: d.reg, CacheDir: d.dir})
	if err != nil {
		return err
	}
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	h := d.service.Handler()
	if d.rec != nil {
		h = d.countStatus(h)
	}
	d.srv = &http.Server{Handler: h}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.srv.Serve(d.ln) // returns ErrServerClosed on stop
	}()
	d.hc = &http.Client{Transport: &http.Transport{}}
	d.client = &svc.Client{BaseURL: "http://" + d.ln.Addr().String(), HTTP: d.hc}
	return nil
}

// countStatus counts the client's status polls (GET /v1/sweeps/{id}).
func (d *daemon) countStatus(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(strings.Trim(r.URL.Path, "/"), "/") == 2 &&
			strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
			d.statusCalls.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// stop shuts the daemon down and waits for every goroutine it started.
func (d *daemon) stop() {
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
	if d.service != nil {
		_ = d.service.Close()
	}
	for _, w := range d.workers {
		_ = w.Close()
	}
	if d.reg != nil {
		_ = d.reg.Close()
	}
	d.wg.Wait()
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, ierr := e.Info(); ierr == nil && !e.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
