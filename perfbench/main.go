// Command perfbench is the repository's end-to-end benchmark.  It runs
// one seeded workload (bulk, pinstorm or collective) against the public
// APIs of cluster, proc, kagent, via, msg and mpi, verifies every op,
// audits the run, and prints its metrics by name with units.  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same op sequence runs again with benchmark-side spans around every
// layer call and the metrics are the per-layer ones.  See NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/leakcheck"
)

// setups is how many times a run builds its environment; setup_s is the
// median and the last build is the one measured.
const setups = 7

func main() {
	// One P: the simulated processes are goroutines that hand work to
	// each other, and with two or more Ps every hand-off is a cross-CPU
	// wake-up whose latency is set by the host, not by the code.  One P
	// keeps the wall metrics steady and makes every runner compare like
	// with like; the sim metrics are the same at any GOMAXPROCS.
	runtime.GOMAXPROCS(1)
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: bulk, pinstorm or collective")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "wall seconds to measure for (whole passes, at least one)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".", "directory for the Chrome trace export")
	flag.Parse()
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	// ops overrides the workload's pass length (the tests' smoke size).
	ops int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and writes a human-readable report to
// out.  The returned result is what the last line of output carries.
func run(cfg config, out io.Writer) (result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return result{}, fmt.Errorf("--trace must be 0 or 1")
	}
	n := w.ops
	if cfg.ops > 0 {
		n = cfg.ops
	}
	p := w.gen(rand.New(rand.NewSource(cfg.seed)), n)
	envInfo := environment(cfg, n)
	fmt.Fprintf(out, "# env %s\n", mustJSON(envInfo))

	base := leakcheck.Snapshot()
	var e env
	var setupTimes []float64
	// warm counts the warm-up ops of every set-up: they are verified like
	// measured ops and their failures count too.
	var warm report
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, err
			}
		}
		// Collect the previous build's garbage first, so each build is
		// timed alone.
		runtime.GC()
		t0 := time.Now()
		if e, err = w.setup(p); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		pr := runPass(e, p, min(w.warm, n), 0, nil)
		if pr.hung != nil {
			return result{}, pr.hung
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		warm.add(pr)
	}

	// Measured op ids start after the warm-up's, so every op of the
	// measured environment has its own id (and its own stamp).
	var res result
	var rep report
	if cfg.trace == 0 {
		rep, err = measure(e, p, w.warm, cfg.seconds)
	} else {
		rep, err = measureTraced(e, p, w.warm, cfg, envInfo)
	}
	if err != nil {
		return result{}, err
	}
	rep.setupS = median(setupTimes)

	// Audit: the kernels' own invariants, then teardown must leave no
	// goroutine behind.
	auditErr := checkNodes(e.cluster())
	if err := e.close(); err != nil {
		return result{}, err
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil && auditErr == nil {
		auditErr = err
	}

	rep.attempted += warm.attempted
	rep.failed += warm.failed
	if warm.firstErr != nil {
		rep.firstErr = fmt.Errorf("warm-up %w", warm.firstErr)
	}
	res.Attempted, res.Failed = rep.attempted, rep.failed
	res.Correct = rep.failed == 0 && auditErr == nil
	if cfg.trace == 0 {
		res.Metrics = rep.endToEnd()
	} else {
		res.Metrics = rep.perLayer()
	}
	fmt.Fprintf(out, "# %s seed=%d ops/pass=%d passes=%d attempted=%d failed=%d fail_frac=%g\n",
		w.name, cfg.seed, n, rep.passes, rep.attempted, rep.failed, safeDiv(float64(rep.failed), float64(rep.attempted)))
	if rep.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", rep.firstErr)
	}
	if auditErr != nil {
		fmt.Fprintf(out, "# audit failed: %v\n", auditErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "# %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// passResult is one pass over (a prefix of) the op sequence.
type passResult struct {
	costs  []cost
	failed int
	// firstEr is the first failed op's error; hung a wait that timed out.
	firstEr, hung error
}

// wall sums the pass's op wall times.
func (pr passResult) wall() time.Duration {
	var sum time.Duration
	for _, c := range pr.costs {
		sum += c.wall
	}
	return sum
}

// runPass runs ops [0, n) as op ids starting at id0.
func runPass(e env, p plan, n, id0 int, tr *tracer) passResult {
	var pr passResult
	pr.costs = make([]cost, 0, n)
	for i := 0; i < n; i++ {
		c, err := e.do(i, id0+i, tr)
		if err != nil {
			if errors.As(err, new(errHung)) {
				pr.hung = err
				return pr
			}
			pr.failed++
			if pr.firstEr == nil {
				pr.firstEr = fmt.Errorf("op %d (%s): %w", i, p.ops[i].kind, err)
			}
		}
		pr.costs = append(pr.costs, c)
	}
	return pr
}

// report collects what the measured phase saw.
type report struct {
	passes, attempted, failed int
	firstErr                  error
	// simPass is the first measured pass: the sim metrics come from it
	// alone, so they depend on the seed and nothing else.
	simPass []cost
	// walls are the op wall times of every measured pass; rates and
	// allocs are each pass's ops per wall second and allocations per op.
	walls         []time.Duration
	rates, allocs []float64
	heapMB        float64
	setupS        float64

	// Traced runs only: the traced passes' layer counters, spans, op
	// wall times, rank skew and GC activity, and the untraced passes'
	// throughput for the overhead.
	layers                   counters
	spans                    map[string]spanAgg
	spansDropped             int
	tracedWalls              []float64 // microseconds
	tracedWall, untracedWall time.Duration
	untracedOps              int
	skewSum                  time.Duration
	gcCycles                 uint32
	gcPause                  time.Duration
}

func (r *report) add(pr passResult) {
	r.passes++
	r.attempted += len(pr.costs)
	r.failed += pr.failed
	if r.firstErr == nil {
		r.firstErr = pr.firstEr
	}
	if r.simPass == nil {
		r.simPass = pr.costs
	}
	for _, c := range pr.costs {
		r.walls = append(r.walls, c.wall)
	}
	r.rates = append(r.rates, float64(len(pr.costs))/pr.wall().Seconds())
}

// measure runs whole passes of the op sequence, as op ids from id on,
// until seconds of wall time have gone by (at least one pass).
func measure(e env, p plan, id int, seconds float64) (report, error) {
	var r report
	var m0, m1 runtime.MemStats
	runtime.GC()
	start := time.Now()
	for r.passes == 0 || time.Since(start).Seconds() < seconds {
		runtime.ReadMemStats(&m0)
		pr := runPass(e, p, len(p.ops), id, nil)
		runtime.ReadMemStats(&m1)
		if pr.hung != nil {
			return r, pr.hung
		}
		id += len(p.ops)
		r.add(pr)
		r.allocs = append(r.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(pr.costs)))
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	return r, nil
}

// measureTraced alternates untraced and traced passes for the run's
// seconds; the per-layer metrics come from the traced passes, and the
// untraced ones give the tracing overhead.  The first traced pass is
// exported as Chrome trace JSON when the run ends.
func measureTraced(e env, p plan, id int, cfg config, envInfo map[string]any) (report, error) {
	var r report
	tr := newTracer(e.cluster().Meter)
	start := time.Now()
	firstTraced := -1
	var m0, m1 runtime.MemStats
	for traced := false; r.passes < 2 || time.Since(start).Seconds() < cfg.seconds; traced = !traced {
		var t *tracer
		c0 := e.counters()
		if traced {
			t = tr
			runtime.ReadMemStats(&m0)
			if firstTraced < 0 {
				firstTraced = id
			}
		}
		pr := runPass(e, p, len(p.ops), id, t)
		if pr.hung != nil {
			return r, pr.hung
		}
		id += len(p.ops)
		r.add(pr)
		if !traced {
			r.untracedOps += len(pr.costs)
			r.untracedWall += pr.wall()
			continue
		}
		runtime.ReadMemStats(&m1)
		r.gcCycles += m1.NumGC - m0.NumGC
		r.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		r.layers = r.layers.plus(e.counters().minus(c0))
		r.tracedWall += pr.wall()
		for _, c := range pr.costs {
			r.tracedWalls = append(r.tracedWalls, float64(c.wall)/1e3)
			r.skewSum += c.skew
		}
	}
	r.spans = tr.aggregate()
	r.spansDropped = tr.dropped
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		// One traced pass is the whole op sequence once; later traced
		// passes only repeat it, so the export stops there.
		if err := tr.writeChrome(path, firstTraced, firstTraced+len(p.ops), envInfo); err != nil {
			return r, fmt.Errorf("trace export: %w", err)
		}
	}
	return r, nil
}

// endToEnd is the untraced run's metric set.
func (r *report) endToEnd() map[string]metric {
	sims := make([]float64, len(r.simPass))
	var simSum float64
	for i, c := range r.simPass {
		sims[i] = c.sim.Micros()
		simSum += sims[i]
	}
	walls := make([]float64, len(r.walls))
	for i, w := range r.walls {
		walls[i] = float64(w) / 1e3
	}
	return map[string]metric{
		"ops_per_s":     {median(r.rates), "1/s"},
		"wall_p50_us":   {percentile(walls, 50), "us"},
		"sim_us_per_op": {simSum / float64(len(sims)), "us"},
		"sim_p99_us":    {percentile(sims, 99), "us"},
		"allocs_per_op": {median(r.allocs), "1/op"},
		"heap_mb":       {r.heapMB, "MiB"},
		"setup_s":       {r.setupS, "s"},
	}
}

// perLayer is the traced run's metric set.  Every workload reports every
// metric; a layer the workload does not call reads 0.
func (r *report) perLayer() map[string]metric {
	ops := float64(len(r.tracedWalls))
	per := func(n uint64) float64 { return safeDiv(float64(n), ops) }
	l := r.layers
	sp := func(name string) spanAgg { return r.spans[name] }
	tracedRate := safeDiv(ops, r.tracedWall.Seconds())
	untracedRate := safeDiv(float64(r.untracedOps), r.untracedWall.Seconds())
	return map[string]metric{
		"mm.pressure.wall_us":        {sp("mm.pressure").wallUs(), "us"},
		"mm.pressure.sim_us":         {sp("mm.pressure").simUs(), "us"},
		"mm.verify.wall_us":          {sp("mm.verify").wallUs(), "us"},
		"mm.swap_outs_per_op":        {per(l[swapOuts]), "1/op"},
		"mm.swap_ins_per_op":         {per(l[swapIns]), "1/op"},
		"mm.major_faults_per_op":     {per(l[majorFaults]), "1/op"},
		"mm.clock_scans_per_reclaim": {safeDiv(float64(l[clockScans]), float64(l[reclaims])), "1/reclaim"},
		"kagent.register.wall_us":    {sp("kagent.register").wallUs(), "us"},
		"kagent.register.sim_us":     {sp("kagent.register").simUs(), "us"},
		"kagent.deregister.wall_us":  {sp("kagent.deregister").wallUs(), "us"},
		"kagent.deregister.sim_us":   {sp("kagent.deregister").simUs(), "us"},
		"kagent.consistent_frac":     {safeDiv(float64(l[consistentPages]), float64(l[probedPages])), "ratio"},
		"kagent.nested_frac":         {per(l[nestedOps]), "ratio"},
		"regcache.hit_ratio":         {safeDiv(float64(l[hits]), float64(l[hits]+l[misses])), "ratio"},
		"regcache.misses_per_op":     {per(l[misses]), "1/op"},
		"regcache.evictions_per_op":  {per(l[evictions]), "1/op"},
		"via.dma_write.wall_us":      {sp("via.dma_write").wallUs(), "us"},
		"via.inline_sends_per_op":    {per(l[inlineSends]), "1/op"},
		"via.doorbells_per_op":       {per(l[doorbells]), "1/op"},
		"via.doorbells_saved_per_op": {per(l[doorbellsSaved]), "1/op"},
		"via.bytes_tx_per_op":        {per(l[bytesTX]), "B/op"},
		"via.cqmux.parks_per_op":     {per(l[parks]), "1/op"},
		"msg.send_onecopy.wall_us":   {sp("msg.send_onecopy").wallUs(), "us"},
		"msg.send_onecopy.sim_us":    {sp("msg.send_onecopy").simUs(), "us"},
		"msg.send_zerocopy.wall_us":  {sp("msg.send_zerocopy").wallUs(), "us"},
		"msg.send_zerocopy.sim_us":   {sp("msg.send_zerocopy").simUs(), "us"},
		"msg.send_remap.wall_us":     {sp("msg.send_remap").wallUs(), "us"},
		"msg.send_remap.sim_us":      {sp("msg.send_remap").simUs(), "us"},
		"msg.recv.wall_us":           {sp("msg.recv").wallUs(), "us"},
		"msg.pipeline_chunks_per_op": {per(l[pipelineChunks]), "1/op"},
		"msg.fallbacks_per_op":       {per(l[fallbacks]), "1/op"},
		"mpi.allreduce.wall_us":      {sp("mpi.allreduce").wallUs(), "us"},
		"mpi.allreduce.sim_us":       {sp("mpi.allreduce").simUs(), "us"},
		"mpi.bcast.wall_us":          {sp("mpi.bcast").wallUs(), "us"},
		"mpi.bcast.sim_us":           {sp("mpi.bcast").simUs(), "us"},
		"mpi.rank_skew_us":           {safeDiv(float64(r.skewSum)/1e3, ops), "us"},
		"go.gc_cycles_per_kop":       {safeDiv(float64(r.gcCycles)*1e3, ops), "1/kop"},
		"go.gc_pause_total_ms":       {float64(r.gcPause) / 1e6, "ms"},
		"run.wall_p99_us":            {percentile(r.tracedWalls, 99), "us"},
		"trace.overhead_frac":        {1 - safeDiv(tracedRate, untracedRate), "ratio"},
		"trace.spans_dropped":        {float64(r.spansDropped), "count"},
	}
}

// percentile is the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// environment records what a comparison between runs must hold fixed.
func environment(cfg config, ops int) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "ops_per_pass": ops,
		"seconds": cfg.seconds, "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commit, "commit_modified": modified,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
