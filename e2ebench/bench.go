package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"graphalign"
	"graphalign/internal/graph"
	"graphalign/internal/metrics"
	"graphalign/internal/obsv"
	"graphalign/internal/obsv/tracefile"
)

const (
	// maxProcs caps GOMAXPROCS and every Workers option. On a two-vCPU
	// host a second busy thread slows the first by up to 1.6x depending on
	// what the neighbours run, so parallel runs measure the host more than
	// the code; results are identical for any worker count.
	maxProcs = 1
	// minPasses is the fewest untraced passes a run reports on. Host
	// interference only ever adds time, so a step's time is its fastest
	// pass: over ten dense-paper runs at n=300 that halved the spread of
	// pass_s against the per-step median (IQR 8% against 16% of the
	// median).
	minPasses = 3
	// hardStop ends the passes early, after at least one, however few
	// have run.
	hardStop = 120 * time.Second
	// Each round of set-up draws repeats until setupBudget has been spent,
	// at least once and at most maxSetups times.
	maxSetups   = 50
	setupBudget = 100 * time.Millisecond
)

type config struct {
	w       *workload
	p       params
	seed    int64
	seconds time.Duration
	trace   bool
	// outDir receives the trace file.
	outDir string
	log    io.Writer
}

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: every end-to-end metric, and with tracing
// every per-layer metric.
type report struct {
	attempted, failed int
	e2e, layers       map[string]metric
	diag              map[string]any
}

// stepRecord collects one step's measurements across passes.
type stepRecord struct {
	name             string
	wall, cpu, alloc []float64
	// mapping and scores come from the first pass, which every later pass
	// must reproduce exactly.
	mapping []int
	scores  metrics.Scores
	ok      bool
}

// tally counts attempted and failed step executions, logging the first
// failures.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) fail(what string, err error) {
	t.failed++
	if t.failed <= 10 {
		fmt.Fprintf(t.log, "e2ebench: FAIL %s: %v\n", what, err)
	}
}

// run executes one benchmark run: set-up, untraced passes for cfg.seconds,
// and with cfg.trace one traced pass.
func run(ctx context.Context, cfg config) (*report, error) {
	procs := min(runtime.NumCPU(), maxProcs)
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	steal0, total0, hostErr := hostTicks()
	t := &tally{log: cfg.log}

	refMS := []float64{refKernelMS()}

	// Set-up: draw the instances repeatedly, GC'd before each draw, at the
	// start and again after every pass, so that setup_s, the median draw,
	// samples the host across the whole run rather than one moment of it.
	// Every draw must give the same instances.
	var insts []*instance
	var genMS []float64
	setup := func() error {
		var spent time.Duration
		for i := 0; i < maxSetups && (i == 0 || spent < setupBudget); i++ {
			runtime.GC()
			t0 := time.Now()
			next, err := generate(cfg.p, cfg.seed)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("generate: %w", err)
			}
			genMS = append(genMS, ms(d))
			spent += d
			if insts == nil {
				insts = next
			} else if !sameInstances(insts, next) {
				return fmt.Errorf("generate: seed %d gave two different instance sets", cfg.seed)
			}
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	var recs []*stepRecord
	var prepMS []float64
	start := time.Now()
	for passes := 0; ; {
		runtime.GC()
		t0 := time.Now()
		steps, _, err := cfg.w.pass(ctx, cfg.p, insts, procs, nil)
		if err != nil {
			return nil, err
		}
		prepMS = append(prepMS, ms(time.Since(t0)))
		if recs == nil {
			for _, s := range steps {
				recs = append(recs, &stepRecord{name: s.name})
			}
		}
		for i, s := range steps {
			o, wall, cpu, alloc, err := execStep(ctx, s, nil)
			r := recs[i]
			r.wall = append(r.wall, wall.Seconds())
			r.cpu = append(r.cpu, cpu.Seconds())
			r.alloc = append(r.alloc, float64(alloc)/mib)
			t.attempted++
			if err = check(o, err, s.inst, r, passes == 0); err != nil {
				t.fail(fmt.Sprintf("pass %d step %s", passes, s.name), err)
				continue
			}
			if passes == 0 {
				r.ok = true
				r.mapping = o.mapping
				r.scores = metrics.All(s.inst.src, o.dst, o.mapping, s.inst.truth)
			}
		}
		refMS = append(refMS, refKernelMS())
		if err := setup(); err != nil {
			return nil, err
		}
		passes++
		el := time.Since(start)
		avg := el / time.Duration(passes)
		if el > hardStop || (passes >= minPasses && el+avg > cfg.seconds) {
			break
		}
	}
	rss, rssErr := peakRSS()

	rep := &report{e2e: map[string]metric{}}
	var passS, passMedS, cpuS, allocMB float64
	var stepMS []float64
	for _, r := range recs {
		w := slices.Min(r.wall)
		passS += w
		passMedS += median(r.wall)
		cpuS += slices.Min(r.cpu)
		allocMB += median(r.alloc)
		stepMS = append(stepMS, w*1e3)
		fmt.Fprintf(cfg.log, "%-18s min %9.2f ms  median %9.2f  max %9.2f  over %d passes\n",
			r.name, w*1e3, median(r.wall)*1e3, slices.Max(r.wall)*1e3, len(r.wall))
	}
	var q metrics.Scores
	for _, r := range recs {
		q.Accuracy += r.scores.Accuracy
		q.EC += r.scores.EC
		q.ICS += r.scores.ICS
		q.S3 += r.scores.S3
		q.MNC += r.scores.MNC
	}
	k := float64(len(recs))
	if rssErr != nil {
		t.fail("peak RSS", rssErr)
	}

	if cfg.trace {
		layers, err := tracedPass(ctx, cfg, insts, procs, recs, t)
		if err != nil {
			return nil, err
		}
		layers["gen.instance_ms"] = median(genMS)
		layers["tracing.overhead_frac"] = layers["pass_ms"]/(passMedS*1e3) - 1
		delete(layers, "pass_ms")
		rep.layers = map[string]metric{}
		for _, name := range layerNames() {
			rep.layers[name] = metric{layers[name], layerUnit(name)}
			delete(layers, name)
		}
		for name := range layers {
			t.fail("per-layer metrics", fmt.Errorf("undeclared metric %q", name))
		}
	}

	okFrac := 1 - float64(t.failed)/float64(t.attempted)
	for name, v := range map[string]float64{
		"setup_s":         (median(genMS) + median(prepMS)) / 1e3,
		"pass_s":          passS,
		"cpu_s":           cpuS,
		"step_geomean_ms": geomean(stepMS),
		"peak_rss_mb":     rss,
		"alloc_mb":        allocMB,
		"ok_frac":         okFrac,
		"accuracy":        q.Accuracy / k,
		"ec":              q.EC / k,
		"ics":             q.ICS / k,
		"s3":              q.S3 / k,
		"mnc":             q.MNC / k,
	} {
		rep.e2e[name] = metric{v, e2eUnits[name]}
	}
	rep.attempted, rep.failed = t.attempted, t.failed

	rep.diag = map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "passes": len(recs[0].wall),
		"steps": len(recs), "setups": len(genMS), "n": cfg.p.n,
		"gomaxprocs": procs, "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"host_ref_ms": median(refMS), "host_ref_max_ms": slices.Max(refMS),
	}
	// Host CPU steal over the run: spread that tracks it comes from the
	// host, not from the code.
	steal1, total1, err := hostTicks()
	switch {
	case hostErr != nil:
		rep.diag["host_steal_err"] = hostErr.Error()
	case err != nil:
		rep.diag["host_steal_err"] = err.Error()
	case total1 > total0:
		rep.diag["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	return rep, nil
}

// execStep runs one step with the heap GC'd first, and measures its wall
// time, CPU time and heap allocation. A panic is reported as an error.
func execStep(ctx context.Context, s step, tr *obsv.Tracer) (o *outcome, wall, cpu time.Duration, alloc uint64, err error) {
	runtime.GC()
	a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		o, err = s.run(ctx, tr)
	}()
	return o, time.Since(t0), cpuTime() - c0, heapAllocs() - a0, err
}

// check applies the output contracts to one step execution: no error, a
// mapping that injects every source node into the target, no broken
// step-specific contract, and after the first pass the first pass's
// mapping byte for byte.
func check(o *outcome, err error, inst *instance, r *stepRecord, first bool) error {
	if err != nil {
		return err
	}
	if err := validMapping(o.mapping, inst.src.N(), o.dst); err != nil {
		return err
	}
	if o.violation != nil {
		return o.violation
	}
	if !first && r.ok && !slices.Equal(o.mapping, r.mapping) {
		return fmt.Errorf("mapping differs from the first pass")
	}
	return nil
}

// validMapping checks that m maps each of the n source nodes to a distinct
// node of dst.
func validMapping(m []int, n int, dst *graph.Graph) error {
	if dst == nil || len(m) != n {
		return fmt.Errorf("mapping has %d entries for %d source nodes", len(m), n)
	}
	seen := make([]bool, dst.N())
	for u, v := range m {
		if v < 0 || v >= dst.N() {
			return fmt.Errorf("source node %d mapped to %d, outside [0,%d)", u, v, dst.N())
		}
		if seen[v] {
			return fmt.Errorf("target node %d mapped twice", v)
		}
		seen[v] = true
	}
	return nil
}

// tracedPass runs one pass with every layer call inside obsv spans, writes
// the trace as JSONL, reads it back the way alignstat summary does, and
// returns the per-layer metrics plus the traced pass's step time as
// "pass_ms". Its mappings must equal the untraced first pass's.
func tracedPass(ctx context.Context, cfg config, insts []*instance, procs int, recs []*stepRecord, t *tally) (map[string]float64, error) {
	dir := filepath.Join(cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	sink := obsv.NewWriterSink(bw)
	tr := obsv.New(sink).SetTraceID(fmt.Sprintf("e2ebench-%s-seed%d", cfg.w.name, cfg.seed))
	tr.EmitTraceMeta(map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "n": cfg.p.n,
		"gomaxprocs": procs, "go": runtime.Version(),
	})

	steps, prep, err := cfg.w.pass(ctx, cfg.p, insts, procs, tr)
	if err != nil {
		return nil, err
	}
	samples := prep.layers
	var passMS, scoreMS float64
	for i, s := range steps {
		o, wall, _, _, err := execStep(ctx, s, tr)
		passMS += ms(wall)
		t.attempted++
		if err = check(o, err, s.inst, recs[i], false); err != nil {
			t.fail("traced step "+s.name, err)
			continue
		}
		for _, f := range o.after {
			f()
		}
		for name, xs := range o.layers {
			samples[name] = append(samples[name], xs...)
		}
		run := tr.StartRun("metrics", map[string]any{"step": s.name})
		d, _, _ := layer(run, "score", func(*obsv.Span) error {
			metrics.All(s.inst.src, o.dst, o.mapping, s.inst.truth)
			return nil
		})
		run.End()
		scoreMS += ms(d)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if err := checkTrace(path, len(steps)); err != nil {
		t.attempted++
		t.fail("trace", err)
	}
	fmt.Fprintf(cfg.log, "trace written to %s\n", path)

	out := aggregate(samples)
	out["metrics.score_ms"] = scoreMS
	out["pass_ms"] = passMS
	return out, nil
}

// checkTrace reads the trace back with the parser alignstat summary uses
// and checks that it is whole: no torn tail, no unfinished run, and at
// least one run per step.
func checkTrace(path string, steps int) error {
	trace, err := tracefile.ReadFiles(path)
	if err != nil {
		return err
	}
	sum := tracefile.Summarize(trace)
	if sum.TornTail > 0 {
		return fmt.Errorf("torn tail")
	}
	runs := 0
	for _, r := range sum.Runs {
		if r.Incomplete > 0 {
			return fmt.Errorf("%d unfinished %s runs", r.Incomplete, r.Algo)
		}
		runs += r.Count
	}
	if runs < steps {
		return fmt.Errorf("%d runs for %d steps", runs, steps)
	}
	return nil
}

// aggregate turns per-layer samples into metrics: apply times into their
// p50 and p90, fractions into means, and everything else into sums.
func aggregate(samples map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range samples {
		if algo, ok := strings.CutPrefix(name, "incremental.apply_ms."); ok {
			out["incremental.apply_p50_ms."+algo] = quantile(xs, 0.5)
			out["incremental.apply_p90_ms."+algo] = quantile(xs, 0.9)
			continue
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		if strings.Contains(name, "_frac") {
			s /= float64(len(xs))
		}
		out[name] = s
	}
	return out
}

// e2eUnits names every end-to-end metric with its unit.
var e2eUnits = map[string]string{
	"setup_s": "s", "pass_s": "s", "cpu_s": "s", "step_geomean_ms": "ms",
	"peak_rss_mb": "MiB", "alloc_mb": "MiB", "ok_frac": "frac",
	"accuracy": "frac", "ec": "frac", "ics": "frac", "s3": "frac", "mnc": "frac",
}

// layerNames lists every per-layer metric. A workload that does not run a
// layer reports it as 0.
func layerNames() []string {
	var names []string
	for _, a := range graphalign.Algorithms() {
		names = append(names, "algo.sim_ms."+a, "algo.sim_alloc_mb."+a, "assign.solve_ms."+a)
	}
	for _, a := range []string{"REGAL", "NSD"} {
		names = append(names,
			"partition.align_ms."+a, "partition.stitch_ms."+a, "partition.boundary_frac."+a, "partition.rebound."+a,
			"incremental.cold_ms."+a, "incremental.apply_p50_ms."+a, "incremental.apply_p90_ms."+a,
			"incremental.refresh_ms."+a, "incremental.candidates_ms."+a, "incremental.solve_ms."+a,
			"incremental.dirty_frac."+a, "incremental.warm_frac."+a)
	}
	return append(names, "partition.intra_edge_frac", "metrics.score_ms", "gen.instance_ms", "tracing.overhead_frac")
}

func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_mb"):
		return "MiB"
	case strings.Contains(name, "_frac"):
		return "frac"
	}
	return "count"
}

// finite returns an error naming a metric whose value is not a finite
// number.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
