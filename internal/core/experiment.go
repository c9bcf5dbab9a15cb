package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/data"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
	"graphalign/internal/parallel"
)

// Options configure an experiment run. The zero value is not usable; call
// DefaultOptions and override fields.
type Options struct {
	// Factory instantiates algorithms by name (required).
	Factory Factory
	// Scale shrinks the paper's graph sizes to fit the local machine;
	// 1.0 reproduces the paper's sizes exactly. See DESIGN.md
	// substitution 6.
	Scale float64
	// Reps is the number of noisy instances averaged per point (the paper
	// uses 10 for synthetic graphs and 5 for the high-noise and
	// scalability experiments).
	Reps int
	// Algorithms restricts the algorithm set; nil means all nine.
	Algorithms []string
	// Seed drives all randomness.
	Seed int64
	// PerRunBudget skips an algorithm for the remaining (larger) points of
	// a scalability sweep once a single run exceeds it — the analogue of
	// the paper's 3-hour limit. Zero means no limit.
	PerRunBudget time.Duration
	// MaxNodes caps dataset stand-in sizes regardless of Scale — the
	// analogue of the paper's memory/time limits on one machine. Zero
	// means no cap.
	MaxNodes int
	// Workers bounds the number of concurrent runs (and noisy-instance
	// generations) per experiment cell; 0 or negative means one worker per
	// CPU (GOMAXPROCS), 1 runs strictly sequentially. Results are
	// byte-identical for any Workers value at the same Seed: every
	// (cell, rep) draws from its own RNG whose seed is derived from Seed
	// with a splitmix-style hash, so no random stream depends on
	// scheduling order.
	Workers int
	// MemProfile serializes runs and measures per-run allocation deltas
	// (RunInstanceProfiled), populating RunResult.AllocBytes at the cost
	// of parallelism. The memory experiments (Figures 13-14) set it; leave
	// it false for pure quality/runtime experiments.
	MemProfile bool
	// Tracer, when non-nil, receives structured telemetry: run_start /
	// run_end events with nested phase spans for every algorithm run,
	// cell_done events with completed/total counts, progress lines (attach
	// an obsv.ProgressFunc sink to receive just those), and gauge samples.
	// Tracing never alters experiment results — at a fixed Seed and Workers
	// the output tables are byte-identical with the tracer attached or nil;
	// only the tracer's own sinks see more.
	Tracer *obsv.Tracer
	// Ctx, when non-nil, cancels the whole run cooperatively: workers stop
	// claiming new (cell, rep) slots and in-flight algorithm runs return at
	// their next iteration boundary. Unstarted slots are backfilled with the
	// context's error so drivers still see a complete result set. Nil means
	// context.Background() — never cancelled, zero overhead.
	Ctx context.Context
	// RunTimeout bounds each individual algorithm run's wall clock (off when
	// zero). A run that blows the budget is cancelled cooperatively and its
	// RunResult.Err is a *TimeoutError (errors.Is ErrTimeout); sibling runs
	// and the rest of the grid are unaffected. This is the fault-isolation
	// complement of PerRunBudget, which only stops *future* sweep points.
	RunTimeout time.Duration
	// Checkpoint, when non-nil, journals every completed (cell, rep) run as
	// one JSONL record and replays journaled results instead of recomputing
	// them, making interrupted experiments resumable with byte-identical
	// output. See OpenCheckpoint.
	Checkpoint *Checkpoint
	// Cache, when non-nil, shares per-graph artifacts (degree vectors,
	// Laplacians, spectral decompositions, embeddings, graphlet counts)
	// across the algorithms, reps, and sweep points of the run. Caching
	// never alters results: cached artifacts are bitwise the values each
	// aligner would compute itself, so output tables, checkpoints, and CSVs
	// are byte-identical with the cache on or off (see DESIGN.md §10). Off
	// by default.
	Cache *cache.Cache
	// CacheBudgetBytes, when positive, makes RunExperiment create a cache
	// of that byte budget if Cache is nil — the knob behind alignbench's
	// -cache-budget flag. Ignored when Cache is already set.
	CacheBudgetBytes int64
	// AssignTopK, when positive, routes every run's assignment through the
	// sparse candidate pipeline: per-row top-k candidate generation (k-NN
	// over raw embeddings for REGAL/CONE/GRASP, bounded-heap row selection
	// otherwise) followed by the sparse variant of the cell's assignment
	// method — exact methods become the ε-scaling auction, which falls back
	// to dense JV when the candidate graph leaves rows unmatchable. The
	// sparse solvers are deterministic for any Workers value. Zero (the
	// default) keeps the dense solvers and is byte-identical to the
	// pre-sparse pipeline; positive values trade a bounded amount of
	// assignment quality for large speedups at scale (see DESIGN.md §11).
	// The knob behind alignbench's -assign-topk flag.
	AssignTopK int
	// Partitions, when >= 2, routes every run through the partition-align-
	// stitch sharding layer: the instance's graphs are co-partitioned into
	// that many matched cluster pairs, each pair is aligned independently
	// (with a fresh aligner per shard) and the shard mappings are stitched,
	// then refined on the cross-shard boundary by greedy rounds
	// (refine.Rounds). 0 (the default) and 1 are off and byte-identical to
	// the monolithic path; sharding trades a bounded amount of accuracy for
	// memory and scale (see DESIGN.md §15).
	// The knob behind alignbench's -partitions flag.
	Partitions int

	// expID is the running experiment's id, set by RunExperiment so that
	// checkpoint records are keyed per experiment. Experiments invoked
	// directly leave it empty, which is still a valid key.
	expID string

	// obs is the per-Options cell-completion state shared by every copy of
	// this Options value. DefaultOptions allocates one; zero-literal Options
	// fall back to a package-level instance.
	obs *obsState
}

// obsState tracks cell completion for completed/total progress reporting.
// It lives behind a pointer so that the Options copies handed to drivers,
// reps and workers all share it, while two independent DefaultOptions
// values (e.g. concurrent experiments) keep separate counts.
type obsState struct {
	mu    sync.Mutex
	total int
	done  int
	start time.Time
}

var fallbackObs obsState

func (o *Options) obsv() *obsState {
	if o.obs != nil {
		return o.obs
	}
	return &fallbackObs
}

// runSpec assembles the per-run configuration from the experiment options.
func (o *Options) runSpec() RunSpec {
	return RunSpec{Tracer: o.Tracer, Budget: o.RunTimeout, AssignTopK: o.AssignTopK, Workers: o.Workers, Partitions: o.Partitions, Cache: o.Cache}
}

// ctx returns the run context, defaulting to the never-cancelled background
// context so that code paths with fault tolerance off behave exactly as
// they did before the context was threaded through.
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultOptions returns options sized for a laptop-class machine.
func DefaultOptions(f Factory) Options {
	return Options{
		Factory:      f,
		Scale:        0.2,
		Reps:         3,
		Seed:         42,
		PerRunBudget: 2 * time.Minute,
		MaxNodes:     800,
		obs:          &obsState{},
	}
}

// algorithms returns the selected aligners: Algorithms, or else all nine in
// the paper's Table 1 order.
func (o *Options) algorithms() []string {
	if len(o.Algorithms) > 0 {
		return o.Algorithms
	}
	names := make([]string, len(table1Rows))
	for i, r := range table1Rows {
		names[i] = r.Name
	}
	return names
}

// declareCells announces how many grid cells the running experiment will
// process, resetting the completion counter; cellDone then reports
// completed/total counts with an ETA. A zero or unknown total still counts
// cells but omits the ratio and ETA.
func (o *Options) declareCells(total int) {
	st := o.obsv()
	st.mu.Lock()
	st.total = total
	st.done = 0
	st.start = time.Now()
	st.mu.Unlock()
}

// cellDone records the completion of one experiment grid cell: a cell_done
// trace event carrying completed/total counts and the ETA extrapolated
// from the mean cell duration so far, plus a matching progress line.
func (o *Options) cellDone(cell string) {
	if o.Tracer == nil {
		return
	}
	st := o.obsv()
	st.mu.Lock()
	if st.start.IsZero() {
		st.start = time.Now()
	}
	st.done++
	done, total := st.done, st.total
	var eta time.Duration
	if total > 0 && done <= total {
		eta = time.Since(st.start) / time.Duration(done) * time.Duration(total-done)
	}
	st.mu.Unlock()

	o.Tracer.Emit("cell_done", cell, map[string]any{
		"done": done, "total": total, "eta_s": eta.Seconds(),
	})
	if total > 0 {
		o.Tracer.Progress(fmt.Sprintf("cell %d/%d done: %s (eta %s)", done, total, cell, eta.Round(time.Second)))
	} else {
		o.Tracer.Progress(fmt.Sprintf("cell %d done: %s", done, cell))
	}
}

// scaledN shrinks a paper-sized node count by Scale with a sane floor.
func (o *Options) scaledN(paperN int) int {
	s := o.Scale
	if s <= 0 {
		s = 0.2
	}
	n := int(float64(paperN) * s)
	if n < 100 {
		n = 100
	}
	if n > paperN {
		n = paperN
	}
	return n
}

// scaledSizes returns the distinct scaledN of each paper size, in order. The
// floor can clamp several paper sizes of a sweep to one node count, and a
// sweep runs each count, and so each cell key, once.
func (o *Options) scaledSizes(paperNs ...int) []int {
	var out []int
	for _, paperN := range paperNs {
		if n := o.scaledN(paperN); !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// loadDataset loads a Table 2 stand-in at the experiment's effective scale,
// additionally capped at MaxNodes.
func (o *Options) loadDataset(name string) (*graph.Graph, error) {
	d, err := data.Describe(name)
	if err != nil {
		return nil, err
	}
	scale := o.effectiveScale()
	if o.MaxNodes > 0 && float64(d.N)*scale > float64(o.MaxNodes) {
		scale = float64(o.MaxNodes) / float64(d.N)
	}
	return data.LoadScaled(name, scale)
}

// Experiment binds a paper artifact (figure or table) to the code that
// regenerates it.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

var experiments = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := experiments[e.ID]; dup {
		panic("core: duplicate experiment id " + e.ID)
	}
	experiments[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	if e, ok := experiments[id]; ok {
		return e, nil
	}
	ids := IDs()
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (have %v)", id, ids)
}

// RunExperiment looks up and runs one experiment with full observability
// wiring: the per-experiment cell counters are reset, and the run is
// bracketed by experiment_start / experiment_done events carrying the
// duration and row count. Calling the experiment's Run directly remains
// supported and behaves as before; this wrapper only adds reporting, never
// changes results.
func RunExperiment(id string, opts Options) (*Table, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	opts.obs = &obsState{start: time.Now()}
	opts.expID = id
	if opts.Cache == nil && opts.CacheBudgetBytes > 0 {
		opts.Cache = cache.New(opts.CacheBudgetBytes)
	}
	if opts.Tracer != nil {
		opts.Cache.SetRegistry(opts.Tracer.Registry())
	}
	opts.Tracer.Emit("experiment_start", id, map[string]any{"title": e.Title})
	start := time.Now()
	table, runErr := e.Run(opts)
	fields := map[string]any{"seconds": time.Since(start).Seconds()}
	if table != nil {
		fields["rows"] = len(table.Rows)
	}
	if runErr != nil {
		fields["err"] = runErr.Error()
	}
	opts.Tracer.Emit("experiment_done", id, fields)
	return table, runErr
}

// IDs returns all experiment ids sorted.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// outputs pass statistical tests even on sequential inputs, which is what
// lets us derive independent per-rep seeds from small hand-built integers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// instanceSeed derives the RNG seed for one (experiment cell, rep) from the
// experiment Seed: FNV-1a over the cell labels, mixed with the rep index and
// finalized with splitmix64. Each noisy instance therefore owns an
// independent random stream fixed by (Seed, cell, noise type, level, rep)
// alone — never by how many workers ran or in what order — which is the
// invariant behind the Workers=1 vs Workers=N determinism guarantee.
func (o *Options) instanceSeed(cell string, t noise.Type, level float64, rep int) int64 {
	const fnvPrime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(o.Seed)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
		h ^= 0xff // separator: ("ab","c") must differ from ("a","bc")
		h *= fnvPrime
	}
	mix(cell)
	mix(string(t))
	mix(fmt.Sprintf("%g", level))
	h ^= uint64(rep)
	return int64(splitmix64(h))
}

// noisyInstances builds Reps alignment instances from a base graph, fanned
// out across the worker pool. The cell string names the grid cell (dataset,
// model, sweep point, ...) so that every (cell, rep) perturbs with its own
// derived RNG — see instanceSeed for the determinism argument.
func noisyInstances(base *graph.Graph, t noise.Type, level float64, opts Options, nopts noise.Options, cell string) ([]noise.Pair, error) {
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	out := make([]noise.Pair, reps)
	errs := make([]error, reps)
	parallel.For(opts.Workers, reps, func(r int) {
		rng := rand.New(rand.NewSource(opts.instanceSeed(cell, t, level, r)))
		out[r], errs[r] = noise.Apply(base, t, level, nopts, rng)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runInstances fans the runs of one cell out across the worker pool. Every
// run (and every shard of a partitioned run) gets a freshly built Aligner
// so no algorithm state is shared between goroutines (the study's aligners
// seed their internal RNGs from fixed per-algorithm constants, so fresh
// instances stay deterministic). With
// opts.MemProfile the runs take the serialized profiled path instead, which
// is the only mode in which AllocBytes is meaningful.
//
// cell and label key the runs in the checkpoint journal (label is the
// algorithm name, or a variant tag for ablation runs). Journaled runs are
// replayed without recomputation; freshly completed runs are journaled
// unless the whole grid was cancelled mid-run. When opts.Ctx is cancelled,
// unstarted slots are backfilled with the context's error so callers always
// receive len(pairs) results.
func runInstances(opts Options, cell, label string, build func(i int) (algo.Aligner, error), pairs []noise.Pair, method assign.Method) []RunResult {
	runs := make([]RunResult, len(pairs))
	done := make([]bool, len(pairs))
	ctx := opts.ctx()
	parallel.ForCtx(ctx, opts.Workers, len(pairs), func(i int) {
		done[i] = true
		if res, ok := opts.Checkpoint.Lookup(opts.expID, cell, label, method, i); ok {
			runs[i] = res
			return
		}
		mk := func() (algo.Aligner, error) { return build(i) }
		if opts.MemProfile {
			// Deliberately no cache in profiled mode: AllocBytes measures one
			// algorithm's own footprint, which shared artifacts would distort.
			spec := opts.runSpec()
			spec.Cache = nil
			runs[i] = RunInstanceProfiled(ctx, mk, pairs[i], method, spec)
		} else {
			runs[i], _ = RunInstance(ctx, mk, pairs[i], method, opts.runSpec())
		}
		// A run cut short by grid-wide cancellation (as opposed to its own
		// budget) is incomplete, not failed: leave it out of the journal so a
		// resumed run redoes it.
		if !errors.Is(runs[i].Err, context.Canceled) {
			opts.Checkpoint.Record(opts.expID, cell, label, method, i, runs[i])
		}
	})
	if err := ctx.Err(); err != nil {
		for i := range runs {
			if !done[i] {
				runs[i] = RunResult{Err: err}
			}
		}
	}
	return runs
}

// runAveraged instantiates the named algorithm once per instance, runs the
// instances across the worker pool with the given assignment method, and
// returns the averaged result. A factory error is returned; per-run errors
// are folded into RunResult.Err. cell names the grid cell for checkpoint
// keying (see runInstances).
func runAveraged(opts Options, cell, name string, pairs []noise.Pair, method assign.Method) (RunResult, error) {
	// Resolve the name up front so an unknown algorithm is a hard error
	// rather than a silently failed cell.
	if _, err := opts.Factory(name); err != nil {
		return RunResult{}, err
	}
	runs := runInstances(opts, cell, name, func(int) (algo.Aligner, error) { return opts.Factory(name) }, pairs, method)
	mean, _ := Average(runs)
	mean.Algorithm = name
	mean.Assign = method
	return mean, nil
}

// runAlgorithms applies the study's protocol to one grid cell: every
// selected aligner runs on the cell's instances with the given assignment
// method (runAveraged), and each result is reported through addResult with
// labels plus "algorithm". Only an unknown algorithm name is an error.
func runAlgorithms(opts Options, t *Table, cell string, labels map[string]string, pairs []noise.Pair, method assign.Method) error {
	for _, name := range opts.algorithms() {
		mean, err := runAveraged(opts, cell, name, pairs, method)
		if err != nil {
			return err
		}
		row := map[string]string{"algorithm": name}
		for k, v := range labels {
			row[k] = v
		}
		opts.addResult(t, fmt.Sprintf("%s %s %s", cell, name, method), row, mean)
	}
	return nil
}

// runVariant is runAlgorithms for one configured aligner variant that the
// Factory does not build: build(i) makes the aligner for instance i, the
// runs use JV and are journaled under the label "variant", and the result
// is reported through addResult with labels as they are. cell must be
// unique per variant within its experiment.
func runVariant(t *Table, opts Options, cell string, build func(i int) algo.Aligner, labels map[string]string, pairs []noise.Pair) {
	runs := runInstances(opts, cell, "variant", func(i int) (algo.Aligner, error) { return build(i), nil }, pairs, assign.JonkerVolgenant)
	mean, _ := Average(runs)
	opts.addResult(t, fmt.Sprintf("%s %s %s", cell, mean.Algorithm, assign.JonkerVolgenant), labels, mean)
}

// addResult reports one averaged result as a progress line led by what and,
// when at least one of its runs succeeded, adds its row to t. A cell whose
// runs all failed gets no row, as the paper reports nothing for runs past
// its limits. It returns whether the row was added.
func (o *Options) addResult(t *Table, what string, labels map[string]string, mean RunResult) bool {
	if mean.Err != nil {
		o.Tracer.Progress(fmt.Sprintf("%s failed: %v", what, mean.Err))
		return false
	}
	t.addRun(labels, mean)
	o.Tracer.Progress(fmt.Sprintf("%s acc=%.3f sim=%s", what, mean.Scores.Accuracy, mean.SimilarityTime.Round(time.Millisecond)))
	return true
}
