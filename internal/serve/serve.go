// Package serve is the alignment-as-a-service engine behind cmd/alignd: a
// bounded FIFO job queue with admission control, a fixed pool of job
// workers, per-job wall-clock budgets and panic isolation (via the core
// runner's fault machinery), a shared multi-tenant artifact cache keyed by
// graph fingerprint, and per-job child tracers feeding both a per-job
// progress log and the process-wide metrics registry.
//
// The design deliberately reuses the batch substrate grown by the earlier
// PRs instead of inventing a parallel one: jobs execute through
// core.RunInstance (context threading, RunTimeout classification,
// panic recovery, sparse assignment pipeline), artifacts flow through
// internal/cache (single-flight, LRU-bounded), intra-run fan-out uses
// internal/parallel via the aligners, and observability is internal/obsv
// (child tracers, Prometheus/expvar exposition). What is new here is only
// the multi-tenant layer: admission, scheduling, isolation, lifecycle.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/cache"
	"graphalign/internal/core"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
	"graphalign/internal/parallel"
)

// ErrQueueFull rejects a submission when the job queue is at capacity; the
// HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrShuttingDown rejects submissions during shutdown (HTTP 503).
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrNotFound reports an unknown job id (HTTP 404).
var ErrNotFound = errors.New("serve: no such job")

// Options configure a Server. The zero value of every field has a sane
// default, so Options{Factory: ...} is a working configuration.
type Options struct {
	// Factory instantiates algorithms by canonical name; required. The
	// graphalign root package provides one wired to the Table 1 registry.
	Factory core.Factory
	// Workers is the number of jobs run concurrently (default 1; alignment
	// is CPU-bound, so more workers than cores buys only queue fairness).
	Workers int
	// QueueSize bounds the number of queued-but-not-running jobs; full
	// queues reject with ErrQueueFull (default 64).
	QueueSize int
	// DefaultTimeout is the per-job budget applied when a submission does
	// not set its own (default 2m). MaxTimeout caps client-requested
	// budgets (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// JobWorkers bounds each job's and session's intra-run parallel fan-out
	// (0 = one per CPU); a client's requested workers is capped at it. With
	// several concurrent jobs on one machine, 1 avoids oversubscription.
	JobWorkers int
	// CacheBudgetBytes bounds the shared multi-tenant artifact cache
	// (0 = no cache). Tenants submitting the same graph share spectra,
	// embeddings and degree vectors across jobs.
	CacheBudgetBytes int64
	// Tracer is the root tracer; each job runs under a child tracer carrying
	// the job id as its trace id. When nil a private root is created so
	// per-job progress logs always work.
	Tracer *obsv.Tracer
	// Registry receives the serve_* metrics and the core runner's run_*
	// counters; when nil a private registry is created.
	Registry *obsv.Registry
	// KeepJobs bounds how many terminal jobs are retained for GET before the
	// oldest are dropped (default 1024).
	KeepJobs int
	// MaxSessions bounds the live incremental sessions (default 16). Unlike
	// jobs, sessions hold embeddings, candidate lists and auction state in
	// memory for their whole lifetime, so the table is kept small; full
	// tables reject with ErrSessionsFull.
	MaxSessions int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 1024
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.Registry == nil {
		o.Registry = obsv.NewRegistry()
	}
	if o.Tracer == nil {
		o.Tracer = obsv.New()
	}
	return o
}

// Server owns the queue, the worker pool, the job table and the shared
// artifact cache. Construct with New, stop with Shutdown.
type Server struct {
	opts  Options
	reg   *obsv.Registry
	trace *obsv.Tracer
	cache *cache.Cache

	queue chan *Job

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	closed atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listing and bounded retention

	// sessions is the bounded incremental-session table; a nil value marks a
	// slot reserved while its cold alignment is still running.
	sessions   map[string]*SessionHandle
	nextSessID atomic.Uint64

	// ewmaJobNS tracks a decaying mean of job wall time (nanoseconds) for
	// the Retry-After estimate.
	ewmaJobNS atomic.Int64
}

// New builds and starts a Server: its workers are running and Submit is
// ready. Callers must Shutdown to release them.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Factory == nil {
		return nil, errors.New("serve: Options.Factory is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		reg:       opts.Registry,
		trace:     opts.Tracer.SetRegistry(opts.Registry),
		queue:     make(chan *Job, opts.QueueSize),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
		sessions:  make(map[string]*SessionHandle),
	}
	if opts.CacheBudgetBytes > 0 {
		s.cache = cache.New(opts.CacheBudgetBytes).SetRegistry(opts.Registry)
	}
	// Pre-register every metric series a scrape may want to rate() or alert
	// on, so /metrics exposes them at zero from the first scrape — a counter
	// that appears only on its first increment hides the initial transition,
	// and a dashboard built before any partitioned/incremental traffic would
	// otherwise see the series as absent rather than zero.
	for _, name := range []string{
		"serve_jobs_submitted_total", "serve_jobs_done_total",
		"serve_jobs_failed_total", "serve_jobs_cancelled_total",
		"serve_jobs_rejected_total", "serve_jobs_timeout_total",
		"serve_jobs_panic_total", "serve_cancel_requests_total",
		"serve_sessions_created_total", "serve_sessions_rejected_total",
		"serve_session_edits_total",
		"partition_runs_total", "partition_shard_errors_total",
		"partition_rebid_moves_total",
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge("serve_queue_depth")
	s.reg.Gauge("serve_jobs_running")
	s.reg.Gauge("serve_sessions_open")
	s.reg.Histogram("serve_queue_wait_seconds", obsv.DurationBuckets())
	s.reg.Histogram("serve_job_seconds", obsv.DurationBuckets())
	for _, name := range []string{
		"partition_shards", "partition_boundary_nodes", "partition_refine_rounds",
	} {
		s.reg.Histogram(name, obsv.SizeBuckets())
	}
	s.reg.Histogram("partition_shard_seconds", obsv.DurationBuckets())
	incremental.PreRegisterMetrics(s.reg)
	s.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// Registry exposes the server's metrics registry (for /metrics exposition).
func (s *Server) Registry() *obsv.Registry { return s.reg }

// jobWorkers resolves a requested intra-run fan-out against the operator's
// bound: 0 takes JobWorkers, and any other value is capped at JobWorkers, or
// at GOMAXPROCS when JobWorkers is 0 ("one per CPU"), so a client can never
// ask for more parallelism than the operator allowed.
func (s *Server) jobWorkers(w int) int {
	if w == 0 {
		return s.opts.JobWorkers
	}
	return min(parallel.Workers(w), parallel.Workers(s.opts.JobWorkers))
}

// Submit validates the spec, admits the job into the bounded queue and
// returns it. ErrQueueFull means the caller should retry later
// (RetryAfter suggests when); ErrShuttingDown is terminal.
func (s *Server) Submit(src, dst *graph.Graph, srcLabels, dstLabels []string, spec Spec) (*Job, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if _, err := s.opts.Factory(spec.Algo); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if src.N() > dst.N() {
		return nil, fmt.Errorf("serve: source graph larger than target (%d > %d)", src.N(), dst.N())
	}
	if spec.Timeout <= 0 {
		spec.Timeout = s.opts.DefaultTimeout
	}
	if spec.Timeout > s.opts.MaxTimeout {
		spec.Timeout = s.opts.MaxTimeout
	}
	spec.Workers = s.jobWorkers(spec.Workers)

	id := fmt.Sprintf("j%08d", s.nextID.Add(1))
	job := newJob(id, spec, src, dst, srcLabels, dstLabels)

	// Admission: a full queue rejects instead of blocking the submitter —
	// backpressure surfaces to the client as 429, never as an unbounded
	// in-memory backlog.
	select {
	case s.queue <- job:
	default:
		s.reg.Counter("serve_jobs_rejected_total").Add(1)
		return nil, ErrQueueFull
	}

	s.mu.Lock()
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.dropOldTerminalLocked()
	s.mu.Unlock()

	s.reg.Counter("serve_jobs_submitted_total").Add(1)
	s.reg.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
	return job, nil
}

// dropOldTerminalLocked bounds the job table: once more than KeepJobs jobs
// are tracked, the oldest *terminal* jobs are forgotten (live jobs are never
// dropped). Callers hold s.mu.
func (s *Server) dropOldTerminalLocked() {
	excess := len(s.order) - s.opts.KeepJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.Status().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs snapshots the tracked jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cooperative cancellation of a job: queued jobs are
// finalized as cancelled when a worker reaches them, running jobs get their
// context cancelled and stop at the next iteration boundary.
func (s *Server) Cancel(id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	if j.requestCancel() {
		s.reg.Counter("serve_cancel_requests_total").Add(1)
	}
	return j, nil
}

// RetryAfter estimates how long a rejected submitter should wait before
// retrying: queue depth divided by workers, scaled by the decaying mean job
// duration, clamped to [1s, 60s].
func (s *Server) RetryAfter() time.Duration {
	mean := time.Duration(s.ewmaJobNS.Load())
	if mean <= 0 {
		mean = time.Second
	}
	depth := len(s.queue)
	est := mean * time.Duration(depth/s.opts.Workers+1)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// worker is one scheduler loop: claim, run, repeat until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.reg.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
			s.runJob(j)
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJob executes one job end to end. Fault isolation is inherited from
// core.RunInstance: a panic inside the aligner poisons only this job,
// a blown budget classifies as core.ErrTimeout, and a client cancellation
// surfaces as context.Canceled.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.markRunning(cancel) {
		// Cancelled while queued: never ran.
		s.finalize(j, StatusCancelled, context.Canceled, ErrKindCancelled, nil, metrics.Scores{}, 0, 0)
		return
	}

	// Per-job trace identity: a child tracer stamped with the job id whose
	// events land in the job's own progress log AND the shared sinks of the
	// root tracer (see obsv.ChildTrace — this is the fix for the SetTraceID
	// cross-stamping bug).
	tr := s.trace.ChildTrace(j.ID)
	tr.AddSink(j.log)
	tr.Emit("job_status", string(StatusRunning), map[string]any{
		"queue_wait_ms": float64(time.Since(j.created)) / float64(time.Millisecond),
	})
	s.reg.Gauge("serve_jobs_running").Add(1)
	s.reg.Histogram("serve_queue_wait_seconds", obsv.DurationBuckets()).Observe(time.Since(j.created).Seconds())
	defer s.reg.Gauge("serve_jobs_running").Add(-1)

	spec := core.RunSpec{
		Tracer:     tr,
		Budget:     j.Spec.Timeout,
		AssignTopK: j.Spec.TopK,
		Workers:    j.Spec.Workers,
		Partitions: j.Spec.Partitions,
		// The multi-tenant artifact cache: keyed by graph fingerprint, so
		// two tenants aligning the same graph share its spectra/embeddings.
		Cache: s.cache,
	}
	start := time.Now()
	res, mapping := core.RunInstance(ctx, func() (algo.Aligner, error) { return s.opts.Factory(j.Spec.Algo) },
		noise.Pair{Source: j.src, Target: j.dst}, j.Spec.Method, spec)
	wall := time.Since(start)
	s.observeJobTime(wall)
	s.reg.Histogram("serve_job_seconds", obsv.DurationBuckets()).Observe(wall.Seconds())

	switch {
	case res.Err == nil:
		s.finalize(j, StatusDone, nil, "", mapping, res.Scores, res.SimilarityTime, res.AssignTime)
	case errors.Is(res.Err, core.ErrTimeout):
		s.reg.Counter("serve_jobs_timeout_total").Add(1)
		s.finalize(j, StatusFailed, res.Err, ErrKindTimeout, nil, metrics.Scores{}, res.SimilarityTime, res.AssignTime)
	case errors.Is(res.Err, core.ErrPanic):
		s.reg.Counter("serve_jobs_panic_total").Add(1)
		s.finalize(j, StatusFailed, res.Err, ErrKindPanic, nil, metrics.Scores{}, res.SimilarityTime, res.AssignTime)
	case errors.Is(res.Err, context.Canceled):
		s.finalize(j, StatusCancelled, res.Err, ErrKindCancelled, nil, metrics.Scores{}, res.SimilarityTime, res.AssignTime)
	default:
		s.finalize(j, StatusFailed, res.Err, ErrKindError, nil, metrics.Scores{}, res.SimilarityTime, res.AssignTime)
	}
}

// finalize applies the terminal transition, bumps the outcome counters and
// emits the closing job_status event into the job's progress log.
func (s *Server) finalize(j *Job, status Status, err error, kind string, mapping []int, sc metrics.Scores, simT, asgT time.Duration) {
	j.finish(status, err, kind, mapping, sc, simT, asgT)
	switch status {
	case StatusDone:
		s.reg.Counter("serve_jobs_done_total").Add(1)
	case StatusFailed:
		s.reg.Counter("serve_jobs_failed_total").Add(1)
	case StatusCancelled:
		s.reg.Counter("serve_jobs_cancelled_total").Add(1)
	}
	fields := map[string]any{}
	if err != nil {
		fields["err"] = err.Error()
		fields["kind"] = kind
	}
	// The closing event goes through the job's log directly (not the child
	// tracer, which may not exist for never-ran jobs): streaming readers use
	// it as the end-of-stream marker.
	j.log.Event(obsv.Event{T: time.Now().UnixNano(), Type: "job_status", Name: string(status), Trace: j.ID, Fields: fields})
}

// observeJobTime folds one job's wall time into the decaying mean behind
// RetryAfter (alpha 1/4).
func (s *Server) observeJobTime(d time.Duration) {
	for {
		old := s.ewmaJobNS.Load()
		var next int64
		if old == 0 {
			next = d.Nanoseconds()
		} else {
			next = old + (d.Nanoseconds()-old)/4
		}
		if s.ewmaJobNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// Shutdown stops the server: admission closes immediately, running jobs are
// cancelled cooperatively, queued jobs are finalized as cancelled, and the
// workers are joined — bounded by ctx. Jobs are never persisted: a daemon
// restart starts clean, with no half-done jobs resurrected.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	// Cancel the base context: running jobs stop at their next iteration
	// boundary, idle workers return. Sessions run under the same context, so
	// in-flight applies abort too; the table is then dropped wholesale.
	s.cancelAll()
	s.drainSessions()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Drain whatever is still queued so every accepted job reaches a
	// terminal state (no dropped-but-accepted jobs).
	for {
		select {
		case j := <-s.queue:
			s.finalize(j, StatusCancelled, ErrShuttingDown, ErrKindCancelled, nil, metrics.Scores{}, 0, 0)
		default:
			return err
		}
	}
}
