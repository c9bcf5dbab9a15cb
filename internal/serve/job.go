package serve

import (
	"context"
	"sync"
	"time"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/metrics"
	"graphalign/internal/obsv"
)

// Status is a job's lifecycle state. Transitions are strictly forward:
// queued → running → one of done/failed/cancelled, or queued → cancelled
// when the client cancels before a worker picks the job up.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Error kinds classify a failed job for clients, mirroring the typed errors
// of the core runner (core.TimeoutError, core.PanicError, context.Canceled).
const (
	ErrKindTimeout   = "timeout"
	ErrKindCancelled = "cancelled"
	ErrKindPanic     = "panic"
	ErrKindError     = "error"
)

// Spec is the algorithm configuration of one job.
type Spec struct {
	// Algo is the canonical algorithm name (IsoRank ... GRASP, Adaptive).
	Algo string
	// Method selects the assignment stage; empty means the algorithm's
	// author-proposed default.
	Method assign.Method
	// TopK, when positive, routes the job through the sparse candidate
	// pipeline (core.RunSpec.AssignTopK).
	TopK int
	// Timeout is the per-job wall-clock budget; zero inherits the server
	// default. Jobs over budget fail with ErrKindTimeout.
	Timeout time.Duration
	// Workers bounds the job's intra-run parallel fan-out; zero means the
	// server default, and Submit caps it at Options.JobWorkers (results are
	// identical for any value).
	Workers int
	// Partitions, when >= 2, routes the job through the partition-align-
	// stitch sharding layer (core.RunSpec.Partitions): the graphs are
	// co-partitioned into that many matched cluster pairs, each pair aligned
	// by a fresh aligner instance, and the shard mappings stitched with
	// boundary refinement. Per-shard progress (shard_start / shard_done)
	// streams through the job's event log. 0 = off.
	Partitions int
}

// Job is one alignment request moving through the daemon. All mutable state
// is behind mu; Job values are shared between the scheduler, the HTTP
// handlers and the per-job tracer sink.
type Job struct {
	ID   string
	Spec Spec

	src, dst             *graph.Graph
	srcLabels, dstLabels []string

	// log receives every tracer event of the job (progress stream).
	log *eventLog

	mu        sync.Mutex
	status    Status
	cancelled bool // client asked for cancellation
	cancel    context.CancelFunc
	err       error
	errKind   string
	mapping   []int
	scores    metrics.Scores
	simTime   time.Duration
	asgTime   time.Duration
	created   time.Time
	started   time.Time
	finished  time.Time

	// done is closed exactly once, when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, spec Spec, src, dst *graph.Graph, srcLabels, dstLabels []string) *Job {
	return &Job{
		ID: id, Spec: spec,
		src: src, dst: dst, srcLabels: srcLabels, dstLabels: dstLabels,
		log:     newEventLog(),
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the job's terminal error (nil while non-terminal or done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Mapping returns the alignment result (nil unless StatusDone). The slice is
// owned by the job; callers must not mutate it.
func (j *Job) Mapping() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mapping
}

// markRunning moves queued → running; it reports false (and performs the
// queued → cancelled transition) when the client cancelled the job while it
// waited in the queue, so the scheduler skips it without running anything.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	return true
}

// requestCancel records a client cancellation and, when the job is already
// running, cancels its context. Safe to call at any point in the lifecycle;
// it reports whether the request had any effect (false on terminal jobs).
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// finish moves the job to a terminal state exactly once and wakes everything
// blocked on Done. Later calls are ignored, making shutdown paths idempotent.
func (j *Job) finish(status Status, err error, kind string, mapping []int, scores metrics.Scores, simT, asgT time.Duration) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.err = err
	j.errKind = kind
	j.mapping = mapping
	j.scores = scores
	j.simTime = simT
	j.asgTime = asgT
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// JobView is the JSON shape of a job returned by the HTTP API. Timestamps
// are Unix nanoseconds (0 = not reached); durations are milliseconds.
type JobView struct {
	ID        string  `json:"id"`
	Status    Status  `json:"status"`
	Algo      string  `json:"algo"`
	Method    string  `json:"method,omitempty"`
	TopK      int     `json:"topk,omitempty"`
	Parts     int     `json:"partitions,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	NSrc      int     `json:"n_src"`
	MSrc      int     `json:"m_src"`
	NDst      int     `json:"n_dst"`
	MDst      int     `json:"m_dst"`
	CreatedNS int64   `json:"created_unix_ns"`
	StartedNS int64   `json:"started_unix_ns,omitempty"`
	DoneNS    int64   `json:"finished_unix_ns,omitempty"`
	Error     string  `json:"error,omitempty"`
	ErrorKind string  `json:"error_kind,omitempty"`
	Events    int     `json:"events"`
	Result    *Result `json:"result,omitempty"`
}

// Result carries a finished job's alignment: mapping[u] is the dense id of
// the dst node aligned to src node u (-1 = unmatched), with the four
// ground-truth-free quality scores and the sim/assign wall-time split.
// Mapping is one page of the full mapping — MappingOffset is the dense id of
// its first entry and MappingTotal the full length, so clients can page
// through large results with GET /v1/jobs/{id}?offset=&limit= instead of
// pulling one n=100k array in a single response.
type Result struct {
	Mapping       []int   `json:"mapping"`
	MappingOffset int     `json:"mapping_offset"`
	MappingTotal  int     `json:"mapping_total"`
	EC            float64 `json:"ec"`
	ICS           float64 `json:"ics"`
	S3            float64 `json:"s3"`
	MNC           float64 `json:"mnc"`
	SimTimeMS     float64 `json:"sim_time_ms"`
	AssignTimeMS  float64 `json:"assign_time_ms"`
}

// View snapshots the job for the API with the full mapping.
func (j *Job) View() JobView { return j.ViewPage(0, 0) }

// ViewPage is View returning only a page of the mapping: offset is clamped
// to [0, total], limit 0 means "to the end". Everything else in the view is
// unaffected.
func (j *Job) ViewPage(offset, limit int) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Status:    j.status,
		Algo:      j.Spec.Algo,
		Method:    string(j.Spec.Method),
		TopK:      j.Spec.TopK,
		Parts:     j.Spec.Partitions,
		TimeoutMS: j.Spec.Timeout.Milliseconds(),
		NSrc:      j.src.N(), MSrc: j.src.M(),
		NDst: j.dst.N(), MDst: j.dst.M(),
		CreatedNS: j.created.UnixNano(),
		Events:    j.log.len(),
	}
	if !j.started.IsZero() {
		v.StartedNS = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		v.DoneNS = j.finished.UnixNano()
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorKind = j.errKind
	}
	if j.status == StatusDone {
		page, off := pageMapping(j.mapping, offset, limit)
		v.Result = &Result{
			Mapping:       page,
			MappingOffset: off,
			MappingTotal:  len(j.mapping),
			EC:            j.scores.EC, ICS: j.scores.ICS, S3: j.scores.S3, MNC: j.scores.MNC,
			SimTimeMS:    float64(j.simTime) / float64(time.Millisecond),
			AssignTimeMS: float64(j.asgTime) / float64(time.Millisecond),
		}
	}
	return v
}

// eventLog is the per-job progress buffer: an obsv.Sink retaining every
// event of the job's child tracer, with broadcast wakeup for streaming
// readers. Appends come serialized through the tracer; reads may be
// concurrent.
type eventLog struct {
	mu      sync.Mutex
	events  []obsv.Event
	changed chan struct{} // closed-and-replaced on every append
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// Event implements obsv.Sink.
func (l *eventLog) Event(e obsv.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	ch := l.changed
	l.changed = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// since returns the events from index i on, plus a channel closed on the
// next append — the primitive the streaming endpoint tails the log with.
func (l *eventLog) since(i int) ([]obsv.Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obsv.Event
	if i < len(l.events) {
		out = append(out, l.events[i:]...)
	}
	return out, l.changed
}
