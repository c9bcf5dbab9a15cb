// Package obsv is the observability layer of the experiment framework: a
// structured span/event tracer emitting JSONL, a metrics registry of
// counters, gauges and fixed-bucket histograms exported via expvar, a
// periodic runtime sampler, and a debug HTTP server exposing pprof.
//
// The package is stdlib-only and dependency-free within the repository so
// that every layer (algorithms, the parallel pool, the experiment runner,
// the CLIs) can report through it without import cycles.
//
// Every method is safe on a nil *Tracer, nil *Span and nil *Registry: a
// disabled pipeline is represented by nil values, so instrumented code never
// branches on "is tracing on". This is the backbone of the framework's
// determinism guarantee — with tracing off, instrumentation reduces to
// no-op method calls on nil receivers and experiment output is byte-for-byte
// what it was before the layer existed.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one telemetry record. Events serialize as single JSON lines
// (JSONL); zero-valued fields are omitted. The types emitted by the
// framework are:
//
//	experiment_start  Name=experiment id
//	experiment_done   Name=experiment id, Fields: seconds, rows, err
//	cell_done         Name=grid cell label, Fields: done, total, eta_s
//	run_start         Name=algorithm, Span set, Fields: assign, n_src, n_dst
//	run_end           Name=algorithm, Span set, DurNS, Alloc
//	phase             Name=phase name, Span+Parent set, DurNS, Alloc, Fields
//	progress          Msg=human-readable progress line
//	gauge             Name=metric name, Fields: value
//	metrics           Fields: full Registry snapshot
type Event struct {
	// T is the wall-clock time of the event in Unix nanoseconds.
	T    int64  `json:"t"`
	Type string `json:"type"`
	Name string `json:"name,omitempty"`
	// Span and Parent identify the span tree; ids are unique per Tracer.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Run is the span id of the enclosing run (StartRun) span: the run span
	// itself and every phase span nested under it carry the same Run value,
	// which is what lets trace consumers separate the events of interleaved
	// concurrent runs in one JSONL stream. Zero for events outside any run.
	Run uint64 `json:"run,omitempty"`
	// Trace is the tracer-level trace id (SetTraceID), stamped on every
	// event so traces from several invocations stay separable after files
	// are concatenated. Empty when the tracer has no id.
	Trace string `json:"trace,omitempty"`
	// DurNS is the span duration in nanoseconds (run_end and phase events).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Alloc is the process-wide heap-allocation delta across the span in
	// bytes. With concurrent runs the delta includes the other workers'
	// allocations, so treat it as an upper bound unless Workers is 1.
	Alloc  int64          `json:"alloc,omitempty"`
	Msg    string         `json:"msg,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Sink receives events from a Tracer. The Tracer serializes Event calls
// behind its own mutex, so sinks need no locking of their own.
type Sink interface {
	Event(e Event)
}

// WriterSink encodes each event as one JSON line on w. The first encoding
// error is retained and reported by Err; later events are still attempted.
type WriterSink struct {
	enc *json.Encoder
	err error
}

// NewWriterSink returns a sink emitting JSONL to w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Event implements Sink.
func (s *WriterSink) Event(e Event) {
	if err := s.enc.Encode(e); err != nil && s.err == nil {
		s.err = err
	}
}

// Err returns the first encoding error, if any.
func (s *WriterSink) Err() error { return s.err }

// ProgressFunc adapts a line-printing function into a sink that receives
// only progress messages — the shape of the framework's legacy Progress
// callback, re-implemented on top of the tracer.
type ProgressFunc func(msg string)

// Event implements Sink.
func (f ProgressFunc) Event(e Event) {
	if e.Type == "progress" {
		f(e.Msg)
	}
}

// Tracer fans events out to its sinks and mirrors span timings into an
// optional metrics Registry. A nil *Tracer is a valid, fully disabled
// tracer.
//
// A tracer owns one trace identity (SetTraceID). For concurrent independent
// runs sharing one sink fan-out — e.g. the jobs of an alignment daemon —
// derive one child tracer per run with ChildTrace: children share the
// parent's sinks, span-id space and registry but stamp their own trace id,
// so interleaved jobs never cross-stamp each other's events.
type Tracer struct {
	mu    sync.Mutex
	sinks []Sink
	ids   atomic.Uint64
	reg   *Registry
	trace string
	// parent is non-nil on child tracers (ChildTrace): events emitted here
	// also fan out through the parent chain, and span ids are allocated from
	// the root so one merged stream stays collision-free.
	parent *Tracer
}

// New returns a tracer with the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// AddSink attaches another sink; it returns the tracer for chaining.
func (t *Tracer) AddSink(s Sink) *Tracer {
	if t == nil || s == nil {
		return t
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
	return t
}

// SetRegistry attaches a metrics registry: span ends are observed into
// per-phase histograms and Gauge calls update registry gauges.
func (t *Tracer) SetRegistry(r *Registry) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.reg = r
	t.mu.Unlock()
	return t
}

// SetTraceID attaches a trace id stamped on every subsequent event. The id
// identifies one tracer lifetime (one CLI invocation, one service run) so
// that concatenated JSONL files remain separable; it returns the tracer for
// chaining.
func (t *Tracer) SetTraceID(id string) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
	return t
}

// ChildTrace derives a tracer for one concurrent run (one daemon job, one
// tenant): the child shares t's span-id space and metrics registry, and every
// event it emits is delivered first to the child's own sinks (AddSink on the
// child attaches per-run sinks, e.g. a job's progress log) and then up
// through t's sink fan-out. The child stamps id on its events regardless of
// t's own trace id, so concurrent children never cross-stamp — the per-run
// replacement for mutating a shared tracer with SetTraceID. Nil-safe: a nil
// tracer returns a nil (disabled) child.
func (t *Tracer) ChildTrace(id string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{parent: t, trace: id, reg: t.Registry()}
}

// root walks to the top of the parent chain (t itself when not a child).
func (t *Tracer) root() *Tracer {
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// NewTraceID builds a trace id unique enough to separate concatenated JSONL
// files: prefix, pid and start time. Not cryptographic — two invocations in
// the same nanosecond with the same pid would collide, which cannot happen
// on one machine.
func NewTraceID(prefix string) string {
	return fmt.Sprintf("%s-%d-%d", prefix, os.Getpid(), time.Now().UnixNano())
}

// EmitTraceMeta records one "trace_meta" event carrying invocation-level
// fields (seed, scale, go version...). Trace analyzers surface these as the
// trace's header; emit it once, right after SetTraceID.
func (t *Tracer) EmitTraceMeta(fields map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{Type: "trace_meta", Fields: fields})
}

// TraceID returns the trace id set by SetTraceID ("" when unset or on a nil
// tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// Registry returns the attached metrics registry (nil when absent or when
// the tracer itself is nil — Registry methods tolerate both).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg
}

// emit stamps and fans out one event: first to this tracer's own sinks, then
// up the parent chain. Each tracer's sinks are invoked under that tracer's
// mutex, preserving the Sink contract (serialized delivery, no sink-side
// locking) even when several children emit concurrently into one parent.
func (t *Tracer) emit(e Event) {
	if t == nil {
		return
	}
	if e.T == 0 {
		e.T = time.Now().UnixNano()
	}
	for tr := t; tr != nil; {
		tr.mu.Lock()
		if e.Trace == "" {
			e.Trace = tr.trace
		}
		for _, s := range tr.sinks {
			s.Event(e)
		}
		next := tr.parent
		tr.mu.Unlock()
		tr = next
	}
}

// Emit records a generic event of the given type.
func (t *Tracer) Emit(typ, name string, fields map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{Type: typ, Name: name, Fields: fields})
}

// Progress records a human-readable progress line.
func (t *Tracer) Progress(msg string) {
	if t == nil {
		return
	}
	t.emit(Event{Type: "progress", Msg: msg})
}

// Gauge records an instantaneous measurement as a gauge event and mirrors
// it into the registry gauge of the same name.
func (t *Tracer) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.Registry().Gauge(name).Set(v)
	t.emit(Event{Type: "gauge", Name: name, Fields: map[string]any{"value": v}})
}

// EmitMetrics records a full snapshot of the attached registry as one
// "metrics" event — the JSON form of the experiment-end metrics dump.
func (t *Tracer) EmitMetrics() {
	if t == nil {
		return
	}
	reg := t.Registry()
	if reg == nil {
		return
	}
	t.emit(Event{Type: "metrics", Fields: reg.Snapshot()})
}

// StartRun opens a run span: a run_start event now, a run_end event (with
// duration and allocation delta) when the returned span is ended. Inner
// phases hang off the returned span via Phase. The span's id doubles as the
// run id carried by every event emitted under it (Event.Run).
func (t *Tracer) StartRun(algorithm string, fields map[string]any) *Span {
	return t.startSpan("run", algorithm, 0, 0, fields)
}

func (t *Tracer) startSpan(kind, name string, parent, run uint64, fields map[string]any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr: t,
		// Span ids come from the root tracer so the merged stream of all
		// child tracers stays collision-free.
		id:     t.root().ids.Add(1),
		parent: parent,
		run:    run,
		name:   name,
		kind:   kind,
		// The trace id is pinned at span start: every event of this span (and
		// of child spans, which inherit it) carries the identity the tracer
		// had when the run began, even if SetTraceID changes mid-run. Without
		// this, two concurrent runs sharing a tracer would stamp each other's
		// spans with whichever id was set last.
		trace:  t.TraceID(),
		start:  time.Now(),
		alloc0: heapAllocBytes(),
	}
	if kind == "run" {
		s.run = s.id
		t.emit(Event{Type: "run_start", Name: name, Span: s.id, Run: s.run, Trace: s.trace, Fields: fields})
	} else if fields != nil {
		s.fields = fields
	}
	return s
}

// Span is one timed region of a run: the whole run itself (kind run) or a
// named inner phase. Spans are handed to algorithms through the
// algo.Instrumented interface so inner phases (eigendecompositions, OT
// iterations, power-iteration convergence) land in the same trace as the
// framework's similarity/assign/metrics phases.
//
// A Span is owned by one goroutine at a time, but children of the same
// parent may run concurrently; field updates are mutex-guarded so misuse
// degrades gracefully rather than racing. All methods are nil-safe.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	run    uint64
	name   string
	kind   string
	// trace is the trace id pinned when the span was started (see startSpan);
	// all the span's events carry it, immune to later SetTraceID calls.
	trace  string
	start  time.Time
	alloc0 uint64
	mu     sync.Mutex
	fields map[string]any
	ended  bool
}

// Phase opens a child span; ending it emits a phase event carrying its
// name, duration and allocation delta. The child inherits the parent span's
// pinned trace id, so a whole run tree stays consistently stamped even when
// the tracer's own id changes between phases.
func (s *Span) Phase(name string) *Span {
	if s == nil {
		return nil
	}
	child := s.tr.startSpan("phase", name, s.id, s.run, nil)
	child.trace = s.trace
	return child
}

// Registry returns the metrics registry of the span's tracer (nil for a nil
// span or a tracer without one — Registry methods tolerate both).
func (s *Span) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.tr.Registry()
}

// Set annotates the span with a key/value pair included in its end event
// (e.g. iteration counts, convergence flags, subproblem sizes).
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.fields == nil {
		s.fields = make(map[string]any)
	}
	s.fields[key] = value
	s.mu.Unlock()
}

// Event records a point event inside the span.
func (s *Span) Event(typ string, fields map[string]any) {
	if s == nil {
		return
	}
	s.tr.emit(Event{Type: typ, Span: s.id, Parent: s.parent, Run: s.run, Trace: s.trace, Fields: fields})
}

// End closes the span, emitting run_end (kind run) or phase (kind phase)
// with the span's duration, allocation delta and accumulated fields, and
// observing the duration into the registry's per-phase histogram. End is
// idempotent; only the first call emits.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	fields := s.fields
	s.mu.Unlock()

	dur := time.Since(s.start)
	alloc := int64(heapAllocBytes() - s.alloc0)
	typ := "phase"
	if s.kind == "run" {
		typ = "run_end"
	}
	s.tr.emit(Event{
		Type: typ, Name: s.name, Span: s.id, Parent: s.parent, Run: s.run,
		Trace: s.trace, DurNS: dur.Nanoseconds(), Alloc: alloc, Fields: fields,
	})
	reg := s.tr.Registry()
	if reg != nil {
		if s.kind == "run" {
			reg.Histogram("run_seconds", DurationBuckets()).Observe(dur.Seconds())
		} else {
			reg.Histogram("phase_seconds."+s.name, DurationBuckets()).Observe(dur.Seconds())
		}
	}
}

// heapAllocBytes reads the cumulative heap allocation counter from
// runtime/metrics — far cheaper than runtime.ReadMemStats, which suits
// per-span sampling.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}
