package obsv

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a flat namespace of named counters, gauges and fixed-bucket
// histograms. Instruments are created on first use and live for the
// registry's lifetime; all operations are safe for concurrent use. A nil
// *Registry is a valid disabled registry: it hands out nil instruments
// whose methods are no-ops.
//
// The experiment framework populates, among others:
//
//	runs_total                 every algorithm run started
//	run_errors_total           runs that ended with any error
//	run_timeouts_total         runs cancelled by the per-run wall-clock budget
//	run_panics_total           runs that panicked and were recovered in the worker
//	lap_solve_size             histogram of assignment problem sizes
//	assign_candidates_per_row  histogram of sparse-pipeline candidate counts (k)
//	assign_auction_rounds      histogram of auction bidding rounds per solve
//	assign_fallbacks_total     sparse solves that fell back to dense JV
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the existing buckets; the
// bounds argument is then ignored). Bounds must be sorted ascending; an
// implicit overflow bucket catches values above the last bound.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a JSON-able view of every instrument: counters as
// integers, gauges as floats, histograms as count/sum/mean plus p50/p90/p99
// and per-bucket counts.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	return map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// PublishExpvar exposes the registry snapshot under the given expvar name
// (and therefore on /debug/vars). Publishing is idempotent: a name that is
// already taken — by this registry or anything else — is left alone, since
// expvar.Publish panics on duplicates.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 measurement. Nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (used for occupancy-style gauges).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v with bounds[i-1] < v <= bounds[i] (the first bucket has an implicit
// lower bound of 0 for quantile interpolation — the framework's histograms
// hold durations and sizes, which are non-negative); one extra overflow
// bucket catches v > bounds[len-1]. Nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64   // float64 bits
	total  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank. Values in the overflow bucket report the
// last bound. The result is always a defined finite value: an empty
// histogram (no observations, or one constructed with no buckets) reports
// 0, and q outside [0, 1] — including NaN — is clamped into the range
// (NaN clamps to 0).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if !(q >= 0) { // also catches NaN
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the JSON form of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount pairs a bucket's inclusive upper bound with its count; the
// overflow bucket reports +Inf as "inf".
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON renders the overflow bound as the string "inf", which plain
// float64 JSON cannot represent.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return json.Marshal(map[string]any{"le": "inf", "count": b.Count})
	}
	return json.Marshal(map[string]any{"le": b.LE, "count": b.Count})
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.total.Load(),
		Sum:   math.Float64frombits(h.sum.Load()),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	s.Buckets = make([]BucketCount, len(h.counts))
	for i := range h.counts {
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: le, Count: h.counts[i].Load()}
	}
	return s
}

// DurationBuckets is the standard bucket layout for run and phase times:
// exponential-ish bounds from 1 ms to 10 minutes, in seconds.
func DurationBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300, 600,
	}
}

// SizeBuckets is the standard bucket layout for problem sizes (node counts,
// LAP dimensions): powers of four from 4 to 4^10 ≈ 1M.
func SizeBuckets() []float64 {
	out := make([]float64, 10)
	v := 4.0
	for i := range out {
		out[i] = v
		v *= 4
	}
	return out
}

// PoolHooks returns worker-lifecycle callbacks for parallel.SetHooks that
// track pool occupancy in r: the pool.active_workers gauge counts currently
// running pooled goroutines and pool.workers_started counts launches.
func PoolHooks(r *Registry) (onStart, onStop func()) {
	active := r.Gauge("pool.active_workers")
	started := r.Counter("pool.workers_started")
	return func() {
			started.Add(1)
			active.Add(1)
		}, func() {
			active.Add(-1)
		}
}
