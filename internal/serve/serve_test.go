package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/assign"
	"graphalign/internal/core"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// fakeAligner is a controllable test algorithm: identity similarity (node i
// of src matches node i of dst), with optional blocking (until ctx) and
// optional panicking, so tests can hold jobs in flight deterministically.
type fakeAligner struct {
	name     string
	block    chan struct{} // when non-nil, Similarity waits for close or ctx
	panicMsg string
}

func (f *fakeAligner) Name() string                     { return f.name }
func (f *fakeAligner) DefaultAssignment() assign.Method { return assign.NearestNeighbor }
func (f *fakeAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	if f.panicMsg != "" {
		panic(f.panicMsg)
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	sim := matrix.NewDense(src.N(), dst.N())
	for i := 0; i < src.N() && i < dst.N(); i++ {
		sim.Set(i, i, 1)
	}
	return sim, nil
}

// testFactory serves "ok", "slow-<n>" (blocking until blocks[n] closes) and
// "boom" (panics) aligners.
func testFactory(blocks map[string]chan struct{}) core.Factory {
	return func(name string) (algo.Aligner, error) {
		if name == "ok" {
			return &fakeAligner{name: name}, nil
		}
		if name == "boom" {
			return &fakeAligner{name: name, panicMsg: "synthetic aligner panic"}, nil
		}
		if ch, ok := blocks[name]; ok {
			return &fakeAligner{name: name, block: ch}, nil
		}
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T, opts Options, blocks map[string]chan struct{}) *Server {
	t.Helper()
	if opts.Factory == nil {
		opts.Factory = testFactory(blocks)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state (status %s)", j.ID, j.Status())
	}
}

// TestLifecycleSubmitRunningDone walks the happy path and checks the result
// matches a direct library call on the same inputs.
func TestLifecycleSubmitRunningDone(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2}, nil)
	src, dst := pathGraph(t, 8), pathGraph(t, 8)
	j, err := s.Submit(src, dst, nil, nil, Spec{Algo: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.Status(); st != StatusDone {
		t.Fatalf("status = %s, err = %v", st, j.Err())
	}
	res, err := algo.Run(context.Background(), &fakeAligner{name: "ok"}, src, dst, algo.Plan{Method: assign.NearestNeighbor})
	if err != nil {
		t.Fatal(err)
	}
	want, got := res.Mapping, j.Mapping()
	if len(got) != len(want) {
		t.Fatalf("mapping length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mapping[%d] = %d, want %d (must be byte-identical to the library call)", i, got[i], want[i])
		}
	}
	v := j.View()
	if v.Result == nil || v.Result.EC == 0 {
		t.Fatalf("view missing result/scores: %+v", v)
	}
	if v.StartedNS == 0 || v.DoneNS == 0 {
		t.Fatalf("view missing timestamps: %+v", v)
	}
}

// TestQueueFullRejects pins admission control at the library level: one
// worker occupied, QueueSize jobs queued, the next submission fails with
// ErrQueueFull — and is NOT tracked (a rejected job must not leak).
func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	blocks := map[string]chan struct{}{"slow": release}
	s := newTestServer(t, Options{Workers: 1, QueueSize: 2}, blocks)
	g := pathGraph(t, 4)

	first, err := s.Submit(g, g, nil, nil, Spec{Algo: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job so the queue fills cleanly.
	waitStatus(t, first, StatusRunning)
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(g, g, nil, nil, Spec{Algo: "slow"})
		if err != nil {
			t.Fatalf("submission %d should queue: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(g, g, nil, nil, Spec{Algo: "slow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit err = %v, want ErrQueueFull", err)
	}
	if got := s.reg.Counter("serve_jobs_rejected_total").Value(); got != 1 {
		t.Fatalf("serve_jobs_rejected_total = %d, want 1", got)
	}
	close(release)
	waitTerminal(t, first)
	for _, j := range queued {
		waitTerminal(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("queued job %s ended %s (%v)", j.ID, j.Status(), j.Err())
		}
	}
}

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (status %s)", j.ID, want, j.Status())
}

// TestPerJobTimeoutTypedError: a job over its budget fails with the typed
// core.ErrTimeout cause and ErrKindTimeout in its API view.
func TestPerJobTimeoutTypedError(t *testing.T) {
	blocks := map[string]chan struct{}{"slow": make(chan struct{})} // never released
	s := newTestServer(t, Options{Workers: 1}, blocks)
	g := pathGraph(t, 4)
	j, err := s.Submit(g, g, nil, nil, Spec{Algo: "slow", Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status())
	}
	if !errors.Is(j.Err(), core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", j.Err())
	}
	if v := j.View(); v.ErrorKind != ErrKindTimeout {
		t.Fatalf("error_kind = %q, want %q", v.ErrorKind, ErrKindTimeout)
	}
	if got := s.reg.Counter("serve_jobs_timeout_total").Value(); got != 1 {
		t.Fatalf("serve_jobs_timeout_total = %d, want 1", got)
	}
}

// TestCancelMidRun: cancelling a running job stops it cooperatively and
// classifies it cancelled, not failed.
func TestCancelMidRun(t *testing.T) {
	blocks := map[string]chan struct{}{"slow": make(chan struct{})}
	s := newTestServer(t, Options{Workers: 1}, blocks)
	g := pathGraph(t, 4)
	j, err := s.Submit(g, g, nil, nil, Spec{Algo: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning)
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.Status() != StatusCancelled {
		t.Fatalf("status = %s (%v), want cancelled", j.Status(), j.Err())
	}
	if v := j.View(); v.ErrorKind != ErrKindCancelled {
		t.Fatalf("error_kind = %q, want %q", v.ErrorKind, ErrKindCancelled)
	}
}

// TestCancelWhileQueued: a job cancelled before any worker claims it must
// terminate as cancelled without ever running.
func TestCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	blocks := map[string]chan struct{}{"slow": release}
	s := newTestServer(t, Options{Workers: 1, QueueSize: 4}, blocks)
	g := pathGraph(t, 4)
	first, _ := s.Submit(g, g, nil, nil, Spec{Algo: "slow"})
	waitStatus(t, first, StatusRunning)
	queued, err := s.Submit(g, g, nil, nil, Spec{Algo: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitTerminal(t, queued)
	if queued.Status() != StatusCancelled {
		t.Fatalf("queued-then-cancelled job ended %s", queued.Status())
	}
	if queued.View().StartedNS != 0 {
		t.Fatal("cancelled-while-queued job must never have started")
	}
}

// TestPanicIsolation: a panicking aligner fails only its own job; the worker
// survives and the next job on the same server completes.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1}, nil)
	g := pathGraph(t, 4)
	bad, err := s.Submit(g, g, nil, nil, Spec{Algo: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad)
	if bad.Status() != StatusFailed {
		t.Fatalf("panicking job status = %s", bad.Status())
	}
	if !errors.Is(bad.Err(), core.ErrPanic) {
		t.Fatalf("err = %v, want core.ErrPanic", bad.Err())
	}
	if v := bad.View(); v.ErrorKind != ErrKindPanic {
		t.Fatalf("error_kind = %q, want %q", v.ErrorKind, ErrKindPanic)
	}
	good, err := s.Submit(g, g, nil, nil, Spec{Algo: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good)
	if good.Status() != StatusDone {
		t.Fatalf("job after panic ended %s (%v) — worker did not survive", good.Status(), good.Err())
	}
	if got := s.reg.Counter("serve_jobs_panic_total").Value(); got != 1 {
		t.Fatalf("serve_jobs_panic_total = %d, want 1", got)
	}
}

// TestShutdownDrainsAndRestartsClean is the kill-and-restart test: shutdown
// finalizes every accepted job (running ones cancelled cooperatively, queued
// ones never run), and a fresh server starts with no memory of them — jobs
// are not silently resurrected half-done.
func TestShutdownDrainsAndRestartsClean(t *testing.T) {
	blocks := map[string]chan struct{}{"slow": make(chan struct{})}
	s, err := New(Options{Factory: testFactory(blocks), Workers: 1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := pathGraph(t, 4)
	running, _ := s.Submit(g, g, nil, nil, Spec{Algo: "slow"})
	waitStatus(t, running, StatusRunning)
	var accepted []*Job
	accepted = append(accepted, running)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(g, g, nil, nil, Spec{Algo: "ok"})
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Zero dropped-but-accepted jobs: every accepted job is terminal.
	for _, j := range accepted {
		select {
		case <-j.Done():
		default:
			t.Fatalf("accepted job %s left non-terminal (%s) after shutdown", j.ID, j.Status())
		}
	}
	if _, err := s.Submit(g, g, nil, nil, Spec{Algo: "ok"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown err = %v, want ErrShuttingDown", err)
	}

	// "Restart": a fresh server (new process state) must start clean.
	s2 := newTestServer(t, Options{Workers: 1}, nil)
	for _, j := range accepted {
		if _, err := s2.Job(j.ID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("restarted daemon resurrected job %s", j.ID)
		}
	}
	if got := len(s2.Jobs()); got != 0 {
		t.Fatalf("restarted daemon tracks %d jobs, want 0", got)
	}
	fresh, err := s2.Submit(g, g, nil, nil, Spec{Algo: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, fresh)
	if fresh.Status() != StatusDone {
		t.Fatalf("fresh job on restarted daemon ended %s", fresh.Status())
	}
}

// TestSharedCacheAcrossJobs: with a cache budget, two jobs on the same graph
// pair share artifacts — and results stay identical to the uncached run.
func TestSharedCacheAcrossJobs(t *testing.T) {
	reg := obsv.NewRegistry()
	s := newTestServer(t, Options{Workers: 1, CacheBudgetBytes: 1 << 20, Registry: reg, Factory: realFactoryForCache(t)}, nil)
	g := pathGraph(t, 16)
	var mappings [][]int
	for i := 0; i < 2; i++ {
		j, err := s.Submit(g, g, nil, nil, Spec{Algo: "NSD"})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("run %d ended %s (%v)", i, j.Status(), j.Err())
		}
		mappings = append(mappings, j.Mapping())
	}
	for i := range mappings[0] {
		if mappings[0][i] != mappings[1][i] {
			t.Fatalf("cached rerun diverged at node %d", i)
		}
	}
	if hits := reg.Counter("cache_hits_total").Value(); hits == 0 {
		t.Fatal("second identical job produced no cache hits — tenants are not sharing artifacts")
	}
}

// realFactoryForCache returns a factory for the one real aligner the cache
// test uses; pulled from a helper so the fake-based tests stay dependency-free.
func realFactoryForCache(t *testing.T) core.Factory {
	t.Helper()
	return func(name string) (algo.Aligner, error) {
		if name != "NSD" {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		return nsd.New(), nil
	}
}
