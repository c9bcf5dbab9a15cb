package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// hangAligner blocks until its context is cancelled — the stand-in for an
// algorithm stuck in a non-converging loop.
type hangAligner struct{}

func (hangAligner) Name() string                     { return "Hang" }
func (hangAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

func (hangAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// panicAligner panics mid-similarity — the stand-in for an out-of-bounds
// index or nil dereference inside an algorithm.
type panicAligner struct{}

func (panicAligner) Name() string                     { return "Panic" }
func (panicAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

func (panicAligner) Similarity(_ context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	panic("boom")
}

func samePairs(t *testing.T, n int) []noise.Pair {
	t.Helper()
	p := smallPair(t)
	pairs := make([]noise.Pair, n)
	for i := range pairs {
		pairs[i] = p
	}
	return pairs
}

// TestRunTimeoutIsolatesHangingRun pins the headline fault-tolerance
// guarantee: a hanging algorithm burns its budget and is marked with
// ErrTimeout, while sibling runs in the same grid complete normally.
func TestRunTimeoutIsolatesHangingRun(t *testing.T) {
	opts := testOptions()
	opts.Factory = func(name string) (algo.Aligner, error) {
		if name == "Hang" {
			return hangAligner{}, nil
		}
		return testFactory(name)
	}
	opts.RunTimeout = 30 * time.Millisecond
	opts.Workers = 4
	pairs := samePairs(t, 3)

	hung, err := runAveraged(opts, "cell", "Hang", pairs, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(hung.Err, ErrTimeout) {
		t.Fatalf("hanging cell error = %v, want ErrTimeout cause", hung.Err)
	}
	var te *TimeoutError
	if !errors.As(hung.Err, &te) || te.Budget != opts.RunTimeout {
		t.Errorf("error does not carry the budget: %v", hung.Err)
	}

	ok, err := runAveraged(opts, "cell", "NSD", pairs, assign.JonkerVolgenant)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Err != nil {
		t.Fatalf("sibling cell failed alongside the hanging one: %v", ok.Err)
	}
	if ok.Scores.Accuracy <= 0 {
		t.Errorf("sibling cell produced no scores")
	}
}

// TestPanicIsRecoveredWithStack asserts a panicking run is converted into a
// typed error carrying the panic value and the captured stack.
func TestPanicIsRecoveredWithStack(t *testing.T) {
	reg := obsv.NewRegistry()
	tr := obsv.New().SetRegistry(reg)
	res := runOnce(context.Background(), panicAligner{}, smallPair(t), assign.JonkerVolgenant, RunSpec{Tracer: tr})
	if !errors.Is(res.Err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic cause", res.Err)
	}
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("err is not a *PanicError: %v", res.Err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value = %v, want boom", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "Similarity") {
		t.Errorf("stack does not reach the panicking frame:\n%s", pe.Stack)
	}
	if got := reg.Counter("run_panics_total").Value(); got != 1 {
		t.Errorf("run_panics_total = %d, want 1", got)
	}
}

// TestPanickingRunLeavesPoolAlive mixes panicking and healthy runs in one
// fan-out: the panics are contained to their own slots and every healthy
// run still completes.
func TestPanickingRunLeavesPoolAlive(t *testing.T) {
	opts := testOptions()
	opts.Workers = 4
	pairs := samePairs(t, 6)
	runs := runInstances(opts, "cell", "mixed", func(i int) (algo.Aligner, error) {
		if i%2 == 0 {
			return panicAligner{}, nil
		}
		return nsd.New(), nil
	}, pairs, assign.JonkerVolgenant)
	for i, r := range runs {
		if i%2 == 0 {
			if !errors.Is(r.Err, ErrPanic) {
				t.Errorf("run %d: err = %v, want ErrPanic cause", i, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy run %d failed: %v", i, r.Err)
		} else if r.Scores.Accuracy <= 0 {
			t.Errorf("healthy run %d produced no scores", i)
		}
	}
}

// TestTimeoutCountsInRegistry asserts the timeout path feeds the
// run_timeouts_total counter.
func TestTimeoutCountsInRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	tr := obsv.New().SetRegistry(reg)
	res := runOnce(context.Background(), hangAligner{}, smallPair(t), assign.JonkerVolgenant, RunSpec{Tracer: tr, Budget: 10 * time.Millisecond})
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout cause", res.Err)
	}
	if got := reg.Counter("run_timeouts_total").Value(); got != 1 {
		t.Errorf("run_timeouts_total = %d, want 1", got)
	}
}

// TestCancelledGridBackfillsUnstarted cancels the grid context mid-fanout:
// unstarted slots are backfilled with context.Canceled and nothing
// cancelled lands in the journal.
func TestCancelledGridBackfillsUnstarted(t *testing.T) {
	opts := testOptions()
	opts.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	opts.Checkpoint = ck

	pairs := samePairs(t, 3)
	runs := runInstances(opts, "cell", "NSD", func(i int) (algo.Aligner, error) {
		if i == 0 {
			cancel()
		}
		return nsd.New(), nil
	}, pairs, assign.JonkerVolgenant)
	for i, r := range runs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("run %d: err = %v, want context.Canceled", i, r.Err)
		}
		if _, ok := ck.Lookup("", "cell", "NSD", assign.JonkerVolgenant, i); ok {
			t.Errorf("cancelled run %d was journaled", i)
		}
	}
}

// TestCheckpointRoundTrip journals runs (including a failed one), reloads
// the journal, and asserts every field — scores, durations, allocation and
// error message — round-trips exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := testOptions()
	ck, err := OpenCheckpoint(path, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	res := RunResult{
		Algorithm:      "NSD",
		Assign:         assign.JonkerVolgenant,
		SimilarityTime: 123456789 * time.Nanosecond,
		AssignTime:     987 * time.Nanosecond,
		AllocBytes:     4096,
	}
	res.Scores.Accuracy = 1.0 / 3.0 // not exactly representable in decimal
	res.Scores.EC = 0.1
	res.Scores.ICS = 0.2
	res.Scores.S3 = 0.3
	res.Scores.MNC = 0.4
	ck.Record("exp", "cell", "NSD", assign.JonkerVolgenant, 0, res)
	failed := RunResult{Algorithm: "NSD", Assign: assign.JonkerVolgenant, Err: errors.New("similarity: boom")}
	ck.Record("exp", "cell", "NSD", assign.JonkerVolgenant, 1, failed)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	got, ok := ck2.Lookup("exp", "cell", "NSD", assign.JonkerVolgenant, 0)
	if !ok {
		t.Fatal("journaled run not found after resume")
	}
	if got.Scores != res.Scores {
		t.Errorf("scores did not round-trip: %+v vs %+v", got.Scores, res.Scores)
	}
	if got.SimilarityTime != res.SimilarityTime || got.AssignTime != res.AssignTime || got.AllocBytes != res.AllocBytes {
		t.Errorf("times/alloc did not round-trip: %+v", got)
	}
	if got.Algorithm != "NSD" || got.Assign != assign.JonkerVolgenant || got.Err != nil {
		t.Errorf("labels did not round-trip: %+v", got)
	}
	gotFailed, ok := ck2.Lookup("exp", "cell", "NSD", assign.JonkerVolgenant, 1)
	if !ok || gotFailed.Err == nil || gotFailed.Err.Error() != "similarity: boom" {
		t.Errorf("failed run did not round-trip: %+v", gotFailed)
	}
	if _, ok := ck2.Lookup("exp", "cell", "NSD", assign.JonkerVolgenant, 2); ok {
		t.Error("lookup invented a record")
	}
}

// TestCheckpointReplaySkipsRecompute seeds a journal with a sentinel result
// and asserts the fan-out replays it rather than building an aligner.
func TestCheckpointReplaySkipsRecompute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := testOptions()
	ck, err := OpenCheckpoint(path, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	opts.Checkpoint = ck
	sentinel := RunResult{Algorithm: "sentinel", Assign: assign.JonkerVolgenant}
	sentinel.Scores.Accuracy = 0.875
	ck.Record("", "cell", "NSD", assign.JonkerVolgenant, 0, sentinel)

	runs := runInstances(opts, "cell", "NSD", func(int) (algo.Aligner, error) {
		t.Error("journaled run was rebuilt")
		return nil, errors.New("unreachable")
	}, samePairs(t, 1), assign.JonkerVolgenant)
	if runs[0].Algorithm != "sentinel" || runs[0].Scores.Accuracy != 0.875 {
		t.Errorf("journaled result was not replayed: %+v", runs[0])
	}
}

// TestCheckpointHeaderMismatch asserts a journal written under different
// options refuses to resume instead of silently mixing results.
func TestCheckpointHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := testOptions()
	ck, err := OpenCheckpoint(path, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	other := opts
	other.Seed = opts.Seed + 1
	if _, err := OpenCheckpoint(path, other, true); err == nil {
		t.Error("resume accepted a journal written with a different seed")
	}
	algosChanged := opts
	algosChanged.Algorithms = []string{"NSD"}
	if _, err := OpenCheckpoint(path, algosChanged, true); err == nil {
		t.Error("resume accepted a journal written with a different algorithm set")
	}
}

// TestCheckpointToleratesTruncatedTail simulates a SIGKILL torn write: the
// journal's final line is cut mid-record, and resume must load everything
// before it.
func TestCheckpointToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := testOptions()
	ck, err := OpenCheckpoint(path, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	keep := RunResult{Algorithm: "NSD", Assign: assign.JonkerVolgenant}
	keep.Scores.Accuracy = 0.5
	ck.Record("exp", "cell", "NSD", assign.JonkerVolgenant, 0, keep)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"run","exp":"exp","cell":"cell","algo":"NSD","met`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, err := OpenCheckpoint(path, opts, true)
	if err != nil {
		t.Fatalf("resume failed on a torn tail: %v", err)
	}
	defer ck2.Close()
	if _, ok := ck2.Lookup("exp", "cell", "NSD", assign.JonkerVolgenant, 0); !ok {
		t.Error("record before the torn tail was lost")
	}
}

// TestCheckpointResumeMissingFile pins the first-run convenience: -resume
// with no journal yet behaves like a fresh start.
func TestCheckpointResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	opts := testOptions()
	ck, err := OpenCheckpoint(path, opts, true)
	if err != nil {
		t.Fatalf("resume on a missing file: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("fresh journal was not created: %v", err)
	}
}
