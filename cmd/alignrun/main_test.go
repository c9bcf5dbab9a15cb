package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"graphalign"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv/tracefile"
)

func TestMain(m *testing.M) {
	if os.Getenv("RUN_ALIGNRUN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_ALIGNRUN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// writeInstance creates a base/noisy pair of edge-list files plus a truth
// file, returning their paths.
func writeInstance(t *testing.T) (src, dst, truth string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	base := gen.PowerlawCluster(80, 3, 0.3, rng)
	pair, err := noise.Apply(base, noise.OneWay, 0.01, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	src = filepath.Join(dir, "src.edges")
	dst = filepath.Join(dir, "dst.edges")
	truth = filepath.Join(dir, "truth.txt")
	if err := graphalign.WriteGraphFile(src, pair.Source); err != nil {
		t.Fatal(err)
	}
	if err := graphalign.WriteGraphFile(dst, pair.Target); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(truth)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for u, v := range pair.TrueMap {
		fmt.Fprintf(w, "%d %d\n", u, v)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return src, dst, truth
}

func TestAlignWithTruth(t *testing.T) {
	src, dst, truth := writeInstance(t)
	out, err := run(t, "-algo", "IsoRank", "-src", src, "-dst", dst, "-truth", truth, "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "accuracy=") {
		t.Errorf("metrics line missing accuracy:\n%s", out)
	}
	if !strings.Contains(out, "S3=") || !strings.Contains(out, "MNC=") {
		t.Errorf("metrics line incomplete:\n%s", out)
	}
}

func TestMappingOutput(t *testing.T) {
	src, dst, _ := writeInstance(t)
	out, err := run(t, "-algo", "NSD", "-assign", "SG", "-src", src, "-dst", dst)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Mapping lines: "label label" pairs, one per source node.
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(strings.TrimSpace(line), " ") == 1 && !strings.Contains(line, "=") {
			lines++
		}
	}
	if lines < 70 {
		t.Errorf("expected ~80 mapping lines, got %d:\n%s", lines, out)
	}
}

func TestMissingArguments(t *testing.T) {
	if _, err := run(t, "-algo", "NSD"); err == nil {
		t.Error("missing -src/-dst accepted")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	src, dst, _ := writeInstance(t)
	if out, err := run(t, "-algo", "Nope", "-src", src, "-dst", dst); err == nil {
		t.Errorf("unknown algorithm accepted:\n%s", out)
	}
}

func TestTraceOutProducesParsableTrace(t *testing.T) {
	src, dst, _ := writeInstance(t)
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "-algo", "NSD", "-src", src, "-dst", dst, "-q", "-trace-out", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	parsed, err := tracefile.ReadFiles(trace)
	if err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	if len(parsed.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(parsed.Runs))
	}
	r := parsed.Runs[0]
	if r.Algo != "NSD" || r.Incomplete {
		t.Fatalf("run = %+v", r)
	}
	names := map[string]bool{}
	for _, c := range r.Root.Children {
		names[c.Name] = true
	}
	if !names["similarity"] || !names["assign"] {
		t.Errorf("span tree missing similarity/assign phases; have %v", names)
	}
	if !strings.HasPrefix(r.Trace, "alignrun-") {
		t.Errorf("trace id = %q, want alignrun- prefix", r.Trace)
	}
	meta := parsed.Meta[r.Trace]
	if meta["cmd"] != "alignrun" || meta["algo"] != "NSD" {
		t.Errorf("trace_meta = %v, want cmd=alignrun algo=NSD", meta)
	}
}

// TestTopKMonolithic: -topk reaches a run without -partitions — its assign
// phase runs the sparse pipeline and records the candidate count.
func TestTopKMonolithic(t *testing.T) {
	src, dst, _ := writeInstance(t)
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "-algo", "REGAL", "-src", src, "-dst", dst, "-topk", "16", "-q", "-trace-out", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	parsed, err := tracefile.ReadFiles(trace)
	if err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	if len(parsed.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(parsed.Runs))
	}
	for _, c := range parsed.Runs[0].Root.Children {
		if c.Name == "assign" {
			if got := c.Fields["topk"]; got != float64(16) {
				t.Errorf("assign phase topk = %v, want 16", got)
			}
			return
		}
	}
	t.Error("no assign phase in the trace")
}

// TestEditsRejectAssign: the incremental session always runs the sparse
// auction, so an explicit -assign with -edits is refused, not ignored.
func TestEditsRejectAssign(t *testing.T) {
	src, dst, _ := writeInstance(t)
	edits := filepath.Join(t.TempDir(), "s.edits")
	if err := os.WriteFile(edits, []byte("add 0 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "-algo", "REGAL", "-src", src, "-dst", dst, "-edits", edits, "-assign", "JV", "-q")
	if err == nil {
		t.Fatalf("-edits with -assign accepted:\n%s", out)
	}
	if !strings.Contains(out, "-assign") {
		t.Errorf("error does not name -assign:\n%s", out)
	}
}

func TestTimeSplitReported(t *testing.T) {
	src, dst, _ := writeInstance(t)
	out, err := run(t, "-algo", "NSD", "-src", src, "-dst", dst, "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, field := range []string{"time=", "sim_time=", "assign_time="} {
		if !strings.Contains(out, field) {
			t.Errorf("metrics line missing %s:\n%s", field, out)
		}
	}
}

// TestTruthFromGraphgen: the ground truth graphgen -perturb -truth writes,
// read back by alignrun -truth on the same files, scores exactly the
// accuracy of the true correspondence computed in process. Both edge-list
// files are re-numbered by first appearance when read, so the truth file
// has to name nodes by label.
func TestTruthFromGraphgen(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.edges")
	noisy := filepath.Join(dir, "noisy.edges")
	truth := filepath.Join(dir, "truth.txt")
	if err := graphalign.WriteGraphFile(base, gen.PowerlawCluster(400, 3, 0.3, rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	graphgen := filepath.Join(dir, "graphgen")
	if out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", graphgen, "graphalign/cmd/graphgen").CombinedOutput(); err != nil {
		t.Fatalf("building graphgen: %v\n%s", err, out)
	}
	if out, err := exec.Command(graphgen, "-perturb", base, "-noise", "one-way", "-level", "0.01", "-seed", "7",
		"-out", noisy, "-truth", truth).CombinedOutput(); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, out)
	}
	out, err := run(t, "-algo", "REGAL", "-src", base, "-dst", noisy, "-truth", truth, "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	_, got, ok := strings.Cut(out, "accuracy=")
	if !ok {
		t.Fatalf("metrics line missing accuracy:\n%s", out)
	}
	got = strings.Fields(got)[0]

	// The same perturbation in process (graphgen seeds its generator with
	// -seed and draws nothing before the noise), mapped into the node
	// numbering alignrun reads the target file with.
	src, _, err := graphalign.ReadGraphFile(base)
	if err != nil {
		t.Fatal(err)
	}
	dst, dstLabels, err := graphalign.ReadGraphFile(noisy)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := noise.Apply(src, noise.OneWay, 0.01, noise.Options{}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if pair.Target.M() != dst.M() {
		t.Fatalf("in-process perturbation has %d edges, graphgen's %d", pair.Target.M(), dst.M())
	}
	dstID := make(map[string]int, len(dstLabels))
	for i, l := range dstLabels {
		dstID[l] = i
	}
	trueMap := make([]int, src.N())
	for u, v := range pair.TrueMap {
		id, ok := dstID[strconv.Itoa(v)]
		if !ok {
			id = -1
		}
		trueMap[u] = id
	}
	mapping, err := graphalign.Align("REGAL", src, dst, "")
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.Accuracy(mapping, trueMap)
	if want := fmt.Sprintf("%.4f", acc); got != want {
		t.Errorf("alignrun -truth accuracy = %s, in-process accuracy = %s", got, want)
	}
	if acc < 0.5 {
		t.Errorf("in-process accuracy %.4f: the instance is too hard to tell a right truth from a wrong one", acc)
	}
}
