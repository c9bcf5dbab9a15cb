package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphalign"
)

func TestMain(m *testing.M) {
	if os.Getenv("RUN_GRAPHGEN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RUN_GRAPHGEN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestGenerateModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ba.edges")
	out, err := run(t, "-model", "BA", "-n", "200", "-seed", "3", "-out", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	g, _, err := graphalign.ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Errorf("generated n = %d", g.N())
	}
	if g.M() != 5+(200-5-1)*5 {
		t.Errorf("generated m = %d", g.M())
	}
}

func TestGenerateDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "celegans.edges")
	if out, err := run(t, "-dataset", "bio-celegans", "-out", path); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	g, _, err := graphalign.ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 453 {
		t.Errorf("bio-celegans stand-in n = %d, want 453", g.N())
	}
}

func TestPerturbWithTruth(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.edges")
	noisy := filepath.Join(dir, "noisy.edges")
	truth := filepath.Join(dir, "truth.txt")
	if out, err := run(t, "-model", "ER", "-n", "150", "-out", base); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := run(t, "-perturb", base, "-noise", "one-way", "-level", "0.1",
		"-out", noisy, "-truth", truth); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	g1, _, err := graphalign.ReadGraphFile(base)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := graphalign.ReadGraphFile(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() >= g1.M() {
		t.Errorf("one-way noise did not remove edges: %d vs %d", g2.M(), g1.M())
	}
	data, err := os.ReadFile(truth)
	if err != nil {
		t.Fatal(err)
	}
	// One line per node of the noisy file: nodes the noise left isolated
	// are absent from it, so they have no counterpart to name.
	if lines := strings.Count(string(data), "\n"); lines != g2.N() {
		t.Errorf("truth file has %d lines, want %d", lines, g2.N())
	}
}

func TestListDatasets(t *testing.T) {
	out, err := run(t, "-datasets")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "arenas") || !strings.Contains(out, "multimagna") {
		t.Errorf("-datasets output incomplete:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := run(t, "-model", "BA", "-n", "50"); err == nil {
		t.Error("missing -out accepted")
	}
	if _, err := run(t, "-out", "/tmp/x.edges"); err == nil {
		t.Error("no generation mode accepted")
	}
	if _, err := run(t, "-model", "NOPE", "-n", "50", "-out", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("unknown model accepted")
	}
}
