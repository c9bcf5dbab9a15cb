// Command alignload is the load generator for alignd: it drives many
// concurrent alignment jobs against a running daemon, honours the API's
// backpressure contract (429 + Retry-After), verifies every returned mapping
// against a direct library call on the same inputs, and reports latency
// percentiles and throughput as JSON.
//
// Usage:
//
//	alignload -url http://127.0.0.1:8080 [-jobs 200] [-concurrency 100]
//	          [-algo NSD] [-method NN] [-topk 0] [-nodes 64] [-p 0.1]
//	          [-pairs 8] [-seed 1] [-timeout 60s] [-out BENCH_serve.json]
//	          [-no-verify] [-duration 0] [-sample 10s]
//
// With -duration > 0 the generator runs a sustained soak instead of a fixed
// job count: jobs are submitted continuously until the duration elapses,
// while a sampler scrapes the daemon's /metrics every -sample interval and
// records heap bytes and goroutine counts (the daemon must run its runtime
// sampler, which alignd does by default). The report then carries the
// resource samples plus their maxima, so a soak that leaks memory or
// goroutines is visible directly in BENCH_serve.json.
//
// The generator builds -pairs distinct Erdős–Rényi graph pairs and cycles
// jobs across them (repeat pairs exercise the daemon's shared artifact
// cache). Each job's mapping must be byte-identical to graphalign.Align on
// the same edge-list text — both sides parse it with the same interner, so
// any divergence is a real serving bug, and alignload exits nonzero.
//
// Exit status is nonzero when any accepted job fails to reach a terminal
// state, fails outright, or returns a mapping that differs from the library.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphalign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "alignload:", err)
		os.Exit(1)
	}
}

// pairText is one pre-rendered graph pair plus the expected mapping computed
// through the library — the ground truth a served result must match byte for
// byte.
type pairText struct {
	src, dst string
	expected []int
}

// jobOutcome is one job's measured life.
type jobOutcome struct {
	pair      int
	latency   time.Duration
	retries   int // 429s absorbed before acceptance
	status    string
	mismatch  bool
	submitErr string
}

// report is the BENCH_serve.json shape.
type report struct {
	URL         string  `json:"url"`
	Algo        string  `json:"algo"`
	Method      string  `json:"method,omitempty"`
	TopK        int     `json:"topk,omitempty"`
	Nodes       int     `json:"nodes"`
	EdgeProb    float64 `json:"edge_prob"`
	Pairs       int     `json:"pairs"`
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	Seed        int64   `json:"seed"`

	// Soak mode only (-duration > 0).
	SoakSeconds   float64          `json:"soak_seconds,omitempty"`
	Samples       []resourceSample `json:"resource_samples,omitempty"`
	HeapMaxBytes  float64          `json:"heap_max_bytes,omitempty"`
	GoroutinesMax float64          `json:"goroutines_max,omitempty"`

	Accepted   int `json:"accepted"`
	Done       int `json:"done"`
	Failed     int `json:"failed"`
	Cancelled  int `json:"cancelled"`
	NonTermin  int `json:"accepted_not_terminal"`
	SubmitErrs int `json:"submit_errors"`
	Retries429 int `json:"retries_429"`
	Mismatches int `json:"result_mismatches"`
	Verified   int `json:"results_verified"`

	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputJPS float64 `json:"throughput_jobs_per_sec"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("alignload", flag.ContinueOnError)
	var (
		url         = fs.String("url", "", "base URL of a running alignd (required)")
		jobs        = fs.Int("jobs", 200, "total jobs to submit")
		concurrency = fs.Int("concurrency", 100, "client goroutines submitting and polling")
		algo        = fs.String("algo", "NSD", "algorithm for every job")
		method      = fs.String("method", "", "assignment method (empty = algorithm default)")
		topk        = fs.Int("topk", 0, "sparse candidate count (0 = dense)")
		nodes       = fs.Int("nodes", 64, "nodes per generated graph")
		edgeP       = fs.Float64("p", 0.1, "Erdős–Rényi edge probability")
		pairs       = fs.Int("pairs", 8, "distinct graph pairs cycled across jobs")
		seed        = fs.Int64("seed", 1, "generator seed")
		timeout     = fs.Duration("timeout", 60*time.Second, "client-side budget per job (submit retries + completion)")
		out         = fs.String("out", "", "write the JSON report here (default stdout only)")
		noVerify    = fs.Bool("no-verify", false, "skip byte-identity verification against the library")
		duration    = fs.Duration("duration", 0, "sustained-soak length; 0 = fixed -jobs count mode")
		sample      = fs.Duration("sample", 10*time.Second, "resource sampling interval during -duration soaks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	base := strings.TrimRight(*url, "/")
	if *jobs <= 0 || *concurrency <= 0 || *pairs <= 0 {
		return fmt.Errorf("-jobs, -concurrency and -pairs must be positive")
	}

	texts, err := buildPairs(*pairs, *nodes, *edgeP, *seed, *algo, graphalign.AssignMethod(*method), !*noVerify)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var outcomes []jobOutcome
	var samples []resourceSample
	var wg sync.WaitGroup
	start := time.Now()
	if *duration > 0 {
		// Sustained soak: keep the concurrency level saturated until the
		// deadline, sampling the daemon's resource gauges along the way.
		deadline := start.Add(*duration)
		var mu sync.Mutex
		var counter int64
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(atomic.AddInt64(&counter, 1) - 1)
					o := driveJob(client, base, texts[i%len(texts)], i%len(texts), *algo, *method, *topk, *timeout, !*noVerify)
					mu.Lock()
					outcomes = append(outcomes, o)
					mu.Unlock()
				}
			}()
		}
		stopSampling := make(chan struct{})
		var samplerWG sync.WaitGroup
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			ticker := time.NewTicker(*sample)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if s, ok := scrapeResources(client, base, time.Since(start)); ok {
						samples = append(samples, s)
					}
				case <-stopSampling:
					return
				}
			}
		}()
		wg.Wait()
		close(stopSampling)
		samplerWG.Wait()
		// One final scrape so even short soaks record an end-state sample.
		if s, ok := scrapeResources(client, base, time.Since(start)); ok {
			samples = append(samples, s)
		}
	} else {
		outcomes = make([]jobOutcome, *jobs)
		next := make(chan int)
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					outcomes[i] = driveJob(client, base, texts[i%len(texts)], i%len(texts), *algo, *method, *topk, *timeout, !*noVerify)
				}
			}()
		}
		for i := 0; i < *jobs; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	wall := time.Since(start)

	rep := summarize(outcomes, wall)
	if *duration > 0 {
		rep.SoakSeconds = duration.Seconds()
		rep.Samples = samples
		for _, s := range samples {
			rep.HeapMaxBytes = math.Max(rep.HeapMaxBytes, s.HeapBytes)
			rep.GoroutinesMax = math.Max(rep.GoroutinesMax, s.Goroutines)
		}
	}
	rep.URL, rep.Algo, rep.Method, rep.TopK = base, *algo, *method, *topk
	rep.Nodes, rep.EdgeProb, rep.Pairs = *nodes, *edgeP, *pairs
	rep.Jobs, rep.Concurrency, rep.Seed = *jobs, *concurrency, *seed

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
	}
	stdout.Write(raw)

	switch {
	case rep.SubmitErrs > 0:
		return fmt.Errorf("%d jobs were never accepted", rep.SubmitErrs)
	case rep.NonTermin > 0:
		return fmt.Errorf("%d accepted jobs never reached a terminal state (dropped-but-accepted)", rep.NonTermin)
	case rep.Failed > 0 || rep.Cancelled > 0:
		return fmt.Errorf("%d jobs failed, %d cancelled", rep.Failed, rep.Cancelled)
	case rep.Mismatches > 0:
		return fmt.Errorf("%d results differ from the direct library call", rep.Mismatches)
	}
	return nil
}

// buildPairs renders the graph pairs as edge-list text and, when verifying,
// computes each pair's expected mapping through the library — parsing the
// text exactly as the daemon will, so dense node ids agree on both sides.
func buildPairs(pairs, nodes int, p float64, seed int64, algoName string, method graphalign.AssignMethod, verify bool) ([]pairText, error) {
	texts := make([]pairText, pairs)
	rng := rand.New(rand.NewSource(seed))
	for i := range texts {
		src := gen.ErdosRenyi(nodes, p, rng)
		dst := gen.ErdosRenyi(nodes, p, rng)
		if src.M() == 0 || dst.M() == 0 {
			return nil, fmt.Errorf("pair %d: empty graph (raise -p or -nodes)", i)
		}
		var sb, db bytes.Buffer
		if err := graph.WriteEdgeList(&sb, src); err != nil {
			return nil, err
		}
		if err := graph.WriteEdgeList(&db, dst); err != nil {
			return nil, err
		}
		pt := pairText{src: sb.String(), dst: db.String()}
		// Re-parse the rendered text the same way the daemon will (isolated
		// nodes drop out of an edge list, so parsed sizes can differ from the
		// generator's n) and keep the orientation the daemon accepts:
		// submissions with src larger than dst are rejected.
		ps, _, err := graph.ReadEdgeList(strings.NewReader(pt.src))
		if err != nil {
			return nil, err
		}
		pd, _, err := graph.ReadEdgeList(strings.NewReader(pt.dst))
		if err != nil {
			return nil, err
		}
		if ps.N() > pd.N() {
			pt.src, pt.dst = pt.dst, pt.src
			ps, pd = pd, ps
		}
		if verify {
			mapping, err := graphalign.Align(algoName, ps, pd, method)
			if err != nil {
				return nil, fmt.Errorf("library baseline for pair %d: %w", i, err)
			}
			pt.expected = mapping
		}
		texts[i] = pt
	}
	return texts, nil
}

// driveJob submits one job (absorbing 429s per the Retry-After contract),
// polls it to a terminal state and verifies the mapping.
func driveJob(client *http.Client, base string, pt pairText, pair int, algoName, method string, topk int, budget time.Duration, verify bool) jobOutcome {
	o := jobOutcome{pair: pair}
	body, _ := json.Marshal(map[string]any{
		"algo": algoName, "method": method, "topk": topk,
		"src": pt.src, "dst": pt.dst,
	})
	deadline := time.Now().Add(budget)
	start := time.Now()

	var id string
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			o.submitErr = err.Error()
			return o
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			o.retries++
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			// The hint is an upper bound for a mostly-idle retry loop; a
			// load generator probes faster but still backs off.
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
			if time.Now().Add(wait).After(deadline) {
				o.submitErr = "queue full until client budget exhausted"
				return o
			}
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			o.submitErr = fmt.Sprintf("status %d: %s", resp.StatusCode, raw)
			return o
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
			o.submitErr = fmt.Sprintf("bad submit response %q", raw)
			return o
		}
		id = v.ID
		break
	}

	for {
		if time.Now().After(deadline) {
			o.status = "client-timeout"
			return o
		}
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			o.status = "poll-error: " + err.Error()
			return o
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v struct {
			Status string `json:"status"`
			Result *struct {
				Mapping []int `json:"mapping"`
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			o.status = "poll-error: bad body"
			return o
		}
		switch v.Status {
		case "done":
			o.status = v.Status
			o.latency = time.Since(start)
			if verify {
				if v.Result == nil || !equalInts(v.Result.Mapping, pt.expected) {
					o.mismatch = true
				}
			}
			return o
		case "failed", "cancelled":
			o.status = v.Status
			o.latency = time.Since(start)
			return o
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// resourceSample is one /metrics scrape of the daemon's runtime gauges.
type resourceSample struct {
	AtSeconds  float64 `json:"at_seconds"`
	HeapBytes  float64 `json:"heap_bytes"`
	Goroutines float64 `json:"goroutines"`
}

// scrapeResources reads graphalign_runtime_heap_bytes and
// graphalign_runtime_goroutines off the daemon's Prometheus exposition. A
// daemon running without its runtime sampler simply yields no samples
// (ok=false), never an error — resource visibility is best-effort.
func scrapeResources(client *http.Client, base string, at time.Duration) (resourceSample, bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return resourceSample{}, false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return resourceSample{}, false
	}
	s := resourceSample{AtSeconds: at.Seconds(), HeapBytes: -1, Goroutines: -1}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "graphalign_runtime_heap_bytes":
			s.HeapBytes = v
		case "graphalign_runtime_goroutines":
			s.Goroutines = v
		}
	}
	if s.HeapBytes < 0 || s.Goroutines < 0 {
		return resourceSample{}, false
	}
	return s, true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func summarize(outcomes []jobOutcome, wall time.Duration) report {
	var rep report
	var lats []time.Duration
	for _, o := range outcomes {
		if o.submitErr != "" {
			rep.SubmitErrs++
			continue
		}
		rep.Accepted++
		rep.Retries429 += o.retries
		switch o.status {
		case "done":
			rep.Done++
			lats = append(lats, o.latency)
			if o.mismatch {
				rep.Mismatches++
			} else {
				rep.Verified++
			}
		case "failed":
			rep.Failed++
		case "cancelled":
			rep.Cancelled++
		default:
			rep.NonTermin++
		}
	}
	rep.WallSeconds = wall.Seconds()
	if rep.WallSeconds > 0 {
		rep.ThroughputJPS = float64(rep.Done) / rep.WallSeconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(lats)-1))
			return float64(lats[idx]) / float64(time.Millisecond)
		}
		rep.LatencyP50MS = pct(0.50)
		rep.LatencyP90MS = pct(0.90)
		rep.LatencyP99MS = pct(0.99)
		rep.LatencyMaxMS = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	return rep
}
