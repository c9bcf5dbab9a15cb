package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
)

// ErrSessionsFull rejects session creation when the bounded session table is
// at capacity; the HTTP layer maps it to 429.
var ErrSessionsFull = errors.New("serve: session table full")

// ErrNoSession reports an unknown session id (HTTP 404).
var ErrNoSession = errors.New("serve: no such session")

// SessionSpec configures one incremental alignment session
// (POST /v1/sessions). The knobs mirror incremental.Options; see DESIGN.md
// §16 for their semantics.
type SessionSpec struct {
	// Algo is the canonical algorithm name; it must expose a scorer
	// (algo.ScoringAligner: REGAL, CONE, GRASP, NSD, LREA), or creation
	// fails with incremental.ErrNotIncremental.
	Algo string
	// TopK is the candidate list length (0 = 10).
	TopK int
	// Workers bounds intra-session fan-out (0 = server default), capped at
	// Options.JobWorkers.
	Workers int
	// DriftThreshold, ColTolerance and DirtyHops tune the warm path; zero
	// values take the incremental package defaults.
	DriftThreshold float64
	ColTolerance   float64
	DirtyHops      int
}

// SessionHandle is one live incremental session owned by the server. Unlike
// jobs, sessions are interactive and synchronous: the cold alignment happens
// at creation, each edits call re-aligns before returning. The embedded
// incremental.Session serializes applies; the handle's own mutex guards the
// bookkeeping around it.
type SessionHandle struct {
	ID   string
	Spec SessionSpec

	sess                 *incremental.Session
	srcLabels, dstLabels []string

	mu        sync.Mutex
	created   time.Time
	lastApply time.Time
	lastStats []incremental.ApplyStats
}

// CreateSession cold-aligns the pair and admits the session into the bounded
// table. The alignment runs synchronously under the server's base context,
// so shutdown cancels it.
func (s *Server) CreateSession(src, dst *graph.Graph, srcLabels, dstLabels []string, spec SessionSpec) (*SessionHandle, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	a, err := s.opts.Factory(spec.Algo)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if src.N() > dst.N() {
		return nil, fmt.Errorf("serve: source graph larger than target (%d > %d)", src.N(), dst.N())
	}
	if spec.TopK <= 0 {
		spec.TopK = 10
	}
	spec.Workers = s.jobWorkers(spec.Workers)

	// Admission before the (expensive) cold alignment: a full table must
	// reject without burning CPU first. The slot is released on failure.
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.reg.Counter("serve_sessions_rejected_total").Add(1)
		return nil, ErrSessionsFull
	}
	id := fmt.Sprintf("s%08d", s.nextSessID.Add(1))
	s.sessions[id] = nil // reserve the slot
	s.mu.Unlock()

	if s.cache != nil {
		algo.ApplyCache(a, s.cache)
	}
	sess, err := incremental.NewSession(s.baseCtx, a, src, dst, incremental.Options{
		TopK:           spec.TopK,
		Workers:        spec.Workers,
		DriftThreshold: spec.DriftThreshold,
		ColTolerance:   spec.ColTolerance,
		DirtyHops:      spec.DirtyHops,
		Tracer:         s.trace.ChildTrace(id),
		Registry:       s.reg,
	})
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: %w", err)
	}
	h := &SessionHandle{
		ID: id, Spec: spec,
		sess:      sess,
		srcLabels: srcLabels, dstLabels: dstLabels,
		created: time.Now(),
	}
	s.mu.Lock()
	s.sessions[id] = h
	open := len(s.sessions)
	s.mu.Unlock()
	s.reg.Counter("serve_sessions_created_total").Add(1)
	s.reg.Gauge("serve_sessions_open").Set(float64(open))
	return h, nil
}

// Session looks up a live session by id. A reserved-but-unbuilt slot is not
// visible.
func (s *Server) Session(id string) (*SessionHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.sessions[id]
	if !ok || h == nil {
		return nil, ErrNoSession
	}
	return h, nil
}

// Sessions snapshots the live sessions (no particular order).
func (s *Server) Sessions() []*SessionHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SessionHandle, 0, len(s.sessions))
	for _, h := range s.sessions {
		if h != nil {
			out = append(out, h)
		}
	}
	return out
}

// DeleteSession drops the session, freeing its slot (the artifacts it cached
// stay in the shared cache for future tenants).
func (s *Server) DeleteSession(id string) error {
	s.mu.Lock()
	h, ok := s.sessions[id]
	if ok && h != nil {
		delete(s.sessions, id)
	}
	open := len(s.sessions)
	s.mu.Unlock()
	if !ok || h == nil {
		return ErrNoSession
	}
	s.reg.Gauge("serve_sessions_open").Set(float64(open))
	return nil
}

// ApplyEdits replays the given batches in order against the session's target
// graph, re-aligning after each. It returns the per-batch statistics; the
// session's mapping afterwards reflects the final batch.
func (s *Server) ApplyEdits(h *SessionHandle, batches [][]graph.Edit) ([]incremental.ApplyStats, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	stats := make([]incremental.ApplyStats, 0, len(batches))
	for i, batch := range batches {
		st, err := h.sess.Apply(s.baseCtx, batch)
		if err != nil {
			return stats, fmt.Errorf("serve: batch %d: %w", i, err)
		}
		stats = append(stats, st)
	}
	h.mu.Lock()
	h.lastApply = time.Now()
	h.lastStats = stats
	h.mu.Unlock()
	s.reg.Counter("serve_session_edits_total").Add(int64(len(batches)))
	return stats, nil
}

// drainSessions empties the session table at shutdown.
func (s *Server) drainSessions() {
	s.mu.Lock()
	s.sessions = make(map[string]*SessionHandle)
	s.mu.Unlock()
	s.reg.Gauge("serve_sessions_open").Set(0)
}

// SessionView is the JSON shape of a session. The mapping is paginated with
// the same offset/limit contract as job results.
type SessionView struct {
	ID            string       `json:"id"`
	Algo          string       `json:"algo"`
	TopK          int          `json:"topk"`
	DirtyHops     int          `json:"dirty_hops,omitempty"`
	ColTolerance  float64      `json:"col_tolerance,omitempty"`
	NSrc          int          `json:"n_src"`
	NDst          int          `json:"n_dst"`
	MDst          int          `json:"m_dst"`
	Applies       int          `json:"applies"`
	CreatedNS     int64        `json:"created_unix_ns"`
	LastApplyNS   int64        `json:"last_apply_unix_ns,omitempty"`
	MappingOffset int          `json:"mapping_offset"`
	MappingTotal  int          `json:"mapping_total"`
	Mapping       []int        `json:"mapping,omitempty"`
	LastStats     []BatchStats `json:"last_stats,omitempty"`
}

// BatchStats is the JSON rendering of one batch's incremental.ApplyStats.
type BatchStats struct {
	Edits     int `json:"edits"`
	DirtyRows int `json:"dirty_rows"`
	DirtyCols int `json:"dirty_cols"`
	// RescanRows counts the candidate rows rebuilt by a full scan.
	RescanRows int     `json:"rescan_rows"`
	Warm       bool    `json:"warm"`
	RebidRows  int     `json:"rebid_rows"`
	Rounds     int     `json:"rounds"`
	Noop       bool    `json:"noop"`
	TimeMS     float64 `json:"time_ms"`
}

func batchStats(st incremental.ApplyStats) BatchStats {
	return BatchStats{
		Edits:      st.Edits,
		DirtyRows:  st.DirtyRows,
		DirtyCols:  st.ChangedCols,
		RescanRows: st.RescanRows,
		Warm:       st.Warm,
		RebidRows:  st.RebidRows,
		Rounds:     st.Rounds,
		Noop:       st.Noop,
		TimeMS:     float64(st.RefreshTime+st.CandidateTime+st.SolveTime) / float64(time.Millisecond),
	}
}

// View snapshots the session with a page of its mapping (offset/limit as in
// pageMapping; limit 0 = everything from offset).
func (h *SessionHandle) View(offset, limit int) SessionView {
	mapping := h.sess.Mapping()
	page, off := pageMapping(mapping, offset, limit)
	h.mu.Lock()
	defer h.mu.Unlock()
	v := SessionView{
		ID:            h.ID,
		Algo:          h.Spec.Algo,
		TopK:          h.Spec.TopK,
		DirtyHops:     h.Spec.DirtyHops,
		ColTolerance:  h.Spec.ColTolerance,
		NSrc:          h.sess.Source().N(),
		NDst:          h.sess.Target().N(),
		MDst:          h.sess.Target().M(),
		Applies:       h.sess.Applies(),
		CreatedNS:     h.created.UnixNano(),
		MappingOffset: off,
		MappingTotal:  len(mapping),
		Mapping:       page,
	}
	if !h.lastApply.IsZero() {
		v.LastApplyNS = h.lastApply.UnixNano()
	}
	for _, st := range h.lastStats {
		v.LastStats = append(v.LastStats, batchStats(st))
	}
	return v
}

// pageMapping slices one page out of a mapping: offsets are clamped to
// [0, len], limit 0 means "to the end". The returned offset is the clamped
// one actually used.
func pageMapping(mapping []int, offset, limit int) ([]int, int) {
	if offset < 0 {
		offset = 0
	}
	if offset > len(mapping) {
		offset = len(mapping)
	}
	end := len(mapping)
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	return mapping[offset:end], offset
}
