// Package server is the cosimd session service: co-simulation as a
// shared, admission-controlled resource. It turns harness.RunContext
// into a multi-session daemon — each HTTP request admits one
// wire-serializable harness.Spec onto a bounded worker pool, and every
// session gets identity, live metrics, cooperative cancellation and a
// deadline of its own.
//
// Robustness properties, in order of importance:
//
//   - Admission control: at most Workers sessions run and QueueDepth
//     wait; beyond that POST /v1/sessions answers 429 with a
//     Retry-After hint instead of queueing unboundedly.
//   - Per-session quotas: a request asking for more CPUs or simulated
//     time than the server allows is rejected with 400 up front — it
//     could never legally run, so retrying is pointless.
//   - Per-session deadlines: SessionWall bounds each run's wall-clock
//     time through a context deadline; a blown deadline fails only that
//     session and frees its worker slot.
//   - Graceful drain: Drain refuses new sessions (503) while letting
//     queued and running ones finish, which is what SIGTERM triggers in
//     cmd/cosimd.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosim/internal/harness"
	"cosim/internal/sim"
)

// Config sizes the service. The zero value is runnable: every field
// has a default applied by New.
type Config struct {
	// Workers is the session worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted sessions may wait for a
	// worker (default 2×Workers). Zero means "default"; use NoQueue to
	// disable queueing entirely.
	QueueDepth int
	// NoQueue admits a session only when a worker is idle: a busy pool
	// answers 429 immediately.
	NoQueue bool

	// MaxCPUs caps a single session's guest-CPU request (default 8).
	MaxCPUs int
	// MaxSimTime caps a single session's simulated duration
	// (default 1 simulated second).
	MaxSimTime sim.Time
	// SessionWall bounds each run's wall-clock time; zero means no
	// deadline.
	SessionWall time.Duration

	// RetryAfter is the hint returned with 429/503 responses
	// (default 1s).
	RetryAfter time.Duration

	// Retain caps how many terminal sessions stay queryable; the oldest
	// are evicted beyond it (default 1024). Running and queued sessions
	// are never evicted.
	Retain int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.NoQueue {
		c.QueueDepth = 0
	}
	if c.MaxCPUs <= 0 {
		c.MaxCPUs = 8
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = sim.SEC
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	return c
}

// Server runs co-simulation sessions on a bounded worker pool behind an
// HTTP/JSON API. Create with New, expose with Handler, stop with Drain
// (graceful) or Close (cancels in-flight runs).
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // insertion order, for listing and retention
	nextID   uint64
	draining bool
	queue    chan *Session

	wg sync.WaitGroup // session workers

	// varz counters.
	accepted  atomic.Uint64
	rejected  atomic.Uint64 // 429s (pool saturated)
	refused   atomic.Uint64 // 503s (draining)
	badSpecs  atomic.Uint64 // 400s (invalid or over-quota specs)
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	running   atomic.Int64
}

// New starts a server's worker pool. The caller owns serving its
// Handler and must end the pool with Drain or Close.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   make(map[string]*Session),
		queue:      make(chan *Session, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker executes queued sessions until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for sess := range s.queue {
		s.runSession(sess)
	}
}

// runSession executes one session end to end on the calling worker.
func (s *Server) runSession(sess *Session) {
	if !sess.begin() {
		s.canceled.Add(1)
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx := sess.ctx
	cancel := context.CancelFunc(func() {})
	if s.cfg.SessionWall > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SessionWall)
	}
	defer cancel()

	p := sess.params
	p.Obs = sess.reg
	res, err := harness.RunContext(ctx, p)
	sess.finish(res, err)
	switch sess.State() {
	case StateDone:
		s.completed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
}

// Drain stops admitting sessions and waits until every queued and
// running session reaches a terminal state (the SIGTERM path). It
// returns ctx.Err() if the context expires first; the pool keeps
// draining in the background regardless. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// POST holds mu for its queue send, so nothing can race this
		// close.
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every in-flight session and waits for the pool to
// stop: the fast teardown path for tests and fatal shutdowns.
func (s *Server) Close() error {
	s.baseCancel()
	return s.Drain(context.Background())
}

// Draining reports whether the server has stopped admitting sessions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Session looks a session up by id.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Admission errors of submit.
var (
	errDraining  = errors.New("server draining")
	errSaturated = errors.New("worker pool and queue full")
)

// submit admits a spec with the Params DecodeSpec materialised from it:
// quota check, registration, queue send. It returns the session or an
// admission error.
func (s *Server) submit(spec harness.Spec, p harness.Params) (*Session, error) {
	// Quota check against the defaulted params so zero fields count as
	// what they will actually run as (an empty sim_time is the 1ms
	// default, not zero).
	eff := p.WithDefaults()
	if eff.CPUs > s.cfg.MaxCPUs {
		return nil, fmt.Errorf("spec: %d cpus exceeds per-session quota %d", eff.CPUs, s.cfg.MaxCPUs)
	}
	if eff.SimTime.After(s.cfg.MaxSimTime) {
		return nil, fmt.Errorf("spec: sim_time %v exceeds per-session quota %v", eff.SimTime, s.cfg.MaxSimTime)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	s.nextID++
	id := fmt.Sprintf("s-%06d", s.nextID)
	sess := newSession(id, spec, p, s.baseCtx)
	select {
	case s.queue <- sess:
	default:
		sess.cancel()
		return nil, errSaturated
	}
	s.sessions[id] = sess
	s.order = append(s.order, id)
	s.evictLocked()
	s.accepted.Add(1)
	return sess, nil
}

// evictLocked drops the oldest terminal sessions beyond the retention
// cap. Callers hold mu.
func (s *Server) evictLocked() {
	excess := len(s.sessions) - s.cfg.Retain
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		sess := s.sessions[id]
		if excess > 0 && sess != nil && sess.State().Terminal() {
			delete(s.sessions, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/sessions              admit a harness.Spec, 202 + Status
//	GET    /v1/sessions              list sessions (newest last)
//	GET    /v1/sessions/{id}         one session's Status
//	DELETE /v1/sessions/{id}         cancel, 202 + Status
//	GET    /v1/sessions/{id}/metrics stream live obs counters (NDJSON)
//	GET    /healthz                  liveness + drain state
//	GET    /varz                     server-wide counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return mux
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) retryAfterSecs() string {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.badSpecs.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	spec, p, err := harness.DecodeSpec(body)
	if err != nil {
		s.badSpecs.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	sess, err := s.submit(spec, p)
	switch {
	case errors.Is(err, errDraining):
		s.refused.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server draining: not admitting new sessions"})
		return
	case errors.Is(err, errSaturated):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error: fmt.Sprintf("session capacity exhausted (%d running + %d queued); retry later",
				s.cfg.Workers, s.cfg.QueueDepth),
		})
		return
	case err != nil:
		s.badSpecs.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusAccepted, sess.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		if sess, ok := s.sessions[id]; ok {
			statuses = append(statuses, sess.Status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Sessions []Status `json:"sessions"`
	}{statuses})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such session"})
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such session"})
		return
	}
	sess.Cancel()
	writeJSON(w, http.StatusAccepted, sess.Status())
}

// metricsFrame is one line of the NDJSON metrics stream.
type metricsFrame struct {
	ID       string            `json:"id"`
	State    State             `json:"state"`
	Counters map[string]uint64 `json:"counters"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such session"})
		return
	}
	interval := 250 * time.Millisecond
	if arg := r.URL.Query().Get("interval"); arg != "" {
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad interval"})
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() bool {
		frame := metricsFrame{ID: sess.ID, State: sess.State(), Counters: sess.CountersSnapshot()}
		if err := enc.Encode(frame); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if !emit() {
			return
		}
		if sess.State().Terminal() {
			return
		}
		select {
		case <-sess.Done():
			// One final frame with the terminal state and counters.
			emit()
			return
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{status})
}

// varz is the server-wide counter snapshot.
type varz struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueLen   int    `json:"queue_len"`
	Running    int64  `json:"running"`
	Draining   bool   `json:"draining"`
	Accepted   uint64 `json:"sessions_accepted"`
	Rejected   uint64 `json:"sessions_rejected_429"`
	Refused    uint64 `json:"sessions_refused_503"`
	BadSpecs   uint64 `json:"sessions_bad_spec_400"`
	Completed  uint64 `json:"sessions_completed"`
	Failed     uint64 `json:"sessions_failed"`
	Canceled   uint64 `json:"sessions_canceled"`
	Goroutines int    `json:"goroutines"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, varz{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		QueueLen:   len(s.queue),
		Running:    s.running.Load(),
		Draining:   s.Draining(),
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Refused:    s.refused.Load(),
		BadSpecs:   s.badSpecs.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Canceled:   s.canceled.Load(),
		Goroutines: runtime.NumGoroutine(),
	})
}
