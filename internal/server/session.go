package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"cosim/internal/harness"
	"cosim/internal/obs"
)

// State is a session's position in its lifecycle. Transitions are
// strictly forward: Queued → Running → one of the three terminal
// states, or Queued → Canceled directly when the cancel lands before a
// worker picks the session up.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the co-simulation.
	StateRunning State = "running"
	// StateDone: the run completed and Metrics carries its measurements.
	StateDone State = "done"
	// StateFailed: the run returned an error (including a blown
	// per-session wall deadline).
	StateFailed State = "failed"
	// StateCanceled: the client (or server shutdown) canceled the
	// session before it completed.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Session is one admitted co-simulation request. All mutable fields are
// guarded by mu; the obs registry inside is internally synchronized, so
// the metrics endpoint snapshots it live while the run is executing.
type Session struct {
	ID   string
	Spec harness.Spec

	// params is Spec materialised once, at admission; the worker runs
	// them.
	params harness.Params

	// reg is the run's live observability registry, created at
	// admission so metrics streaming sees counters move mid-run.
	reg *obs.Registry

	// ctx is canceled by Cancel (client DELETE) or server Close; the
	// worker derives its per-session deadline context from it.
	ctx    context.Context
	cancel context.CancelFunc

	// done is closed on entry to any terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	metrics  *harness.Metrics
}

// newSession builds an admitted session in StateQueued.
func newSession(id string, spec harness.Spec, p harness.Params, parent context.Context) *Session {
	ctx, cancel := context.WithCancel(parent)
	return &Session{
		ID:      id,
		Spec:    spec,
		params:  p,
		reg:     obs.NewRegistry(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
}

// begin moves Queued → Running; it reports false when the session was
// canceled while still queued, in which case the worker must skip it.
func (s *Session) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateQueued {
		return false
	}
	if s.ctx.Err() != nil {
		s.finishLocked(StateCanceled, s.ctx.Err().Error())
		return false
	}
	s.state = StateRunning
	s.started = time.Now()
	return true
}

// finish records the run's outcome: a nil error lands in StateDone with
// the result's metrics, context.Canceled in StateCanceled, anything
// else (including a blown deadline) in StateFailed.
func (s *Session) finish(res *harness.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return
	}
	switch {
	case err == nil:
		m := res.Metrics()
		s.metrics = &m
		s.finishLocked(StateDone, "")
	case errors.Is(err, context.Canceled):
		s.finishLocked(StateCanceled, err.Error())
	default:
		s.finishLocked(StateFailed, err.Error())
	}
}

// finishLocked enters a terminal state. Callers hold mu.
func (s *Session) finishLocked(st State, errMsg string) {
	s.state = st
	s.err = errMsg
	s.finished = time.Now()
	close(s.done)
}

// Cancel requests cooperative cancellation: a queued session is skipped
// by its worker, a running one tears down at its next simulation-cycle
// boundary.
func (s *Session) Cancel() { s.cancel() }

// Done returns a channel closed when the session reaches a terminal
// state.
func (s *Session) Done() <-chan struct{} { return s.done }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Status is the wire view of a session, served by GET
// /v1/sessions/{id} and embedded in list responses.
type Status struct {
	ID    string       `json:"id"`
	State State        `json:"state"`
	Spec  harness.Spec `json:"spec"`
	Error string       `json:"error,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// QueueWaitNS is admission-to-start; WallNS is start-to-finish (or
	// start-to-now while running).
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	WallNS      int64 `json:"wall_ns,omitempty"`

	// Metrics carries the run's full measurement record once the
	// session is done.
	Metrics *harness.Metrics `json:"metrics,omitempty"`
}

// Status snapshots the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:        s.ID,
		State:     s.state,
		Spec:      s.Spec,
		Error:     s.err,
		CreatedAt: s.created,
		Metrics:   s.metrics,
	}
	if !s.started.IsZero() {
		t := s.started
		st.StartedAt = &t
		st.QueueWaitNS = s.started.Sub(s.created).Nanoseconds()
		switch {
		case !s.finished.IsZero():
			st.WallNS = s.finished.Sub(s.started).Nanoseconds()
		default:
			st.WallNS = time.Since(s.started).Nanoseconds()
		}
	}
	if !s.finished.IsZero() {
		t := s.finished
		st.FinishedAt = &t
	}
	return st
}

// CountersSnapshot flattens the session's live obs registry: the body
// of one metrics-stream frame.
func (s *Session) CountersSnapshot() map[string]uint64 {
	return s.reg.Snapshot().Flatten()
}
