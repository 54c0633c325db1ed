package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosim/internal/server"
	"cosim/internal/sim"
)

// client wraps an httptest server with the session API verbs.
type client struct {
	t  *testing.T
	ts *httptest.Server
}

// newService starts a server + HTTP front and registers teardown.
func newService(t *testing.T, cfg server.Config) (*server.Server, *client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, &client{t: t, ts: ts}
}

// post submits a raw JSON spec and returns the response code, headers
// and decoded body.
func (c *client) post(body string) (int, http.Header, map[string]any) {
	c.t.Helper()
	resp, err := http.Post(c.ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.t.Fatalf("decoding POST response: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

// get fetches one session's status.
func (c *client) get(id string) (int, server.Status) {
	c.t.Helper()
	resp, err := http.Get(c.ts.URL + "/v1/sessions/" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode == http.StatusOK {
		c.t.Fatalf("decoding GET response: %v", err)
	}
	return resp.StatusCode, st
}

// cancel DELETEs one session.
func (c *client) cancel(id string) int {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// await polls a session until it reaches a terminal state.
func (c *client) await(id string, within time.Duration) server.Status {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for {
		code, st := c.get(id)
		if code != http.StatusOK {
			c.t.Fatalf("GET %s = %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("session %s still %s after %v", id, st.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// idOf extracts the session id from a POST response body.
func idOf(t *testing.T, body map[string]any) string {
	t.Helper()
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("POST response carries no session id: %v", body)
	}
	return id
}

// shortSpec is a fast driver-kernel run over the in-process ring.
const shortSpec = `{"scheme": "driver-kernel", "transport": "ring", "sim_time": "200us"}`

// longSpec simulates long enough that the test can observe and cancel
// it mid-run.
const longSpec = `{"scheme": "driver-kernel", "transport": "ring", "sim_time": "500ms"}`

func TestSessionLifecycle(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 2})

	code, hdr, body := c.post(shortSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202 (%v)", code, body)
	}
	id := idOf(t, body)
	if loc := hdr.Get("Location"); loc != "/v1/sessions/"+id {
		t.Errorf("Location = %q", loc)
	}

	st := c.await(id, 30*time.Second)
	if st.State != server.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Metrics == nil || st.Metrics.GuestInstr == 0 {
		t.Fatalf("done session carries no metrics: %+v", st.Metrics)
	}
	if st.Metrics.Scheme != "Driver-Kernel" || st.Metrics.Transport != "ring" {
		t.Errorf("metrics identity %s/%s, want Driver-Kernel/ring", st.Metrics.Scheme, st.Metrics.Transport)
	}
	if st.StartedAt == nil || st.FinishedAt == nil || st.WallNS <= 0 {
		t.Errorf("lifecycle timestamps incomplete: %+v", st)
	}
	if _, ok := st.Metrics.Counters["driver.messages"]; !ok {
		t.Errorf("driver.messages missing from session counters")
	}
}

func TestSessionMetricsStream(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 1})
	_, _, body := c.post(shortSpec)
	id := idOf(t, body)
	c.await(id, 30*time.Second)

	resp, err := http.Get(c.ts.URL + "/v1/sessions/" + id + "/metrics?interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frame struct {
		ID       string            `json:"id"`
		State    server.State      `json:"state"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
		t.Fatal(err)
	}
	if frame.ID != id || !frame.State.Terminal() {
		t.Fatalf("stream frame %+v", frame)
	}
	if frame.Counters["iss.instructions"] == 0 {
		t.Errorf("final metrics frame has zero iss.instructions")
	}
}

// TestCancelFreesWorkerSlot is the mid-run cancellation contract: a
// DELETE tears the run down cooperatively and releases its worker, so
// a follow-up session on a 1-worker pool still completes.
func TestCancelFreesWorkerSlot(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 1, QueueDepth: 4})

	_, _, body := c.post(longSpec)
	id := idOf(t, body)

	// Wait until it is actually running so the cancel lands mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st := c.get(id)
		if st.State == server.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never started running: %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := c.cancel(id); code != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", code)
	}
	st := c.await(id, 30*time.Second)
	if st.State != server.StateCanceled {
		t.Fatalf("state after cancel = %s (%s), want canceled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "context canceled") {
		t.Errorf("canceled session error = %q, want context.Canceled text", st.Error)
	}

	// The slot must be free: a short session completes on the same
	// single worker.
	_, _, body = c.post(shortSpec)
	st = c.await(idOf(t, body), 30*time.Second)
	if st.State != server.StateDone {
		t.Fatalf("follow-up session = %s (%s), want done", st.State, st.Error)
	}
}

// TestAdmissionControl429 fills the pool and queue, expects 429 +
// Retry-After on the next request, then drains the pool and expects the
// retried request to succeed.
func TestAdmissionControl429(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})

	// Fill: one running + one queued long session.
	_, _, b1 := c.post(longSpec)
	id1 := idOf(t, b1)
	_, _, b2 := c.post(longSpec)
	id2 := idOf(t, b2)

	code, hdr, body := c.post(shortSpec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("POST over capacity = %d (%v), want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// Drain the pool by canceling both in-flight sessions; the retried
	// request must then be admitted and complete.
	c.cancel(id1)
	c.cancel(id2)
	c.await(id1, 30*time.Second)
	c.await(id2, 30*time.Second)

	code, _, body = c.post(shortSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST after drain = %d (%v), want 202", code, body)
	}
	if st := c.await(idOf(t, body), 30*time.Second); st.State != server.StateDone {
		t.Fatalf("retried session = %s (%s), want done", st.State, st.Error)
	}
}

// TestQuotaRejections: a request that could never legally run is a 400,
// not a 429 — retrying it is pointless.
func TestQuotaRejections(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 1, MaxCPUs: 2, MaxSimTime: 10 * sim.MS})

	for _, tc := range []struct{ name, spec, wantErr string }{
		{"cpus", `{"scheme": "driver-kernel", "cpus": 3}`, "exceeds per-session quota"},
		{"simtime", `{"scheme": "driver-kernel", "sim_time": "50ms"}`, "exceeds per-session quota"},
		{"simtime-overflow", `{"scheme": "gdb-wrapper", "sim_time": "18446745s"}`, "bad sim_time"},
		{"simtime-negative", `{"scheme": "gdb-wrapper", "sim_time": "-1.0ms"}`, "bad sim_time"},
		{"scheme", `{"scheme": "quantum"}`, "unknown scheme"},
		{"transport", `{"scheme": "driver-kernel", "transport": "carrier-pigeon"}`, "unknown transport"},
		{"unknown-field", `{"scheme": "driver-kernel", "simtime": "1ms"}`, "unknown field"},
		{"trailing-data", `{"scheme": "gdb-wrapper"}{"scheme": "bogus"}`, "trailing data"},
		{"multi-cpu-wrapper", `{"scheme": "gdb-wrapper", "cpus": 2}`, "single CPU"},
		// A 1ps clock passed admission and panicked the worker, which has
		// no recover: one POST took the daemon down.
		{"clock-period", `{"scheme": "gdb-kernel", "clock_period": "1ps"}`, "clock_period"},
		{"clock-period-wrapper", `{"scheme": "gdb-wrapper", "clock_period": "1ps"}`, "clock_period"},
	} {
		code, _, body := c.post(tc.spec)
		if code != http.StatusBadRequest {
			t.Errorf("%s: POST = %d (%v), want 400", tc.name, code, body)
			continue
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, msg, tc.wantErr)
		}
	}

	// Defaulted fields must still run under quota.
	code, _, body := c.post(`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "200us"}`)
	if code != http.StatusAccepted {
		t.Fatalf("in-quota POST = %d (%v)", code, body)
	}
	c.await(idOf(t, body), 30*time.Second)
}

// TestDrainCompletesInFlight is the SIGTERM contract: draining refuses
// new sessions with 503 while queued and running ones finish.
func TestDrainCompletesInFlight(t *testing.T) {
	srv, c := newService(t, server.Config{Workers: 2, QueueDepth: 4})

	var ids []string
	for i := 0; i < 3; i++ {
		_, _, body := c.post(shortSpec)
		ids = append(ids, idOf(t, body))
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Draining state must refuse new work with 503 + Retry-After.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr, _ := c.post(shortSpec)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every admitted session finished rather than being dropped.
	for _, id := range ids {
		if st := c.await(id, time.Second); st.State != server.StateDone {
			t.Errorf("session %s = %s (%s) after drain, want done", id, st.State, st.Error)
		}
	}
	// healthz now reports draining.
	resp, err := http.Get(c.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", resp.StatusCode)
	}
}

// TestSessionWallDeadline: a blown per-session deadline fails only that
// session and frees the worker. The deadline leaves the short follow-up
// room to finish under -race; the long spec needs many times more.
func TestSessionWallDeadline(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 1, SessionWall: time.Second})

	_, _, body := c.post(longSpec)
	st := c.await(idOf(t, body), 30*time.Second)
	if st.State != server.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline-bound session = %s (%s), want failed/deadline", st.State, st.Error)
	}

	// Pool still healthy afterwards.
	_, _, body = c.post(shortSpec)
	if st := c.await(idOf(t, body), 30*time.Second); st.State != server.StateDone {
		t.Fatalf("follow-up = %s (%s), want done", st.State, st.Error)
	}
}

// TestVarz sanity-checks the server-wide counters after a mixed load.
func TestVarz(t *testing.T) {
	_, c := newService(t, server.Config{Workers: 2, QueueDepth: 8})
	_, _, body := c.post(shortSpec)
	c.await(idOf(t, body), 30*time.Second)
	c.post(`{"scheme": "bogus"}`) // one 400

	resp, err := http.Get(c.ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"sessions_accepted":     1,
		"sessions_completed":    1,
		"sessions_bad_spec_400": 1,
		"workers":               2,
	} {
		if got, _ := v[key].(float64); got != want {
			t.Errorf("varz %s = %v, want %v (varz: %v)", key, v[key], want, v)
		}
	}
}

// TestConcurrentSessionsAllComplete drives a burst of concurrent POSTs
// (the ≥64-session acceptance load) through a small bounded pool with a
// deep queue: every session must be admitted and complete.
func TestConcurrentSessionsAllComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("64-session load; skipped in -short mode")
	}
	const sessions = 64
	_, c := newService(t, server.Config{Workers: 4, QueueDepth: sessions})

	specs := []string{
		`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "100us"}`,
		`{"scheme": "gdb-kernel", "transport": "pipe", "sim_time": "100us"}`,
	}
	ids := make(chan string, sessions)
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			resp, err := http.Post(c.ts.URL+"/v1/sessions", "application/json",
				bytes.NewReader([]byte(specs[i%len(specs)])))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("POST %d = %d (%v)", i, resp.StatusCode, body)
				return
			}
			id, _ := body["id"].(string)
			ids <- id
		}(i)
	}
	for i := 0; i < sessions; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case id := <-ids:
			if st := c.await(id, 120*time.Second); st.State != server.StateDone {
				t.Fatalf("session %s = %s (%s), want done", id, st.State, st.Error)
			}
		}
	}
}
