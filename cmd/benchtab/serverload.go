package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cosim/internal/harness"
	"cosim/internal/server"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// Server-load mode: `benchtab -server URL` turns benchtab into a load
// driver for a running cosimd. It builds the same scenario matrix the
// local sweep would run (scheme × transport × duration / delay), POSTs
// every scenario as a session spec with -parallel concurrent clients,
// polls each session to a terminal state, and reports client-observed
// submit/total latency next to the daemon-reported queue wait and run
// wall.

// serverSession is one driven session's record.
type serverSession struct {
	Name  string `json:"name"`
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Retries429 counts admission rejections absorbed before the POST
	// was accepted.
	Retries429 int `json:"retries_429,omitempty"`
	// SubmitNS is the accepted POST's round trip; QueueNS and RunNS are
	// the daemon's queue-wait and run-wall measurements; TotalNS is the
	// client-observed submit-to-terminal latency.
	SubmitNS int64            `json:"submit_ns"`
	QueueNS  int64            `json:"queue_ns"`
	RunNS    int64            `json:"run_ns"`
	TotalNS  int64            `json:"total_ns"`
	Metrics  *harness.Metrics `json:"metrics,omitempty"`
}

// serverSummary aggregates one load run.
type serverSummary struct {
	Server         string  `json:"server"`
	Concurrency    int     `json:"concurrency"`
	Sessions       int     `json:"sessions"`
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Canceled       int     `json:"canceled"`
	Retries429     int     `json:"retries_429"`
	WallNS         int64   `json:"wall_ns"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	MeanTotalNS    int64   `json:"mean_total_ns"`
	MaxTotalNS     int64   `json:"max_total_ns"`
}

// serverScenarios builds the load matrix: the experiment's scenario
// list per transport, scheme-filtered, every entry tagged with its
// transport so records from the sweep stay distinguishable.
func serverScenarios(exp string, simTimes []sim.Time, base harness.Params, sel harness.Scheme, trs []transport.Transport) ([]harness.Scenario, error) {
	delays := []sim.Time{5 * sim.US, 20 * sim.US, 100 * sim.US}
	var all []harness.Scenario
	for _, tr := range trs {
		b := base
		b.Transport = tr
		var scens []harness.Scenario
		switch exp {
		case "table1":
			scens = harness.Table1Scenarios(simTimes, b)
		case "figure7":
			b.SimTime = 2 * sim.MS
			scens = harness.Figure7Scenarios(delays, b)
		case "all":
			scens = harness.Table1Scenarios(simTimes, b)
			fb := b
			fb.SimTime = 2 * sim.MS
			scens = append(scens, harness.Figure7Scenarios(delays, fb)...)
		default:
			return nil, fmt.Errorf("experiment %q not available in -server mode (table1, figure7, all)", exp)
		}
		scens = filterScenarios(scens, sel)
		scens = filterMultiCPU(scens, b.CPUs)
		all = append(all, tagTransport(scens, tr)...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("scenario matrix is empty after filtering")
	}
	return all, nil
}

// runServerLoad drives the daemon across the selected experiment's
// scenario matrix with `workers` concurrent clients.
func runServerLoad(rep *report, baseURL, exp string, simTimes []sim.Time, base harness.Params, sel harness.Scheme, trs []transport.Transport, workers int, jsonOut bool) error {
	scens, err := serverScenarios(exp, simTimes, base, sel, trs)
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	cl := &loadClient{base: baseURL, http: &http.Client{Timeout: 30 * time.Second}}

	records := make([]serverSession, len(scens))
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				records[i] = cl.drive(scens[i])
			}
		}()
	}
	for i := range scens {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	sum := serverSummary{
		Server:      baseURL,
		Concurrency: workers,
		Sessions:    len(records),
		WallNS:      wall.Nanoseconds(),
	}
	var totalNS int64
	for _, r := range records {
		sum.Retries429 += r.Retries429
		totalNS += r.TotalNS
		if r.TotalNS > sum.MaxTotalNS {
			sum.MaxTotalNS = r.TotalNS
		}
		switch server.State(r.State) {
		case server.StateDone:
			sum.Done++
		case server.StateCanceled:
			sum.Canceled++
		default:
			sum.Failed++
		}
	}
	if len(records) > 0 {
		sum.MeanTotalNS = totalNS / int64(len(records))
	}
	if secs := wall.Seconds(); secs > 0 {
		sum.SessionsPerSec = float64(sum.Done) / secs
	}
	rep.Sessions = records
	rep.ServerLoad = &sum

	if !jsonOut {
		for _, r := range records {
			fmt.Printf("%-40s state=%-8s submit=%-10v queue=%-10v run=%-12v total=%v\n",
				r.Name, r.State,
				time.Duration(r.SubmitNS), time.Duration(r.QueueNS),
				time.Duration(r.RunNS), time.Duration(r.TotalNS))
		}
		fmt.Printf("\n%d sessions (%d done, %d failed, %d canceled), %d retries after 429\n",
			sum.Sessions, sum.Done, sum.Failed, sum.Canceled, sum.Retries429)
		fmt.Printf("wall %v, %.2f sessions/s, mean latency %v, max %v\n",
			wall, sum.SessionsPerSec, time.Duration(sum.MeanTotalNS), time.Duration(sum.MaxTotalNS))
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", sum.Failed, sum.Sessions)
	}
	return nil
}

// loadClient is one cosimd HTTP client shared by the driver workers.
type loadClient struct {
	base string
	http *http.Client
}

// drive runs one scenario to a terminal state and records it.
func (c *loadClient) drive(sc harness.Scenario) serverSession {
	rec := serverSession{Name: sc.Name, State: "failed"}
	spec := harness.SpecFromParams(sc.Params)
	body, err := json.Marshal(spec)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}

	start := time.Now()
	st, err := c.submit(body, &rec)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.ID = st.ID

	for !st.State.Terminal() {
		time.Sleep(50 * time.Millisecond)
		st, err = c.status(st.ID)
		if err != nil {
			rec.Error = err.Error()
			return rec
		}
	}
	rec.State = string(st.State)
	rec.Error = st.Error
	rec.QueueNS = st.QueueWaitNS
	rec.RunNS = st.WallNS
	rec.TotalNS = time.Since(start).Nanoseconds()
	rec.Metrics = st.Metrics
	return rec
}

// submit POSTs the spec, absorbing 429s by honouring Retry-After (the
// admission-control backpressure contract) and counting the retries.
func (c *loadClient) submit(body []byte, rec *serverSession) (server.Status, error) {
	deadline := time.Now().Add(5 * time.Minute)
	for {
		postStart := time.Now()
		resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			return server.Status{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return server.Status{}, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			rec.SubmitNS = time.Since(postStart).Nanoseconds()
			var st server.Status
			if err := json.Unmarshal(data, &st); err != nil {
				return server.Status{}, err
			}
			return st, nil
		case http.StatusTooManyRequests:
			rec.Retries429++
			if time.Now().After(deadline) {
				return server.Status{}, fmt.Errorf("still saturated after %d retries: %s", rec.Retries429, data)
			}
			time.Sleep(retryAfterDelay(resp))
		default:
			return server.Status{}, fmt.Errorf("POST /v1/sessions: %s: %s", resp.Status, data)
		}
	}
}

// retryAfterDelay reads the 429's Retry-After hint, clamped so a load
// test with a coarse server hint still saturates the pool promptly.
func retryAfterDelay(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		d := time.Duration(secs) * time.Second
		if d > time.Second {
			d = time.Second
		}
		return d
	}
	return 100 * time.Millisecond
}

// status GETs one session.
func (c *loadClient) status(id string) (server.Status, error) {
	resp, err := c.http.Get(c.base + "/v1/sessions/" + id)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Status{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.Status{}, fmt.Errorf("GET /v1/sessions/%s: %s: %s", id, resp.Status, data)
	}
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return server.Status{}, err
	}
	return st, nil
}
