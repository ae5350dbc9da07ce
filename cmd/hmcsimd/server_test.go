package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim/internal/runner"
)

func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.shutdown(t.Context()) })
	return s, ts
}

// quickRun is a fast inline-spec request body (microsecond windows).
func quickRun() string {
	return `{
		"spec": {"name": "svc-test", "backend": "ddr4",
		         "tenants": [{"name": "load", "size": 64}]},
		"options": {"warmup_us": 4, "measure_us": 8, "seed": 7}
	}`
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRunMissThenHit is the headline guarantee: the second identical
// request is a cache hit and its body is byte-identical to the first
// (fresh) response.
func TestRunMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})

	resp1, body1 := post(t, ts.URL+"/v1/run", quickRun())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	var rep runner.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatalf("body is not a report: %v", err)
	}
	if len(rep.Grids) == 0 {
		t.Fatal("report has no grids")
	}

	resp2, body2 := post(t, ts.URL+"/v1/run", quickRun())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from fresh body")
	}
	if k1, k2 := resp1.Header.Get("X-Cache-Key"), resp2.Header.Get("X-Cache-Key"); k1 == "" || k1 != k2 {
		t.Fatalf("cache keys differ: %q vs %q", k1, k2)
	}
}

// TestRunSingleFlightHTTP: N concurrent identical requests must
// coalesce onto exactly one simulation.
func TestRunSingleFlightHTTP(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxConcurrent: 32})

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(quickRun()))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (coalesced=%d hits=%d)", st.Misses, st.Coalesced, st.Hits)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestRunAdmission: with the only simulation slot held, a cold run is
// refused with 429 — but a warm key is still served (hits bypass
// admission entirely).
func TestRunAdmission(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxConcurrent: 1})

	// Warm one key while the slot is free.
	resp, body := post(t, ts.URL+"/v1/run", quickRun())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}

	if !s.admit() {
		t.Fatal("could not occupy the simulation slot")
	}
	defer s.release()

	cold := strings.Replace(quickRun(), `"seed": 7`, `"seed": 8`, 1)
	resp, body = post(t, ts.URL+"/v1/run", cold)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold run under saturation: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	resp, _ = post(t, ts.URL+"/v1/run", quickRun())
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm run under saturation: %d X-Cache=%q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

func TestRunFormatsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})

	textReq := strings.Replace(quickRun(), `"options"`, `"format": "text", "options"`, 1)
	resp, body := post(t, ts.URL+"/v1/run", textReq)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "==") {
		t.Fatalf("text format: %d %q", resp.StatusCode, body)
	}
	csvReq := strings.Replace(quickRun(), `"options"`, `"format": "csv", "options"`, 1)
	resp, body = post(t, ts.URL+"/v1/run", csvReq)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), ",") {
		t.Fatalf("csv format: %d %q", resp.StatusCode, body)
	}

	for name, req := range map[string]string{
		"empty":         `{}`,
		"unknown name":  `{"name": "no-such-scenario"}`,
		"name and spec": `{"name": "uniform", "spec": {"name": "x", "tenants": [{"name": "t"}]}}`,
		"unknown field": `{"nope": 1}`,
		"bad format":    strings.Replace(quickRun(), `"options"`, `"format": "xml", "options"`, 1),
	} {
		resp, _ := post(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRunNamedScenario runs a library scenario with a backend
// re-target, like the CLI's -scenario/-backend pair.
func TestRunNamedScenario(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, body := post(t, ts.URL+"/v1/run",
		`{"name": "uniform", "backend": "ddr4", "options": {"warmup_us": 4, "measure_us": 8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named run: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "uniform@ddr4") {
		t.Fatalf("report does not mention the re-targeted scenario: %s", body)
	}
}

// TestSweepSharesCache: a sweep computes every cell once; repeating it
// answers every cell from cache; overlapping sweeps only compute the
// new cells.
func TestSweepSharesCache(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	sweep := `{
		"spec": {"name": "svc-sweep", "backend": "ddr4",
		         "tenants": [{"name": "load", "size": 64}]},
		"options": {"warmup_us": 4, "measure_us": 8},
		"sweep": {"seeds": [1, 2, 3]}
	}`
	resp, body := post(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Summary.Cells != 3 || sr.Summary.Computed != 3 || sr.Summary.Cached != 0 {
		t.Fatalf("cold sweep summary = %+v", sr.Summary)
	}

	resp, body = post(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Summary.Computed != 0 || sr.Summary.Cached != 3 {
		t.Fatalf("warm sweep summary = %+v", sr.Summary)
	}

	// Grow the sweep: only the new seeds simulate.
	wider := strings.Replace(sweep, "[1, 2, 3]", "[1, 2, 3, 4, 5]", 1)
	resp, body = post(t, ts.URL+"/v1/sweep", wider)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wider sweep: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Summary.Computed != 2 || sr.Summary.Cached != 3 {
		t.Fatalf("half-warm sweep summary = %+v", sr.Summary)
	}
}

// TestJobLifecycle drives the async path: submit, poll to done,
// fetch the result, and check it matches the synchronous sweep.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	sweep := `{
		"spec": {"name": "svc-job", "backend": "ddr4",
		         "tenants": [{"name": "load", "size": 64}]},
		"options": {"warmup_us": 4, "measure_us": 8},
		"sweep": {"seeds": [11, 12]}
	}`
	resp, body := post(t, ts.URL+"/v1/jobs", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 2 || sub.ID == "" {
		t.Fatalf("submit response = %+v", sub)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st jobStatus
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" || st.Done != 2 || st.Total != 2 {
		t.Fatalf("final status = %+v", st)
	}

	resp, body = func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	var jr sweepResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Summary.Cells != 2 {
		t.Fatalf("job sweep summary = %+v", jr.Summary)
	}

	// The same sweep run synchronously must be all-cached now and the
	// per-cell reports byte-identical to the job's.
	resp, body = post(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-job sweep: %d %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Summary.Cached != 2 {
		t.Fatalf("post-job sweep summary = %+v", sr.Summary)
	}
	for i := range sr.Cells {
		if !bytes.Equal(sr.Cells[i].Report, jr.Cells[i].Report) {
			t.Fatalf("cell %d: sync report differs from job report", i)
		}
	}

	if resp, _ := post(t, ts.URL+"/v1/run", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: %d, want 400", resp.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil || r.StatusCode != http.StatusNotFound {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: %d, want 404", r.StatusCode)
		}
	}
}

// TestJobQueueFullAndCancel: with the single worker pinned by a
// blocker, one more submission queues (202), the next bounces (429),
// and the queued job cancels cleanly before ever running.
func TestJobQueueFullAndCancel(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{jobWorkers: 1, jobQueue: 1})

	release := make(chan struct{})
	running := make(chan struct{})
	if _, err := s.jobs.Submit("hold", func(ctx context.Context, _ *runner.Progress) error {
		close(running)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	defer close(release)

	sweep := `{
		"spec": {"name": "svc-queued", "backend": "ddr4",
		         "tenants": [{"name": "load", "size": 64}]},
		"options": {"warmup_us": 4, "measure_us": 8},
		"sweep": {"seeds": [21, 22]}
	}`
	resp, body := post(t, ts.URL+"/v1/jobs", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d %s", resp.StatusCode, body)
	}
	var queued struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts.URL+"/v1/jobs", sweep)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Fatalf("cancel status = %+v, want canceled", st)
	}
}

// TestJobEvents reads the SSE stream of a job to completion.
func TestJobEvents(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, body := post(t, ts.URL+"/v1/jobs", `{
		"spec": {"name": "svc-events", "backend": "ddr4",
		         "tenants": [{"name": "load", "size": 64}]},
		"options": {"warmup_us": 4, "measure_us": 8},
		"sweep": {"seeds": [31, 32, 33]}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	er, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if ct := er.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	stream, err := io.ReadAll(er.Body) // server closes at terminal state
	if err != nil {
		t.Fatal(err)
	}
	events := strings.Split(strings.TrimSpace(string(stream)), "\n\n")
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var last jobStatus
	if err := json.Unmarshal([]byte(strings.TrimPrefix(events[len(events)-1], "data: ")), &last); err != nil {
		t.Fatalf("bad final event %q: %v", events[len(events)-1], err)
	}
	if last.State != "done" || last.Done != 3 {
		t.Fatalf("final event = %+v", last)
	}
}

func TestHealthAndScenarios(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status        string `json:"status"`
		EngineVersion string `json:"engine_version"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.EngineVersion == "" {
		t.Fatalf("healthz = %s", b)
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var rows []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("scenario library lists %d entries", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
	}
	if !names["uniform"] {
		t.Fatalf("library missing uniform: %v", names)
	}
}

// TestBodyTooLarge: a body past the 1 MiB cap is refused with 413
// before it is decoded, and the server keeps serving.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	body := `{"name": "` + strings.Repeat("a", 2<<20) + `"}`
	resp, b := post(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: %d %s, want 413", resp.StatusCode, b)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the oversized body: %d, want 200", hr.StatusCode)
	}
}

// TestSweepTooLarge guards the expansion bound.
func TestSweepTooLarge(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	var seeds []string
	for i := 0; i < 5000; i++ {
		seeds = append(seeds, fmt.Sprint(i))
	}
	body := `{
		"spec": {"name": "svc-big", "backend": "ddr4", "tenants": [{"name": "t"}]},
		"sweep": {"seeds": [` + strings.Join(seeds, ",") + `]}
	}`
	resp, _ := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: %d, want 400", resp.StatusCode)
	}
}
