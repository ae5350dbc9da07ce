package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/simcache"
)

// serverConfig tunes the service.
type serverConfig struct {
	// cacheEntries bounds the in-memory result LRU.
	cacheEntries int
	// cacheDir, when non-empty, persists results so warmed sweeps
	// survive restarts.
	cacheDir string
	// maxConcurrent admits that many simultaneously *simulating*
	// synchronous requests; excess is refused with 429 (cache hits
	// always bypass admission — they cost microseconds).
	maxConcurrent int
	// jobWorkers / jobQueue size the async job pool and its bounded
	// submission queue (a full queue is the other 429).
	jobWorkers, jobQueue int
}

func (c serverConfig) withDefaults() serverConfig {
	if c.cacheEntries <= 0 {
		c.cacheEntries = 4096
	}
	if c.maxConcurrent <= 0 {
		c.maxConcurrent = 4
	}
	if c.jobWorkers <= 0 {
		c.jobWorkers = 2
	}
	if c.jobQueue <= 0 {
		c.jobQueue = 16
	}
	return c
}

// server is the simulation service: scenario runs behind the
// content-addressed result cache, async jobs with progress, sweep
// expansion, admission control.
type server struct {
	cache *simcache.Cache
	jobs  *runner.Jobs
	sem   chan struct{}

	mu      sync.Mutex
	results map[string]*jobResult // job id -> finished body holder
}

func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	cache, err := simcache.New(simcache.Config{Entries: cfg.cacheEntries, Dir: cfg.cacheDir})
	if err != nil {
		return nil, err
	}
	return &server{
		cache:   cache,
		jobs:    runner.NewJobs(cfg.jobWorkers, cfg.jobQueue, 0),
		sem:     make(chan struct{}, cfg.maxConcurrent),
		results: map[string]*jobResult{},
	}, nil
}

// shutdown drains the job pool through its context plumbing.
func (s *server) shutdown(ctx context.Context) error { return s.jobs.Shutdown(ctx) }

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}

// ---- request/response shapes ----

// runRequest names a registry experiment or carries an inline spec.
type runRequest struct {
	// Name selects a library scenario (see GET /v1/scenarios).
	Name string `json:"name,omitempty"`
	// Backend optionally re-targets a named scenario (hmc/ddr4/chain).
	Backend string `json:"backend,omitempty"`
	// Spec is an inline declarative scenario; exclusive with Name.
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Options is the run options' wire form (scenario.WireOptions).
	Options scenario.WireOptions `json:"options"`
	// Format selects the response rendering: json (default, the
	// cached canonical bytes), text or csv (rendered from them).
	Format string `json:"format,omitempty"`
}

func (rr runRequest) resolve() (scenario.Spec, scenario.Options, error) {
	var spec scenario.Spec
	switch {
	case rr.Name != "" && rr.Spec != nil:
		return spec, scenario.Options{}, fmt.Errorf("request names a scenario and carries an inline spec; pick one")
	case rr.Name != "":
		s, err := scenario.ByName(rr.Name)
		if err != nil {
			return spec, scenario.Options{}, err
		}
		if rr.Backend != "" {
			s = scenario.WithBackend(s, rr.Backend)
		}
		spec = s
	case rr.Spec != nil:
		if rr.Backend != "" {
			return spec, scenario.Options{}, fmt.Errorf("backend re-targeting applies to named scenarios; set Spec.Backend instead")
		}
		spec = *rr.Spec
	default:
		return spec, scenario.Options{}, fmt.Errorf("request needs a scenario name or an inline spec")
	}
	return spec, rr.Options.Options(), nil
}

// sweepRequest expands a base request along one or more axes into
// cells that share the result cache.
type sweepRequest struct {
	runRequest
	Sweep sweepAxes `json:"sweep"`
}

// sweepAxes are the expansion axes; the cell set is the cross
// product of every non-empty axis (an empty axis contributes the
// base request's single value).
type sweepAxes struct {
	// Seeds varies Options.Seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// RatesMRPS re-injects every tenant open-loop at each rate (the
	// paper's load–latency axis) through the traffic overlay
	// "open:R", replacing any base overlay; each tenant keeps its
	// Outstanding window.
	RatesMRPS []float64 `json:"rates_mrps,omitempty"`
	// MeasuresUs varies the measurement window (fidelity ladder).
	MeasuresUs []float64 `json:"measures_us,omitempty"`
}

type sweepCell struct {
	Label string
	Spec  scenario.Spec
	Opts  scenario.Options
}

func (sr sweepRequest) cells() ([]sweepCell, error) {
	spec, opts, err := sr.resolve()
	if err != nil {
		return nil, err
	}
	seeds := sr.Sweep.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{opts.Seed}
	}
	rates := sr.Sweep.RatesMRPS
	measures := sr.Sweep.MeasuresUs
	n := len(seeds) * max(1, len(rates)) * max(1, len(measures))
	if n > 4096 {
		return nil, fmt.Errorf("sweep expands to %d cells (limit 4096)", n)
	}
	var cells []sweepCell
	for _, seed := range seeds {
		for ri := 0; ri < max(1, len(rates)); ri++ {
			for mi := 0; mi < max(1, len(measures)); mi++ {
				o := opts
				o.Seed = seed
				label := fmt.Sprintf("seed=%d", seed)
				if len(rates) > 0 {
					o.Traffic = fmt.Sprintf("open:%g", rates[ri])
					label += fmt.Sprintf(",rate=%g", rates[ri])
				}
				if len(measures) > 0 {
					o.Measure = sim.Duration(measures[mi] * float64(sim.Microsecond))
					label += fmt.Sprintf(",measure_us=%g", measures[mi])
				}
				if _, _, err := scenario.Prepare(spec, o); err != nil {
					return nil, fmt.Errorf("cell %s: %w", label, err)
				}
				cells = append(cells, sweepCell{Label: label, Spec: spec, Opts: o})
			}
		}
	}
	return cells, nil
}

// ---- execution ----

// runCached executes one run through the content-addressed cache:
// warm keys return their bytes in microseconds, cold keys simulate
// once (coalescing concurrent identical requests) and render the
// canonical JSON report.
func (s *server) runCached(ctx context.Context, spec scenario.Spec, o scenario.Options) ([]byte, simcache.Key, simcache.Source, error) {
	key := simcache.KeyOf(spec, o)
	val, src, err := s.cache.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		// A run is not interruptible mid-simulation; honor
		// cancellation at the cell boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := scenario.Run(spec, o)
		if err != nil {
			return nil, err
		}
		rendered, err := res.Report().JSON()
		if err != nil {
			return nil, err
		}
		return []byte(rendered), nil
	})
	return val, key, src, err
}

// admit reserves a simulation slot without blocking; false = 429.
func (s *server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *server) release() { <-s.sem }

// ---- handlers ----

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a request body. Every request shape is a small
// JSON document, so a larger body is refused with 413 instead of being
// buffered.
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"engine_version": scenario.EngineVersion,
		"cache": map[string]any{
			"entries":   s.cache.Len(),
			"hits":      st.Hits,
			"disk_hits": st.DiskHits,
			"misses":    st.Misses,
			"coalesced": st.Coalesced,
			"evictions": st.Evictions,
		},
		"jobs": len(s.jobs.List()),
	})
}

func (s *server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Backend     string `json:"backend,omitempty"`
		Groups      int    `json:"groups,omitempty"`
	}
	var out []row
	for _, sp := range scenario.Library() {
		out = append(out, row{Name: sp.Name, Description: sp.Description, Backend: sp.Backend, Groups: sp.Groups})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleRun is the synchronous single-run endpoint. Response headers
// carry the cache verdict (X-Cache: hit | disk-hit | coalesced |
// miss) and the content-addressed key; a warm body is byte-identical
// to the cold run that produced it.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, opts, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key := simcache.KeyOf(spec, opts)
	val, src, ok := s.cache.Lookup(key)
	if !ok {
		// Cold: reject invalid inputs (they are never cached, so a
		// hit needs no check), then simulate under an admission slot.
		if _, _, err := scenario.Prepare(spec, opts); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if !s.admit() {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, errors.New("simulation capacity exhausted; retry or use /v1/jobs"))
			return
		}
		val, key, src, err = s.runCached(r.Context(), spec, opts)
		s.release()
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, context.Canceled) {
				code = 499 // client closed request
			}
			httpError(w, code, err)
			return
		}
	}
	writeRendered(w, req.Format, val, key, src)
}

// writeRendered emits the cached canonical JSON verbatim, or renders
// text/CSV from it (the Report round-trips losslessly through JSON,
// so every format is a pure function of the cached bytes).
func writeRendered(w http.ResponseWriter, format string, val []byte, key simcache.Key, src simcache.Source) {
	w.Header().Set("X-Cache", src.String())
	w.Header().Set("X-Cache-Key", key.String())
	w.Header().Set("X-Engine-Version", scenario.EngineVersion)
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(val)
	case "text", "txt", "csv":
		var rep runner.Report
		if err := json.Unmarshal(val, &rep); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if format == "csv" {
			w.Write([]byte(rep.CSV()))
		} else {
			w.Write([]byte(rep.Table()))
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json, text or csv)", format))
	}
}

// sweepResponse is the batch result: per-cell cache verdicts plus the
// aggregate computed/cached split (a 100-point sweep with 40 warm
// cells reports computed=60).
type sweepResponse struct {
	Cells   []sweepCellResult `json:"cells"`
	Summary sweepSummary      `json:"summary"`
}

type sweepCellResult struct {
	Label  string          `json:"label"`
	Key    string          `json:"key"`
	Cache  string          `json:"cache"`
	Report json.RawMessage `json:"report,omitempty"`
}

type sweepSummary struct {
	Cells    int `json:"cells"`
	Computed int `json:"computed"`
	Cached   int `json:"cached"`
}

// runSweep executes the cells through the shared cache on the worker
// pool; prog (optional) receives per-cell completion.
func (s *server) runSweep(ctx context.Context, cells []sweepCell, prog *runner.Progress, includeReports bool) (*sweepResponse, error) {
	if prog != nil {
		prog.SetTotal(len(cells))
	}
	cfg := runner.Config{}
	if prog != nil {
		cfg.Progress = prog.Observe
	}
	results, err := runner.Map(ctx, cfg, len(cells), func(ctx context.Context, i int) (sweepCellResult, error) {
		val, key, src, err := s.runCached(ctx, cells[i].Spec, cells[i].Opts)
		if err != nil {
			return sweepCellResult{}, fmt.Errorf("cell %s: %w", cells[i].Label, err)
		}
		out := sweepCellResult{Label: cells[i].Label, Key: key.String(), Cache: src.String()}
		if includeReports {
			out.Report = json.RawMessage(val)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	resp := &sweepResponse{Cells: results}
	resp.Summary.Cells = len(results)
	for _, c := range results {
		if c.Cache == "miss" {
			resp.Summary.Computed++
		} else {
			resp.Summary.Cached++
		}
	}
	return resp, nil
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	cells, err := req.cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errors.New("simulation capacity exhausted; retry or use /v1/jobs"))
		return
	}
	defer s.release()
	resp, err := s.runSweep(r.Context(), cells, nil, true)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) {
			code = 499
		}
		httpError(w, code, err)
		return
	}
	w.Header().Set("X-Engine-Version", scenario.EngineVersion)
	writeJSON(w, http.StatusOK, resp)
}

// jobResult holds a finished job's rendered body. The job function
// captures the holder directly (it cannot know its own ID — Submit
// mints that), and the handler maps ID -> holder after Submit
// returns; clients only learn the ID from the submit response, so the
// mapping always exists before anyone can ask for the result.
type jobResult struct {
	mu   sync.Mutex
	body []byte
}

func (h *jobResult) set(b []byte) { h.mu.Lock(); h.body = b; h.mu.Unlock() }
func (h *jobResult) get() []byte  { h.mu.Lock(); defer h.mu.Unlock(); return h.body }

// handleJobSubmit accepts the same body as /v1/sweep (a single run is
// a one-cell sweep) and returns a job handle immediately; the bounded
// queue is the async admission control.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	cells, err := req.cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := req.Name
	if name == "" && req.Spec != nil {
		name = req.Spec.Name
	}
	holder := &jobResult{}
	job, err := s.jobs.Submit(name, func(ctx context.Context, p *runner.Progress) error {
		resp, err := s.runSweep(ctx, cells, p, true)
		if err != nil {
			return err
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		holder.set(body)
		return nil
	})
	if errors.Is(err, runner.ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.mu.Lock()
	s.results[job.ID] = holder
	// Keep the result map in lockstep with the manager's retention:
	// a forgotten job's body goes with it.
	for id := range s.results {
		if _, ok := s.jobs.Get(id); !ok {
			delete(s.results, id)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": job.ID, "name": job.Name, "state": job.State().String(), "cells": len(cells),
	})
}

// jobStatus is the wire shape of a job snapshot.
type jobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

func statusOf(j *runner.Job) jobStatus {
	done, total := j.Progress()
	st := jobStatus{ID: j.ID, Name: j.Name, State: j.State().String(), Done: done, Total: total}
	if err := j.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}

func (s *server) jobFor(w http.ResponseWriter, r *http.Request) (*runner.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	switch st := j.State(); {
	case !st.Finished():
		writeJSON(w, http.StatusAccepted, statusOf(j))
	case st != runner.JobDone:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s %s: %v", j.ID, st, j.Err()))
	default:
		s.mu.Lock()
		holder := s.results[j.ID]
		s.mu.Unlock()
		if holder == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("job %s result expired", j.ID))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Engine-Version", scenario.EngineVersion)
		w.Write(holder.get())
	}
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, statusOf(j))
}

// handleJobEvents streams progress snapshots as server-sent events
// until the job finishes or the client goes away. Each event is one
// `data: {json}` line; the final event carries the terminal state.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() {
		b, _ := json.Marshal(statusOf(j))
		fmt.Fprintf(w, "data: %s\n\n", b)
		if canFlush {
			fl.Flush()
		}
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	lastDone := -1
	for {
		select {
		case <-j.Done():
			emit()
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			if done, _ := j.Progress(); done != lastDone {
				lastDone = done
				emit()
			}
		}
	}
}
