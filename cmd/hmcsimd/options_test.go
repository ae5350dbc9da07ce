package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// TestRunForwardsOverlays: the traffic and SLO overlays reach the run,
// which answers exactly what the in-process Run does with them.
func TestRunForwardsOverlays(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, body := post(t, ts.URL+"/v1/run", `{"name": "uniform",
		"options": {"warmup_us": 4, "measure_us": 8, "seed": 3, "traffic": "open:2", "slo_ns": 1500}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overlay run: %d %s", resp.StatusCode, body)
	}
	spec, err := scenario.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	o := scenario.Options{Warmup: 4 * sim.Microsecond, Measure: 8 * sim.Microsecond, Seed: 3}
	report := func(o scenario.Options) string {
		res, err := scenario.Run(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := report(o)
	o.Traffic, o.SLONs = "open:2", 1500
	if want := report(o); string(body) != want {
		t.Fatalf("server report differs from the in-process overlay run\n got %s\nwant %s", body, want)
	}
	if string(body) == plain {
		t.Fatal("overlay run matches the run without the overlay")
	}
}

// TestInvalidOptionsAre400: inputs Run would reject are refused with
// 400 on every endpoint before anything simulates or is cached.
func TestInvalidOptionsAre400(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	for name, req := range map[string]string{
		"bad plan":             `{"name": "chain-4", "options": {"faults": {"plan": "rate=9"}}}`,
		"unknown cooling":      `{"name": "chain-4", "options": {"cooling": "Cfg9"}}`,
		"thermal on a mesh":    `{"name": "chain-16", "options": {"thermal": true}}`,
		"bad traffic":          `{"name": "chain-4", "options": {"traffic": "warp:1"}}`,
		"unknown option field": `{"name": "chain-4", "options": {"bogus": 1}}`,
		"unknown fault field":  `{"name": "chain-4", "options": {"faults": {"bogus": 1}}}`,
		// NaN durations and probabilities: converted to int64, a NaN
		// duration would read as math.MinInt64 ps.
		"NaN retry cost": `{"name": "uniform", "options": {"faults": {"plan": "retry=NaNus"}}}`,
		"NaN event time": `{"name": "uniform", "options": {"faults": {"plan": "fail=2@NaNus"}}}`,
		"NaN error rate": `{"name": "uniform", "options": {"faults": {"plan": "rate=NaN"}}}`,
		// A pacing interval beyond int64 picoseconds would convert to
		// math.MinInt64 and clamp to 1 ps.
		"overflowing open rate": `{"name": "uniform", "options": {"traffic": "open:1e-300"}}`,
	} {
		for _, ep := range []string{"/v1/run", "/v1/sweep", "/v1/jobs"} {
			if resp, body := post(t, ts.URL+ep, req); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: %d %s, want 400", name, ep, resp.StatusCode, body)
			}
		}
	}
	if st := s.cache.Stats(); st.Misses != 0 || s.cache.Len() != 0 {
		t.Errorf("invalid requests reached the cache: %+v, %d entries", st, s.cache.Len())
	}
}

// TestSweepRatesAreTrafficOverlay: each rates_mrps cell is the traffic
// overlay "open:R" — the same cache cell and bytes as /v1/run with
// that overlay — so chain-4's tenant keeps its 64-request window.
func TestSweepRatesAreTrafficOverlay(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, body := post(t, ts.URL+"/v1/sweep", `{"name": "chain-4",
		"options": {"warmup_us": 4, "measure_us": 8}, "sweep": {"rates_mrps": [1, 4]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{1, 4} {
		resp, run := post(t, ts.URL+"/v1/run", fmt.Sprintf(`{"name": "chain-4",
			"options": {"warmup_us": 4, "measure_us": 8, "traffic": "open:%g"}}`, rate))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rate %g run: %d %s", rate, resp.StatusCode, run)
		}
		c := sr.Cells[i]
		if resp.Header.Get("X-Cache") != "hit" || resp.Header.Get("X-Cache-Key") != c.Key {
			t.Errorf("rate %g: /v1/run key %s (%s), sweep cell key %s", rate,
				resp.Header.Get("X-Cache-Key"), resp.Header.Get("X-Cache"), c.Key)
		}
		// The sweep response re-encodes the cell's report compactly.
		var compact bytes.Buffer
		if err := json.Compact(&compact, run); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), c.Report) {
			t.Errorf("rate %g: /v1/run report differs from the sweep cell's", rate)
		}
	}
}
