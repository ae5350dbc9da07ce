package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hmcsim/internal/experiments"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// TestServeCheckForwardsOverlays: serve-check sends the overlay flags
// in the options it posts, and passes against a server that runs
// exactly what it decoded.
func TestServeCheckForwardsOverlays(t *testing.T) {
	opts := experiments.Quick()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	opts.BindFlags(fs)
	if err := fs.Parse([]string{"-traffic", "open:2", "-slo-ns", "1500",
		"-fault-retries", "2", "-fault-backoff-us", "1"}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	served := map[string][]byte{} // request body -> report
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if rep, ok := served[string(body)]; ok {
			w.Header().Set("X-Cache", "hit")
			w.Write(rep)
			return
		}
		var req struct {
			Name    string               `json:"name"`
			Format  string               `json:"format"`
			Options scenario.WireOptions `json:"options"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o := req.Options.Options()
		if o.Traffic != "open:2" || o.SLONs != 1500 || o.Faults.MaxRetries != 2 || o.Faults.Backoff != sim.Microsecond {
			http.Error(w, "overlay flags did not arrive: "+string(body), http.StatusBadRequest)
			return
		}
		spec, err := scenario.ByName(req.Name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := scenario.Run(spec, o)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := res.Report().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		served[string(body)] = []byte(rep)
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte(rep))
	}))
	defer srv.Close()

	if err := serveCheck(srv.URL, "scn-uniform", opts); err != nil {
		t.Fatal(err)
	}
}
