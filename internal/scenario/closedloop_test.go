package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"hmcsim/internal/sim"
	"hmcsim/internal/workloads"
)

// update re-records testdata/closed_loop_tables.json instead of
// comparing against it:
//
//	go test ./internal/scenario -run TestClosedLoopSchedulesPinned -update
var update = flag.Bool("update", false, "re-record testdata/closed_loop_tables.json")

// closedLoopSpecs draws n seeded random closed-loop specs for the
// gups.Port runner: one or two tenants over at most nine ports, every
// mix at several read fractions, 16–128 B requests, the nine standard
// patterns and the whole device, every address distribution, windows
// of 0–64 outstanding requests (0 = the hardware depths), and 20–60 µs
// measured windows. They reach shapes no golden does: windows below
// the 64-tag pool, two-tenant mixes and one-port rw.
func closedLoopSpecs(n int) []Spec {
	rng := sim.NewRNG(31)
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	patterns := []string{"full"}
	for _, p := range workloads.Standard() {
		patterns = append(patterns, p.Name)
	}
	specs := make([]Spec, n)
	for i := range specs {
		s := &specs[i]
		s.Name = fmt.Sprintf("closed-%02d", i)
		s.Warmup = sim.Duration(5+rng.Intn(11)) * sim.Microsecond
		s.Measure = sim.Duration(20+rng.Intn(41)) * sim.Microsecond
		tenants, left := 1+rng.Intn(2), 9
		for k := 0; k < tenants; k++ {
			ports := 1 + rng.Intn(left-(tenants-1-k))
			left -= ports
			window := rng.Intn(65)
			if rng.Intn(4) == 0 {
				window = 0
			}
			s.Tenants = append(s.Tenants, Tenant{
				Name:         fmt.Sprintf("t%d", k),
				Ports:        ports,
				Mix:          pick("ro", "wo", "rw", "mix"),
				ReadFraction: []float64{0.25, 0.5, 0.66, 0.9}[rng.Intn(4)],
				Size:         16 * (1 + rng.Intn(8)),
				Pattern:      patterns[rng.Intn(len(patterns))],
				Access:       Access{Kind: pick("uniform", "uniform", "linear", "zipfian", "hotspot", "strided", "seqjump")},
				Inject:       Injection{Outstanding: window},
			})
		}
	}
	return specs
}

// TestClosedLoopSchedulesPinned runs 48 seeded random closed-loop
// specs through the gups.Port runner and compares each rendered
// report's SHA-256 with testdata/closed_loop_tables.json, so a change
// to the port's issue loop that reorders any request shows up beyond
// the registry's goldens. A change that means to move results bumps
// EngineVersion and re-records the file with -update.
func TestClosedLoopSchedulesPinned(t *testing.T) {
	const path = "testdata/closed_loop_tables.json"
	got := map[string]string{}
	for i, spec := range closedLoopSpecs(48) {
		r, err := Run(spec, Options{Seed: uint64(i), Tail: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got[spec.Name] = fmt.Sprintf("%x", sha256.Sum256([]byte(r.Report().Table())))
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: report SHA-256 %s, pinned %q", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d specs, %d pinned", len(got), len(want))
	}
}
