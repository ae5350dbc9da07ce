package simcache

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// pinnedOptionSets span every normalization CacheBytes applies: the
// zero value, explicit windows, thermal with and without a named
// cooling config, a cooling name without thermal (ignored), the full
// fault surface, parsed and unparsable traffic overlays, and the SLO
// default.
var pinnedOptionSets = []struct {
	name string
	o    scenario.Options
}{
	{"zero", scenario.Options{}},
	{"windows-seed-tail", scenario.Options{Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond, Seed: 7, Tail: true}},
	{"thermal-cfg4-shards", scenario.Options{Thermal: true, Cooling: "Cfg4", Shards: 4}},
	{"thermal", scenario.Options{Thermal: true}},
	{"cooling-only", scenario.Options{Cooling: "Cfg4"}},
	{"faults", scenario.Options{Faults: scenario.Faults{Plan: "rate=0.01,mtbf=200us,mttr=20us", MaxRetries: 3, Backoff: 2 * sim.Microsecond, Deadline: 20 * sim.Microsecond}}},
	{"burst-slo", scenario.Options{Traffic: "burst:8/0.5@10us/25us", SLONs: 1500}},
	{"open-2", scenario.Options{Traffic: "open:2"}},
	{"bad-traffic", scenario.Options{Traffic: "warp:9", SLONs: 1500}},
}

// update re-records testdata/pinned_keys.json instead of comparing
// against it:
//
//	go test ./internal/simcache -run TestCacheKeysPinned -update
var update = flag.Bool("update", false, "re-record testdata/pinned_keys.json")

// TestCacheKeysPinned: every library spec under every option set keys
// exactly as recorded in testdata/pinned_keys.json, so a refactor of
// the normalization cannot silently orphan cached results. A change
// that means to move keys bumps scenario.EngineVersion (or the
// encoding format) and re-records the file with -update.
func TestCacheKeysPinned(t *testing.T) {
	const path = "testdata/pinned_keys.json"
	keys, n := map[string]string{}, 0
	for _, spec := range scenario.Library() {
		for _, set := range pinnedOptionSets {
			keys[spec.Name+"/"+set.name] = KeyOf(spec, set.o).String()
			n++
		}
	}
	if *update {
		raw, err := json.MarshalIndent(keys, "", "  ")
		if err != nil {
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
	for id, got := range keys {
		if got != want[id] {
			t.Errorf("%s: key %s, pinned %q", id, got, want[id])
		}
	}
	if n != len(want) {
		t.Errorf("checked %d keys, %d pinned", n, len(want))
	}
}
