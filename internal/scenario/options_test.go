package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"hmcsim/internal/sim"
)

// TestWireRoundTrip: every Options field survives the JSON form, with
// durations exact to the picosecond (a plain µs division would lose
// 1 ps on values like 249 ps).
func TestWireRoundTrip(t *testing.T) {
	full := Options{
		Warmup:  30*sim.Microsecond + 249,
		Measure: 100 * sim.Microsecond,
		Seed:    9,
		Tail:    true,
		Thermal: true,
		Cooling: "Cfg4",
		Shards:  4,
		Faults: Faults{
			Plan:       "rate=0.01,mtbf=200us,mttr=20us",
			MaxRetries: 2,
			Backoff:    sim.Microsecond + 251,
			Deadline:   1500 * sim.Nanosecond,
		},
		Traffic: "burst:8/0.5@10us/25us",
		SLONs:   1500,
	}
	for _, o := range []Options{{}, full} {
		b, err := json.Marshal(o.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w WireOptions
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatal(err)
		}
		if got := w.Options(); got != o {
			t.Errorf("round trip via %s:\n got %+v\nwant %+v", b, got, o)
		}
	}
	// The zero value encodes to an empty object, and the field names
	// are the wire contract.
	if b, _ := json.Marshal(Options{}.Wire()); string(b) != "{}" {
		t.Errorf("zero options encode as %s", b)
	}
	b, _ := json.Marshal(full.Wire())
	for _, name := range []string{"warmup_us", "measure_us", "seed", "tail", "thermal", "cooling", "shards",
		"faults", "plan", "max_retries", "backoff_us", "deadline_us", "traffic", "slo_ns"} {
		if !bytes.Contains(b, []byte(`"`+name+`"`)) {
			t.Errorf("wire form lacks %q: %s", name, b)
		}
	}
	// Naming a cooling config implies thermal.
	if o := (WireOptions{Cooling: "Cfg3"}).Options(); !o.Thermal {
		t.Error("wire cooling without thermal left Thermal off")
	}
}

// TestBindFlags: every overlay parses into the struct, -cooling alone
// closes the loop, and the µs flags truncate toward zero.
func TestBindFlags(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.BindFlags(fs)
	err := fs.Parse([]string{
		"-cooling", "Cfg4", "-shards", "3",
		"-faults", "rate=0.01", "-fault-retries", "2",
		"-fault-backoff-us", "1.5", "-fault-deadline-us", "0.0000019",
		"-traffic", "open:2", "-slo-ns", "1500",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Thermal: true, Cooling: "Cfg4", Shards: 3,
		Faults:  Faults{Plan: "rate=0.01", MaxRetries: 2, Backoff: 1500 * sim.Nanosecond, Deadline: 1},
		Traffic: "open:2", SLONs: 1500,
	}
	if o != want {
		t.Errorf("parsed %+v\nwant   %+v", o, want)
	}
	if err := fs.Parse([]string{"-fault-backoff-us", "x"}); err == nil {
		t.Error("non-numeric -fault-backoff-us accepted")
	}
	// The registered defaults are the struct's values; the help text
	// renders the µs flags without panicking on their zero value.
	var help strings.Builder
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(&help)
	(&Options{Shards: 2}).BindFlags(fs)
	fs.PrintDefaults()
	if !strings.Contains(help.String(), "(default 2)") || !strings.Contains(help.String(), "-fault-backoff-us") {
		t.Errorf("help text:\n%s", help.String())
	}
}

// TestPrepare: Prepare returns Run's error without simulating (now
// including an unknown cooling name), and a prepared pair is a fixed
// point that keys the same cache cell as its input.
func TestPrepare(t *testing.T) {
	spec, err := ByName("chain-4")
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]Options{
		"unknown cooling": {Thermal: true, Cooling: "Cfg9"},
		"bad plan":        {Faults: Faults{Plan: "rate=9"}},
		"bad traffic":     {Traffic: "warp:1"},
	} {
		if _, _, err := Prepare(spec, o); err == nil {
			t.Errorf("%s: Prepare accepted it", name)
		}
		if _, err := Run(spec, o); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
	sharded, err := ByName("chain-16")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Prepare(sharded, Options{Thermal: true}); err == nil || !strings.Contains(err.Error(), "single-engine") {
		t.Errorf("thermal on a sharded spec: %v", err)
	}

	o := Options{Seed: 3, Thermal: true, Traffic: "open:2", SLONs: 1500}
	ps, po, err := Prepare(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if po.Cooling != "Cfg2" || po.Traffic != "" || po.Measure != 800*sim.Microsecond {
		t.Errorf("prepared options %+v", po)
	}
	if in := ps.Tenants[0].Inject; in.Mode != "open" || in.RateMRPS != 2 || in.Outstanding != 64 {
		t.Errorf("prepared injection %+v", in)
	}
	ps2, po2, err := Prepare(ps, po)
	if err != nil || po2 != po || !bytes.Equal(CacheBytes(ps2, po2), CacheBytes(ps, po)) {
		t.Errorf("Prepare is not a fixed point: %v", err)
	}
	if !bytes.Equal(CacheBytes(ps, po), CacheBytes(spec, o)) {
		t.Error("a prepared pair keys a different cell than its input")
	}
}
