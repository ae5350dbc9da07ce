package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"hmcsim/internal/sim"
)

// TestCacheBytesStable pins the canonicalization contract: encoding is
// a pure function of the defaulted field values — repeated encodes,
// struct copies and literals written with different field orderings
// (or with defaults spelled out) all produce identical bytes.
func TestCacheBytesStable(t *testing.T) {
	// The same scenario three ways: sparse literal, fields in another
	// order, defaults written explicitly.
	sparse := Spec{
		Name: "enc-probe",
		Tenants: []Tenant{
			{Name: "a", Access: Access{Kind: "zipfian", ZipfTheta: 0.9}},
			{Name: "b", Mix: "wo", Ports: 2},
		},
	}
	reordered := Spec{
		Tenants: []Tenant{
			{Access: Access{ZipfTheta: 0.9, Kind: "zipfian"}, Name: "a"},
			{Ports: 2, Mix: "wo", Name: "b"},
		},
		Name: "enc-probe",
	}
	explicit := Spec{
		Name:     "enc-probe",
		Backend:  "hmc",
		Topology: "single",
		Cubes:    4,
		Channels: 1,
		Groups:   1,
		Tenants: []Tenant{
			{Name: "a", Ports: 1, Mix: "ro", Size: 128,
				Access: Access{Kind: "zipfian", ZipfTheta: 0.9},
				Inject: Injection{Mode: "closed"}},
			{Name: "b", Ports: 2, Mix: "wo", Size: 128,
				Access: Access{Kind: "uniform"},
				Inject: Injection{Mode: "closed"}},
		},
	}
	o := Options{Seed: 7}
	want := CacheBytes(sparse, o)
	if got := CacheBytes(reordered, o); !bytes.Equal(got, want) {
		t.Errorf("literal field order changed the encoding")
	}
	if got := CacheBytes(explicit, o); !bytes.Equal(got, want) {
		t.Errorf("explicit defaults changed the encoding")
	}
	for i := 0; i < 100; i++ {
		if got := CacheBytes(sparse, o); !bytes.Equal(got, want) {
			t.Fatalf("re-encode %d drifted", i)
		}
	}
	// "full" and "" name the same footprint; the compiler treats them
	// identically, so the encoding must too.
	full := sparse
	full.Tenants = append([]Tenant(nil), sparse.Tenants...)
	full.Tenants[0].Pattern = "full"
	if got := CacheBytes(full, o); !bytes.Equal(got, want) {
		t.Errorf(`Pattern "full" and "" encode differently`)
	}
}

// TestCacheBytesEffectiveOptions pins the normalization CacheBytes
// shares with Run: a spec-level Warmup/Measure override and the same
// windows passed through Options encode identically, Shards never
// perturbs the encoding (results are shard-count-independent), and
// Cooling is ignored unless the thermal loop is closed.
func TestCacheBytesEffectiveOptions(t *testing.T) {
	base := Spec{Name: "eff", Tenants: []Tenant{{Name: "t"}}}

	viaSpec := base
	viaSpec.Warmup = 10 * sim.Microsecond
	viaSpec.Measure = 40 * sim.Microsecond
	viaOpts := CacheBytes(base, Options{Warmup: 10 * sim.Microsecond, Measure: 40 * sim.Microsecond})
	if !bytes.Equal(CacheBytes(viaSpec, Options{}), viaOpts) {
		t.Errorf("spec-level and option-level windows encode differently")
	}

	o := Options{Seed: 3}
	plain := CacheBytes(base, o)
	o.Shards = 8
	if !bytes.Equal(CacheBytes(base, o), plain) {
		t.Errorf("Shards leaked into the encoding; sharded runs must share cache cells")
	}
	o.Shards = 0
	o.Cooling = "Cfg4" // ignored without Thermal
	if !bytes.Equal(CacheBytes(base, o), plain) {
		t.Errorf("Cooling without Thermal leaked into the encoding")
	}
	o.Thermal = true
	withThermal := CacheBytes(base, o)
	if bytes.Equal(withThermal, plain) {
		t.Errorf("Thermal did not change the encoding")
	}
	// Default cooling spelled out vs omitted: same closed-loop run.
	if !bytes.Equal(CacheBytes(base, Options{Seed: 3, Thermal: true, Cooling: "Cfg2"}),
		CacheBytes(base, Options{Seed: 3, Thermal: true})) {
		t.Errorf("default cooling Cfg2 and empty encode differently under Thermal")
	}
}

// TestCacheBytesSensitivity checks that every output-affecting knob
// perturbs the encoding (a sample across spec and options), so no two
// different runs can collide by construction of the input bytes.
func TestCacheBytesSensitivity(t *testing.T) {
	base := Spec{Name: "sens", Tenants: []Tenant{{Name: "t"}}}
	o := Options{Seed: 1}
	ref := CacheBytes(base, o)

	mut := func(name string, s Spec, o Options) {
		t.Helper()
		if bytes.Equal(CacheBytes(s, o), ref) {
			t.Errorf("%s did not change the encoding", name)
		}
	}
	s := base
	s.Refresh = true
	mut("Refresh", s, o)
	s = base
	s.Tenants = []Tenant{{Name: "t", Size: 64}}
	mut("Tenant.Size", s, o)
	s = base
	s.Tenants = []Tenant{{Name: "t", Inject: Injection{Mode: "open", RateMRPS: 2}}}
	mut("Injection", s, o)
	mut("Seed", base, Options{Seed: 2})
	mut("Measure", base, Options{Seed: 1, Measure: 50 * sim.Microsecond})
	mut("Tail", base, Options{Seed: 1, Tail: true})
	mut("Options.Faults", base, Options{Seed: 1, Faults: Faults{MaxRetries: 3}})

	// The traffic-model fields: every knob of the phased, burst,
	// lifecycle and QoS surface must perturb the encoding, and within
	// each mode every parameter must be distinguishable from a sibling
	// value (same-mode collisions are the dangerous ones).
	phased := func(ph []RatePhase) Spec {
		s := base
		s.Tenants = []Tenant{{Name: "t", Inject: Injection{Mode: "phased", Phases: ph}}}
		return s
	}
	phRef := phased([]RatePhase{{RateMRPS: 2, Duration: 10 * sim.Microsecond}})
	mut("Injection.Phases", phRef, o)
	for name, s := range map[string]Spec{
		"RatePhase.RateMRPS": phased([]RatePhase{{RateMRPS: 4, Duration: 10 * sim.Microsecond}}),
		"RatePhase.Duration": phased([]RatePhase{{RateMRPS: 2, Duration: 20 * sim.Microsecond}}),
		"RatePhase.Ramp":     phased([]RatePhase{{RateMRPS: 2, Duration: 10 * sim.Microsecond, Ramp: true}}),
		"RatePhase count": phased([]RatePhase{
			{RateMRPS: 2, Duration: 5 * sim.Microsecond},
			{RateMRPS: 2, Duration: 5 * sim.Microsecond}}),
	} {
		if bytes.Equal(CacheBytes(s, o), CacheBytes(phRef, o)) {
			t.Errorf("%s did not change the encoding", name)
		}
	}
	burst := func(mutate func(*Injection)) Spec {
		s := base
		in := Injection{Mode: "burst", BurstMRPS: 8, IdleMRPS: 0.5,
			BurstDwell: 10 * sim.Microsecond, IdleDwell: 20 * sim.Microsecond}
		if mutate != nil {
			mutate(&in)
		}
		s.Tenants = []Tenant{{Name: "t", Inject: in}}
		return s
	}
	buRef := burst(nil)
	mut("Injection burst mode", buRef, o)
	for name, s := range map[string]Spec{
		"Injection.BurstMRPS":  burst(func(in *Injection) { in.BurstMRPS = 12 }),
		"Injection.IdleMRPS":   burst(func(in *Injection) { in.IdleMRPS = 1 }),
		"Injection.BurstDwell": burst(func(in *Injection) { in.BurstDwell = 15 * sim.Microsecond }),
		"Injection.IdleDwell":  burst(func(in *Injection) { in.IdleDwell = 30 * sim.Microsecond }),
	} {
		if bytes.Equal(CacheBytes(s, o), CacheBytes(buRef, o)) {
			t.Errorf("%s did not change the encoding", name)
		}
	}
	s = base
	s.Tenants = []Tenant{{Name: "t", Start: 10 * sim.Microsecond}}
	mut("Tenant.Start", s, o)
	s = base
	s.Tenants = []Tenant{{Name: "t", Stop: 40 * sim.Microsecond}}
	mut("Tenant.Stop", s, o)
	s = base
	s.Tenants = []Tenant{{Name: "t", QoS: QoS{Class: "gold", TargetNs: 1500}}}
	mut("Tenant.QoS", s, o)
	sq := base
	sq.Tenants = []Tenant{{Name: "t", QoS: QoS{Class: "bulk", TargetNs: 1500}}}
	if bytes.Equal(CacheBytes(s, o), CacheBytes(sq, o)) {
		t.Errorf("QoS.Class did not change the encoding")
	}
	sq.Tenants = []Tenant{{Name: "t", QoS: QoS{Class: "gold", TargetNs: 3000}}}
	if bytes.Equal(CacheBytes(s, o), CacheBytes(sq, o)) {
		t.Errorf("QoS.TargetNs did not change the encoding")
	}
	mut("Options.Traffic", base, Options{Seed: 1, Traffic: "open:4"})
	mut("Options.SLONs", base, Options{Seed: 1, SLONs: 1500})

	// Tenant order is semantic (it fixes port indices and seed
	// derivation), so swapping tenants must change the bytes.
	s = base
	s.Tenants = []Tenant{{Name: "u"}, {Name: "t"}}
	s2 := base
	s2.Tenants = []Tenant{{Name: "t"}, {Name: "u"}}
	if bytes.Equal(CacheBytes(s, o), CacheBytes(s2, o)) {
		t.Errorf("tenant order did not change the encoding")
	}
}

// TestCacheBytesTrafficOverlayAbsorbed pins the overlay normalization
// CacheBytes shares with Run: "-traffic X -slo-ns N" on a spec and the
// same spec with X and N spelled out in its tenants share one cache
// cell, while an unparsable overlay (Run would error) still encodes
// deterministically and distinctly.
func TestCacheBytesTrafficOverlayAbsorbed(t *testing.T) {
	base := Spec{Name: "ov", Tenants: []Tenant{{Name: "t"}}}
	viaOpts := CacheBytes(base, Options{Seed: 1, Traffic: "burst:8/0.5@10us/20us", SLONs: 1500})
	spelled := base
	spelled.Tenants = []Tenant{{Name: "t",
		Inject: Injection{Mode: "burst", BurstMRPS: 8, IdleMRPS: 0.5,
			BurstDwell: 10 * sim.Microsecond, IdleDwell: 20 * sim.Microsecond},
		QoS: QoS{TargetNs: 1500}}}
	if !bytes.Equal(viaOpts, CacheBytes(spelled, Options{Seed: 1})) {
		t.Errorf("option-level traffic overlay and spelled-out spec encode differently")
	}
	badA := CacheBytes(base, Options{Seed: 1, Traffic: "warp:1"})
	badB := CacheBytes(base, Options{Seed: 1, Traffic: "warp:2"})
	if bytes.Equal(badA, badB) {
		t.Errorf("distinct unparsable overlays encode identically")
	}
	if !bytes.Equal(badA, CacheBytes(base, Options{Seed: 1, Traffic: "warp:1"})) {
		t.Errorf("unparsable overlay encoding not deterministic")
	}
}

// TestCacheBytesRegistryCollisionSmoke hashes every named spec in the
// library (and each again under a different seed and backend
// re-target) and requires every digest distinct — the collision smoke
// the cache key inherits.
func TestCacheBytesRegistryCollisionSmoke(t *testing.T) {
	seen := map[[32]byte]string{}
	add := func(label string, s Spec, o Options) {
		t.Helper()
		d := sha256.Sum256(CacheBytes(s, o))
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision: %s vs %s", label, prev)
		}
		seen[d] = label
	}
	for _, s := range Library() {
		add(s.Name+"/seed1", s, Options{Seed: 1})
		add(s.Name+"/seed2", s, Options{Seed: 2})
		add(s.Name+"/tail", s, Options{Seed: 1, Tail: true})
	}
	for _, s := range Builtin() {
		for _, be := range []string{"ddr4", "chain"} {
			r := WithBackend(s, be)
			add(fmt.Sprintf("%s@%s", s.Name, be), r, Options{Seed: 1})
		}
	}
	if len(seen) < 3*len(Library()) {
		t.Fatalf("smoke accounted %d digests, want >= %d", len(seen), 3*len(Library()))
	}
}
