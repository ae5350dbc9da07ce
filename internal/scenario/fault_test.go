package scenario

import (
	"strings"
	"testing"

	"hmcsim/internal/sim"
)

// faultOpts are fast windows with the given merged fault surface.
func faultOpts(fl Faults) Options {
	return Options{
		Warmup:  20 * sim.Microsecond,
		Measure: 100 * sim.Microsecond,
		Faults:  fl,
	}
}

func faultSpec(backend string) Spec {
	s := Spec{
		Name:    "fault-" + backend,
		Backend: backend,
		Tenants: []Tenant{{Name: "app", Ports: 4, Mix: "ro"}},
	}
	if backend == "chain" {
		s.Topology = "chain"
	}
	if backend == "ddr4" {
		// Two channels so zone 1 exists for the outage plans.
		s.Channels = 2
	}
	return s
}

// TestFaultRunAllBackends: transient injection runs on hmc, ddr4 and
// chain; at a visible error rate with retries, the drivers observe
// errors and rescue some of them, and the run still moves data.
func TestFaultRunAllBackends(t *testing.T) {
	for _, backend := range []string{"hmc", "ddr4", "chain"} {
		// A harsh transient rate plus a mid-run outage window on zone 1
		// (a no-op zone on the single-zone hmc — the documented
		// out-of-range contract — so one plan serves all three).
		res, err := Run(faultSpec(backend), faultOpts(Faults{
			Plan:       "rate=0.02,fail=1@40us,repair=1@80us",
			MaxRetries: 3,
		}))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		tot := res.Total
		if tot.Errors == 0 && backend != "hmc" {
			t.Errorf("%s: outage window produced no errors", backend)
		}
		if tot.Retries == 0 && backend != "hmc" {
			t.Errorf("%s: no retries despite MaxRetries=3", backend)
		}
		if tot.Reads == 0 {
			t.Errorf("%s: no successful reads under faults", backend)
		}
		if av := tot.Availability(); av <= 0 || av > 1 {
			t.Errorf("%s: availability %v outside (0,1]", backend, av)
		}
		if !res.Faults {
			t.Errorf("%s: Result.Faults not set", backend)
		}
	}
}

// TestFaultErrorsCountedWithoutRetries pins the silent-drop fix: a
// failed cube's errored completions land in the Errors column even
// with no resilience machinery configured at all — only injection.
func TestFaultErrorsCountedWithoutRetries(t *testing.T) {
	res, err := Run(faultSpec("chain"), faultOpts(Faults{
		Plan: "fail=1@30us", // never repaired
	}))
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Errors == 0 {
		t.Fatal("errored completions vanished from the stats")
	}
	if tot.Failed != tot.Errors {
		t.Errorf("Failed %d != Errors %d on the retry-less path", tot.Failed, tot.Errors)
	}
	if tot.Retries != 0 || tot.Abandoned != 0 {
		t.Errorf("phantom retries/abandons: %d/%d", tot.Retries, tot.Abandoned)
	}
	if av := tot.Availability(); av >= 1 {
		t.Errorf("availability %v, want < 1 with a dead cube", av)
	}
}

// TestFaultDeadlineAbandons: with a deadline shorter than the outage,
// requests stuck retrying into a dead zone are abandoned, freeing
// their window slots.
func TestFaultDeadlineAbandons(t *testing.T) {
	res, err := Run(faultSpec("chain"), faultOpts(Faults{
		Plan:       "fail=1@30us",
		MaxRetries: 50,
		Deadline:   5 * sim.Microsecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Abandoned == 0 {
		t.Fatal("no abandons despite a deadline under a permanent outage")
	}
	if tot.Retries == 0 {
		t.Error("no retries before the deadline")
	}
	if tot.Reads == 0 {
		t.Error("healthy cubes starved: abandoned slots were not freed")
	}
}

// TestFaultReportGrid: the resilience grid and availability note
// render when faults were active, and never on a healthy run.
func TestFaultReportGrid(t *testing.T) {
	res, err := Run(faultSpec("ddr4"), faultOpts(Faults{Plan: "rate=0.05", MaxRetries: 2}))
	if err != nil {
		t.Fatal(err)
	}
	text := res.Report().Table()
	for _, want := range []string{"Resilience", "Avail %", "availability = successes"} {
		if !strings.Contains(text, want) {
			t.Errorf("fault report missing %q:\n%s", want, text)
		}
	}
	clean := MustRun(faultSpec("ddr4"), Options{Warmup: 20 * sim.Microsecond, Measure: 100 * sim.Microsecond})
	if strings.Contains(clean.Report().Table(), "Resilience") {
		t.Error("healthy run rendered the resilience grid")
	}
}

// TestFaultsActive: the zero value is inactive, and each knob alone
// activates the fault surface.
func TestFaultsActive(t *testing.T) {
	if (Faults{}).Active() {
		t.Error("zero Faults reports Active")
	}
	for _, f := range []Faults{
		{Plan: "rate=0.1"}, {MaxRetries: 5}, {Backoff: sim.Microsecond}, {Deadline: sim.Millisecond},
	} {
		if !f.Active() {
			t.Errorf("%+v not Active", f)
		}
	}
}

// TestFaultValidation: bad plans and sharded specs are rejected up
// front with errors naming the scenario.
func TestFaultValidation(t *testing.T) {
	if _, err := Run(faultSpec("ddr4"), faultOpts(Faults{Plan: "rate=9"})); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, err := Run(faultSpec("ddr4"), faultOpts(Faults{MaxRetries: -1})); err == nil {
		t.Error("negative MaxRetries accepted")
	}
	sharded := Spec{
		Name: "fault-sharded", Backend: "ddr4", Channels: 4, Groups: 2,
		Tenants: []Tenant{{Name: "a", Home: 0}, {Name: "b", Home: 1}},
	}
	_, err := Run(sharded, faultOpts(Faults{Plan: "rate=0.01"}))
	if err == nil || !strings.Contains(err.Error(), "single-engine") {
		t.Errorf("sharded fault run: %v, want single-engine error", err)
	}
}

// TestFaultReproducible: the same spec, options and seed replay the
// whole faulted run byte-identically.
func TestFaultReproducible(t *testing.T) {
	opts := faultOpts(Faults{Plan: "rate=0.01,mtbf=200us,mttr=20us", MaxRetries: 3, Deadline: 20 * sim.Microsecond})
	opts.Seed = 11
	a := MustRun(faultSpec("chain"), opts)
	b := MustRun(faultSpec("chain"), opts)
	ta, tb := a.Report().Table(), b.Report().Table()
	if ta != tb {
		t.Fatalf("faulted run not reproducible:\n--- a ---\n%s\n--- b ---\n%s", ta, tb)
	}
	if a.Total.Errors != b.Total.Errors || a.Total.Retries != b.Total.Retries ||
		a.Total.Abandoned != b.Total.Abandoned {
		t.Fatal("resilience counters diverged across identical runs")
	}
}

// TestFaultThermalCompose: the injector (innermost) and the thermal
// throttle stack on a chain; per-cube thermal zones survive the
// decorator in between, and both telemetry surfaces render.
func TestFaultThermalCompose(t *testing.T) {
	o := faultOpts(Faults{Plan: "rate=0.01", MaxRetries: 2})
	o.Thermal = true
	o.Cooling = "Cfg4"
	o.Measure = 150 * sim.Microsecond
	res, err := Run(faultSpec("chain"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Thermal == nil || len(res.Thermal.Zones) != 4 {
		t.Fatalf("thermal zones lost under the fault decorator: %+v", res.Thermal)
	}
	text := res.Report().Table()
	if !strings.Contains(text, "Resilience") || !strings.Contains(text, "Thermal feedback") {
		t.Errorf("composed report missing a grid:\n%s", text)
	}
}

// TestFaultHMCGenericParity: a fault-active hmc run takes the
// generic driver path instead of the classic cycle-accurate one, and
// still moves comparable traffic (a sanity band, not byte parity —
// the two paths model issue hardware differently).
func TestFaultHMCGenericParity(t *testing.T) {
	base := MustRun(faultSpec("hmc"), Options{Warmup: 20 * sim.Microsecond, Measure: 100 * sim.Microsecond})
	faulted := MustRun(faultSpec("hmc"), faultOpts(Faults{MaxRetries: 1}))
	if faulted.Total.MRPS < base.Total.MRPS/8 || faulted.Total.MRPS > base.Total.MRPS*8 {
		t.Errorf("driver-path hmc MRPS %.1f far from classic-path %.1f", faulted.Total.MRPS, base.Total.MRPS)
	}
}
