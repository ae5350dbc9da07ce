package fault_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/sim"
)

// TestParsePlan: the documented grammar lowers to the expected plan.
func TestParsePlan(t *testing.T) {
	cases := []struct {
		in   string
		want fault.Plan
	}{
		{"", fault.Plan{}},
		{"rate=0.001", fault.Plan{Rate: 0.001}},
		{"retry=220ns", fault.Plan{RetryCost: 220 * sim.Nanosecond}},
		{"mtbf=200us,mttr=40us", fault.Plan{MTBF: 200 * sim.Microsecond, MTTR: 40 * sim.Microsecond}},
		{"fail=2@300us,repair=2@500us", fault.Plan{Events: []fault.Event{
			{At: 300 * sim.Microsecond, Kind: fault.Fail, Zone: 2},
			{At: 500 * sim.Microsecond, Kind: fault.Repair, Zone: 2},
		}}},
		{"rate=0.05@400us", fault.Plan{Events: []fault.Event{
			{At: 400 * sim.Microsecond, Kind: fault.Rate, Rate: 0.05},
		}}},
		// Events arrive unsorted and are normalized by At.
		{"repair=0@2ms,fail=0@1ms", fault.Plan{Events: []fault.Event{
			{At: sim.Millisecond, Kind: fault.Fail},
			{At: 2 * sim.Millisecond, Kind: fault.Repair},
		}}},
		// Fractional durations round on the picosecond clock.
		{"retry=1.5ns", fault.Plan{RetryCost: 1500 * sim.Picosecond}},
		// Whitespace and empty tokens are tolerated.
		{" rate=0.1 , retry=10ns ,", fault.Plan{Rate: 0.1, RetryCost: 10 * sim.Nanosecond}},
	}
	for _, c := range cases {
		got, err := fault.ParsePlan(c.in)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestParsePlanErrors: malformed input is rejected with an error, not
// a panic or a partial plan.
func TestParsePlanErrors(t *testing.T) {
	for _, in := range []string{
		"bogus",                // not key=value
		"volts=3",              // unknown key
		"rate=nope",            // bad float
		"rate=1.5",             // outside [0,1]
		"rate=-0.1",            // outside [0,1]
		"rate=2@100us",         // event rate outside [0,1]
		"retry=10",             // missing unit suffix
		"retry=-5ns",           // negative duration
		"retry=10ns@5us",       // retry is not schedulable
		"mtbf=200us",           // MTTR missing
		"mttr=40us",            // MTBF missing
		"fail=2",               // fail needs @time
		"repair=2",             // repair needs @time
		"fail=x@100us",         // bad zone
		"fail=-1@100us",        // negative zone
		"fail=2@100lightyears", // bad time unit
		"retry=NaNus",          // NaN duration
		"fail=2@NaNus",         // NaN event time
		"repair=1@NaNns",       // NaN event time
		"rate=0.1@NaNus",       // NaN event time
		"mtbf=Infus,mttr=1us",  // infinite duration
		"rate=NaN",             // NaN probability
		"rate=NaN@1us",         // NaN event probability
	} {
		if p, err := fault.ParsePlan(in); err == nil {
			t.Errorf("ParsePlan(%q) = %+v, want error", in, p)
		}
	}
}

// TestPlanStringRoundTrip: String renders in the ParsePlan grammar and
// reparses to the identical plan.
func TestPlanStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"rate=0.001",
		"rate=0.001,retry=220ns,mtbf=200us,mttr=40us",
		"fail=2@300us,repair=2@500us,rate=0.05@400us",
		"retry=1333ps",
	} {
		p := mustParse(t, in)
		back, err := fault.ParsePlan(p.String())
		if err != nil {
			t.Errorf("reparse of %q (String %q): %v", in, p.String(), err)
			continue
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("round trip of %q: %+v != %+v (String %q)", in, p, back, p.String())
		}
	}
}

// TestPlanZero: only the empty plan is Zero.
func TestPlanZero(t *testing.T) {
	if !(fault.Plan{}).Zero() {
		t.Error("empty plan not Zero")
	}
	for _, in := range []string{"rate=0.1", "mtbf=1ms,mttr=1us", "fail=0@1us"} {
		if mustParse(t, in).Zero() {
			t.Errorf("plan %q reports Zero", in)
		}
	}
}

// TestPlanNormalizeStable: events with equal timestamps keep their
// script order, so "repair then fail at t" means what it says.
func TestPlanNormalizeStable(t *testing.T) {
	p := fault.Plan{Events: []fault.Event{
		{At: 5, Kind: fault.Repair, Zone: 1},
		{At: 3, Kind: fault.Fail, Zone: 0},
		{At: 5, Kind: fault.Fail, Zone: 1},
	}}
	n := p.Normalize()
	want := []fault.Event{
		{At: 3, Kind: fault.Fail, Zone: 0},
		{At: 5, Kind: fault.Repair, Zone: 1},
		{At: 5, Kind: fault.Fail, Zone: 1},
	}
	if !reflect.DeepEqual(n.Events, want) {
		t.Errorf("Normalize = %+v, want %+v", n.Events, want)
	}
	// The input plan is untouched (Normalize copies).
	if p.Events[0].At != 5 {
		t.Error("Normalize mutated its receiver")
	}
}

// TestPlanValidate: out-of-range values are caught with messages that
// name the offending field.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		p    fault.Plan
		frag string
	}{
		{fault.Plan{Rate: -1}, "rate"},
		{fault.Plan{RetryCost: -1}, "retry"},
		{fault.Plan{MTBF: -1, MTTR: -1}, "MTBF"},
		{fault.Plan{MTBF: 5}, "both"},
		{fault.Plan{Events: []fault.Event{{At: -1}}}, "negative time"},
		{fault.Plan{Events: []fault.Event{{Kind: fault.Fail, Zone: -2}}}, "zone"},
		{fault.Plan{Events: []fault.Event{{Kind: fault.Rate, Rate: 7}}}, "rate"},
		{fault.Plan{Rate: math.NaN()}, "rate"},
		{fault.Plan{Events: []fault.Event{{Kind: fault.Rate, Rate: math.NaN()}}}, "rate"},
		{fault.Plan{Events: []fault.Event{{Kind: fault.EventKind(99)}}}, "unknown"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error mentioning %q", c.p, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%+v) = %q, want mention of %q", c.p, err, c.frag)
		}
	}
	ok := fault.Plan{Rate: 0.5, RetryCost: 10, MTBF: 100, MTTR: 10,
		Events: []fault.Event{{At: 1, Kind: fault.Fail, Zone: 3}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(valid plan) = %v", err)
	}
}
