package fault_test

import (
	"reflect"
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// FuzzFaultPlan: plan parsing and normalization never panic on any
// input; every accepted plan validates, round-trips through String,
// and replays deterministically when driven over a backend.
func FuzzFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"rate=0.001",
		"rate=0.001,retry=220ns",
		"mtbf=200us,mttr=40us",
		"fail=2@300us,repair=2@500us",
		"rate=0.05@400us,rate=0.2@800us",
		"repair=0@2ms,fail=0@1ms,fail=1@1ms",
		"retry=1.5us,rate=1",
		" rate=0.1 , fail=0@1ns ,",
		"rate=nope,fail=@,@@=,=@",
		"retry=NaNus",
		"fail=2@NaNus",
		"rate=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := fault.ParsePlan(s)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted plan fails Validate: %v (input %q)", verr, s)
		}
		// String round-trips exactly.
		back, err := fault.ParsePlan(p.String())
		if err != nil {
			t.Fatalf("String %q of accepted plan does not reparse: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip drifted: %+v != %+v (String %q)", p, back, p.String())
		}
		// Replay is deterministic: the same plan and seed drive the
		// same fault sequence over identical backends.
		run := func() (uint64, uint64, uint64) {
			be, err := mem.NewDDR(sim.NewEngine(), mem.DDRConfig{Channels: 2})
			if err != nil {
				t.Fatal(err)
			}
			inj, err := fault.New(be, fault.Config{Plan: p, Seed: 42, Zones: 2})
			if err != nil {
				t.Fatalf("plan validated but New failed: %v", err)
			}
			const horizon = 2 * sim.Microsecond
			inj.Start(horizon)
			port := inj.Port(0)
			eng := inj.Engine()
			var count int
			var resubmit mem.Done
			resubmit = func(mem.Result) {
				if count++; count < 64 && eng.Now() < horizon {
					port.Submit(mem.Request{Addr: uint64(count) * 4096, Size: 64}, resubmit)
				}
			}
			port.Submit(mem.Request{Addr: 0, Size: 64}, resubmit)
			eng.RunUntil(horizon)
			eng.Run()
			return inj.Injected(), inj.Counters().Errors, inj.Outages()
		}
		i1, r1, o1 := run()
		i2, r2, o2 := run()
		if i1 != i2 || r1 != r2 || o1 != o2 {
			t.Fatalf("replay diverged: (%d,%d,%d) != (%d,%d,%d) for plan %q",
				i1, r1, o1, i2, r2, o2, p.String())
		}
	})
}
