package mem_test

import (
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// reader is one closed-loop client of benchReads: each completion
// issues its next 128 B read until the budget runs out.
type reader struct {
	port   mem.Port
	rng    *sim.RNG
	mask   uint64
	addr   uint64
	budget *int
	done   mem.Done
	retry  func()
}

func (c *reader) issue() {
	if *c.budget <= 0 {
		return
	}
	*c.budget--
	c.addr = c.rng.Uint64() & c.mask &^ 127
	c.try()
}

func (c *reader) try() {
	if !c.port.CanIssue(c.addr) {
		c.port.WaitIssue(c.addr, c.retry)
		return
	}
	c.port.Submit(mem.Request{Addr: c.addr, Size: 128}, c.done)
}

// benchReads runs b.N reads through port 0 of be, closed-loop over the
// port's full read depth (on the HMC, 64 clients on the tag pool,
// uniformly random 128 B reads), so the servers see real contention.
// The timer starts after a warmup that fills every pool, without
// draining the loop in between, and the path must then stay at
// 0 allocs/op (gated in CI).
func benchReads(b *testing.B, be mem.Backend) {
	eng := be.Engine()
	const warmup = 4096
	budget, completed := warmup+b.N, 0
	readers := make([]*reader, be.Limits().ReadDepth)
	for i := range readers {
		c := &reader{port: be.Port(0), rng: sim.NewRNG(uint64(i) + 1), mask: be.CapMask(), budget: &budget}
		c.done = func(mem.Result) { completed++; c.issue() }
		c.retry = c.try
		readers[i] = c
	}
	for _, c := range readers {
		c.issue()
	}
	for completed < warmup && eng.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if completed != warmup+b.N {
		b.Fatalf("%d of %d reads completed", completed, warmup+b.N)
	}
}

// BenchmarkHMCRequest measures the whole HMC request path per read:
// mem.HMC port 0, the AC-510 controller's admission check, TX pipeline
// and RX drain, and the cube's link, vault and bank model, three engine
// events per request.
func BenchmarkHMCRequest(b *testing.B) {
	benchReads(b, mem.BuildHMC(b))
}

// BenchmarkDecoratedHMCRequest is BenchmarkHMCRequest through the
// decorator stack driver-mix-hmc runs: port 0 of
// mem.Throttle(fault.Injector(mem.HMC)). The injector stretches about
// one read in a thousand by a link retry (seed 1 draws seven in the
// warmup) and the throttle, at level 1, stretches every completion, so
// both decorators' pooled adapters and delayed deliveries run.
func BenchmarkDecoratedHMCRequest(b *testing.B) {
	hmcBe := mem.BuildHMC(b)
	inj, err := fault.New(hmcBe, fault.Config{Plan: fault.Plan{Rate: 0.001}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	inj.Start(sim.Time(1) << 62)
	be := mem.NewThrottle(inj, 1, nil, hmcBe.MinLatency()/2)
	be.SetLevel(0, 1)
	benchReads(b, be)
	if inj.Injected() == 0 {
		b.Fatal("no link retry was injected, so the injector's stretch path never ran")
	}
}
