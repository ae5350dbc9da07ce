package mem

import (
	"testing"

	"hmcsim/internal/sim"
)

// hmcReader is one closed-loop client of BenchmarkHMCRequest: each
// completion issues its next 128 B read until the budget runs out.
type hmcReader struct {
	port   Port
	rng    *sim.RNG
	mask   uint64
	addr   uint64
	budget *int
	done   Done
	retry  func()
}

func (c *hmcReader) issue() {
	if *c.budget <= 0 {
		return
	}
	*c.budget--
	c.addr = c.rng.Uint64() & c.mask &^ 127
	c.try()
}

func (c *hmcReader) try() {
	if !c.port.CanIssue(c.addr) {
		c.port.WaitIssue(c.addr, c.retry)
		return
	}
	c.port.Submit(Request{Addr: c.addr, Size: 128}, c.done)
}

// BenchmarkHMCRequest measures the whole HMC request path per read:
// mem.HMC port 0, the AC-510 controller's admission check, TX pipeline
// and RX drain, and the cube's link, vault and bank model, three engine
// events per request. It is closed-loop over the port's full tag pool
// (64 clients, uniformly random 128 B reads), so the servers see real
// contention. The timer starts after a warmup that fills every pool,
// without draining the loop in between, and the path must then stay at
// 0 allocs/op (gated in CI).
func BenchmarkHMCRequest(b *testing.B) {
	be := buildHMC(b)
	eng := be.Engine()
	const warmup = 4096
	budget, completed := warmup+b.N, 0
	readers := make([]*hmcReader, be.Limits().ReadDepth)
	for i := range readers {
		c := &hmcReader{port: be.Port(0), rng: sim.NewRNG(uint64(i) + 1), mask: be.CapMask(), budget: &budget}
		c.done = func(Result) { completed++; c.issue() }
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
