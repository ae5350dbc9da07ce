package mem

import (
	"testing"

	"hmcsim/internal/sim"
)

// TestCallsReuse pins the order every 0-allocs gate relies on: a
// callback releases its adapter before the caller's Done runs, so a
// closed loop whose Done resubmits from inside itself reuses the
// adapter it completed on. k loops in flight build exactly k adapters
// (counted as wrap invocations) however many requests they complete.
func TestCallsReuse(t *testing.T) {
	for _, depth := range []int{1, 2, 8} {
		eng := sim.NewEngine()
		wraps := 0
		calls := NewCalls(func(c *Call[sim.Time]) func(sim.Time) {
			wraps++
			return func(submit sim.Time) {
				req, done := c.Release()
				done(Result{Req: req, Submit: submit, Deliver: eng.Now()})
			}
		})
		// The native completion: a fixed 1 ns round trip reporting its
		// submit instant.
		native := sim.NewDeliverer[sim.Time](eng)
		const perLoop = 50
		issued, completed := 0, 0
		var done Done
		issue := func() {
			issued++
			req := Request{Addr: uint64(issued) * 64, Size: 64}
			native.Deliver(eng.Now()+sim.Nanosecond, eng.Now(), calls.Call(req, done))
		}
		done = func(r Result) {
			completed++
			if r.Latency() != sim.Nanosecond || r.Req.Size != 64 {
				t.Fatalf("depth %d: completion %+v lost its request or timing", depth, r)
			}
			if issued < depth*perLoop {
				issue()
			}
		}
		for i := 0; i < depth; i++ {
			issue()
		}
		eng.Run()
		eng.Release()
		if completed != depth*perLoop {
			t.Fatalf("depth %d: %d of %d requests completed", depth, completed, depth*perLoop)
		}
		if wraps != depth {
			t.Errorf("depth %d: built %d adapters, want %d (release must precede Done)", depth, wraps, depth)
		}
	}
}
