package sim

import (
	"fmt"
	"testing"
)

// The schedule benchmarks measure the engine's two scheduling APIs at
// steady state. The Handler path must report 0 allocs/op: the event
// queue is a value-typed slice and a pointer Handler boxes for free.
// The closure path pays one allocation per captured closure (the
// closure object itself); the queue adds none.

type benchHandler struct{ n uint64 }

func (h *benchHandler) Fire(*Engine) { h.n++ }

func BenchmarkEngineScheduleHandler(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(1, h)
		e.Step()
	}
}

// BenchmarkEngineScheduleHandlerDepth64 keeps 64 events pending, so
// every push/pop exercises the heap's sift paths.
func BenchmarkEngineScheduleHandlerDepth64(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	for i := 0; i < 64; i++ {
		e.ScheduleHandler(Duration(i), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(64, h)
		e.Step()
	}
}

// BenchmarkEngineScheduleDepth parameterizes the pending-event depth:
// the binary-heap kernel degraded as O(log n) with cache-hostile sift
// walks, while the calendar queue should stay near-flat. (Named apart
// from the ScheduleHandler benchmarks so CI's 0 allocs/op gate, which
// requires a settled steady state, keeps its narrow scope.)
func BenchmarkEngineScheduleDepth(b *testing.B) {
	for _, depth := range []int{16, 256, 4096, 32768} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			e := NewEngine()
			h := &benchHandler{}
			for i := 0; i < depth; i++ {
				e.ScheduleHandler(Duration(i), h)
			}
			// Warm until the queue geometry settles at this depth.
			for i := 0; i < 4*depth; i++ {
				e.ScheduleHandler(Duration(depth), h)
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleHandler(Duration(depth), h)
				e.Step()
			}
		})
	}
}

// refreshTicker models µs-scale periodic events (a DRAM refresh loop,
// say) that coexist with ns-scale traffic: it always reschedules
// itself a microsecond out, so it lives in the queue's far-future
// level.
type refreshTicker struct{ fired uint64 }

func (h *refreshTicker) Fire(e *Engine) {
	h.fired++
	e.ScheduleHandler(Microsecond, h)
}

// BenchmarkEngineMixedTimescale drives ns-gap events through a queue
// that also holds 32 µs-period tickers: the bimodal pattern of
// ns-scale device events beside µs-scale pacing and outage events.
// The far-future tickers must not tax the ns-scale fast path.
func BenchmarkEngineMixedTimescale(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	for i := 0; i < 32; i++ {
		e.ScheduleHandler(Microsecond+Duration(i), &refreshTicker{})
	}
	for i := 0; i < 4096; i++ {
		e.ScheduleHandler(Duration(i%800), h)
	}
	for i := 0; i < 16384; i++ {
		e.ScheduleHandler(800, h)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(800, h)
		e.Step()
	}
}

func BenchmarkEngineScheduleClosure(b *testing.B) {
	e := NewEngine()
	var n uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() { n++ })
		e.Step()
	}
}

func BenchmarkEngineScheduleClosureDepth64(b *testing.B) {
	e := NewEngine()
	var n uint64
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), func() { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(64, func() { n++ })
		e.Step()
	}
}

// selfRescheduler models a device tick loop: one Handler instance that
// reschedules itself until a horizon, the dominant pattern in the
// migrated vault and port models.
type selfRescheduler struct {
	until Time
	fired uint64
}

func (h *selfRescheduler) Fire(e *Engine) {
	h.fired++
	if e.Now() < h.until {
		e.ScheduleHandler(1, h)
	}
}

func BenchmarkEngineRunSelfRescheduling(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		h := &selfRescheduler{until: 10000}
		e.ScheduleHandler(0, h)
		e.Run()
		if h.fired == 0 {
			b.Fatal("no events fired")
		}
	}
}

func BenchmarkDelivererDeliver(b *testing.B) {
	e := NewEngine()
	d := NewDeliverer[uint64](e)
	var sum uint64
	done := func(v uint64) { sum += v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Deliver(e.Now()+1, uint64(i), done)
		e.Step()
	}
}

// TestScheduleHandlerZeroAlloc is the allocation-regression guard for
// the hot path: scheduling and firing a Handler at steady state must
// not allocate. It pins both queue regimes — the one-event register
// (queue oscillating 0<->1, the self-rescheduling tick pattern) and
// the calendar wheel at depth (64 events always pending). CI also
// runs the benchmarks above with -benchmem and rejects any
// "allocs/op" regression on the Handler path.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	t.Run("register", func(t *testing.T) {
		e := NewEngine()
		h := &benchHandler{}
		for i := 0; i < 64; i++ { // settle any engine-level capacity
			e.ScheduleHandler(1, h)
			e.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.ScheduleHandler(1, h)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("register path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("wheel", func(t *testing.T) {
		e := NewEngine()
		h := &benchHandler{}
		// Hold 64 events pending so every op exercises the wheel, and
		// warm until the self-tuned geometry and the per-slot slice
		// capacities settle (the queue re-keys from its gap/delta EMAs
		// during the first warm cycles).
		for i := 0; i < 64; i++ {
			e.ScheduleHandler(Duration(i), h)
		}
		for i := 0; i < 1024; i++ {
			e.ScheduleHandler(64, h)
			e.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.ScheduleHandler(64, h)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("wheel path allocates %.1f allocs/op, want 0", allocs)
		}
	})
}
