package gups

import (
	"fmt"
	"testing"
)

// startMeasured builds cfg's rig and starts its ports with monitoring
// on from the first request, so the monitors count every completion.
func startMeasured(tb testing.TB, cfg Config) *Rig {
	tb.Helper()
	rig, err := BuildRig(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range rig.Ports {
		p.SetMeasuring(true)
		p.Start()
	}
	return rig
}

// completed is the number of requests rig's ports have seen complete.
func completed(rig *Rig) uint64 {
	var n uint64
	for _, p := range rig.Ports {
		n += p.mon.Reads + p.mon.Writes
	}
	return n
}

// stepUntil steps rig's engine until its ports have seen target
// requests complete. Each completion is an event of its own, so
// stepping as many events as completions are missing never overshoots.
func stepUntil(tb testing.TB, rig *Rig, target uint64) {
	for n := completed(rig); n < target; n = completed(rig) {
		for i := target - n; i > 0; i-- {
			if !rig.Eng.Step() {
				tb.Fatalf("engine ran dry at %d of %d completions", completed(rig), target)
			}
		}
	}
}

// releaseRig hands rig's engine storage and monitor histograms back to
// their pools.
func releaseRig(rig *Rig) {
	for _, p := range rig.Ports {
		m := p.TakeMonitor()
		m.Release()
	}
	rig.Eng.Release()
}

// TestClosedLoopEventsPerRequest pins the engine events a saturated
// closed-loop port spends per completed request. The transaction
// itself costs three (controller TX, cube, RX delivery); a port that
// has taken its last tag or write-FIFO slot arms no cadence wake,
// because none could issue before the completion that frees one, and
// that completion re-arms it. A port that armed the wake anyway spent
// a fourth, empty event per request: 4.000 on every ro and wo cell
// here and 4.004 on the mixed one, against 3.000 and 3.555 now. Mixed
// and rw ports keep more wakes, which issue a request in the other
// direction or a queued write-back.
func TestClosedLoopEventsPerRequest(t *testing.T) {
	const warm, measured = 2_000, 10_000
	type cell struct {
		ty    ReqType
		ports int
		size  int
		max   float64
	}
	var cells []cell
	for _, ty := range []ReqType{ReadOnly, WriteOnly} {
		for _, ports := range []int{1, 9} {
			for _, size := range []int{16, 128} {
				cells = append(cells, cell{ty, ports, size, 3.05})
			}
		}
	}
	cells = append(cells, cell{Mixed, 9, 128, 3.65})
	for _, c := range cells {
		t.Run(fmt.Sprintf("%v/%dport/%dB", c.ty, c.ports, c.size), func(t *testing.T) {
			rig := startMeasured(t, Config{Type: c.ty, Ports: c.ports, Size: c.size, ReadFraction: 0.5, Seed: 1})
			defer releaseRig(rig)
			stepUntil(t, rig, warm)
			ev := rig.Eng.Processed()
			stepUntil(t, rig, warm+measured)
			perReq := float64(rig.Eng.Processed()-ev) / measured
			t.Logf("%.3f events per completed request", perReq)
			if perReq > c.max {
				t.Fatalf("%.3f events per completed request, want at most %.2f", perReq, c.max)
			}
		})
	}
}

// BenchmarkPortRequest measures one request through the whole GUPS
// port loop: nine closed-loop gups.Port issue loops of 128 B random
// reads on one cube (the gups-hmc workload's shape), each saturating
// its 64-tag pool, over mem.HMC, the AC-510 controller and the cube.
// One op is one completed request. The timer starts after a warmup
// that fills every pool, without draining the loop in between, and the
// loop must then stay at 0 allocs/op (gated in CI). It also reports
// the engine events per request.
func BenchmarkPortRequest(b *testing.B) {
	const warm = 16_384
	rig := startMeasured(b, Config{Type: ReadOnly, Size: 128, Seed: 1})
	defer releaseRig(rig)
	stepUntil(b, rig, warm)
	ev := rig.Eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	stepUntil(b, rig, warm+uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(rig.Eng.Processed()-ev)/float64(b.N), "events/req")
}
