package sim

import (
	"math/rand"
	"testing"
)

// The calendar queue must be observationally identical to the
// reference binary heap it replaced: for ANY interleaving of pushes
// and (possibly limit-bounded) pops, both structures must emit the
// same (at, seq) sequence. The differential driver below runs the two
// in lockstep; the randomized tests sweep adversarial schedule
// regimes, and FuzzQueueOrder lets the fuzzer hunt for interleavings
// the regimes miss.

type nopHandler struct{}

func (nopHandler) Fire(*Engine) {}

// diffDriver drives a calendar queue and the reference heap in
// lockstep, modelling the engine's clock rules: pops advance the
// clock, failed limited pops jump it to the limit (RunUntil), and
// every push is stamped at or after the current clock.
type diffDriver struct {
	t   testing.TB
	q   calQueue
	ref refHeap
	now Time
	seq uint64
}

func (d *diffDriver) push(delta Duration) {
	if delta < 0 {
		delta = 0
	}
	d.seq++
	ev := event{at: d.now + delta, seq: d.seq, h: nopHandler{}}
	d.q.push(ev, d.now)
	d.ref.push(ev)
	if got, want := d.q.len(), d.ref.len(); got != want {
		d.t.Fatalf("after push at %d: len %d, reference %d", ev.at, got, want)
	}
}

// popLE pops from both queues with the given limit and cross-checks
// the outcome. A refused pop advances the clock to the limit, like
// RunUntil advancing to its deadline.
func (d *diffDriver) popLE(limit Time) bool {
	ev, ok := d.q.popLE(limit)
	refOK := d.ref.len() > 0 && !d.ref.peek().after(limit)
	if ok != refOK {
		d.t.Fatalf("popLE(%d) ok=%v, reference %v (len %d)", limit, ok, refOK, d.ref.len())
	}
	if !ok {
		if limit != maxTime && d.now < limit {
			d.now = limit
		}
		return false
	}
	want := d.ref.pop()
	if ev.at != want.at || ev.seq != want.seq {
		d.t.Fatalf("popLE(%d) = (at %d, seq %d), reference (at %d, seq %d)",
			limit, ev.at, ev.seq, want.at, want.seq)
	}
	if ev.at < d.now {
		d.t.Fatalf("pop went backwards: at %d before clock %d", ev.at, d.now)
	}
	d.now = ev.at
	return true
}

func (d *diffDriver) pop() bool { return d.popLE(maxTime) }

// release ends the queue's lifetime the way Engine.Release and
// NewEngine do, without the pool: both queues drop their pending
// events, the calendar storage (which must hold no Handler) passes to
// a new queue, and the clock and sequence restart at zero.
func (d *diffDriver) release() {
	if fresh := d.q.release(); fresh != nil {
		if n := storedHandlers(fresh); n != 0 {
			d.t.Fatalf("released storage holds %d Handlers", n)
		}
		d.q = *fresh
	}
	if d.q.len() != 0 {
		d.t.Fatalf("adopted queue holds %d events", d.q.len())
	}
	d.ref = refHeap{}
	d.now, d.seq = 0, 0
}

// storedHandlers counts the Handlers left anywhere in q's storage, up
// to each slice's capacity.
func storedHandlers(q *calQueue) int {
	n := 0
	count := func(evs []event) {
		for _, ev := range evs[:cap(evs)] {
			if ev.h != nil {
				n++
			}
		}
	}
	for _, s := range q.slots[:cap(q.slots)] {
		count(s)
	}
	count(q.overflow)
	count(q.scratch)
	return n
}

func (d *diffDriver) drain() {
	for d.pop() {
	}
	if d.q.len() != 0 || d.ref.len() != 0 {
		d.t.Fatalf("after drain: len %d, reference %d", d.q.len(), d.ref.len())
	}
}

// after is the complement of before against a bare timestamp.
func (ev event) after(t Time) bool { return ev.at > t }

// deltaRegimes are adversarial scheduling-delta distributions: each
// returns a delta >= 0. They are chosen to force every queue
// mechanism: same-timestamp FIFO runs, cursor-slot insertion,
// overflow migration, idle re-anchoring, wheel growth and both
// directions of width re-keying.
var deltaRegimes = []struct {
	name string
	gen  func(r *rand.Rand) Duration
}{
	{"tight", func(r *rand.Rand) Duration { return Duration(r.Intn(8)) }},
	{"bursty", func(r *rand.Rand) Duration {
		if r.Intn(2) == 0 {
			return 0 // same-timestamp burst
		}
		return Duration(r.Intn(2000))
	}},
	{"banklike", func(r *rand.Rand) Duration { return Duration(500 + r.Intn(3000)) }},
	{"bimodal", func(r *rand.Rand) Duration {
		if r.Intn(16) == 0 {
			return Duration(1+r.Intn(5)) * Microsecond // µs pacing scale
		}
		return Duration(r.Intn(1500))
	}},
	{"farfuture", func(r *rand.Rand) Duration {
		return Duration(r.Intn(int(4 * Millisecond))) // mostly overflow
	}},
	{"drifting", func(r *rand.Rand) Duration {
		// Exponentially spread gaps drag the width EMA up and down,
		// forcing re-keys in both directions.
		return Duration(r.Intn(15)+1) << uint(r.Intn(20))
	}},
}

// TestQueueDifferentialRandom cross-checks random schedule/pop
// interleavings against the reference heap across all regimes.
func TestQueueDifferentialRandom(t *testing.T) {
	for _, regime := range deltaRegimes {
		t.Run(regime.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				d := &diffDriver{t: t}
				for op := 0; op < 6000; op++ {
					if op%2000 == 1999 {
						// End the queue's lifetime mid-program and go
						// on over its storage, as the next engine does.
						d.release()
					}
					switch r.Intn(8) {
					case 0, 1, 2, 3: // push
						d.push(regime.gen(r))
					case 4, 5: // pop
						d.pop()
					case 6: // bounded pop, as RunUntil issues
						d.popLE(d.now + regime.gen(r))
					case 7: // burst: several pushes at one instant
						n := r.Intn(6)
						for i := 0; i < n; i++ {
							d.push(Duration(r.Intn(2)))
						}
					}
				}
				d.drain()
			}
		})
	}
}

// TestQueueDifferentialDeepBacklog holds thousands of events pending
// while popping, covering wheel growth and deep overflow heaps.
func TestQueueDifferentialDeepBacklog(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := &diffDriver{t: t}
	for i := 0; i < 5000; i++ {
		d.push(Duration(r.Intn(int(2 * Microsecond))))
	}
	// Steady churn at depth ~5000.
	for i := 0; i < 20000; i++ {
		if r.Intn(2) == 0 {
			d.push(Duration(r.Intn(int(2 * Microsecond))))
		} else {
			d.pop()
		}
	}
	d.drain()
}

// TestQueueDifferentialIdleJumps alternates long idle periods
// (RunUntil far past the last event) with bursts, covering the idle
// re-anchor path and pushes landing right after a clock jump.
func TestQueueDifferentialIdleJumps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := &diffDriver{t: t}
	for round := 0; round < 300; round++ {
		for i := r.Intn(20); i > 0; i-- {
			d.push(Duration(r.Intn(4000)))
		}
		// Bounded pops up to a deadline beyond some events.
		deadline := d.now + Duration(r.Intn(6000))
		for d.popLE(deadline) {
		}
		// Jump far ahead; the next burst must re-anchor cleanly.
		d.popLE(d.now + Duration(r.Intn(int(10*Microsecond))))
	}
	d.drain()
}

// TestQueueShrinkKeepsSlotStorage: a re-key that shrinks the ring
// keeps the dropped slots' storage within the ring's capacity, and a
// later regrowth gets it back.
func TestQueueShrinkKeepsSlotStorage(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := &diffDriver{t: t}
	for i := 0; i < 4000; i++ {
		d.push(Duration(r.Intn(int(2 * Microsecond))))
	}
	grown := len(d.q.slots)
	d.drain()
	// Short-delta churn drags the delta EMA down until tune shrinks
	// the ring.
	for i := 0; i < 4000 && len(d.q.slots) == grown; i++ {
		d.push(Duration(r.Intn(4)))
		d.push(Duration(r.Intn(4)))
		d.pop()
		d.pop()
	}
	if len(d.q.slots) >= grown {
		t.Fatalf("ring never shrank from %d slots", grown)
	}
	if cap(d.q.slots) < grown {
		t.Fatalf("shrink dropped the ring's storage: cap %d, was %d slots", cap(d.q.slots), grown)
	}
	kept := 0
	for _, s := range d.q.slots[len(d.q.slots):cap(d.q.slots)] {
		if len(s) != 0 {
			t.Fatal("a slot beyond the ring holds events")
		}
		kept += cap(s)
	}
	if kept == 0 {
		t.Fatal("the dropped slots kept no capacity")
	}
	ring := &d.q.slots[0]
	for i := 0; i < 4000; i++ {
		d.push(Duration(r.Intn(int(2 * Microsecond))))
	}
	if len(d.q.slots) != grown || &d.q.slots[0] != ring {
		t.Fatalf("regrowth to %d slots (want %d) did not reuse the kept ring", len(d.q.slots), grown)
	}
	d.drain()
}

// TestQueueSingleRegister pins the one-event register fast path:
// strict push/pop alternation must never touch the wheel.
func TestQueueSingleRegister(t *testing.T) {
	d := &diffDriver{t: t}
	for i := 0; i < 1000; i++ {
		d.push(Duration(i % 97))
		d.pop()
	}
	if d.q.slots != nil {
		t.Fatal("strict alternation should stay in the single register, wheel was built")
	}
	d.drain()
}

// TestEngineBatchDrainCounts verifies Run's batched same-timestamp
// drain executes every event exactly once, including events scheduled
// at the running timestamp from inside a batch.
func TestEngineBatchDrainCounts(t *testing.T) {
	e := NewEngine()
	var fired int
	var nested bool
	for i := 0; i < 50; i++ {
		e.Schedule(10, func() {
			fired++
			if !nested {
				nested = true
				e.Schedule(0, func() { fired++ }) // joins the running batch
			}
		})
	}
	e.Run()
	if fired != 51 {
		t.Fatalf("fired %d events, want 51", fired)
	}
	if got := e.Processed(); got != 51 {
		t.Fatalf("Processed() = %d, want 51", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}
