package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOWithinTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested schedule produced %v, want [10 15]", hits)
	}
}

func TestEngineZeroAndNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(7, func() {
		e.Schedule(0, func() { ran++ })
		e.Schedule(-3, func() { ran++ })
	})
	e.Run()
	if ran != 2 {
		t.Fatalf("zero/negative-delay events ran %d times, want 2", ran)
	}
	if e.Now() != 7 {
		t.Fatalf("clock = %v, want 7", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtHandler(5, funcHandler(func() {}))
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := make(map[Time]bool)
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { ran[d] = true })
	}
	e.RunUntil(25)
	if !ran[10] || !ran[20] || ran[30] || ran[40] {
		t.Fatalf("RunUntil(25) executed wrong set: %v", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if !ran[30] || !ran[40] {
		t.Fatal("remaining events did not run")
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Duration(i), func() {})
	}
	e.Run()
	if e.Processed() != 17 {
		t.Fatalf("processed = %d, want 17", e.Processed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the clock ends at the max delay.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		var max Time
		for _, d := range delays {
			d := Duration(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.50ns"},
		{2 * Microsecond, "2.00us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
		{-1500, "-1.50ns"},
		// -t overflows back to t here; the string must not recurse.
		{math.MinInt64, "-9223372.037s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromNanoseconds(547); got != 547*Nanosecond {
		t.Errorf("FromNanoseconds(547) = %v", got)
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

// TestEngineReleaseHygiene: the storage Release gives away holds no
// Handler anywhere up to each slice's capacity; the engine keeps its
// clock, holds nothing pending, and a Handler scheduled afterwards
// fires at the right instant. A new engine over the released storage
// starts at zero and runs in order.
func TestEngineReleaseHygiene(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var h nopHandler
	e := &Engine{}
	// A deep backlog grows the ring and re-keys through the scratch
	// buffer; short-delta churn then shrinks the ring.
	for i := 0; i < 3000; i++ {
		e.ScheduleHandler(Duration(r.Intn(int(2*Microsecond))), h)
	}
	e.Run()
	for i := 0; i < 2000; i++ {
		e.ScheduleHandler(Duration(r.Intn(4)), h)
		e.ScheduleHandler(Duration(r.Intn(4)), h)
		e.Step()
		e.Step()
	}
	// Leave far-future events in the overflow heap, and a cursor slot
	// consumed part way.
	for i := 0; i < 200; i++ {
		e.ScheduleHandler(Millisecond+Duration(i), h)
		e.ScheduleHandler(Duration(r.Intn(2000)), h)
	}
	e.RunUntil(e.Now() + 1000)
	now, processed := e.Now(), e.Processed()
	if e.Pending() == 0 || len(e.q.overflow) == 0 {
		t.Fatalf("setup left %d pending, %d in overflow; want both > 0", e.Pending(), len(e.q.overflow))
	}

	fresh := e.q.release() // what Release hands to the pool
	if fresh == nil || len(fresh.slots) >= cap(fresh.slots) || cap(fresh.scratch) == 0 {
		t.Fatal("setup did not shrink the ring and re-key before release")
	}
	if n := storedHandlers(fresh); n != 0 {
		t.Fatalf("released storage holds %d Handlers", n)
	}
	if e.Pending() != 0 || e.Now() != now || e.Processed() != processed {
		t.Fatalf("after release: pending %d, now %v, processed %d; want 0, %v, %d",
			e.Pending(), e.Now(), e.Processed(), now, processed)
	}
	var fired []Time
	e.Schedule(5, func() { fired = append(fired, e.Now()) })
	e.Schedule(3, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 2 || fired[0] != now+3 || fired[1] != now+5 {
		t.Fatalf("after release fired at %v, want [%v %v]", fired, now+3, now+5)
	}
	if n := storedHandlers(fresh); n != 0 {
		t.Fatal("the released engine still writes into the storage it gave away")
	}

	// The public path: Release empties the engine, keeps the clock and
	// leaves it usable.
	e.ScheduleHandler(10, h)
	e.ScheduleHandler(Millisecond, h)
	e.Release()
	if e.Pending() != 0 || e.Now() != now+5 {
		t.Fatalf("after Release: pending %d, now %v", e.Pending(), e.Now())
	}

	// A new engine over the released storage starts from zero.
	next := &Engine{q: *fresh}
	fired = fired[:0]
	for _, d := range []Duration{7, 2, 7, 1} {
		next.Schedule(d, func() { fired = append(fired, next.Now()) })
	}
	next.Run()
	if next.Now() != 7 || len(fired) != 4 || fired[0] != 1 || fired[1] != 2 || fired[3] != 7 {
		t.Fatalf("adopted engine fired at %v, clock %v", fired, next.Now())
	}
}
