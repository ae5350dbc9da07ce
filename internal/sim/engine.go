package sim

import (
	"math"
	"sync"
)

// Handler is a scheduled event target. Pre-allocated Handler values
// are the engine's fast path: scheduling one costs no allocation,
// because the event queue stores the interface value inline and a
// pointer-shaped Handler boxes for free. Device models keep one
// Handler per port/vault/transaction-pool entry and reschedule it,
// instead of building a fresh closure per event.
type Handler interface {
	// Fire runs the event. The engine's clock already stands at the
	// event's timestamp when Fire is called.
	Fire(e *Engine)
}

// funcHandler adapts the closure API onto the Handler queue. A func
// value is pointer-shaped, so this conversion does not allocate; the
// closure itself still does, which is why hot paths prefer Handler.
type funcHandler func()

func (f funcHandler) Fire(*Engine) { f() }

// event is a scheduled Handler. seq breaks ties so that events
// scheduled earlier at the same timestamp run first (deterministic
// FIFO semantics within a timestep).
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// before is the strict queue order: timestamp, then scheduling order.
func (ev event) before(o event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// maxTime is the largest representable timestamp, used as the no-limit
// sentinel for queue pops.
const maxTime = Time(math.MaxInt64)

// Engine is a deterministic discrete-event simulator. It is not safe
// for concurrent use; run one Engine per goroutine.
//
// The pending-event queue is a two-level calendar queue (see calQueue)
// over a value-typed event slice: near-future events live in a time
// wheel with O(1) amortized push/pop, far-future events in a small
// overflow heap. Steady-state scheduling through the Handler API
// performs zero allocations, and events pop in exact (at, seq) order —
// identical to the binary-heap kernel this replaced, as the
// differential tests in this package verify.
//
// An engine's queue storage outlives it. Release hands the storage to
// a package-level pool and NewEngine adopts pooled storage, so a sweep
// of short simulation cells stops regrowing its wheel from zero per
// cell. Only the queue's capacities, ring size and tuned geometry
// carry over; a new engine's clock, sequence and every ordering field
// start at zero, so events fire exactly as on fresh storage.
type Engine struct {
	now       Time
	seq       uint64
	q         calQueue
	processed uint64
}

// wheelPool carries queue storage from released engines to new ones.
// Its per-P cache hands each worker goroutine, in the common case, the
// storage its own previous cell released.
var wheelPool sync.Pool

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	if q, ok := wheelPool.Get().(*calQueue); ok {
		e.q = *q
	}
	return e
}

// Release ends the engine's run: it drops every pending event and
// gives the queue's storage, with every Handler cleared, to the pool
// that NewEngine draws from, so the pool never pins a finished model.
// The clock and Processed stay as they are, and the engine remains
// usable with an empty queue that shares nothing with the pool. Call
// it once whatever the engine ran is finished with it.
func (e *Engine) Release() {
	if q := e.q.release(); q != nil {
		wheelPool.Put(q)
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have executed so far; useful for
// progress accounting and kernel tests.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return e.q.len() }

// Schedule runs fn after delay simulated time. A negative delay is
// treated as zero (run at the current timestamp, after events already
// scheduled there).
func (e *Engine) Schedule(delay Duration, fn func()) {
	e.ScheduleHandler(delay, funcHandler(fn))
}

// ScheduleHandler is Schedule for the allocation-free Handler path.
func (e *Engine) ScheduleHandler(delay Duration, h Handler) {
	if delay < 0 {
		delay = 0
	}
	e.AtHandler(e.now+delay, h)
}

// AtHandler runs h at absolute time t. Scheduling in the past panics:
// it is always a model bug, and silently reordering history would
// corrupt every FIFO reservation made since.
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	e.q.push(event{at: t, seq: e.seq, h: h}, e.now)
}

// fire advances the clock to ev and executes it.
func (e *Engine) fire(ev event) {
	e.now = ev.at
	e.processed++
	ev.h.Fire(e)
}

// Step executes the single next event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	ev, ok := e.q.popLE(maxTime)
	if !ok {
		return false
	}
	e.fire(ev)
	return true
}

// drainBatch executes every remaining event stamped t — including
// events handlers schedule at t while the batch runs — by bumping the
// queue's head index, without re-positioning the queue between events.
// The caller has just fired an event at t.
func (e *Engine) drainBatch(t Time) {
	for {
		at, ok := e.q.headAt()
		if !ok || at != t {
			return
		}
		ev := e.q.popHead()
		e.processed++
		ev.h.Fire(e)
	}
}

// Run executes events until the queue is empty, draining each
// timestamp's batch of events in one pass over the queue head.
func (e *Engine) Run() {
	for {
		ev, ok := e.q.popLE(maxTime)
		if !ok {
			return
		}
		e.fire(ev)
		e.drainBatch(ev.at)
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events pending, and finally advances the clock to deadline.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev, ok := e.q.popLE(deadline)
		if !ok {
			break
		}
		e.fire(ev)
		e.drainBatch(ev.at)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
