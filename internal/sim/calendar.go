package sim

import (
	"math/bits"
	"slices"
)

// calQueue is the engine's pending-event queue: a two-level bucketed
// calendar queue (R. Brown, CACM 1988) specialised for the access
// pattern the timing models generate — nearly every event is scheduled
// a short, bounded delta past Now().
//
// Level 1 is a time wheel: a power-of-two ring of slots, each covering
// a width of 2^shift picoseconds and holding an insertion-ordered
// slice of events. Pushing an event whose timestamp falls inside the
// wheel's coverage window is an append — O(1), no sift, no compare
// walk. Level 2 is a small binary min-heap holding far-future events
// beyond the wheel's coverage (experiment horizons, µs-scale open-loop
// arrivals and fault-plan outages); as the wheel turns, overflow
// events whose windows come into coverage migrate onto the wheel.
//
// Popping serves the cursor slot through a head index after sorting
// the slot once by (at, seq) — restoring the exact total order the old
// binary heap provided. Slots of up to sortInlineMax (32) events sort
// by an inline insertion sort, longer ones by slices.SortFunc.
// Draining a run of same-timestamp events costs one index bump per
// event where the heap paid a full O(log n) sift-down each. Events
// scheduled into the cursor's own slot (zero/short delays landing in
// the current window) are inserted at their sorted position, so the
// order stays exact.
//
// Invariant: the cursor's window start never exceeds the engine clock.
// Every push carries `now` and every event satisfies at >= now, so new
// events always land at or ahead of the cursor, never behind it. To
// preserve this, probing for the next event (popLE with a limit, as
// RunUntil does) is passive: the cursor only commits to a new slot
// when an event is actually popped, which also advances the clock.
//
// The geometry self-tunes once per window of pops (one ring's worth,
// at least calMinSlots): the window's mean non-zero pop-to-pop gap
// sets the slot width, and a log2 histogram of its push deltas sets
// the coverage to the smallest power of two above 99 % of them, so a
// bimodal mix of ns-scale device events and µs-scale backlogs settles
// on one geometry instead of chasing an average that lies between the
// two. The wheel grows on any shortfall, shrinks or re-widths only at
// wide bands, and the ring doubles at once when the resident
// population outgrows it, keeping both ns-scale bank events and
// µs-scale pacing events O(1) amortized. Tuning affects performance
// only — the pop order is exact (at, seq) regardless of geometry,
// which is what the golden regressions and the differential tests
// pin down.
//
// At steady state (stable event population and inter-event gap) the
// queue performs zero allocations: slot slices, the overflow heap and
// the re-key scratch buffer all retain their capacity, and a ring that
// shrinks keeps its dropped slots' storage for a later regrowth.
//
// That storage also outlives the queue. release empties the queue and
// hands its storage on as a new, empty queue, which the next engine
// adopts by copying it in (Engine.Release and NewEngine pass it
// through a sync.Pool). Only performance state carries over: the slot
// and buffer capacities, the ring size and the slot width. Every clock
// and ordering field — cursor, head, horizon, slotN, the single
// register, lastAt and the window's statistics — starts fresh, and
// since geometry never affects order, an adopted queue pops exactly
// what a new one would.
type calQueue struct {
	slots [][]event // ring of buckets; len is a power of two
	mask  int       // len(slots) - 1
	shift uint      // slot width = 1 << shift picoseconds

	cur  int // cursor: slot currently being served
	head int // consumed prefix of slots[cur]

	// horizon is the exclusive end of the wheel's coverage window
	// [horizon - len(slots)*width, horizon). Events at or beyond it
	// live in the overflow heap.
	horizon Time

	slotN    int       // events resident in slots (excluding consumed prefix)
	overflow eventHeap // far-future events, min-heap by (at, seq)

	// single is a one-event register in front of the wheel: a queue
	// holding exactly one event (the self-rescheduling tick pattern —
	// Deliverer completions, port wake loops) parks it here and never
	// touches wheel or heap. Invariant: hasSingle implies the wheel
	// and overflow are empty, so the register is always the minimum.
	single    event
	hasSingle bool

	// The tuning window: pops and timestamp advances since lastAt
	// stood at winStart, and the wheel pushes' scheduling deltas
	// (at - now), counted by bit length.
	lastAt   Time // timestamp of the most recently popped event
	winStart Time
	winPops  int
	winSteps int
	deltas   [64]uint32

	scratch []event // reusable buffer for re-keying
}

const (
	calMinSlots = 64
	calMaxSlots = 1 << 10
	calMaxShift = 36 // ~69 ms slots
	// calInitShift is the width before any gap has been observed:
	// 1.024 ns, matching the ns-scale events that dominate the models.
	calInitShift = 10
)

func (q *calQueue) len() int {
	n := q.slotN + len(q.overflow)
	if q.hasSingle {
		n++
	}
	return n
}

// width reports the current slot width in picoseconds.
func (q *calQueue) width() Time { return 1 << q.shift }

// push inserts ev. now is the engine clock, a floor for ev.at and for
// every future push; an idle queue re-anchors its coverage there.
func (q *calQueue) push(ev event, now Time) {
	if q.hasSingle {
		// A second event arrives: demote the register to the wheel.
		q.hasSingle = false
		q.wheelPush(q.single, now)
		q.single.h = nil
		q.wheelPush(ev, now)
		return
	}
	if q.slotN == 0 && len(q.overflow) == 0 {
		q.single = ev
		q.hasSingle = true
		return
	}
	q.wheelPush(ev, now)
}

// wheelPush places ev on the wheel or the overflow heap.
func (q *calQueue) wheelPush(ev event, now Time) {
	q.deltas[bits.Len64(uint64(ev.at-now))&63]++
	if q.slots == nil {
		q.slots = make([][]event, calMinSlots)
		q.mask = calMinSlots - 1
		q.shift = calInitShift
		q.anchor(now)
	} else if q.slotN == 0 && len(q.overflow) == 0 {
		// Idle queue: re-anchor coverage at the clock so a long quiet
		// gap (e.g. after RunUntil) does not leave the wheel keyed to
		// a stale epoch.
		q.anchor(now)
	}
	if ev.at >= q.horizon {
		q.overflow.push(ev)
	} else {
		idx := int(ev.at>>q.shift) & q.mask
		if idx == q.cur {
			q.insertCur(ev)
		} else {
			q.slots[idx] = append(q.slots[idx], ev)
		}
		q.slotN++
	}
	if n := len(q.slots); q.len() > 2*n && n < calMaxSlots {
		q.rekey(q.shift, 2*n)
	}
}

// insertCur places ev at its (at, seq)-sorted position within the
// unconsumed region of the cursor slot. ev carries the largest seq
// issued so far, so it sorts after every pending event with the same
// timestamp — preserving FIFO within a timestep.
func (q *calQueue) insertCur(ev event) {
	s := q.slots[q.cur]
	lo, hi := q.head, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ev.at < s[mid].at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, event{})
	copy(s[lo+1:], s[lo:])
	s[lo] = ev
	q.slots[q.cur] = s
}

// anchor re-keys the wheel's coverage window to start at the slot
// containing t. All slots except the cursor's consumed prefix must be
// empty. Overflow events that fall inside the new coverage migrate
// onto the wheel.
func (q *calQueue) anchor(t Time) {
	q.slots[q.cur] = q.slots[q.cur][:0] // drop the consumed (zeroed) prefix
	start := t &^ (q.width() - 1)
	q.cur = int(start>>q.shift) & q.mask
	q.head = 0
	q.horizon = start + Time(len(q.slots))<<q.shift
	q.drainOverflow()
}

// drainOverflow migrates overflow events that now fall inside the
// wheel's coverage onto the wheel. The heap pops in (at, seq) order,
// so runs landing in one slot arrive already sorted.
func (q *calQueue) drainOverflow() {
	for len(q.overflow) > 0 && q.overflow[0].at < q.horizon {
		ev := q.overflow.pop()
		idx := int(ev.at>>q.shift) & q.mask
		q.slots[idx] = append(q.slots[idx], ev)
		q.slotN++
	}
}

// popLE removes and returns the earliest pending event if its
// timestamp is <= limit. When the earliest event is later than limit
// (or the queue is empty) it reports false and leaves the queue — in
// particular the cursor — untouched, so events pushed afterwards at
// earlier timestamps still land ahead of the cursor.
func (q *calQueue) popLE(limit Time) (event, bool) {
	if q.hasSingle {
		if q.single.at > limit {
			return event{}, false
		}
		ev := q.single
		q.single.h = nil
		q.hasSingle = false
		return ev, true
	}
	if q.slotN == 0 {
		// Wheel empty: the overflow minimum is the global minimum.
		// Popping it jumps the coverage window straight to its epoch,
		// skipping what could be millions of empty slot windows.
		if len(q.overflow) == 0 || q.overflow[0].at > limit {
			return event{}, false
		}
		ev := q.overflow.pop()
		q.anchor(ev.at)
		q.tune(ev.at)
		return ev, true
	}
	if q.head < len(q.slots[q.cur]) {
		// Fast path: the cursor slot is sorted, its head is the
		// global minimum (earlier windows are consumed, later ones
		// and the overflow hold strictly later events).
		if q.slots[q.cur][q.head].at > limit {
			return event{}, false
		}
		return q.popHead(), true
	}
	// Probe for the next non-empty slot without touching the cursor.
	idx, steps := q.cur, 0
	for {
		idx = (idx + 1) & q.mask
		steps++
		if len(q.slots[idx]) > 0 {
			break
		}
	}
	min := q.slots[idx][0].at
	for _, ev := range q.slots[idx][1:] {
		if ev.at < min {
			min = ev.at
		}
	}
	if min > limit {
		return event{}, false
	}
	// Commit: advance the cursor, extend coverage one window per slot
	// stepped, migrate overflow that came into coverage, and sort the
	// new cursor slot once.
	q.slots[q.cur] = q.slots[q.cur][:0]
	q.cur = idx
	q.head = 0
	q.horizon += Time(steps) << q.shift
	q.drainOverflow()
	sortEvents(q.slots[idx])
	return q.popHead(), true
}

// popHead removes the event under the cursor without re-positioning;
// valid whenever headAt reports true (used to drain same-timestamp
// batches without re-touching the queue head).
func (q *calQueue) popHead() event {
	s := q.slots[q.cur]
	ev := s[q.head]
	s[q.head] = event{} // release the Handler for GC
	q.head++
	q.slotN--
	q.tune(ev.at)
	return ev
}

// headAt reports the timestamp under the cursor, or false when the
// cursor slot is exhausted (the next event, if any, needs popLE).
// Every pending event with the cursor head's timestamp lives in the
// cursor slot, so headAt() != t proves no t-stamped events remain.
func (q *calQueue) headAt() (Time, bool) {
	if q.slotN > 0 && q.head < len(q.slots[q.cur]) {
		return q.slots[q.cur][q.head].at, true
	}
	// An event parked in the single register is deliberately not
	// reported: popHead cannot serve it. The caller falls back to
	// popLE, which takes the register fast path.
	return 0, false
}

// tune records a pop at time at and, once the window holds a ring's
// worth of pops, re-keys the wheel if its geometry has drifted away
// from the window's ideal, then opens the next window. Re-keying costs
// O(n), so evaluating once per ring's worth of pops keeps it O(1)
// amortized, and the wide bands (grow on any shortfall, shrink only at
// 8x excess, re-width only at 4x drift) stop a workload sitting on a
// power-of-two boundary from thrashing between two geometries.
func (q *calQueue) tune(at Time) {
	if at != q.lastAt {
		q.lastAt = at
		q.winSteps++
	}
	if q.winPops++; q.winPops < len(q.slots) {
		return
	}
	s, n, cover := q.idealGeometry()
	ds := int(s) - int(q.shift)
	if n > len(q.slots) || Time(len(q.slots))<<q.shift < cover ||
		ds >= 2 || ds <= -2 || 8*n <= len(q.slots) {
		q.rekey(s, n)
	}
	q.winStart, q.winPops, q.winSteps = q.lastAt, 0, 0
	clear(q.deltas[:])
}

// idealGeometry derives the wheel geometry from the window's
// statistics. The slot width targets one to two mean non-zero
// pop-to-pop gaps, so a slot holds a couple of events and draining
// stays O(1); a window whose pops all share one timestamp keeps the
// current width. The slot count then stretches the coverage window
// over 99 % of the window's scheduling deltas — so nearly every push
// lands on the wheel directly instead of detouring through the
// overflow heap and paying two O(log n) sifts to migrate back — while
// also keeping the resident population's load factor at or below two
// events per slot. A percentile, unlike a mean, does not swing with
// the mix of a bimodal workload's two modes. When even the maximum
// ring cannot cover the deltas at the gap-ideal width, the width gives
// way: wider slots mean slightly larger per-slot sorts but keep pushes
// O(1). cover is the coverage the geometry must reach, capped at the
// widest wheel's.
func (q *calQueue) idealGeometry() (shift uint, nslots int, cover Time) {
	s := q.shift
	if q.winSteps > 0 {
		gap := (q.lastAt - q.winStart) / Time(q.winSteps)
		s = min(uint(bits.Len64(uint64(gap))), calMaxShift)
	}
	var total, run uint64
	for _, c := range q.deltas {
		total += uint64(c)
	}
	b := 0
	for ; b < len(q.deltas)-1; b++ {
		if run += uint64(q.deltas[b]); run >= total-total/100 {
			break
		}
	}
	cover = Time(min(uint64(1)<<b, calMaxSlots<<calMaxShift))
	need := (cover + (Time(1) << s) - 1) >> s
	if pop := Time(q.len()) / 2; pop > need {
		need = pop
	}
	n := calMinSlots
	if need > calMinSlots {
		n = 1 << bits.Len64(uint64(need-1))
		if n > calMaxSlots {
			n = calMaxSlots
			for s < calMaxShift && Time(n)<<s < cover {
				s++
			}
		}
	}
	return s, n, cover
}

// rekey rebuilds the wheel with a new slot width and/or slot count,
// redistributing every pending event. Order is unaffected: events
// carry their (at, seq) keys, and slots re-sort on cursor entry.
func (q *calQueue) rekey(shift uint, nslots int) {
	q.scratch = q.scratch[:0]
	for i, s := range q.slots {
		from := 0
		if i == q.cur {
			from = q.head
		}
		q.scratch = append(q.scratch, s[from:]...)
		clear(s)
		q.slots[i] = s[:0]
	}
	q.scratch = append(q.scratch, q.overflow...)
	clear(q.overflow)
	q.overflow = q.overflow[:0]

	q.shift = shift
	if nslots != len(q.slots) {
		// Resize within the ring's capacity, so a shrink keeps the
		// dropped slots' warmed storage for a later regrowth; growing
		// past it carries every slot built so far.
		if nslots > cap(q.slots) {
			ns := make([][]event, nslots)
			copy(ns, q.slots[:cap(q.slots)])
			q.slots = ns
		} else {
			q.slots = q.slots[:nslots]
		}
		q.mask = nslots - 1
	}
	q.slotN = 0
	q.head = 0
	q.cur &= q.mask

	// Anchor at the last popped timestamp: it floors the clock, hence
	// every pending event and every future push.
	if len(q.scratch) == 0 {
		q.anchor(q.lastAt)
		return
	}
	// Sorting first makes every placement an append: cursor-slot
	// events arrive in order, so insertCur never moves anything.
	sortEvents(q.scratch)
	q.anchor(q.lastAt)
	for _, ev := range q.scratch {
		if ev.at >= q.horizon {
			q.overflow.push(ev)
			continue
		}
		idx := int(ev.at>>q.shift) & q.mask
		if idx == q.cur {
			q.insertCur(ev)
		} else {
			q.slots[idx] = append(q.slots[idx], ev)
		}
		q.slotN++
	}
	clear(q.scratch)
	q.scratch = q.scratch[:0]
}

// sortInlineMax is the longest slice sortEvents orders with its
// inline insertion sort. Slots arrive short and nearly sorted, where
// the insertion sort beats slices.SortFunc's indirect comparator.
const sortInlineMax = 32

// sortEvents orders s by the queue's total order (at, then seq).
func sortEvents(s []event) {
	if len(s) <= sortInlineMax {
		for i := 1; i < len(s); i++ {
			if !s[i].before(s[i-1]) {
				continue
			}
			ev, j := s[i], i
			for ; j > 0 && ev.before(s[j-1]); j-- {
				s[j] = s[j-1]
			}
			s[j] = ev
		}
		return
	}
	slices.SortFunc(s, func(a, b event) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// release drops q's pending events and returns a new, empty queue
// over q's storage, with every Handler cleared, or nil when the wheel
// was never built. q is left a zero queue that shares nothing with the
// returned one. Storage beyond each slice's length is already zero:
// pops and re-keys clear every event they move out of a slot or
// buffer.
func (q *calQueue) release() *calQueue {
	var fresh *calQueue
	if q.slots != nil {
		for i, s := range q.slots {
			clear(s)
			q.slots[i] = s[:0]
		}
		clear(q.overflow)
		fresh = &calQueue{
			slots: q.slots, mask: q.mask, shift: q.shift,
			overflow: q.overflow[:0], scratch: q.scratch[:0],
		}
	}
	*q = calQueue{}
	return fresh
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq),
// the calendar queue's far-future overflow level.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	evs := append(*h, ev)
	i := len(evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evs[i].before(evs[parent]) {
			break
		}
		evs[i], evs[parent] = evs[parent], evs[i]
		i = parent
	}
	*h = evs
}

func (h *eventHeap) pop() event {
	evs := *h
	root := evs[0]
	n := len(evs) - 1
	evs[0] = evs[n]
	evs[n] = event{} // release the Handler for GC
	evs = evs[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && evs[r].before(evs[child]) {
			child = r
		}
		if !evs[child].before(evs[i]) {
			break
		}
		evs[i], evs[child] = evs[child], evs[i]
		i = child
	}
	*h = evs
	return root
}
