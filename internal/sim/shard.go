package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Mesh is the conservative parallel-discrete-event (PDES) layer: a
// fixed set of shards, each owning its own single-threaded Engine,
// advancing together in lookahead-bounded windows and exchanging
// timestamped cross-shard events at the window barriers.
//
// The synchronization protocol is conservative and flush-aligned.
// Time is cut into windows of width W (the lookahead, SetWindow).
// Within a window every shard runs independently — engines never
// touch each other's state — and cross-shard sends accumulate in
// per-destination batches. At the barrier the coordinator merges
// each destination's batch in (at, source shard, source sequence)
// order and injects it into the destination engine. Delivery
// timestamps are aligned up to the window grid (at' = ceil(t/W)*W,
// grid anchored at absolute time 0), which makes ANY positive W safe:
// an event sent during the window ending at barrier D carries a
// timestamp >= D, so injection at the barrier never schedules into
// the destination's past. Physically this models a batching host
// switch between shard domains that flushes once per window; W is
// chosen as the minimum latency any cross-shard interaction can have
// (mem.Backend.MinLatency), so the alignment cost stays below the
// latency floor it piggybacks on.
//
// Determinism is total: the window grid depends only on W and the
// run horizon, the merge order (at, shard, seq) is a total order,
// and shards never observe each other mid-window — so results are
// byte-identical for any worker count, including fully sequential
// execution. The deterministic merge is what the shard determinism
// tests and FuzzShardMerge pin.
type Mesh struct {
	window Duration
	shards []*MeshShard

	// deadline is the current window's barrier. It is written by the
	// coordinator strictly before the window's shard executions start
	// and read by shards during the window (Send clamps delivery to
	// it); the channel/WaitGroup handoff orders the accesses.
	deadline Time
}

// MeshShard is one partition of the simulation: an Engine plus the
// outbound cross-shard batches. All interaction with a shard's engine
// (building models on it, Send) must happen either before Run or from
// events executing on that shard.
type MeshShard struct {
	m   *Mesh
	id  int
	eng *Engine
	// seq numbers this shard's sends across the whole run; with the
	// shard id it gives every cross event a unique total-order key.
	seq uint64
	// out[d] collects events bound for shard d this window.
	out [][]crossEvent
}

// crossEvent is one cross-shard delivery: handler h runs on the
// destination engine at time at; (src, seq) break timestamp ties.
type crossEvent struct {
	at  Time
	src int
	seq uint64
	h   Handler
}

// NewMesh builds an n-shard mesh (n >= 1) with no lookahead window
// set: until SetWindow, the mesh runs barrier-free (one chunk per Run)
// and Send panics — the configuration for partitions with no
// cross-shard traffic.
func NewMesh(n int) *Mesh {
	if n < 1 {
		panic("sim: mesh needs at least one shard")
	}
	m := &Mesh{}
	for i := 0; i < n; i++ {
		m.shards = append(m.shards, &MeshShard{
			m: m, id: i, eng: NewEngine(), out: make([][]crossEvent, n),
		})
	}
	return m
}

// Release releases every shard's engine (Engine.Release): pending
// events are dropped and the queue storage goes back to the pool. Call
// it when the mesh's run is finished.
func (m *Mesh) Release() {
	for _, s := range m.shards {
		s.eng.Release()
	}
}

// SetWindow sets the lookahead window W (must be positive): the
// barrier spacing and the delivery-grid pitch for cross-shard sends.
// Call it before Run; the window must not change once events are in
// flight (the delivery grid would shift under them).
func (m *Mesh) SetWindow(w Duration) {
	if w <= 0 {
		panic("sim: mesh window must be positive")
	}
	m.window = w
}

// Window reports the lookahead window (0 = barrier-free).
func (m *Mesh) Window() Duration { return m.window }

// Shards reports the shard count.
func (m *Mesh) Shards() int { return len(m.shards) }

// Shard returns shard i.
func (m *Mesh) Shard(i int) *MeshShard { return m.shards[i] }

// Engine returns the shard's event engine.
func (s *MeshShard) Engine() *Engine { return s.eng }

// Send schedules h on shard dst at the first window-grid instant at or
// after earliest (and no earlier than the current window's barrier),
// returning the delivery timestamp. It must be called from an event
// executing on this shard (or before Run starts), never from another
// goroutine; the batch it appends to is this shard's private state.
func (s *MeshShard) Send(dst int, earliest Time, h Handler) Time {
	w := s.m.window
	if w <= 0 {
		panic("sim: cross-shard Send on a mesh without a lookahead window (SetWindow)")
	}
	if now := s.eng.Now(); earliest < now {
		earliest = now
	}
	// Align up to the delivery grid; the grid is anchored at absolute
	// time 0, so alignment is consistent across Run calls (warmup and
	// measurement phases share one grid).
	at := (earliest + w - 1) / w * w
	// Injection happens at the barrier; delivery can never precede it.
	if at < s.m.deadline {
		at = s.m.deadline
	}
	s.out[dst] = append(s.out[dst], crossEvent{at: at, src: s.id, seq: s.seq, h: h})
	s.seq++
	return at
}

// exchange runs at a barrier: for every destination, merge the
// batches from all sources into (at, src, seq) order and inject them.
// The destination engine assigns its own tie-break sequence in
// injection order, so same-timestamp cross events execute in exactly
// the merged order regardless of which shard produced them first in
// wall-clock time.
func (m *Mesh) exchange(scratch []crossEvent) []crossEvent {
	for d, dst := range m.shards {
		batch := scratch[:0]
		for _, src := range m.shards {
			batch = append(batch, src.out[d]...)
			src.out[d] = src.out[d][:0]
		}
		if len(batch) == 0 {
			continue
		}
		sort.Slice(batch, func(i, j int) bool {
			a, b := batch[i], batch[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for _, ev := range batch {
			dst.eng.AtHandler(ev.at, ev.h)
		}
		scratch = batch
	}
	return scratch
}

// Run advances every shard to until, synchronizing at window barriers
// and exchanging cross-shard batches at each. workers bounds the
// goroutines executing shards concurrently; workers <= 1 runs fully
// sequentially on the caller's goroutine with identical results (the
// determinism contract). Like Engine.RunUntil, events stamped exactly
// until execute and every clock ends at until; pending later events
// (including cross deliveries past until) survive for the next Run.
func (m *Mesh) Run(until Time, workers int) {
	n := len(m.shards)
	if workers > n {
		workers = n
	}
	start := m.shards[0].eng.Now()
	for _, s := range m.shards {
		if s.eng.Now() != start {
			panic(fmt.Sprintf("sim: mesh shards out of sync: shard %d at %v, shard 0 at %v",
				s.id, s.eng.Now(), start))
		}
	}
	if start >= until {
		return
	}

	var (
		work chan int
		wg   sync.WaitGroup
	)
	if workers > 1 {
		// A persistent pool over a bounded channel: each window posts
		// every shard id once and waits for the window's WaitGroup.
		work = make(chan int, n)
		for k := 0; k < workers; k++ {
			go func() {
				for i := range work {
					m.shards[i].eng.RunUntil(m.deadline)
					wg.Done()
				}
			}()
		}
		defer close(work)
	}

	var scratch []crossEvent
	for start < until {
		deadline := until
		if m.window > 0 {
			if next := (start/m.window + 1) * m.window; next < deadline {
				deadline = next
			}
		}
		m.deadline = deadline
		if workers > 1 {
			wg.Add(n)
			for i := 0; i < n; i++ {
				work <- i
			}
			wg.Wait()
		} else {
			for _, s := range m.shards {
				s.eng.RunUntil(deadline)
			}
		}
		scratch = m.exchange(scratch)
		start = deadline
	}
}
