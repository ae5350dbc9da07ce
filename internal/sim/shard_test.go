package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// recorder logs its own firings as (shard clock, tag) pairs.
type recorder struct {
	eng *Engine
	log *[]string
	tag string
}

func (r *recorder) Fire(e *Engine) {
	*r.log = append(*r.log, fmt.Sprintf("%s@%d", r.tag, int64(e.Now())))
}

// sender performs a scripted list of cross-shard sends when fired.
type sender struct {
	sh    *MeshShard
	sends []scriptedSend
	log   *[]string
}

type scriptedSend struct {
	dst      int
	earliest Time
	tag      string
}

func (s *sender) Fire(e *Engine) {
	for _, sd := range s.sends {
		s.sh.Send(sd.dst, sd.earliest, &recorder{log: s.log, tag: sd.tag})
	}
}

// TestMeshWindowedDelivery pins the flush-aligned delivery rule: a
// send with earliest t lands at the first multiple of the window at or
// after t, never before the barrier at which it is exchanged.
func TestMeshWindowedDelivery(t *testing.T) {
	m := NewMesh(2)
	m.SetWindow(10)
	var log []string
	s0 := m.Shard(0)
	// Fires at t=3; earliest 3 -> grid 10. Earliest 17 -> grid 20.
	// Earliest 20 (exact multiple) -> 20.
	s0.Engine().AtHandler(3, &sender{sh: s0, log: &log, sends: []scriptedSend{
		{dst: 1, earliest: 3, tag: "a"},
		{dst: 1, earliest: 17, tag: "b"},
		{dst: 1, earliest: 20, tag: "c"},
	}})
	m.Run(30, 1)
	want := []string{"a@10", "b@20", "c@20"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("delivery log = %v, want %v", log, want)
	}
}

// TestMeshBarrierClamp: a send whose aligned time falls at the current
// barrier is delivered exactly there (the exchange injects it with the
// destination clock already standing at the barrier), and one sent in
// a later Run call still uses the absolute grid.
func TestMeshBarrierClamp(t *testing.T) {
	m := NewMesh(2)
	m.SetWindow(10)
	var log []string
	s0 := m.Shard(0)
	// Fires at t=10 (the barrier itself): earliest 10 aligns to 10,
	// which equals the window deadline; delivered at 10, executed by
	// the next window's RunUntil.
	s0.Engine().AtHandler(10, &sender{sh: s0, log: &log, sends: []scriptedSend{
		{dst: 1, earliest: 10, tag: "x"},
	}})
	m.Run(15, 1)
	// Resume past an off-grid horizon: the grid stays anchored at 0.
	s0.Engine().AtHandler(22, &sender{sh: s0, log: &log, sends: []scriptedSend{
		{dst: 1, earliest: 22, tag: "y"},
	}})
	m.Run(40, 1)
	want := []string{"x@10", "y@30"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("delivery log = %v, want %v", log, want)
	}
}

// TestMeshSendWithoutWindowPanics: cross-shard traffic on a mesh with
// no lookahead window is a configuration bug, not a silent reorder.
func TestMeshSendWithoutWindowPanics(t *testing.T) {
	m := NewMesh(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send without SetWindow did not panic")
		}
	}()
	m.Shard(0).Send(1, 0, funcHandler(func() {}))
}

// TestMeshMergeOrder: same-timestamp cross events from different
// sources execute in (at, src, seq) order on the destination, not in
// completion or batch-arrival order.
func TestMeshMergeOrder(t *testing.T) {
	m := NewMesh(3)
	m.SetWindow(100)
	var log []string
	// Both senders fire in window one and target shard 2 with the same
	// aligned delivery time (100). Shard 1's events must sort after
	// shard 0's; within a shard, send order (seq) holds.
	s0, s1 := m.Shard(0), m.Shard(1)
	s1.Engine().AtHandler(5, &sender{sh: s1, log: &log, sends: []scriptedSend{
		{dst: 2, earliest: 5, tag: "s1-first"},
		{dst: 2, earliest: 1, tag: "s1-second"},
	}})
	s0.Engine().AtHandler(90, &sender{sh: s0, log: &log, sends: []scriptedSend{
		{dst: 2, earliest: 90, tag: "s0-late"},
	}})
	m.Run(200, 1)
	want := []string{"s0-late@100", "s1-first@100", "s1-second@100"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("merge order = %v, want %v", log, want)
	}
}

// chatterScript builds a deterministic random send/recurse workload
// over a mesh from a seed and returns the delivery log after running
// to horizon with the given worker count.
func chatterScript(t *testing.T, shards, workers int, seed uint64, horizon Time) []string {
	t.Helper()
	m := NewMesh(shards)
	m.SetWindow(50)
	var log []string
	// Each shard runs a self-rescheduling driver that sends to a
	// pseudo-random peer each step. All randomness derives from the
	// shard id and seed, never from execution interleaving. Recorders
	// run on their destination shards (possibly concurrently across
	// shards), so each destination appends to its own log slice;
	// the slices are concatenated after the run.
	logs := make([][]string, shards)
	var drive func(sh *MeshShard, rng *RNG) Handler
	drive = func(sh *MeshShard, rng *RNG) Handler {
		var h funcRef
		h.fn = func(e *Engine) {
			if e.Now() >= horizon {
				return
			}
			dst := rng.Intn(shards)
			tag := fmt.Sprintf("s%d>%d", sh.id, dst)
			sh.Send(dst, e.Now()+Time(rng.Intn(120)), &shardRecorder{
				logs: logs, dst: dst, tag: tag,
			})
			e.AtHandler(e.Now()+Time(1+rng.Intn(40)), &h)
		}
		return &h
	}
	for i := 0; i < shards; i++ {
		sh := m.Shard(i)
		sh.Engine().AtHandler(Time(i), drive(sh, NewRNG(seed+uint64(i))))
	}
	m.Run(horizon, workers)
	for _, l := range logs {
		log = append(log, l...)
	}
	return log
}

// funcRef is a reusable Handler over a closure, letting a driver
// reschedule itself without allocating per event.
type funcRef struct{ fn func(*Engine) }

func (f *funcRef) Fire(e *Engine) { f.fn(e) }

// shardRecorder appends to its destination's private log (each shard
// executes single-threaded, so no locking is needed).
type shardRecorder struct {
	logs [][]string
	dst  int
	tag  string
}

func (r *shardRecorder) Fire(e *Engine) {
	r.logs[r.dst] = append(r.logs[r.dst], fmt.Sprintf("%s@%d", r.tag, int64(e.Now())))
}

// TestMeshWorkerCountDeterminism: the same chatter workload yields an
// identical delivery log sequentially and with a full worker pool.
func TestMeshWorkerCountDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			seq := chatterScript(t, shards, 1, 42, 5000)
			par := chatterScript(t, shards, shards, 42, 5000)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("delivery logs differ between workers=1 and workers=%d:\nseq: %v\npar: %v",
					shards, seq, par)
			}
			if len(seq) == 0 {
				t.Fatal("chatter produced no deliveries; determinism check vacuous")
			}
		})
	}
}

// FuzzShardMerge drives the cross-shard batch merge with arbitrary
// send scripts and checks the two invariants the PDES layer rests on:
// delivery times land on the window grid at or after the request, and
// the delivery order is identical between sequential and parallel
// execution.
func FuzzShardMerge(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8))
	f.Add(uint64(7), uint8(3), uint8(1))
	f.Add(uint64(99), uint8(8), uint8(33))
	f.Fuzz(func(t *testing.T, seed uint64, nshard uint8, steps uint8) {
		shards := int(nshard%8) + 1
		if shards < 2 {
			shards = 2
		}
		horizon := Time(200 + int64(steps)*37)
		seq := fuzzMeshRun(shards, 1, seed, int(steps), horizon)
		par := fuzzMeshRun(shards, shards, seed, int(steps), horizon)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("merge order diverged between workers=1 and workers=%d:\n%v\n%v",
				shards, seq, par)
		}
	})
}

// fuzzMeshRun executes a scripted fuzz case and returns per-shard
// delivery logs, asserting grid alignment as it goes.
func fuzzMeshRun(shards, workers int, seed uint64, steps int, horizon Time) [][]string {
	const window = Time(25)
	m := NewMesh(shards)
	m.SetWindow(window)
	logs := make([][]string, shards)
	rng := NewRNG(seed)
	// Pre-plan every send before running: (src, fire time, dst,
	// earliest). The plan is identical for both runs by construction.
	for k := 0; k < steps+1; k++ {
		src := rng.Intn(shards)
		fireAt := Time(rng.Intn(int(horizon)))
		dst := rng.Intn(shards)
		earliest := fireAt + Time(rng.Intn(90))
		tag := fmt.Sprintf("%d:%d>%d", k, src, dst)
		sh := m.Shard(src)
		sh.Engine().AtHandler(fireAt, &fuzzSender{sh: sh, dst: dst, earliest: earliest, tag: tag, logs: logs})
	}
	m.Run(horizon+200, workers)
	return logs
}

type fuzzSender struct {
	sh       *MeshShard
	dst      int
	earliest Time
	tag      string
	logs     [][]string
}

func (s *fuzzSender) Fire(e *Engine) {
	at := s.sh.Send(s.dst, s.earliest, &fuzzRecorder{s: s})
	w := s.sh.m.window
	if at%w != 0 {
		panic(fmt.Sprintf("delivery %d off the %d grid", at, w))
	}
	if at < s.earliest {
		panic(fmt.Sprintf("delivery %d before earliest %d", at, s.earliest))
	}
}

type fuzzRecorder struct{ s *fuzzSender }

func (r *fuzzRecorder) Fire(e *Engine) {
	r.s.logs[r.s.dst] = append(r.s.logs[r.s.dst], fmt.Sprintf("%s@%d", r.s.tag, int64(e.Now())))
}
