package scenario

import (
	"hmcsim/internal/mem"
	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
)

// This file is the mesh plumbing both runners share. Every spec runs
// on a sim.Mesh of Spec.Groups shards: each group's backend replica or
// gups board lives on its own shard engine, tenants run on their home
// shard's engine, and a tenant's Remote fraction crosses shards
// through the mesh's windowed batch exchange. One group without a
// lookahead window runs each phase as a single Engine.RunUntil. The
// partition lives in the Spec, so the result bytes depend only on the
// spec and seed — Options.Shards picks how many goroutines execute the
// mesh, never what it computes.

// shardWorkers resolves the requested shard worker count against the
// mesh width and the process-wide core budget. The returned release
// function gives the granted cores back (call it once the run ends).
func shardWorkers(req, groups int) (int, func()) {
	w := req
	if w < 1 {
		w = 1
	}
	if w > groups {
		w = groups
	}
	if w <= 1 {
		return 1, func() {}
	}
	extra := runner.Cores.TryAcquire(w - 1)
	return 1 + extra, func() { runner.Cores.Release(extra) }
}

// measure is the one warmup/measurement protocol: the mesh advances
// through the warmup, open discards every source's cold-start
// measurements in place (histogram storage kept) and arms measurement,
// then the mesh runs to the horizon.
func measure(mesh *sim.Mesh, o Options, open func()) {
	workers, release := shardWorkers(o.Shards, mesh.Shards())
	defer release()
	mesh.Run(o.Warmup, workers)
	open()
	mesh.Run(o.Warmup+o.Measure, workers)
}

// meshPort splits one tenant's traffic between its home replica and
// the rest of the mesh: a draw below the tenant's Remote fraction
// redirects the request to a uniformly-chosen other group, carried by
// a pooled crossFlight across the windowed exchange (out to the
// remote shard, served there, and back). Addresses transfer as-is —
// every replica of an equal partition has the same local address
// space — and the round trip pays the flush alignment of both
// crossings, modeling a batching host-side switch between boards.
type meshPort struct {
	local  mem.Port
	shard  *sim.MeshShard   // home shard
	shards []*sim.MeshShard // all shards, indexed by group
	peers  []mem.Port       // per-group issue point into that replica
	home   int
	groups int
	frac   float64
	rng    *sim.RNG
	free   *crossFlight
}

const (
	flightOutbound = iota + 1 // Fire on the destination shard: submit there
	flightReturn              // Fire back home: deliver the completion
)

// crossFlight is one remote access in transit. It is touched by two
// shards, but only in temporally disjoint phases separated by the
// mesh's exchange barriers, which order the handoffs; the free list
// is only ever touched on the home shard (allocate at submit, release
// at final delivery).
type crossFlight struct {
	mp     *meshPort
	req    mem.Request
	done   mem.Done
	submit sim.Time
	dst    int
	phase  int
	err    bool
	onDone mem.Done
	next   *crossFlight
}

func (p *meshPort) newFlight() *crossFlight {
	f := p.free
	if f == nil {
		f = &crossFlight{mp: p}
		f.onDone = func(r mem.Result) {
			f.err = r.Err
			f.phase = flightReturn
			f.mp.shards[f.dst].Send(f.mp.home, r.Deliver, f)
		}
	} else {
		p.free = f.next
	}
	return f
}

// Fire advances the flight's phase on whichever shard the mesh just
// delivered it to.
func (f *crossFlight) Fire(eng *sim.Engine) {
	switch f.phase {
	case flightOutbound:
		f.mp.peers[f.dst].Submit(f.req, f.onDone)
	default: // flightReturn, on the home shard
		done := f.done
		res := mem.Result{Req: f.req, Submit: f.submit, Deliver: eng.Now(), Err: f.err}
		f.done = nil
		f.next = f.mp.free
		f.mp.free = f
		done(res)
	}
}

// Submit routes the request: local fast path, or a crossFlight to a
// uniformly-chosen other group.
func (p *meshPort) Submit(req mem.Request, done mem.Done) {
	if p.rng.Float64() >= p.frac {
		p.local.Submit(req, done)
		return
	}
	dst := int(p.rng.Uint64n(uint64(p.groups - 1)))
	if dst >= p.home {
		dst++
	}
	f := p.newFlight()
	f.req, f.done, f.dst = req, done, dst
	f.submit = p.shard.Engine().Now()
	f.phase = flightOutbound
	p.shard.Send(dst, f.submit, f)
}

// CanIssue defers to the home replica: admission control is a local
// property, and the remote path's only backpressure is the tenant's
// outstanding window.
func (p *meshPort) CanIssue(addr uint64) bool { return p.local.CanIssue(addr) }

// WaitIssue defers to the home replica (see CanIssue).
func (p *meshPort) WaitIssue(addr uint64, fn func()) { p.local.WaitIssue(addr, fn) }
