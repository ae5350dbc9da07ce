// Package chain models multi-cube HMC networks. The protocol was
// designed for scale-out: "to connect to other HMCs or hosts, an HMC
// uses two or four external links" (Section II-B), the request header
// carries a cube id (CUB), and the paper credits the packet-switched
// interface with "more scalability via the interconnect, and better
// package-level fault tolerance via rerouting around failed packages"
// (Section IV-E2). This package builds chains and rings of devices
// with pass-through routing, per-hop latency and serialization cost,
// and failure rerouting — quantifying what those claims cost.
package chain

import (
	"fmt"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// Topology selects how cubes are wired.
type Topology int

const (
	// Chain wires host -> cube0 -> cube1 -> ... (daisy chain); a cube
	// failure severs everything behind it.
	Chain Topology = iota
	// Ring closes the chain back to the host's second link, so
	// traffic can route around a single failed cube.
	Ring
)

func (t Topology) String() string {
	if t == Ring {
		return "ring"
	}
	return "chain"
}

// Params holds the network timing constants.
type Params struct {
	// Device is the per-cube parameter set.
	Device hmc.Params
	// PassThrough is the latency a packet pays to route through an
	// intermediate cube's link controller (in one side, out the
	// other) without accessing its DRAM.
	PassThrough sim.Duration
}

// DefaultParams returns the calibrated defaults: pass-through cost of
// roughly an ingress+egress pair.
func DefaultParams() Params {
	return Params{Device: hmc.DefaultParams(), PassThrough: 55 * sim.Nanosecond}
}

// hopLink is one unidirectional inter-cube (or host-cube) link pair.
type hopLink struct {
	tx, rx sim.Server
}

// Network is a host plus n cubes in a chain or ring.
type Network struct {
	eng   *sim.Engine
	p     Params
	topo  Topology
	cubes []*hmc.Device
	// hops[i] carries traffic between node i-1 and node i, where node
	// 0 is the host; the ring adds hops[n] from the last cube back to
	// the host.
	hops   []hopLink
	failed []bool

	freeFlights *flight
}

// flight carries one access across the network: it is its own engine
// event (entering the target cube, then delivering the response) and
// the device-completion adapter, pooled on the network so the access
// path allocates nothing in steady state.
type flight struct {
	nw      *Network
	res     Result
	req     hmc.Request
	respSer sim.Duration
	dir     int
	atCube  bool // false: next firing enters the cube; true: deliver
	done    func(Result)
	devDone func(hmc.AccessResult)
	next    *flight
}

// hopAt maps walk step k to a hop index: forward walks leave the host
// ascending, backward (ring) walks descend from the closing hop.
func (f *flight) hopAt(k int) int {
	if f.dir >= 0 {
		return k
	}
	return len(f.nw.hops) - 1 - k
}

// Fire advances the flight: first to the cube's vault pipeline, then
// delivering the response to the caller.
func (f *flight) Fire(e *sim.Engine) {
	if !f.atCube {
		f.atCube = true
		f.nw.cubes[f.res.Cube].SubmitLocal(e.Now(), f.req, f.devDone)
		return
	}
	done, res := f.done, f.res
	f.nw.releaseFlight(f)
	done(res)
}

func (n *Network) newFlight() *flight {
	f := n.freeFlights
	if f == nil {
		f = &flight{nw: n}
		f.devDone = func(ar hmc.AccessResult) {
			// Return path: egress, then the hops in reverse.
			rt := ar.Deliver + n.p.Device.EgressLatency
			for k := f.res.Hops - 1; k >= 0; k-- {
				_, end := n.hops[f.hopAt(k)].rx.ReserveAt(n.eng.Now(), rt, f.respSer)
				rt = end + n.p.Device.LinkWireLatency
				if k > 0 {
					rt += n.p.PassThrough
				}
			}
			f.res.Err = ar.Err
			f.res.Deliver = rt
			n.eng.AtHandler(rt, f)
		}
	} else {
		n.freeFlights = f.next
	}
	return f
}

func (n *Network) releaseFlight(f *flight) {
	f.done = nil
	f.atCube = false
	f.next = n.freeFlights
	n.freeFlights = f
}

// NewNetwork builds an n-cube network (1 <= n <= 8, the CUB field's
// practical range).
func NewNetwork(eng *sim.Engine, n int, topo Topology, p Params) (*Network, error) {
	if eng == nil {
		return nil, fmt.Errorf("chain: nil engine")
	}
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("chain: cube count %d outside 1..8", n)
	}
	amap, err := hmc.NewAddressMap(hmc.Geometries(hmc.HMC11), hmc.DefaultMaxBlock)
	if err != nil {
		return nil, err
	}
	nw := &Network{eng: eng, p: p, topo: topo, failed: make([]bool, n)}
	for i := 0; i < n; i++ {
		dev, err := hmc.NewDevice(eng, p.Device, amap)
		if err != nil {
			return nil, err
		}
		nw.cubes = append(nw.cubes, dev)
	}
	hops := n
	if topo == Ring {
		hops = n + 1
	}
	nw.hops = make([]hopLink, hops)
	return nw, nil
}

// Cubes reports the cube count.
func (n *Network) Cubes() int { return len(n.cubes) }

// Params returns the network's timing constants (read-only view; the
// mem adapter derives its latency floor from them).
func (n *Network) Params() Params { return n.p }

// Cube returns device i (counters snapshot, thermal hooks).
func (n *Network) Cube(i int) *hmc.Device { return n.cubes[i] }

// CapacityBytes is the aggregate DRAM capacity.
func (n *Network) CapacityBytes() uint64 {
	return uint64(len(n.cubes)) * n.cubes[0].Geometry().SizeBytes
}

// Decode splits a global address into (cube, local address): the CUB
// id lives above the per-cube capacity bits.
func (n *Network) Decode(addr uint64) (cube int, local uint64) {
	capBytes := n.cubes[0].Geometry().SizeBytes
	cube = int(addr / capBytes % uint64(len(n.cubes)))
	return cube, addr % capBytes
}

// FailCube marks a cube failed (thermal shutdown or link loss); its
// DRAM is unreachable and, in a chain, so is everything behind it.
// Out-of-range indexes are ignored: failure schedules are scripts
// (fault plans, operator input), and a script naming a cube this
// topology does not have is a no-op, not a crash.
func (n *Network) FailCube(i int) {
	if i < 0 || i >= len(n.cubes) {
		return
	}
	n.failed[i] = true
	n.cubes[i].TriggerThermalFailure()
}

// RepairCube restores a failed cube (data lost, per the device model).
// Out-of-range indexes are ignored, matching FailCube.
func (n *Network) RepairCube(i int) {
	if i < 0 || i >= len(n.cubes) {
		return
	}
	n.failed[i] = false
	n.cubes[i].Reset()
}

// route returns the hop count and direction to reach cube i, routing
// around failures when the topology allows. dir +1 walks the chain
// forward from the host; -1 walks the ring backward.
func (n *Network) route(target int) (hopsCount, dir int, err error) {
	forwardOK := true
	for i := 0; i < target; i++ {
		if n.failed[i] {
			forwardOK = false
			break
		}
	}
	if forwardOK {
		return target + 1, +1, nil
	}
	if n.topo != Ring {
		return 0, 0, fmt.Errorf("chain: cube %d unreachable past a failed cube", target)
	}
	// Backward around the ring: host -> cube n-1 -> ... -> target.
	for i := len(n.cubes) - 1; i > target; i-- {
		if n.failed[i] {
			return 0, 0, fmt.Errorf("chain: cube %d unreachable in either ring direction", target)
		}
	}
	return len(n.cubes) - target, -1, nil
}

// Result is one completed network access.
type Result struct {
	Cube    int
	Hops    int
	Submit  sim.Time
	Deliver sim.Time
	Err     bool
}

// Latency is the network round trip.
func (r Result) Latency() sim.Duration { return r.Deliver - r.Submit }

// Access performs a read/write against the global address space; done
// fires when the response returns to the host.
func (n *Network) Access(now sim.Time, addr uint64, size int, write bool, done func(Result)) {
	cube, local := n.Decode(addr)
	f := n.newFlight()
	f.res = Result{Cube: cube, Submit: now}
	f.done = done
	if n.failed[cube] {
		f.res.Err = true
		f.res.Deliver = now + n.p.PassThrough
		f.atCube = true // deliver the error directly
		n.eng.AtHandler(f.res.Deliver, f)
		return
	}
	hopsCount, dir, err := n.route(cube)
	if err != nil {
		f.res.Err = true
		f.res.Deliver = now + n.p.PassThrough
		f.atCube = true
		n.eng.AtHandler(f.res.Deliver, f)
		return
	}
	f.res.Hops = hopsCount
	f.dir = dir

	f.req = hmc.Request{Addr: local, Size: size, Write: write}
	reqSer := n.p.Device.SerializationTime(f.req.WireBytesRequest())
	f.respSer = n.p.Device.SerializationTime(f.req.WireBytesResponse())

	// Walk the outbound hops, reserving each link's TX side; all but
	// the last hop also pay the pass-through routing cost. Forward
	// walks use hops 0,1,...; backward (ring) walks use the host-side
	// closing hop first: hops[n], n-1, ... (see hopAt).
	t := now
	for k := 0; k < hopsCount; k++ {
		_, end := n.hops[f.hopAt(k)].tx.ReserveAt(now, t, reqSer)
		t = end + n.p.Device.LinkWireLatency
		if k < hopsCount-1 {
			t += n.p.PassThrough
		}
	}

	// The target cube serves the request on its link 0; we reuse the
	// device's own Submit for the in-cube path but without re-paying
	// link serialization (already accounted): use SubmitLocal plus
	// the cube's ingress/egress budget.
	n.eng.AtHandler(t+n.p.Device.IngressLatency, f)
}

// LoadResult aggregates a network load run.
type LoadResult struct {
	DataGBps float64
	// LatencyNs records the accesses that completed without error.
	LatencyNs stats.LogHist
	// PerCubeLatencyNs indexes mean latency by cube distance.
	PerCubeLatencyNs []float64
}

// RunUniformLoad drives random reads across the whole global address
// space with the given outstanding window for a duration.
func RunUniformLoad(n *Network, window int, size int, duration sim.Duration, seed uint64) LoadResult {
	if window <= 0 {
		window = 64
	}
	rng := sim.NewRNG(seed)
	var res LoadResult
	perCube := make([]stats.LogHist, n.Cubes())
	inFlight := 0
	var dataBytes uint64
	// Both loop closures are built once; Result carries the submit
	// time, so the completion callback captures no per-access state.
	var pump func()
	var onDone func(Result)
	onDone = func(r Result) {
		inFlight--
		if !r.Err {
			dataBytes += uint64(size)
			lat := int64(r.Latency())
			res.LatencyNs.Record(lat)
			perCube[r.Cube].Record(lat)
		}
		pump()
	}
	pump = func() {
		for inFlight < window && n.eng.Now() < duration {
			addr := rng.Uint64() % n.CapacityBytes() &^ 127
			inFlight++
			n.Access(n.eng.Now(), addr, size, false, onDone)
		}
	}
	n.eng.Schedule(0, pump)
	n.eng.Run()
	elapsed := n.eng.Now()
	if s := elapsed.Seconds(); s > 0 {
		res.DataGBps = float64(dataBytes) / s / 1e9
	}
	for i := range perCube {
		res.PerCubeLatencyNs = append(res.PerCubeLatencyNs, perCube[i].Mean())
	}
	return res
}
