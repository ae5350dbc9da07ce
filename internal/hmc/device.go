package hmc

import (
	"fmt"

	"hmcsim/internal/sim"
)

// PagePolicy selects the DRAM row management policy. HMC implements
// ClosedPage (Section II-C); OpenPage exists for the ablation
// benchmarks that quantify what the paper's Figure 13 argument
// implies row-buffer hits would have bought.
type PagePolicy int

const (
	// ClosedPage precharges after every access: every reference pays
	// the full row cycle, making linear and random latency equal.
	ClosedPage PagePolicy = iota
	// OpenPage leaves the row open: a subsequent access to the same
	// row skips activation and precharge.
	OpenPage
)

func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open-page"
	}
	return "closed-page"
}

// Request is one memory transaction presented to the device.
type Request struct {
	Addr  uint64
	Size  int  // payload bytes, 16..128 in 16 B steps
	Write bool // write (payload travels with request) vs read
	Port  int  // originating GUPS port, for bookkeeping
}

// WireBytesRequest returns the request packet wire size.
func (r Request) WireBytesRequest() int {
	if r.Write {
		return PacketBytes(r.Size)
	}
	return OverheadBytes
}

// WireBytesResponse returns the response packet wire size.
func (r Request) WireBytesResponse() int {
	if r.Write {
		return OverheadBytes
	}
	return PacketBytes(r.Size)
}

// AccessResult carries the timing deconstruction of one completed
// transaction; every timestamp is an absolute simulated time.
type AccessResult struct {
	Req Request
	Loc Location

	// Submit is when the controller handed the packet to the link.
	Submit sim.Time
	// DeviceArrive is when the packet finished deserializing inside
	// the device.
	DeviceArrive sim.Time
	// BankStart/BankEnd bound the DRAM bank occupancy.
	BankStart, BankEnd sim.Time
	// RespDepart is when the response started serializing back.
	RespDepart sim.Time
	// Deliver is when the response fully arrived at the controller RX.
	Deliver sim.Time

	// Err is set when the device rejected the access (thermal
	// shutdown in progress); data is lost and the host must reset.
	Err bool
}

// Counters aggregates device-side traffic statistics.
type Counters struct {
	Reads     uint64
	Writes    uint64
	DataBytes uint64
	WireBytes uint64 // request+response bytes incl. header/tail
	Rejected  uint64 // accesses refused while thermally failed
	RowHits   uint64 // open-page ablation bookkeeping
	RowMisses uint64
}

type bankState struct {
	srv     sim.Server
	openRow uint64
	hasOpen bool
}

type vaultState struct {
	front sim.Server // per-request controller front-end
	tsv   sim.Server // 32 B data bus, 10 GB/s ceiling
	banks []bankState
}

type linkState struct {
	tx, rx   sim.Server
	quadrant int
}

// Device is the timing model of one HMC cube behind its external
// links. It is driven through Submit by the FPGA-side controller
// model and is not safe for concurrent use (one engine, one
// goroutine).
type Device struct {
	p      Params
	geo    Geometry
	amap   *AddressMap
	policy PagePolicy

	links  []linkState
	vaults []*vaultState

	store  *Storage
	failed bool

	// linkByteTime and tsvBeatTime cache the float-derived per-byte
	// link and per-beat vault bus costs every access pays.
	linkByteTime sim.Duration
	tsvBeatTime  sim.Duration

	// deliver schedules completion callbacks through a pooled event,
	// so the per-access hot path allocates nothing in steady state.
	deliver sim.Deliverer[AccessResult]

	counters Counters
}

// NewDevice builds an HMC 1.1 device with the given parameters and
// address mapping.
func NewDevice(eng *sim.Engine, p Params, amap *AddressMap) (*Device, error) {
	if eng == nil || amap == nil {
		return nil, fmt.Errorf("hmc: nil engine or address map")
	}
	if p.Links.Count <= 0 || p.Links.Count > amap.Geometry().Quadrants {
		return nil, fmt.Errorf("hmc: link count %d out of range", p.Links.Count)
	}
	g := amap.Geometry()
	d := &Device{p: p, geo: g, amap: amap, policy: ClosedPage,
		linkByteTime: p.LinkByteTime(), tsvBeatTime: p.TSVBeatTime(),
		deliver: sim.NewDeliverer[AccessResult](eng)}
	d.links = make([]linkState, p.Links.Count)
	for i := range d.links {
		// Each link attaches to one quadrant; with two links the
		// board wires quadrants 0 and 2 (opposite corners).
		d.links[i].quadrant = i * (g.Quadrants / p.Links.Count)
	}
	d.vaults = make([]*vaultState, g.Vaults)
	for i := range d.vaults {
		d.vaults[i] = &vaultState{banks: make([]bankState, g.BanksPerVault)}
	}
	return d, nil
}

// MustDevice is NewDevice that panics on error, for tests/examples.
func MustDevice(eng *sim.Engine, p Params, amap *AddressMap) *Device {
	d, err := NewDevice(eng, p, amap)
	if err != nil {
		panic(err)
	}
	return d
}

// SetPagePolicy overrides the row policy (default ClosedPage).
func (d *Device) SetPagePolicy(p PagePolicy) { d.policy = p }

// AttachStorage connects a functional backing store so that reads
// return previously written data (used by stream GUPS integrity
// checks). Timing experiments leave it detached.
func (d *Device) AttachStorage(s *Storage) { d.store = s }

// AddressMap exposes the device's address decode.
func (d *Device) AddressMap() *AddressMap { return d.amap }

// Params exposes the timing parameters.
func (d *Device) Params() Params { return d.p }

// Geometry exposes the structural configuration.
func (d *Device) Geometry() Geometry { return d.geo }

// Counters returns a snapshot of the device counters.
func (d *Device) Counters() Counters { return d.counters }

// Links reports the number of external links.
func (d *Device) Links() int { return len(d.links) }

// TriggerThermalFailure puts the device into shutdown: in-flight and
// subsequent accesses complete with Err set (the head/tail of response
// messages carry the alarm, Section IV-C), and DRAM contents are lost.
func (d *Device) TriggerThermalFailure() {
	d.failed = true
	if d.store != nil {
		d.store.Clear() // stored data is lost on thermal shutdown
	}
}

// Reset models the recovery sequence after cooling down: resetting the
// HMC clears the failure latch; DRAM contents remain lost.
func (d *Device) Reset() {
	d.failed = false
	for i := range d.links {
		d.links[i].tx.Reset()
		d.links[i].rx.Reset()
	}
	for _, v := range d.vaults {
		v.front.Reset()
		v.tsv.Reset()
		for b := range v.banks {
			v.banks[b] = bankState{}
		}
	}
}

// Submit presents a request to the device at time now on the given
// link; done is invoked (as a scheduled event) when the response has
// fully arrived back at the controller's receiver.
func (d *Device) Submit(now sim.Time, link int, req Request, done func(AccessResult)) {
	var res AccessResult
	d.Access(now, link, req, &res)
	d.deliver.Deliver(res.Deliver, res, done)
}

// Access is the timing core of Submit: it presents req at time now on
// the given link, reserves every link, vault and bank resource the
// request occupies, updates the counters and fills *res with the
// complete timing deconstruction. It schedules nothing.
//
// The caller owns res. Access overwrites every field of *res and keeps
// no reference to it once it returns. The response it describes is
// still in flight until res.Deliver: the caller schedules whatever
// consumes it at that instant (Submit through a pooled event, the
// AC-510 controller by rescheduling its own transaction) and must not
// hand res to the host earlier.
func (d *Device) Access(now sim.Time, link int, req Request, res *AccessResult) {
	if link < 0 || link >= len(d.links) {
		panic(fmt.Sprintf("hmc: link %d out of range", link))
	}
	CheckPayload(req.Size)
	loc := d.amap.Decode(req.Addr)

	if d.failed {
		// The device returns error-flagged responses promptly; no
		// DRAM access happens.
		d.counters.Rejected++
		*res = AccessResult{Req: req, Loc: loc, Submit: now, Err: true,
			Deliver: now + d.p.LinkWireLatency*2 + d.p.IngressLatency}
		return
	}
	// The healthy path assigns every field, so a reused res needs no
	// clearing first.
	res.Req, res.Loc, res.Submit, res.Err = req, loc, now, false

	ls := &d.links[link]
	// Request serialization onto the link (TX direction).
	_, serEnd := ls.tx.Reserve(now, d.serialization(req.WireBytesRequest()))
	arrive := serEnd + d.p.LinkWireLatency + d.p.IngressLatency
	if loc.Quadrant != ls.quadrant {
		arrive += d.p.QuadrantHop
	}
	res.DeviceArrive = arrive

	v := d.vaults[loc.Vault]
	beats := d.p.Beats(req.Size)
	frontOcc := d.p.VaultRequestOverhead + sim.Duration(beats)*d.p.VaultRequestBeat
	_, frontEnd := v.front.ReserveAt(now, arrive, frontOcc)

	// Bank occupancy: closed-page pays the full row cycle on every
	// access; open-page skips activation+precharge on a row hit.
	occ := d.p.BankAccess + sim.Duration(beats)*d.p.BankBeat
	bank := &v.banks[loc.Bank]
	if d.policy == OpenPage {
		if bank.hasOpen && bank.openRow == loc.Row {
			occ = sim.Duration(beats) * d.p.BankBeat
			d.counters.RowHits++
		} else {
			d.counters.RowMisses++
		}
		bank.hasOpen, bank.openRow = true, loc.Row
	}
	bStart, bEnd := bank.srv.ReserveAt(now, frontEnd, occ)
	res.BankStart, res.BankEnd = bStart, bEnd

	// Vault data bus (TSV) transfer at 32 B granularity.
	_, tsvEnd := v.tsv.ReserveAt(now, bEnd, sim.Duration(beats)*d.tsvBeatTime)

	respReady := tsvEnd + d.p.EgressLatency
	if loc.Quadrant != ls.quadrant {
		respReady += d.p.QuadrantHop
	}
	res.RespDepart = respReady

	// Response serialization back over the same link (RX direction).
	_, respSerEnd := ls.rx.ReserveAt(now, respReady, d.serialization(req.WireBytesResponse()))
	res.Deliver = respSerEnd + d.p.LinkWireLatency

	// Accounting.
	if req.Write {
		d.counters.Writes++
	} else {
		d.counters.Reads++
	}
	d.counters.DataBytes += uint64(req.Size)
	d.counters.WireBytes += uint64(req.WireBytesRequest() + req.WireBytesResponse())
}

// serialization is Params.SerializationTime over the cached byte time.
func (d *Device) serialization(wireBytes int) sim.Duration {
	return sim.Duration(wireBytes)*d.linkByteTime + d.p.LinkPacketGap
}

// SubmitLocal performs a vault-local access from a compute element in
// the logic layer (a PIM configuration): the request enters the vault
// controller directly, skipping SerDes links, quadrant routing and
// the host controller entirely. This is the data path whose thermal
// consequences the paper's Sections I and IV-C warn about.
func (d *Device) SubmitLocal(now sim.Time, req Request, done func(AccessResult)) {
	CheckPayload(req.Size)
	loc := d.amap.Decode(req.Addr)
	res := AccessResult{Req: req, Loc: loc, Submit: now}
	if d.failed {
		d.counters.Rejected++
		res.Err = true
		res.Deliver = now + d.p.VaultRequestOverhead
		d.deliver.Deliver(res.Deliver, res, done)
		return
	}
	v := d.vaults[loc.Vault]
	beats := d.p.Beats(req.Size)
	frontOcc := d.p.VaultRequestOverhead + sim.Duration(beats)*d.p.VaultRequestBeat
	_, frontEnd := v.front.ReserveAt(now, now, frontOcc)
	res.DeviceArrive = frontEnd

	occ := d.p.BankAccess + sim.Duration(beats)*d.p.BankBeat
	bank := &v.banks[loc.Bank]
	if d.policy == OpenPage {
		if bank.hasOpen && bank.openRow == loc.Row {
			occ = sim.Duration(beats) * d.p.BankBeat
			d.counters.RowHits++
		} else {
			d.counters.RowMisses++
		}
		bank.hasOpen, bank.openRow = true, loc.Row
	}
	bStart, bEnd := bank.srv.ReserveAt(now, frontEnd, occ)
	res.BankStart, res.BankEnd = bStart, bEnd
	_, tsvEnd := v.tsv.ReserveAt(now, bEnd, sim.Duration(beats)*d.tsvBeatTime)
	res.RespDepart = tsvEnd
	res.Deliver = tsvEnd

	if req.Write {
		d.counters.Writes++
	} else {
		d.counters.Reads++
	}
	d.counters.DataBytes += uint64(req.Size)
	// Local accesses move no link bytes; only the payload crosses the
	// TSVs. Wire accounting therefore counts data only.
	d.counters.WireBytes += uint64(req.Size)

	d.deliver.Deliver(res.Deliver, res, done)
}
