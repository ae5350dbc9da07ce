package fpga

import (
	"fmt"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

// Result is the controller-level completion record of one
// transaction, extending the device timing with the host-side path.
type Result struct {
	hmc.AccessResult
	// PortDeliver is when the response finished draining into the
	// originating port; Submit→PortDeliver is the latency the GUPS
	// monitoring unit measures.
	PortDeliver sim.Time
}

// Latency is the port-observed round-trip time.
func (r Result) Latency() sim.Duration { return r.PortDeliver - r.AccessResult.Submit }

type node struct {
	txPipe sim.Server // flit pipeline shared by the node's ports
	rxProc sim.Server // response processing
}

// maxFlits is the largest packet on the wire: header and tail plus the
// largest payload (9 flits). It sizes the per-flit-count timing tables.
const maxFlits = 1 + hmc.MaxPayloadBytes/hmc.FlitBytes

// txnStage is the event a transaction fires next.
type txnStage uint8

const (
	atLink   txnStage = iota // hand the packet to the device at the link
	atDevice                 // response fully back at the controller RX
	atDrain                  // response drained into the port
)

// txn carries one in-flight transaction through the controller's TX
// pipeline, the device, and the RX drain. Transactions are pooled on
// the controller and act as their own engine events (sim.Handler), so
// the per-request hot path builds no closures and passes no result
// between stages: the same object fires at the link hand-off, at
// device delivery and at drain completion, and the device fills its
// res in place.
type txn struct {
	c      *Controller
	nd     *node
	link   int
	bank   int // global bank index, decoded once at Submit
	stage  txnStage
	req    hmc.Request
	submit sim.Time // port-visible submission time
	res    Result
	done   func(Result)
	next   *txn
}

// Fire advances the transaction by one stage.
func (t *txn) Fire(e *sim.Engine) {
	switch t.stage {
	case atLink:
		t.stage = atDevice
		t.c.dev.Access(e.Now(), t.link, t.req, &t.res.AccessResult)
		e.AtHandler(t.res.Deliver, t)
	case atDevice:
		t.stage = atDrain
		t.c.receive(t)
	default:
		t.c.finish(t)
	}
}

// Controller models the Micron HMC controller IP plus Pico firmware
// plumbing between GUPS ports and the device links. It implements
// the request flow-control stop signal as a per-bank outstanding
// admission limit (hmc.Params.BankQueueDepth).
type Controller struct {
	eng  *sim.Engine
	dev  *hmc.Device
	amap *hmc.AddressMap
	p    Params

	// Per-request constants, derived once from p and the device
	// parameters so that the hot path does no float math and copies no
	// parameter struct.
	bufferLat  sim.Duration               // FlitsToParallel buffering
	toLinkLat  sim.Duration               // arbitration, Seq#/flow control/CRC, SerDes
	rxFixedLat sim.Duration               // RX deserialize, verify and route
	respProc   sim.Duration               // device ResponseProcessing per response
	bankDepth  int                        // device BankQueueDepth
	txPipe     [maxFlits + 1]sim.Duration // TxPipeTime by request flits
	drainTime  [maxFlits + 1]sim.Duration // DrainTime by response flits

	nodes  []node
	drains []sim.Server // per-port response drain

	outstanding []int      // per global bank
	waiters     [][]func() // ports blocked on a bank slot

	freeTxns    *txn
	wakeScratch []func()
}

// NewController wires a controller to a device.
func NewController(eng *sim.Engine, dev *hmc.Device, p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if eng == nil || dev == nil {
		return nil, fmt.Errorf("fpga: nil engine or device")
	}
	banks := dev.Geometry().Banks()
	dp := dev.Params()
	c := &Controller{
		eng:         eng,
		dev:         dev,
		amap:        dev.AddressMap(),
		p:           p,
		bufferLat:   p.Cycles(p.FlitsToParallelCycles),
		toLinkLat:   p.Cycles(p.ArbiterCycles + p.SeqFlowCRCCycles + p.SerDesConvertCycles),
		rxFixedLat:  p.RxFixedLatency(),
		respProc:    dp.ResponseProcessing,
		bankDepth:   dp.BankQueueDepth,
		nodes:       make([]node, dev.Links()),
		drains:      make([]sim.Server, p.Ports),
		outstanding: make([]int, banks),
		waiters:     make([][]func(), banks),
	}
	for flits := range c.txPipe {
		c.txPipe[flits] = p.TxPipeTime(flits)
		c.drainTime[flits] = p.DrainTime(flits)
	}
	return c, nil
}

// Params returns the controller configuration.
func (c *Controller) Params() Params { return c.p }

// PortLink maps a GUPS port to the link (hmc_node) it belongs to:
// ports alternate between the two nodes, five on one and four on the
// other.
func (c *Controller) PortLink(port int) int { return port % len(c.nodes) }

// CanIssue reports whether the flow-control unit would admit a
// request to addr right now, i.e. the target bank's outstanding count
// is below the stop threshold.
func (c *Controller) CanIssue(addr uint64) bool {
	return c.outstanding[c.amap.GlobalBank(addr)] < c.bankDepth
}

// WaitBank registers fn to run once a slot frees in addr's bank
// queue. The caller re-checks CanIssue (multiple waiters may race for
// one slot).
func (c *Controller) WaitBank(addr uint64, fn func()) {
	b := c.amap.GlobalBank(addr)
	c.waiters[b] = append(c.waiters[b], fn)
}

// newTxn takes a transaction from the pool (or grows it).
func (c *Controller) newTxn() *txn {
	t := c.freeTxns
	if t == nil {
		t = &txn{c: c}
	} else {
		c.freeTxns = t.next
	}
	return t
}

// releaseTxn returns a transaction to the pool.
func (c *Controller) releaseTxn(t *txn) {
	t.done = nil
	t.stage = atLink
	t.next = c.freeTxns
	c.freeTxns = t
}

// Submit accepts a request from a GUPS port at the current simulated
// time and drives it through the TX pipeline, device, and RX path;
// done runs when the response has drained into the port. done is
// stored, not wrapped: callers that pass a reusable func value (the
// ports do) keep the whole submission path allocation-free.
//
// Admission is the caller's job: ports consult CanIssue/WaitBank
// before submitting (the stop signal halts generation, it does not
// reject in-flight packets). An invalid payload size or a port outside
// 0..Ports-1 panics here, before any state changes.
func (c *Controller) Submit(req hmc.Request, done func(Result)) {
	hmc.CheckPayload(req.Size)
	if req.Port < 0 || req.Port >= len(c.drains) {
		panic(fmt.Sprintf("fpga: port %d outside 0..%d", req.Port, len(c.drains)-1))
	}
	now := c.eng.Now()
	link := c.PortLink(req.Port)
	nd := &c.nodes[link]
	bank := c.amap.GlobalBank(req.Addr)
	c.outstanding[bank]++

	reqFlits := req.WireBytesRequest() / hmc.FlitBytes

	// TX: buffering, then the node flit pipeline, then the remaining
	// fixed stages ahead of link serialization.
	_, pipeEnd := nd.txPipe.ReserveAt(now, now+c.bufferLat, c.txPipe[reqFlits])

	t := c.newTxn()
	t.nd, t.link, t.bank, t.req, t.submit, t.done = nd, link, bank, req, now, done
	c.eng.AtHandler(pipeEnd+c.toLinkLat, t)
}

// receive drives the RX path: response processing on the node, fixed
// verification latency, then the per-port drain.
func (c *Controller) receive(t *txn) {
	nowRx := c.eng.Now()
	_, procEnd := t.nd.rxProc.Reserve(nowRx, c.respProc)
	respFlits := t.req.WireBytesResponse() / hmc.FlitBytes
	_, drainEnd := c.drains[t.req.Port].ReserveAt(nowRx, procEnd+c.rxFixedLat, c.drainTime[respFlits])
	// The port measures from its own submission, not the link hand-off.
	t.res.Submit, t.res.PortDeliver = t.submit, drainEnd
	c.eng.AtHandler(drainEnd, t)
}

// finish completes a drained transaction: bookkeeping, waiter wakeup,
// then the port callback. The txn returns to the pool first so that
// reentrant submissions from the callback reuse it.
func (c *Controller) finish(t *txn) {
	done, res, bank := t.done, t.res, t.bank
	c.releaseTxn(t)
	c.outstanding[bank]--
	// Wake every waiter; they re-check admission. Waiters are copied
	// to a scratch buffer so wakeups that immediately re-wait append
	// to a clean list instead of the one being iterated.
	if ws := c.waiters[bank]; len(ws) > 0 {
		c.wakeScratch = append(c.wakeScratch[:0], ws...)
		c.waiters[bank] = ws[:0]
		for _, w := range c.wakeScratch {
			w()
		}
	}
	done(res)
}
