package gups

import (
	"bytes"
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// StreamConfig drives stream GUPS: the host pushes a burst of
// requests through the AXI-Stream interface to a single port; the
// paper uses it for low-load latency (Figure 15) and to confirm data
// integrity of writes and reads (Section III-B).
type StreamConfig struct {
	// N is the number of read requests in the stream (2..28 in the
	// paper's Figure 15).
	N int
	// Size is the request payload in bytes.
	Size int
	// Seed perturbs the random address selection.
	Seed uint64
	// Verify writes known data first and checks the read responses
	// byte-for-byte, exercising the packet encode/decode layer (CRC,
	// tags) end to end.
	Verify bool
}

// StreamResult reports a stream run.
type StreamResult struct {
	// LatencyNs records per-read round trips (its mean, min and max are
	// the three curves of each Figure 15 panel).
	LatencyNs stats.LogHist
	// Verified is true when Verify was requested and every response
	// matched its written data.
	Verified bool
	// VerifyErrors counts mismatched responses.
	VerifyErrors int
}

// RunStream executes one stream burst.
func RunStream(cfg StreamConfig) (StreamResult, error) {
	if cfg.N <= 0 {
		return StreamResult{}, fmt.Errorf("gups: stream needs N > 0")
	}
	if !hmc.ValidPayload(cfg.Size) {
		return StreamResult{}, fmt.Errorf("gups: invalid request size %d", cfg.Size)
	}
	rig, err := BuildRig(Config{Ports: 1, Size: cfg.Size, Seed: cfg.Seed})
	if err != nil {
		return StreamResult{}, err
	}
	defer rig.Eng.Release()
	var store *hmc.Storage
	if cfg.Verify {
		store = hmc.NewStorage(rig.Dev.Geometry())
		rig.Dev.AttachStorage(store)
	}

	// Draw the burst's random addresses up front.
	gen := NewAddrGen(Random, cfg.Size, 0, 0, rig.Dev.AddressMap().CapacityMask(), cfg.Seed+1, 0)
	addrs := make([]uint64, cfg.N)
	for i := range addrs {
		addrs[i] = gen.Next()
	}

	res := StreamResult{Verified: cfg.Verify}

	// want maps each address to the payload its (last) write carried,
	// so the read-phase verifier needs no per-read closure state.
	var want map[uint64][]byte
	if cfg.Verify {
		want = make(map[uint64][]byte, cfg.N)
		// Phase 1: stream the writes, carrying real payloads through
		// the packet layer into the functional store.
		pending := cfg.N
		for i, a := range addrs {
			a := a
			payload := testPattern(a, cfg.Size, byte(i))
			want[a] = payload
			pkt := &hmc.Packet{Cmd: hmc.CmdWrite, Tag: uint16(i), Addr: a, Data: payload}
			wire, err := pkt.Encode()
			if err != nil {
				return StreamResult{}, err
			}
			decoded, err := hmc.DecodePacket(wire)
			if err != nil {
				return StreamResult{}, fmt.Errorf("gups: write packet corrupted in flight: %w", err)
			}
			rig.Ctrl.Submit(hmc.Request{Addr: a, Size: cfg.Size, Write: true}, func(fr fpga.Result) {
				if !fr.Err {
					if err := store.Write(a, decoded.Data); err != nil {
						res.VerifyErrors++
					}
				}
				pending--
			})
		}
		rig.Eng.Run()
		if pending != 0 {
			return StreamResult{}, fmt.Errorf("gups: %d writes never completed", pending)
		}
	}

	// Phase 2: stream the reads back-to-back (one per FPGA cycle)
	// through the single port and record each round trip. A single
	// self-rescheduling issuer drives the burst; the completion
	// callback reads the submit time off the result, so neither side
	// allocates per read.
	onDone := func(fr fpga.Result) {
		res.LatencyNs.Record(int64(fr.Latency()))
		if cfg.Verify && !fr.Err {
			a := fr.AccessResult.Req.Addr
			got, err := store.Read(a, cfg.Size)
			if err != nil || !bytes.Equal(got, want[a]) {
				res.VerifyErrors++
			}
		}
	}
	iss := &burstIssuer{ctrl: rig.Ctrl, addrs: addrs, size: cfg.Size,
		cycle: rig.Ctrl.Params().Cycle(), onDone: onDone}
	rig.Eng.ScheduleHandler(0, iss)
	rig.Eng.Run()
	if res.LatencyNs.N() != uint64(cfg.N) {
		return StreamResult{}, fmt.Errorf("gups: %d of %d reads completed", res.LatencyNs.N(), cfg.N)
	}
	if cfg.Verify && res.VerifyErrors > 0 {
		res.Verified = false
	}
	return res, nil
}

// burstIssuer issues one read per FPGA cycle until its address list is
// exhausted; it is its own pacing event (sim.Handler).
type burstIssuer struct {
	ctrl   *fpga.Controller
	addrs  []uint64
	size   int
	cycle  sim.Duration
	i      int
	onDone func(fpga.Result)
}

func (b *burstIssuer) Fire(e *sim.Engine) {
	b.ctrl.Submit(hmc.Request{Addr: b.addrs[b.i], Size: b.size}, b.onDone)
	b.i++
	if b.i < len(b.addrs) {
		e.ScheduleHandler(b.cycle, b)
	}
}

// testPattern derives a deterministic payload from an address.
func testPattern(addr uint64, size int, salt byte) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(addr>>uint(8*(i%8))) ^ byte(i) ^ salt
	}
	return out
}
