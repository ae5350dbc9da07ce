package hmc

import "hmcsim/internal/sim"

// LinkWidth selects the lane count of an external link.
type LinkWidth int

const (
	// HalfWidth is an 8-lane link; the AC-510 connects its HMC with
	// two half-width links at 15 Gbps (Section III-A).
	HalfWidth LinkWidth = 8
	// FullWidth is a 16-lane link.
	FullWidth LinkWidth = 16
)

// LinkConfig describes the external link provisioning of a device.
type LinkConfig struct {
	// Count is the number of active links (2 on the AC-510; HMC 1.x
	// supports 2, 4 or 8, HMC 2.0 supports 4).
	Count int
	// Width is lanes per link.
	Width LinkWidth
	// LaneGbps is the per-lane serialization rate: 10, 12.5 or 15.
	LaneGbps float64
}

// PeakGBps computes Equation 2 of the paper: the bidirectional raw
// link bandwidth in GB/s. Two half-width 15 Gbps links give 60 GB/s.
func (lc LinkConfig) PeakGBps() float64 {
	return float64(lc.Count) * float64(lc.Width) * lc.LaneGbps * 2 / 8
}

// PerDirectionGBps is the raw serialization bandwidth of one link in
// one direction.
func (lc LinkConfig) PerDirectionGBps() float64 {
	return float64(lc.Width) * lc.LaneGbps / 8
}

// AC510Links is the link configuration of the paper's board.
func AC510Links() LinkConfig {
	return LinkConfig{Count: 2, Width: HalfWidth, LaneGbps: 15}
}

// Params gathers every timing/calibration constant of the device
// model. Each field documents the paper or spec value it targets;
// README.md and the package docs record the calibration rationale.
type Params struct {
	Links LinkConfig

	// LinkEfficiency derates raw lane bandwidth to transaction
	// bandwidth, covering token-return embedding, lane encoding and
	// flow-control packets. Calibrated so read-only 128 B traffic
	// lands at the paper's ~21-22 GB/s raw (Figure 7): two links at
	// 15 GB/s/dir x 0.78 = 23.4 GB/s of response payload+overhead
	// before the per-packet LinkPacketGap.
	LinkEfficiency float64

	// LinkPacketGap is per-packet serialization overhead on a link
	// beyond its bytes (scrambler/framing gaps). It makes small
	// packets proportionally costlier, separating the MRPS curves of
	// Figure 8.
	LinkPacketGap sim.Duration

	// LinkWireLatency is the one-way flight plus SerDes pipeline
	// latency between controller and device, per direction.
	LinkWireLatency sim.Duration

	// ResponseProcessing is the per-response occupancy of one
	// hmc_node's RX pipeline on the FPGA side; it caps total response
	// rate at 2 nodes / ResponseProcessing and is what holds small-
	// payload MRPS near the paper's ~300 M (Figure 8).
	ResponseProcessing sim.Duration

	// QuadrantHop is the extra latency for a request whose vault lives
	// in a different quadrant than the link it arrived on (Section
	// II-B: local-quadrant accesses have lower latency).
	QuadrantHop sim.Duration

	// IngressLatency/EgressLatency are the fixed in-device packet
	// processing latencies (deserialize, decode, route / packetize,
	// serialize). Together with DRAM timing they make up the ~125 ns
	// the paper attributes to the HMC itself at low load.
	IngressLatency sim.Duration
	EgressLatency  sim.Duration

	// VaultDataGBps is the internal bandwidth ceiling of one vault:
	// 10 GB/s (Rosenfeld; Section IV-A of the paper).
	VaultDataGBps float64

	// VaultRequestOverhead is per-request vault-controller front-end
	// occupancy (header decode, scheduling) and VaultRequestBeat the
	// extra scheduling cost per 32 B beat ("the memory controller ...
	// has to wait a few more cycles when accessing data larger than
	// 32 B", Section IV-E3). Together they cap a single vault near
	// 78 M requests/s at 128 B — which makes raw bandwidth grow with
	// request size in the Figure 13 single-vault panel, keeps the
	// 32 < 64 < 128 B latency ordering at vault-bound patterns, and
	// makes 8-bank and 1-vault patterns equivalent (Section IV-B).
	VaultRequestOverhead sim.Duration
	VaultRequestBeat     sim.Duration

	// BankAccess is the closed-page row-cycle occupancy of a bank per
	// request before data transfer: ACT + column access + PRE.
	// Calibrated so one bank streaming 128 B reads yields the paper's
	// ~2-2.5 GB/s raw (Figure 7, leftmost bars).
	BankAccess sim.Duration

	// BankBeat is the additional bank/TSV occupancy per 32 B beat of
	// payload; data larger than the 32 B bus granularity waits "a few
	// more cycles" (Section IV-E3).
	BankBeat sim.Duration

	// SubBlockPenaltyBeats is the number of 32 B beats charged for a
	// sub-32 B access: requests starting/ending on a 16 B boundary use
	// the DRAM bus inefficiently (Section II-C), so a 16 B access
	// still occupies the bus like a 32 B one (and wastes a slot).
	SubBlockPenaltyBeats int

	// BankQueueDepth is the outstanding-request admission limit per
	// bank implemented by the controller's request flow-control stop
	// signal. The paper's Little's-law analysis of Figure 17 infers a
	// per-bank queue whose saturated occupancy is a constant (~375)
	// and that two-bank patterns hold half of four-bank patterns.
	BankQueueDepth int
}

// DefaultParams returns the calibrated HMC 1.1 / AC-510 parameter set
// used in every experiment unless stated otherwise.
func DefaultParams() Params {
	return Params{
		Links:                AC510Links(),
		LinkEfficiency:       0.78,
		LinkPacketGap:        2500 * sim.Picosecond,
		LinkWireLatency:      26 * sim.Nanosecond,
		ResponseProcessing:   sim.FromNanoseconds(7.3),
		QuadrantHop:          8 * sim.Nanosecond,
		IngressLatency:       60 * sim.Nanosecond,
		EgressLatency:        60 * sim.Nanosecond,
		VaultDataGBps:        10,
		VaultRequestOverhead: sim.FromNanoseconds(9.6),
		VaultRequestBeat:     sim.FromNanoseconds(0.8),
		BankAccess:           48 * sim.Nanosecond,
		BankBeat:             sim.FromNanoseconds(3.2),
		SubBlockPenaltyBeats: 2,
		BankQueueDepth:       384,
	}
}

// LinkByteTime returns the effective serialization time of one byte on
// one link in one direction.
func (p Params) LinkByteTime() sim.Duration {
	gbps := p.Links.PerDirectionGBps() * p.LinkEfficiency
	return sim.Duration(float64(sim.Nanosecond) / gbps)
}

// SerializationTime returns the effective link occupancy of a packet
// of the given wire size.
func (p Params) SerializationTime(wireBytes int) sim.Duration {
	return sim.Duration(wireBytes)*p.LinkByteTime() + p.LinkPacketGap
}

// Beats returns the number of 32 B DRAM bus beats a payload of size
// bytes occupies, applying the sub-block penalty for accesses smaller
// than the bus granularity.
func (p Params) Beats(size int) int {
	if size < 32 {
		return p.SubBlockPenaltyBeats
	}
	return (size + 31) / 32
}

// TSVBeatTime returns the vault data-bus occupancy of one 32 B beat,
// derived from the 10 GB/s vault ceiling.
func (p Params) TSVBeatTime() sim.Duration {
	return sim.Duration(32 * float64(sim.Nanosecond) / p.VaultDataGBps)
}
