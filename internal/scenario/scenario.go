// Package scenario turns the paper's Section IV-A access-pattern
// taxonomy into declarative, composable workload scenarios: a Spec
// names a topology, a measurement window, and a set of tenants, each
// with its own request mix, address distribution, footprint pattern
// and injection mode. The compiler lowers a Spec onto the existing
// simulation stack — per-tenant GUPS ports sharing one cube, or
// closed-loop injectors over a multi-cube chain — and reports
// per-tenant and aggregate bandwidth/latency statistics.
//
// A Spec is data, not code: every future "imagined workload" is a
// ten-line literal instead of a new package. Builtin() holds the
// named library the CLIs and the experiment registry expose.
package scenario

import (
	"fmt"

	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
	"hmcsim/internal/workloads"
)

// Injection selects how a tenant's ports issue requests.
type Injection struct {
	// Mode is the injection discipline:
	//   "closed"  (default) issue as fast as the hardware admits,
	//             bounded by tag pool / write FIFO;
	//   "open"    fixed arrival rate per port (RateMRPS), still
	//             subject to the tag pool;
	//   "phased"  the Phases rate script, cycled for the whole run;
	//   "burst"   2-state Markov-modulated arrivals (MMPP): burst and
	//             idle rates with seeded exponential dwell times.
	// All open-loop modes keep an absolute arrival schedule:
	// backpressure delays requests but never depresses offered load.
	Mode string
	// RateMRPS is the open-loop arrival rate per port in million
	// requests per second; required when Mode is "open".
	RateMRPS float64
	// Outstanding caps the in-flight window per port below the
	// hardware depths (0 = full tag pool / write FIFO). Applies to
	// every mode — open-loop arrivals beyond the window queue at the
	// pacer.
	Outstanding int
	// Phases is the piecewise rate script for Mode "phased" (at least
	// one phase). The script is cyclic: after the last phase it wraps
	// to the first, so a diurnal curve loops for as long as the run
	// measures. See DiurnalPhases for the compact day/night preset.
	Phases []RatePhase
	// BurstMRPS/IdleMRPS are the per-port rates of the two MMPP
	// states for Mode "burst"; IdleMRPS 0 means fully silent gaps.
	BurstMRPS, IdleMRPS float64
	// BurstDwell/IdleDwell are the mean state dwell times; actual
	// dwells are exponential, drawn from the run's seeded RNG, so a
	// given seed replays the same burst timeline at any worker count.
	BurstDwell, IdleDwell sim.Duration
}

// RatePhase is one piece of a phase-scripted rate curve.
type RatePhase struct {
	// RateMRPS is the per-port arrival rate during the phase.
	RateMRPS float64
	// Duration is the phase length (> 0).
	Duration sim.Duration
	// Ramp interpolates the rate linearly from this phase's RateMRPS
	// to the next phase's over the duration (cyclically: the last
	// phase ramps toward the first). Without it the rate holds flat.
	Ramp bool
}

// QoS attaches a latency service-level objective to a tenant. Runs
// with any QoS-bearing tenant grow an SLO grid in the report: the
// fraction of measured successful completions at or under the target,
// and goodput, per tenant and per class.
type QoS struct {
	// Class groups tenants into one reported service class (defaults
	// to the tenant name).
	Class string
	// TargetNs is the latency target in nanoseconds (> 0 to enable).
	TargetNs float64
}

// Access selects a tenant's address distribution.
type Access struct {
	// Kind names the generator: "uniform" (default), "linear",
	// "zipfian", "hotspot", "strided" or "seqjump".
	Kind string
	// ZipfTheta is the zipfian skew in (0,1); 0 selects 0.99.
	ZipfTheta float64
	// HotFraction/HotRate shape the hotspot generator; 0 selects
	// 0.1 / 0.9.
	HotFraction, HotRate float64
	// StrideBytes is the strided advance; 0 selects 8x request size.
	StrideBytes uint64
	// JumpEvery is the seqjump run length; 0 selects 32.
	JumpEvery int
	// OffsetBytes rotates the tenant's generated addresses by a fixed
	// byte offset (modulo capacity) — the placement knob: a hotspot
	// tenant's hot set sits at the bottom of the address space, so the
	// offset chooses which cube of a chain absorbs it. Generic-driver
	// backends only (ddr4, chain); must be request-size aligned.
	OffsetBytes uint64
}

// Tenant is one traffic source: a named slice of the generator's
// ports with its own mix, distribution and injection discipline.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Ports is the number of generator ports the tenant drives
	// (default 1). On a chain topology it scales the tenant's
	// outstanding-request window instead.
	Ports int
	// Mix is the request mix: "ro" (default), "wo", "rw" or "mix".
	Mix string
	// ReadFraction is the read share for Mix == "mix" (default 0.5).
	ReadFraction float64
	// Size is the request payload in bytes (default 128).
	Size int
	// Pattern confines the footprint to a named access pattern from
	// the paper's taxonomy ("16 vaults", "1 bank", ...); "" or
	// "full" is the whole device. Single-cube topologies only.
	Pattern string
	// Access selects the address distribution.
	Access Access
	// Inject selects the injection discipline.
	Inject Injection
	// Home pins the tenant to one partition group of a sharded spec
	// (Spec.Groups > 1): the tenant's ports, address space and
	// drivers live on that group's replica. Ignored when Groups is 1.
	Home int
	// Remote is the fraction of the tenant's accesses redirected to a
	// uniformly-chosen other group (chain and ddr4 backends only; hmc
	// boards are fully independent). Remote traffic crosses the PDES
	// mesh's windowed batch exchange, paying the flush-alignment cost
	// the lookahead window models.
	Remote float64
	// Start/Stop bound the tenant's lifecycle (simulated time from run
	// start, warmup included): the tenant issues nothing before Start
	// and retires at Stop (0 = the whole run). Reported rates are
	// normalized to the tenant's live overlap with the measured
	// window, so a tenant live for half the window shows its true
	// rate, not half of it. Runs on the tenant drivers: hmc specs with
	// a lifecycle take them like thermal and fault runs do.
	Start, Stop sim.Duration
	// QoS attaches a latency SLO target and service class.
	QoS QoS
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario (registry key, report title).
	Name string
	// Description is the one-line summary shown by listings.
	Description string
	// Backend selects the memory system the spec compiles onto:
	// "hmc" (the default for the single topology: one cube behind the
	// AC-510 controller), "ddr4" (one or more DDR4-2400 channels), or
	// "chain" (multi-cube HMC networks; implied by the chain/ring
	// topologies). Every tenant mix, address distribution and
	// injection mode runs on every backend; Pattern is hmc-only (it
	// names HMC geometry).
	Backend string
	// Topology is "single" (default: hmc and ddr4 backends), "chain"
	// or "ring" (the chain backend's wiring).
	Topology string
	// Cubes is the chain/ring length (default 4).
	Cubes int
	// Channels is the ddr4 channel count (default 1).
	Channels int
	// Groups partitions the backend into that many independent
	// replicas, one per PDES shard (default 1 = the classic
	// single-engine run). Partition cut points follow the hardware's
	// natural seams: chain specs split Cubes into Groups equal
	// sub-chains behind separate host links (unlocking >8 cubes),
	// ddr4 specs split Channels into Groups independent channel sets,
	// and hmc specs become Groups independent boards (the EX-700
	// carrier's multi-AC-510 shape). Grouping is structural — it
	// changes the simulated system — while Options.Shards only picks
	// how many goroutines execute it, never the result bytes.
	Groups int
	// Warmup/Measure override the runner's windows when non-zero.
	Warmup, Measure sim.Duration
	// Tenants are the concurrent traffic sources (at least one).
	Tenants []Tenant
}

func (t Tenant) withDefaults() Tenant {
	if t.Ports == 0 {
		t.Ports = 1
	}
	if t.Mix == "" {
		t.Mix = "ro"
	}
	if t.Mix == "mix" && t.ReadFraction == 0 {
		t.ReadFraction = 0.5
	}
	if t.Size == 0 {
		t.Size = 128
	}
	if t.Access.Kind == "" {
		t.Access.Kind = "uniform"
	}
	if t.Inject.Mode == "" {
		t.Inject.Mode = "closed"
	}
	return t
}

func (s Spec) withDefaults() Spec {
	if s.Topology == "" {
		if s.Backend == "chain" {
			s.Topology = "chain"
		} else {
			s.Topology = "single"
		}
	}
	if s.Backend == "" {
		if s.Topology == "chain" || s.Topology == "ring" {
			s.Backend = "chain"
		} else {
			s.Backend = "hmc"
		}
	}
	if s.Cubes == 0 {
		s.Cubes = 4
	}
	if s.Channels == 0 {
		s.Channels = 1
	}
	if s.Groups == 0 {
		s.Groups = 1
	}
	ts := make([]Tenant, len(s.Tenants))
	for i, t := range s.Tenants {
		ts[i] = t.withDefaults()
	}
	s.Tenants = ts
	return s
}

// traffic lowers the tenant's mix, address kind and footprint pattern
// onto the GUPS request type and address stream of one traffic source:
// a global port index on the port runner, a tenant index on the
// driver runner. The source keys the seed and the linear start as
// gups.BuildRig keys its ports, so a one-tenant uniform spec
// reproduces gups.Run. The caller adds the backend's capacity mask.
func (t Tenant) traffic(seed uint64, source int) (gups.ReqType, gups.GenParams, error) {
	var ty gups.ReqType
	switch t.Mix {
	case "ro":
		ty = gups.ReadOnly
	case "wo":
		ty = gups.WriteOnly
	case "rw":
		ty = gups.ReadModifyWrite
	case "mix":
		ty = gups.Mixed
	default:
		return 0, gups.GenParams{}, fmt.Errorf("scenario: unknown mix %q (want ro, wo, rw or mix)", t.Mix)
	}
	mode, err := gups.ModeByName(t.Access.Kind)
	if err != nil {
		return 0, gups.GenParams{}, err
	}
	var zeroMask uint64
	if t.Pattern != "" && t.Pattern != "full" {
		p, err := workloads.ByName(t.Pattern)
		if err != nil {
			return 0, gups.GenParams{}, err
		}
		zeroMask = p.ZeroMask
	}
	return ty, gups.GenParams{
		Mode:        mode,
		Size:        t.Size,
		ZeroMask:    zeroMask,
		Seed:        gups.PortSeed(seed, source),
		LinearStart: gups.PortLinearStart(source),
		ZipfTheta:   t.Access.ZipfTheta,
		HotFraction: t.Access.HotFraction,
		HotRate:     t.Access.HotRate,
		StrideBytes: t.Access.StrideBytes,
		JumpEvery:   t.Access.JumpEvery,
	}, nil
}

// Validate checks a spec without building anything.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	switch s.Topology {
	case "single", "chain", "ring":
	default:
		return fmt.Errorf("scenario: unknown topology %q (want single, chain or ring)", s.Topology)
	}
	if s.Groups < 1 || s.Groups > 8 {
		return fmt.Errorf("scenario %q: group count %d outside 1..8", s.Name, s.Groups)
	}
	switch s.Backend {
	case "hmc", "ddr4":
		if s.Topology != "single" {
			return fmt.Errorf("scenario %q: the %s backend needs the single topology (chain/ring wire the chain backend)", s.Name, s.Backend)
		}
		if s.Backend == "ddr4" {
			// Each group replicates an independent channel set; the
			// per-group set obeys the single-run 1..8 bound.
			if s.Channels%s.Groups != 0 {
				return fmt.Errorf("scenario %q: %d ddr4 channels not divisible into %d groups", s.Name, s.Channels, s.Groups)
			}
			if per := s.Channels / s.Groups; per < 1 || per > 8 {
				return fmt.Errorf("scenario %q: ddr4 channel count %d per group outside 1..8", s.Name, per)
			}
		}
	case "chain":
		if s.Topology == "single" {
			return fmt.Errorf("scenario %q: the chain backend needs a chain or ring topology", s.Name)
		}
		if s.Groups > 1 {
			// Each group is an independent sub-chain behind its own
			// host link; the per-group length obeys chain.NewNetwork's
			// architected 1..8 limit, so 8 groups reach 64 cubes.
			if s.Cubes%s.Groups != 0 {
				return fmt.Errorf("scenario %q: %d cubes not divisible into %d groups", s.Name, s.Cubes, s.Groups)
			}
			if per := s.Cubes / s.Groups; per < 1 || per > 8 {
				return fmt.Errorf("scenario %q: cube count %d per group outside 1..8", s.Name, per)
			}
		} else if s.Cubes < 1 || s.Cubes > 8 {
			// chain.NewNetwork's architected limit; reject here so
			// Validate is a complete pre-flight check.
			return fmt.Errorf("scenario %q: cube count %d outside 1..8", s.Name, s.Cubes)
		}
	default:
		return fmt.Errorf("scenario: unknown backend %q (want hmc, ddr4 or chain)", s.Backend)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario %q: at least one tenant required", s.Name)
	}
	for _, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("scenario %q: tenant needs a name", s.Name)
		}
		ty, gen, err := t.traffic(0, 0)
		if err != nil {
			return fmt.Errorf("scenario %q tenant %q: %w", s.Name, t.Name, err)
		}
		if ty == gups.Mixed && (t.ReadFraction < 0 || t.ReadFraction > 1) {
			return fmt.Errorf("scenario %q tenant %q: read fraction %v outside [0,1]", s.Name, t.Name, t.ReadFraction)
		}
		if t.Ports < 1 {
			return fmt.Errorf("scenario %q tenant %q: ports %d < 1", s.Name, t.Name, t.Ports)
		}
		if !hmc.ValidPayload(t.Size) {
			return fmt.Errorf("scenario %q tenant %q: invalid request size %d", s.Name, t.Name, t.Size)
		}
		if err := t.validateInject(); err != nil {
			return fmt.Errorf("scenario %q tenant %q: %w", s.Name, t.Name, err)
		}
		if t.Start < 0 || t.Stop < 0 {
			return fmt.Errorf("scenario %q tenant %q: lifecycle Start/Stop must be >= 0", s.Name, t.Name)
		}
		if t.Stop != 0 && t.Stop <= t.Start {
			return fmt.Errorf("scenario %q tenant %q: lifecycle Stop %v not after Start %v", s.Name, t.Name, t.Stop, t.Start)
		}
		if t.QoS.TargetNs < 0 {
			return fmt.Errorf("scenario %q tenant %q: QoS TargetNs must be >= 0", s.Name, t.Name)
		}
		if t.QoS.Class != "" && t.QoS.TargetNs <= 0 {
			return fmt.Errorf("scenario %q tenant %q: QoS class %q needs TargetNs > 0", s.Name, t.Name, t.QoS.Class)
		}
		if err := gen.Validate(); err != nil {
			return fmt.Errorf("scenario %q tenant %q: %w", s.Name, t.Name, err)
		}
		if t.Pattern != "" && t.Pattern != "full" && s.Backend != "hmc" {
			return fmt.Errorf("scenario %q tenant %q: footprint patterns name HMC geometry and need the hmc backend", s.Name, t.Name)
		}
		if t.Access.OffsetBytes != 0 {
			if s.Backend == "hmc" {
				return fmt.Errorf("scenario %q tenant %q: placement offsets run on the generic-driver backends (ddr4, chain)", s.Name, t.Name)
			}
			if t.Access.OffsetBytes%uint64(t.Size) != 0 {
				return fmt.Errorf("scenario %q tenant %q: offset %d not aligned to request size %d", s.Name, t.Name, t.Access.OffsetBytes, t.Size)
			}
		}
		if t.Home < 0 || t.Home >= s.Groups {
			return fmt.Errorf("scenario %q tenant %q: home group %d outside 0..%d", s.Name, t.Name, t.Home, s.Groups-1)
		}
		if t.Remote < 0 || t.Remote >= 1 {
			return fmt.Errorf("scenario %q tenant %q: remote fraction %v outside [0,1)", s.Name, t.Name, t.Remote)
		}
		if t.Remote > 0 {
			if s.Groups < 2 {
				return fmt.Errorf("scenario %q tenant %q: remote traffic needs Groups > 1", s.Name, t.Name)
			}
			if s.Backend == "hmc" {
				return fmt.Errorf("scenario %q tenant %q: hmc boards are independent; remote traffic needs the chain or ddr4 backend", s.Name, t.Name)
			}
		}
	}
	return nil
}

// Builtin returns the named scenario library: the default
// uniform-random GUPS operating point plus the production-style
// shapes the ROADMAP asks for.
func Builtin() []Spec {
	return []Spec{
		{
			Name:        "uniform",
			Description: "Full-scale GUPS: 9 ports, 128 B uniform-random reads (the paper's headline operating point)",
			Tenants:     []Tenant{{Name: "gups", Ports: 9}},
		},
		{
			Name:        "zipfian",
			Description: "Zipf-skewed reads (theta 0.99): the serving-cache popularity shape",
			Tenants:     []Tenant{{Name: "zipf", Ports: 9, Access: Access{Kind: "zipfian", ZipfTheta: 0.99}}},
		},
		{
			Name:        "hotspot",
			Description: "Hotspot reads: 90% of traffic on 10% of the block space",
			Tenants:     []Tenant{{Name: "hot", Ports: 9, Access: Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9}}},
		},
		{
			Name:        "mixed-rw",
			Description: "Independent 70/30 read/write mix, uniform addresses",
			Tenants:     []Tenant{{Name: "mix", Ports: 9, Mix: "mix", ReadFraction: 0.7}},
		},
		{
			Name:        "seqjump",
			Description: "Sequential scans with a random jump every 32 requests (log segments)",
			Tenants:     []Tenant{{Name: "scan", Ports: 9, Access: Access{Kind: "seqjump", JumpEvery: 32}}},
		},
		{
			Name:        "open-loop",
			Description: "Uniform reads injected open-loop at 2 MRPS per port (unsaturated latency probe)",
			Tenants: []Tenant{{
				Name: "probe", Ports: 9,
				Inject: Injection{Mode: "open", RateMRPS: 2},
			}},
		},
		{
			Name:        "tenants-4",
			Description: "Four tenants sharing one cube: linear stream, zipfian cache, hotspot mix, bulk writer",
			Tenants: []Tenant{
				{Name: "stream", Ports: 2, Access: Access{Kind: "linear"}},
				{Name: "cache", Ports: 3, Access: Access{Kind: "zipfian"}},
				{Name: "hot-mix", Ports: 2, Mix: "mix", ReadFraction: 0.7, Access: Access{Kind: "hotspot"}},
				{Name: "bulk-write", Ports: 2, Mix: "wo"},
			},
		},
		{
			Name:        "chain-4",
			Description: "Four-cube daisy chain under uniform closed-loop reads (64 outstanding per tenant port)",
			Topology:    "chain",
			Cubes:       4,
			Tenants:     []Tenant{{Name: "host", Ports: 4, Inject: Injection{Outstanding: 64}}},
		},
	}
}

// CrossBackend returns the cross-backend comparison library: builtin
// traffic shapes re-expressed on the ddr4 backend, so the paper's
// HMC-vs-conventional-DRAM comparison is a pair of declarative specs
// instead of two bespoke runners. These live outside Builtin() so the
// recorded overview sweep keeps its exact membership.
func CrossBackend() []Spec {
	return []Spec{
		{
			Name:        "uniform-ddr4",
			Description: "Uniform-random 64 B reads on one DDR4-2400 channel (the conventional baseline under the GUPS shape)",
			Backend:     "ddr4",
			Tenants:     []Tenant{{Name: "load", Size: 64}},
		},
		{
			Name:        "hotspot-ddr4",
			Description: "Hotspot 64 B reads on one DDR4-2400 channel: open-page row buffers reward the hot set HMC's closed page ignores",
			Backend:     "ddr4",
			Tenants:     []Tenant{{Name: "hot", Size: 64, Access: Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9}}},
		},
		{
			Name:        "tenants-4-ddr4",
			Description: "The four-tenant mix on two interleaved DDR4 channels (multi-tenant parity check against scn-tenants-4)",
			Backend:     "ddr4",
			Channels:    2,
			Tenants: []Tenant{
				{Name: "stream", Ports: 2, Access: Access{Kind: "linear"}},
				{Name: "cache", Ports: 3, Access: Access{Kind: "zipfian"}},
				{Name: "hot-mix", Ports: 2, Mix: "mix", ReadFraction: 0.7, Access: Access{Kind: "hotspot"}},
				{Name: "bulk-write", Ports: 2, Mix: "wo"},
			},
		},
	}
}

// Sharded returns the partitioned-system library: scenarios whose
// Groups field splits the memory system across the PDES shard mesh.
// These are the scale shapes the single-engine kernel could not
// reach (16 chained cubes, four GUPS boards) plus the cross-group
// traffic specs that exercise the windowed batch exchange. They live
// outside Builtin() so the recorded overview sweep keeps its exact
// membership.
func Sharded() []Spec {
	return []Spec{
		{
			Name:        "chain-16",
			Description: "Sixteen chained cubes as eight 2-cube groups behind separate host links, one closed-loop tenant per group",
			Topology:    "chain",
			Cubes:       16,
			Groups:      8,
			Tenants: []Tenant{
				{Name: "t0", Home: 0, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t1", Home: 1, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t2", Home: 2, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t3", Home: 3, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t4", Home: 4, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t5", Home: 5, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t6", Home: 6, Ports: 2, Inject: Injection{Outstanding: 64}},
				{Name: "t7", Home: 7, Ports: 2, Inject: Injection{Outstanding: 64}},
			},
		},
		{
			Name:        "chain-16-remote",
			Description: "The 16-cube sharded chain with 5% of each tenant's accesses crossing to other groups through the windowed exchange",
			Topology:    "chain",
			Cubes:       16,
			Groups:      8,
			Tenants: []Tenant{
				{Name: "t0", Home: 0, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t1", Home: 1, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t2", Home: 2, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t3", Home: 3, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t4", Home: 4, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t5", Home: 5, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t6", Home: 6, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
				{Name: "t7", Home: 7, Ports: 2, Remote: 0.05, Inject: Injection{Outstanding: 64}},
			},
		},
		{
			Name:        "hmc-boards",
			Description: "Four independent AC-510 boards (EX-700 carrier shape), each a full 9-port GUPS rig with a distinct access shape",
			Backend:     "hmc",
			Groups:      4,
			Tenants: []Tenant{
				{Name: "uniform", Home: 0, Ports: 9},
				{Name: "zipf", Home: 1, Ports: 9, Access: Access{Kind: "zipfian", ZipfTheta: 0.99}},
				{Name: "hot", Home: 2, Ports: 9, Access: Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9}},
				{Name: "mix", Home: 3, Ports: 9, Mix: "mix", ReadFraction: 0.7},
			},
		},
		{
			Name:        "ddr4-quad",
			Description: "Eight DDR4-2400 channels as four 2-channel groups; the stream tenant leaks 10% of its accesses to other groups",
			Backend:     "ddr4",
			Channels:    8,
			Groups:      4,
			Tenants: []Tenant{
				{Name: "stream", Home: 0, Remote: 0.1, Ports: 2, Access: Access{Kind: "linear"}},
				{Name: "cache", Home: 1, Ports: 2, Access: Access{Kind: "zipfian"}},
				{Name: "hot", Home: 2, Ports: 2, Access: Access{Kind: "hotspot"}},
				{Name: "bulk", Home: 3, Ports: 2, Mix: "wo"},
			},
		},
	}
}

// Traffic returns the production traffic-model library: bursty
// arrivals, diurnal phase curves and tenant churn, each with QoS
// classes so the SLO grid renders. They live outside Builtin() so the
// recorded overview sweep keeps its exact membership.
func Traffic() []Spec {
	return []Spec{
		{
			Name:        "burst",
			Description: "Bursty MMPP tenant (8/0.5 MRPS, 10/25 us dwells) over a steady zipfian floor, both with latency SLOs",
			Tenants: []Tenant{
				{
					// Bursts exceed the driver path's service rate (~21 MRPS
					// aggregate) transiently but the arrears drain within a
					// typical idle dwell, and the shallow window keeps
					// burst-time queueing near the SLO target rather than
					// deep in the admission queue — so met % resolves the
					// on/off structure instead of pinning at 0 or 100.
					Name: "bursty", Ports: 4,
					Inject: Injection{
						Mode:      "burst",
						BurstMRPS: 8, IdleMRPS: 0.5,
						BurstDwell: 10 * sim.Microsecond, IdleDwell: 25 * sim.Microsecond,
						Outstanding: 8,
					},
					QoS: QoS{Class: "rt", TargetNs: 1500},
				},
				{
					Name: "steady", Ports: 4,
					Access: Access{Kind: "zipfian", ZipfTheta: 0.99},
					Inject: Injection{Mode: "open", RateMRPS: 2},
					QoS:    QoS{Class: "bulk", TargetNs: 4000},
				},
			},
		},
		{
			Name:        "diurnal",
			Description: "Day/night rate curve (4..40 MRPS aggregate over a 160 us cycle) on one DDR4 channel with a latency SLO",
			Backend:     "ddr4",
			Tenants: []Tenant{{
				Name: "web", Ports: 4, Size: 64,
				Inject: Injection{Mode: "phased", Phases: DiurnalPhases(160*sim.Microsecond, 1, 10)},
				QoS:    QoS{Class: "web", TargetNs: 500},
			}},
		},
		{
			Name:        "churn",
			Description: "Tenant lifecycle on a 4-cube chain: a steady base, a mid-run spike tenant, and a late joiner, each with SLOs",
			Topology:    "chain",
			Cubes:       4,
			// Pinned windows: lifecycle times are absolute, so the spec
			// carries its own warmup/measure instead of inheriting the
			// fidelity-scaled defaults.
			Warmup:  40 * sim.Microsecond,
			Measure: 160 * sim.Microsecond,
			Tenants: []Tenant{
				{
					Name: "base", Ports: 2,
					Inject: Injection{Outstanding: 32},
					QoS:    QoS{Class: "base", TargetNs: 4000},
				},
				{
					Name: "spike", Ports: 2,
					Inject: Injection{Mode: "open", RateMRPS: 8},
					Start:  60 * sim.Microsecond, Stop: 140 * sim.Microsecond,
					QoS: QoS{Class: "spike", TargetNs: 2500},
				},
				{
					Name: "late", Ports: 2,
					Access: Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9},
					Inject: Injection{Mode: "open", RateMRPS: 4},
					Start:  120 * sim.Microsecond,
					QoS:    QoS{Class: "late", TargetNs: 2500},
				},
			},
		},
	}
}

// Library returns every named scenario: the builtin set, the
// cross-backend comparison set, the sharded-system set, and the
// production traffic-model set.
func Library() []Spec {
	out := append(Builtin(), CrossBackend()...)
	out = append(out, Sharded()...)
	return append(out, Traffic()...)
}

// WithBackend re-targets a spec onto another backend (the CLI's
// -backend flag), adjusting the topology so the combination
// validates: hmc and ddr4 run the single topology, chain defaults to
// a 4-cube chain. Tenant fields a backend cannot honor (footprint
// patterns off hmc) still fail Validate — re-targeting never silently
// drops part of a workload.
func WithBackend(s Spec, backend string) Spec {
	s.Backend = backend
	switch backend {
	case "chain":
		if s.Topology == "" || s.Topology == "single" {
			s.Topology = "chain"
		}
	case "hmc", "ddr4":
		s.Topology = "single"
	}
	s.Name += "@" + backend
	return s
}

// ByName finds a named scenario in the library.
func ByName(name string) (Spec, error) {
	for _, s := range Library() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q", name)
}
