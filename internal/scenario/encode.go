package scenario

import (
	"encoding/binary"
	"math"
)

// EngineVersion stamps every simulation-result cache key (see
// internal/simcache). It names the behavior of the whole stack a Spec
// compiles onto — the event kernel, the backends, the drivers, the
// statistics pipeline and the report rendering. Bump it whenever a
// change anywhere in that stack can alter the bytes a run produces
// (new defaults, fixed models, changed report columns, regenerated
// goldens); cached results from older versions then miss instead of
// serving stale numbers. Pure wall-clock work (scheduling, worker
// counts, allocation) never requires a bump — results are
// worker-count-independent by construction. TestGoldenSum in
// internal/experiments fails when the goldens move under an unchanged
// version.
const EngineVersion = "hmcsim-engine-ddr4-scenario"

// encodeFormat versions the canonical byte layout itself, so a future
// field addition changes every key even for specs that leave the new
// field at its zero value (or a field removal, which would otherwise
// let an old layout alias a new one). Format 2 added the traffic-model
// fields (phases, burst, lifecycle, QoS) and the Options traffic
// overlay; format 3 dropped the spec's refresh flag with the refresh
// model.
const encodeFormat = 3

// CacheBytes returns the canonical binary encoding of the effective
// run inputs of Run(spec, o): the spec and options after exactly the
// normalization Run itself performs (defaults, the spec's
// Warmup/Measure overlay, the cooling name and the traffic overlay),
// plus the seed. Two (spec, options) pairs that Run would execute
// identically encode identically (explicit defaults and omitted fields
// collapse, and "-traffic X" on a spec shares a cell with the same
// spec with X spelled out), and every output-affecting input is
// captured, so equal bytes imply byte-identical results. An
// unparsable traffic overlay (Run would error) is encoded raw, so the
// key stays deterministic.
//
// Options.Shards is deliberately excluded: results are byte-identical
// at every shard worker count (see the determinism tests), so runs
// that differ only in execution parallelism share one cache cell.
// EngineVersion is not folded in here — the cache layer hashes it
// alongside these bytes, keeping the encoding reusable for other
// fingerprinting.
func CacheBytes(spec Spec, o Options) []byte {
	spec, o, _ = effective(spec, o)

	e := encoder{buf: make([]byte, 0, 256)}
	e.str("hmcsim-spec")
	e.u64(encodeFormat)

	e.str(spec.Name)
	e.str(spec.Description)
	e.str(spec.Backend)
	e.str(spec.Topology)
	e.i64(int64(spec.Cubes))
	e.i64(int64(spec.Channels))
	e.i64(int64(spec.Groups))
	e.i64(int64(len(spec.Tenants)))
	for _, t := range spec.Tenants {
		e.str(t.Name)
		e.i64(int64(t.Ports))
		e.str(t.Mix)
		e.f64(t.ReadFraction)
		e.i64(int64(t.Size))
		e.str(canonicalPattern(t.Pattern))
		e.str(t.Access.Kind)
		e.f64(t.Access.ZipfTheta)
		e.f64(t.Access.HotFraction)
		e.f64(t.Access.HotRate)
		e.u64(t.Access.StrideBytes)
		e.i64(int64(t.Access.JumpEvery))
		e.u64(t.Access.OffsetBytes)
		e.str(t.Inject.Mode)
		e.f64(t.Inject.RateMRPS)
		e.i64(int64(t.Inject.Outstanding))
		e.i64(int64(len(t.Inject.Phases)))
		for _, p := range t.Inject.Phases {
			e.f64(p.RateMRPS)
			e.i64(int64(p.Duration))
			e.bool(p.Ramp)
		}
		e.f64(t.Inject.BurstMRPS)
		e.f64(t.Inject.IdleMRPS)
		e.i64(int64(t.Inject.BurstDwell))
		e.i64(int64(t.Inject.IdleDwell))
		e.i64(int64(t.Home))
		e.f64(t.Remote)
		e.i64(int64(t.Start))
		e.i64(int64(t.Stop))
		e.str(t.QoS.Class)
		e.f64(t.QoS.TargetNs)
	}

	e.i64(int64(o.Warmup))
	e.i64(int64(o.Measure))
	e.u64(o.Seed)
	e.bool(o.Tail)
	e.bool(o.Thermal)
	e.str(o.Cooling)
	e.str(o.Faults.Plan)
	e.i64(int64(o.Faults.MaxRetries))
	e.i64(int64(o.Faults.Backoff))
	e.i64(int64(o.Faults.Deadline))
	// Zero except when the traffic overlay failed to parse.
	e.str(o.Traffic)
	e.f64(o.SLONs)
	return e.buf
}

// canonicalPattern collapses the two spellings of "whole device" so
// they share a cache cell, mirroring the equivalence the compiler
// applies.
func canonicalPattern(p string) string {
	if p == "full" {
		return ""
	}
	return p
}

// encoder emits a self-delimiting byte stream: every value is written
// with a fixed width or a length prefix, so no concatenation of
// neighboring fields is ambiguous and the encoding of a spec is a
// pure function of its (defaulted) field values.
type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
