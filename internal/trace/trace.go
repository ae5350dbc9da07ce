// Package trace provides application-like access-stream generators
// and a replay engine. The paper synthesizes its workloads from
// "combinations of high-load, low-load, random, and linear access
// patterns, which are building blocks of real applications"
// (Section I); this package supplies those building blocks — strided
// streaming, Zipf-skewed hotspots, and dependent pointer chasing —
// and replays them with one windowed loop (ReplayOn) through any
// memory backend: the host controller + device stack (Replay), a
// cube's logic layer (package pim), or a chain of cubes.
package trace

import (
	"fmt"

	"hmcsim/internal/sim"
)

// Access is one memory reference of a trace.
type Access struct {
	Addr  uint64
	Size  int
	Write bool
	// Dependent marks an access that cannot issue until the previous
	// access's response has returned (a pointer dereference).
	Dependent bool
}

// Generator produces a finite or unbounded access stream.
type Generator interface {
	// Next returns the next access; ok is false when the stream ends.
	Next() (a Access, ok bool)
}

// StrideGen reads addresses from 0 with a fixed stride — the
// streaming building block. Count <= 0 makes it unbounded.
type StrideGen struct {
	Stride uint64
	Size   int
	Count  int

	emitted int
	cursor  uint64
}

// Next implements Generator.
func (g *StrideGen) Next() (Access, bool) {
	if g.Count > 0 && g.emitted >= g.Count {
		return Access{}, false
	}
	a := Access{Addr: g.cursor, Size: g.Size}
	g.cursor += g.Stride
	g.emitted++
	return a, true
}

// ZipfGen draws block indices from a Zipf distribution over N blocks
// — the skewed-hotspot building block (e.g. graph workloads where a
// few vertices dominate). Theta in (0,1) controls skew; 0 is uniform-
// ish, 0.99 is highly skewed.
type ZipfGen struct {
	rng   *sim.RNG
	zipf  *sim.Zipf
	n     uint64
	size  int
	base  uint64
	count int
	write bool

	emitted int
}

// NewZipfGen builds a Zipf generator over n blocks of the given size
// starting at base. count <= 0 makes it unbounded.
func NewZipfGen(seed uint64, n uint64, theta float64, size int, base uint64, count int, write bool) (*ZipfGen, error) {
	if n == 0 {
		return nil, fmt.Errorf("trace: zipf over zero blocks")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("trace: zipf theta %v outside (0,1)", theta)
	}
	return &ZipfGen{
		rng: sim.NewRNG(seed), zipf: sim.NewZipf(n, theta),
		n: n, size: size, base: base, count: count, write: write,
	}, nil
}

// Next implements Generator. Ranks scatter over the address space via
// a bit-mixing hash so that hot blocks do not cluster in one vault.
func (g *ZipfGen) Next() (Access, bool) {
	if g.count > 0 && g.emitted >= g.count {
		return Access{}, false
	}
	g.emitted++
	block := sim.Mix64(g.zipf.Rank(g.rng.Float64())-1) % g.n
	return Access{
		Addr:  g.base + block*uint64(g.size),
		Size:  g.size,
		Write: g.write,
	}, true
}

// ChaseGen emits dependent accesses — a pointer chase where each
// dereference must complete before the next can issue. Addresses
// follow a deterministic pseudo-random walk (as a linked list laid
// out by a allocator would).
type ChaseGen struct {
	rng   *sim.RNG
	size  int
	count int
	mask  uint64

	emitted int
}

// NewChaseGen builds a pointer-chase of count dereferences of the
// given node size within capMask bytes.
func NewChaseGen(seed uint64, size, count int, capMask uint64) *ChaseGen {
	return &ChaseGen{rng: sim.NewRNG(seed), size: size, count: count, mask: capMask}
}

// Next implements Generator.
func (g *ChaseGen) Next() (Access, bool) {
	if g.emitted >= g.count {
		return Access{}, false
	}
	g.emitted++
	addr := (g.rng.Uint64() & g.mask) &^ 15
	return Access{Addr: addr, Size: g.size, Dependent: true}, true
}
