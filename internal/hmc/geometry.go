// Package hmc models the Hybrid Memory Cube device itself: structural
// geometry (Table I of the paper), the packet protocol (Table II), the
// low-order-interleaved address mapping (Figure 3), and a
// cycle-approximate timing model of links, quadrants, vaults and
// banks sufficient to reproduce the paper's bandwidth and latency
// characterization experiments.
package hmc

import "fmt"

// Generation selects an HMC specification revision. The zero value is
// HMC11, the 4 GB part on the AC-510 board the paper measures and the
// mapping the Section IV-A address masks assume, so a configuration
// that leaves Generation unset builds the paper's cube and one that
// names HMC10 gets HMC10.
type Generation int

const (
	// HMC11 is the Gen2 device (HMC 1.1): 4 GB, 8 layers.
	HMC11 Generation = iota
	// HMC10 is the Gen1 device (HMC 1.0): 0.5 GB, 4 DRAM layers.
	HMC10
	// HMC20 is the HMC 2.0 specification (hardware never shipped).
	HMC20
)

// KnownGeneration reports whether gen names a published revision
// (Geometries panics on anything else; config layers validate with
// this first so a bad spec surfaces as an error, not a panic).
func KnownGeneration(gen Generation) bool { return gen >= HMC11 && gen <= HMC20 }

func (g Generation) String() string {
	switch g {
	case HMC10:
		return "HMC 1.0 (Gen1)"
	case HMC11:
		return "HMC 1.1 (Gen2)"
	case HMC20:
		return "HMC 2.0"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// Geometry captures the structural properties in Table I of the paper
// for one device configuration.
type Geometry struct {
	Gen Generation

	// SizeBytes is the total DRAM capacity.
	SizeBytes uint64
	// DRAMLayers is the number of stacked DRAM dies.
	DRAMLayers int
	// LayerBits is the capacity of one DRAM die in bits.
	LayerBits uint64
	// Quadrants is the number of quadrants (always 4).
	Quadrants int
	// Vaults is the number of vertical vaults.
	Vaults int
	// BanksPerVault is the number of independent DRAM banks per vault.
	BanksPerVault int
	// PageBytes is the DRAM row (page) size; 256 B in HMC, versus
	// 512-2048 B in DDR4.
	PageBytes int
	// BusGranularity is the width of the DRAM data bus within each
	// vault: 32 B. Requests starting/ending on a 16 B boundary use the
	// bus inefficiently (spec note reproduced in Section II-C).
	BusGranularity int
}

// VaultsPerQuadrant derives the vault count per quadrant.
func (g Geometry) VaultsPerQuadrant() int { return g.Vaults / g.Quadrants }

// Banks derives the total bank count (Equation 1 of the paper).
func (g Geometry) Banks() int { return g.Vaults * g.BanksPerVault }

// BankBytes derives the per-bank capacity.
func (g Geometry) BankBytes() uint64 { return g.SizeBytes / uint64(g.Banks()) }

// PartitionBytes derives the per-partition capacity; a partition holds
// two banks in every shipped generation.
func (g Geometry) PartitionBytes() uint64 { return 2 * g.BankBytes() }

// Validate cross-checks the internal consistency of the geometry.
func (g Geometry) Validate() error {
	if g.Quadrants <= 0 || g.Vaults <= 0 || g.BanksPerVault <= 0 {
		return fmt.Errorf("hmc: non-positive structural counts in %+v", g)
	}
	if g.Vaults%g.Quadrants != 0 {
		return fmt.Errorf("hmc: %d vaults not divisible across %d quadrants", g.Vaults, g.Quadrants)
	}
	if g.SizeBytes == 0 || g.SizeBytes%uint64(g.Banks()) != 0 {
		return fmt.Errorf("hmc: capacity %d not divisible across %d banks", g.SizeBytes, g.Banks())
	}
	layerBytes := g.LayerBits / 8
	if layerBytes*uint64(g.DRAMLayers) != g.SizeBytes {
		return fmt.Errorf("hmc: %d layers x %d bits != %d bytes", g.DRAMLayers, g.LayerBits, g.SizeBytes)
	}
	if g.PageBytes <= 0 || g.BusGranularity <= 0 {
		return fmt.Errorf("hmc: non-positive page/bus size")
	}
	return nil
}

const (
	gib = 1 << 30
	mib = 1 << 20
)

// Geometries returns the Table I configuration for a generation. The
// HMC 1.1 and 2.0 rows use the larger of the two published capacities
// (4 GB and 8 GB respectively); the paper's board carries the 4 GB
// HMC 1.1 part.
func Geometries(gen Generation) Geometry {
	switch gen {
	case HMC10:
		return Geometry{
			Gen: HMC10, SizeBytes: 512 * mib, DRAMLayers: 4, LayerBits: 1 * gib,
			Quadrants: 4, Vaults: 16, BanksPerVault: 8,
			PageBytes: 256, BusGranularity: 32,
		}
	case HMC11:
		return Geometry{
			Gen: HMC11, SizeBytes: 4 * gib, DRAMLayers: 8, LayerBits: 4 * gib,
			Quadrants: 4, Vaults: 16, BanksPerVault: 16,
			PageBytes: 256, BusGranularity: 32,
		}
	case HMC20:
		return Geometry{
			Gen: HMC20, SizeBytes: 8 * gib, DRAMLayers: 8, LayerBits: 8 * gib,
			Quadrants: 4, Vaults: 32, BanksPerVault: 16,
			PageBytes: 256, BusGranularity: 32,
		}
	default:
		panic(fmt.Sprintf("hmc: unknown generation %d", gen))
	}
}
