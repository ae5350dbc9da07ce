// Package workloads names the access-pattern taxonomy the paper
// builds in Section IV-A and uses on every x-axis of Figures 7-16:
// targeted patterns confining random accesses to N banks within one
// vault or to all banks of N vaults, realized with the GUPS address
// mask registers against the default 128 B low-order-interleaved
// mapping.
package workloads

import (
	"fmt"

	"hmcsim/internal/hmc"
)

// Pattern is one named access pattern.
type Pattern struct {
	// Name is the figure label, e.g. "16 vaults" or "2 banks".
	Name string
	// ZeroMask is the GUPS address mask that realizes the pattern on
	// the default HMC 1.1 mapping (bits forced to zero).
	ZeroMask uint64
}

func (p Pattern) String() string { return p.Name }

// vaultFieldMasks returns the zero-mask bits that confine vault
// selection so exactly n vaults remain reachable, spreading the
// survivors over as many quadrants as possible (matching the paper's
// Figure 6 masks, e.g. 2 vaults = {vault 0, vault 8} in two
// quadrants). The default mapping has vault-in-quadrant at bits 7-8
// and quadrant at bits 9-10.
func vaultFieldMasks(n int) uint64 {
	switch n {
	case 16:
		return 0
	case 8:
		return hmc.BitRangeMask(7, 7)
	case 4:
		return hmc.BitRangeMask(7, 8)
	case 2:
		return hmc.BitRangeMask(7, 9)
	case 1:
		return hmc.BitRangeMask(7, 10)
	default:
		panic(fmt.Sprintf("workloads: unsupported vault count %d", n))
	}
}

// bankFieldMasks confines bank selection within a vault to n banks.
// The bank field occupies bits 11-14.
func bankFieldMasks(n int) uint64 {
	switch n {
	case 16:
		return 0
	case 8:
		return hmc.BitRangeMask(14, 14)
	case 4:
		return hmc.BitRangeMask(13, 14)
	case 2:
		return hmc.BitRangeMask(12, 14)
	case 1:
		return hmc.BitRangeMask(11, 14)
	default:
		panic(fmt.Sprintf("workloads: unsupported bank count %d", n))
	}
}

// VaultPattern targets all banks within n vaults (n in 1,2,4,8,16).
func VaultPattern(n int) Pattern {
	name := fmt.Sprintf("%d vaults", n)
	if n == 1 {
		name = "1 vault"
	}
	return Pattern{Name: name, ZeroMask: vaultFieldMasks(n)}
}

// BankPattern targets n banks within a single vault (n in 1,2,4,8).
func BankPattern(n int) Pattern {
	name := fmt.Sprintf("%d banks", n)
	if n == 1 {
		name = "1 bank"
	}
	return Pattern{Name: name, ZeroMask: vaultFieldMasks(1) | bankFieldMasks(n)}
}

// Standard returns the nine patterns of the paper's figures, ordered
// from most to least distributed: 16, 8, 4, 2 vaults, 1 vault,
// 8, 4, 2 banks, 1 bank.
func Standard() []Pattern {
	return []Pattern{
		VaultPattern(16),
		VaultPattern(8),
		VaultPattern(4),
		VaultPattern(2),
		VaultPattern(1),
		BankPattern(8),
		BankPattern(4),
		BankPattern(2),
		BankPattern(1),
	}
}

// ByName finds a standard pattern by its figure label.
func ByName(name string) (Pattern, error) {
	for _, p := range Standard() {
		if p.Name == name {
			return p, nil
		}
	}
	return Pattern{}, fmt.Errorf("workloads: unknown pattern %q", name)
}

// Figure6Masks returns the seven mask positions of Figure 6, in the
// paper's x-axis order: an eight-bit zero mask at descending bit
// offsets, each a pattern named by its bit range ("24-31", ...).
func Figure6Masks() []Pattern {
	ranges := [][2]int{{24, 31}, {10, 17}, {7, 14}, {3, 10}, {2, 9}, {1, 8}, {0, 7}}
	out := make([]Pattern, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, Pattern{
			Name:     fmt.Sprintf("%d-%d", r[0], r[1]),
			ZeroMask: hmc.BitRangeMask(r[0], r[1]),
		})
	}
	return out
}

// Coverage computes how many vaults and banks-per-vault remain
// reachable under a zero mask, by exhaustive decode of the mapping
// bits (diagnostic used in tests and the addrmap example).
func Coverage(amap *hmc.AddressMap, zeroMask uint64) (vaults, banksPerVault int) {
	seenVault := map[int]bool{}
	seenBank := map[[2]int]bool{}
	for a := uint64(0); a < 1<<20; a += 16 {
		loc := amap.Decode(hmc.ApplyMask(a, zeroMask, 0))
		seenVault[loc.Vault] = true
		seenBank[[2]int{loc.Vault, loc.Bank}] = true
	}
	if len(seenVault) == 0 {
		return 0, 0
	}
	return len(seenVault), len(seenBank) / len(seenVault)
}
