package workloads

import (
	"sync"
	"testing"

	"hmcsim/internal/hmc"
)

// allowedSets enumerates, once, the vault/bank footprint each
// standard pattern's zero mask can reach on the default mapping.
var allowedSets = struct {
	once   sync.Once
	amap   *hmc.AddressMap
	vaults map[string]map[int]bool
	banks  map[string]map[[2]int]bool
}{}

func patternSets(t testing.TB) (*hmc.AddressMap, map[string]map[int]bool, map[string]map[[2]int]bool) {
	allowedSets.once.Do(func() {
		allowedSets.amap = hmc.MustAddressMap(hmc.Geometries(hmc.HMC11), hmc.DefaultMaxBlock)
		allowedSets.vaults = map[string]map[int]bool{}
		allowedSets.banks = map[string]map[[2]int]bool{}
		for _, p := range Standard() {
			vs := map[int]bool{}
			bs := map[[2]int]bool{}
			for a := uint64(0); a < 1<<20; a += 16 {
				loc := allowedSets.amap.Decode(hmc.ApplyMask(a, p.ZeroMask, 0))
				vs[loc.Vault] = true
				bs[[2]int{loc.Vault, loc.Bank}] = true
			}
			allowedSets.vaults[p.Name] = vs
			allowedSets.banks[p.Name] = bs
		}
	})
	return allowedSets.amap, allowedSets.vaults, allowedSets.banks
}

// FuzzPatternZeroMask checks the zero-mask construction of every
// standard access pattern against arbitrary addresses: a masked
// address must always decode into the pattern's advertised footprint
// (Vaults x Banks), never outside it.
func FuzzPatternZeroMask(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0xdead_beef_f00d))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 33)

	f.Fuzz(func(t *testing.T, addr uint64) {
		amap, vaults, banks := patternSets(t)
		for _, p := range Standard() {
			masked := hmc.ApplyMask(addr, p.ZeroMask, 0)
			if masked&p.ZeroMask != 0 {
				t.Fatalf("%s: masked address %#x keeps zeroed bits", p.Name, masked)
			}
			loc := amap.Decode(masked)
			if !vaults[p.Name][loc.Vault] {
				t.Fatalf("%s: address %#x escapes to vault %d (allowed %v)",
					p.Name, addr, loc.Vault, vaults[p.Name])
			}
			if !banks[p.Name][[2]int{loc.Vault, loc.Bank}] {
				t.Fatalf("%s: address %#x escapes to vault %d bank %d",
					p.Name, addr, loc.Vault, loc.Bank)
			}
			want := footprint[p.Name]
			if got := len(vaults[p.Name]); got != want.vaults {
				t.Fatalf("%s: reaches %d vaults, pattern advertises %d", p.Name, got, want.vaults)
			}
			if got := len(banks[p.Name]); got != want.vaults*want.banks {
				t.Fatalf("%s: reaches %d (vault,bank) pairs, pattern advertises %d",
					p.Name, got, want.vaults*want.banks)
			}
		}
	})
}
