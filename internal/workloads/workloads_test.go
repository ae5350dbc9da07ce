package workloads

import (
	"testing"

	"hmcsim/internal/hmc"
)

func amap(t *testing.T) *hmc.AddressMap {
	t.Helper()
	m, err := hmc.NewAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// footprint is the vault count and banks per vault that each
// standard pattern's name promises.
var footprint = map[string]struct{ vaults, banks int }{
	"16 vaults": {16, 16}, "8 vaults": {8, 16}, "4 vaults": {4, 16}, "2 vaults": {2, 16}, "1 vault": {1, 16},
	"8 banks": {1, 8}, "4 banks": {1, 4}, "2 banks": {1, 2}, "1 bank": {1, 1},
}

// TestStandardPatternCoverage: every named pattern reaches exactly
// the vault/bank set its name promises.
func TestStandardPatternCoverage(t *testing.T) {
	m := amap(t)
	for _, p := range Standard() {
		want, ok := footprint[p.Name]
		if !ok {
			t.Fatalf("no footprint for pattern %q", p.Name)
		}
		v, b := Coverage(m, p.ZeroMask)
		if v != want.vaults || b != want.banks {
			t.Errorf("%s: coverage %d vaults x %d banks, want %dx%d",
				p.Name, v, b, want.vaults, want.banks)
		}
	}
}

func TestStandardOrder(t *testing.T) {
	ps := Standard()
	if len(ps) != 9 {
		t.Fatalf("%d patterns, want 9", len(ps))
	}
	if ps[0].Name != "16 vaults" || ps[8].Name != "1 bank" {
		t.Fatalf("pattern order wrong: %v ... %v", ps[0], ps[8])
	}
	// Total bank coverage strictly decreases along the axis.
	total := func(p Pattern) int { return footprint[p.Name].vaults * footprint[p.Name].banks }
	for i := 1; i < len(ps); i++ {
		if total(ps[i]) >= total(ps[i-1]) {
			t.Fatalf("coverage not decreasing at %s", ps[i].Name)
		}
	}
}

// TestVaultPatternsSpanQuadrants: multi-vault patterns spread across
// quadrants for link-level parallelism, like the paper's masks.
func TestVaultPatternsSpanQuadrants(t *testing.T) {
	m := amap(t)
	g := m.Geometry()
	quadrantsTouched := func(zero uint64) int {
		seen := map[int]bool{}
		for a := uint64(0); a < 1<<16; a += 16 {
			seen[m.Decode(hmc.ApplyMask(a, zero, 0)).Quadrant] = true
		}
		return len(seen)
	}
	if q := quadrantsTouched(VaultPattern(2).ZeroMask); q != 2 {
		t.Errorf("2 vaults touch %d quadrants, want 2", q)
	}
	if q := quadrantsTouched(VaultPattern(4).ZeroMask); q != g.Quadrants {
		t.Errorf("4 vaults touch %d quadrants, want %d", q, g.Quadrants)
	}
	if q := quadrantsTouched(VaultPattern(8).ZeroMask); q != g.Quadrants {
		t.Errorf("8 vaults touch %d quadrants, want %d", q, g.Quadrants)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("4 banks")
	if err != nil || p != BankPattern(4) {
		t.Fatalf("ByName(4 banks) = %+v, %v", p, err)
	}
	if _, err := ByName("3 banks"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestFigure6Masks(t *testing.T) {
	m := amap(t)
	masks := Figure6Masks()
	if len(masks) != 7 {
		t.Fatalf("%d mask positions, want 7", len(masks))
	}
	// The paper's annotations: 7-14 -> 1 bank; 3-10 -> 1 vault;
	// 2-9 -> 2 vaults; 0-7 -> 8 vaults.
	expect := map[string][2]int{
		"24-31": {16, 16},
		"7-14":  {1, 1},
		"3-10":  {1, 16},
		"2-9":   {2, 16},
		"1-8":   {4, 16},
		"0-7":   {8, 16},
	}
	for _, mp := range masks {
		want, ok := expect[mp.Name]
		if !ok {
			continue
		}
		v, b := Coverage(m, mp.ZeroMask)
		if v != want[0] || b != want[1] {
			t.Errorf("mask %s: %d vaults x %d banks, want %dx%d", mp.Name, v, b, want[0], want[1])
		}
	}
}

func TestPatternPanicsOnUnsupported(t *testing.T) {
	for _, f := range []func(){
		func() { VaultPattern(3) },
		func() { BankPattern(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unsupported count did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPatternString(t *testing.T) {
	if VaultPattern(1).String() != "1 vault" || BankPattern(1).String() != "1 bank" {
		t.Fatal("singular names wrong")
	}
}
