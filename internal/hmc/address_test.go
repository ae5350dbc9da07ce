package hmc

import (
	"testing"
	"testing/quick"
)

func defaultMap(t *testing.T) *AddressMap {
	t.Helper()
	m, err := NewAddressMap(Geometries(HMC11), Block128)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFigure3FieldPositions pins the bit layout of Figure 3 for all
// three max block sizes: (a) 128 B: vault 7-10, bank 11-14, row 15+;
// (b) 64 B: vault 6-9, bank 10-13; (c) 32 B: vault 5-8, bank 9-12.
func TestFigure3FieldPositions(t *testing.T) {
	g := Geometries(HMC11)
	cases := []struct {
		block    MaxBlockSize
		vaultLow int // lowest bit of the vault-in-quadrant field
		bankLow  int
	}{
		{Block128, 7, 11},
		{Block64, 6, 10},
		{Block32, 5, 9},
		{Block16, 4, 8},
	}
	for _, c := range cases {
		m, err := NewAddressMap(g, c.block)
		if err != nil {
			t.Fatal(err)
		}
		// Setting only the lowest vault bit must select vault 1
		// (vault-in-quadrant 1, quadrant 0).
		loc := m.Decode(1 << uint(c.vaultLow))
		if loc.Vault != 1 || loc.Quadrant != 0 {
			t.Errorf("block %d: bit %d -> vault %d quadrant %d, want vault 1 quadrant 0",
				c.block, c.vaultLow, loc.Vault, loc.Quadrant)
		}
		// Two bits above the vault-in-quadrant field is the quadrant.
		loc = m.Decode(1 << uint(c.vaultLow+2))
		if loc.Quadrant != 1 || loc.Vault != g.VaultsPerQuadrant() {
			t.Errorf("block %d: bit %d -> quadrant %d vault %d, want quadrant 1 vault %d",
				c.block, c.vaultLow+2, loc.Quadrant, loc.Vault, g.VaultsPerQuadrant())
		}
		// The bank field.
		loc = m.Decode(1 << uint(c.bankLow))
		if loc.Bank != 1 || loc.Vault != 0 {
			t.Errorf("block %d: bit %d -> bank %d vault %d, want bank 1 vault 0",
				c.block, c.bankLow, loc.Bank, loc.Vault)
		}
	}
}

// TestSequentialBlocksStripeVaults verifies the low-order-interleaving
// claim: consecutive 128 B blocks land on consecutive vaults (striding
// through all 16) before reusing a vault with the next bank.
func TestSequentialBlocksStripeVaults(t *testing.T) {
	m := defaultMap(t)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		loc := m.Decode(uint64(i) * 128)
		if seen[loc.Vault] {
			t.Fatalf("block %d revisits vault %d before covering all 16", i, loc.Vault)
		}
		seen[loc.Vault] = true
		if loc.Bank != 0 {
			t.Fatalf("block %d in bank %d, want 0 while striping vaults", i, loc.Bank)
		}
	}
	// Block 16 wraps to vault 0, bank 1.
	loc := m.Decode(16 * 128)
	if loc.Vault != 0 || loc.Bank != 1 {
		t.Fatalf("block 16 -> vault %d bank %d, want vault 0 bank 1", loc.Vault, loc.Bank)
	}
}

// TestMask7to14ForcesBank0Vault0 reproduces the paper's observation
// that masking bits 7-14 to zero restricts every access to bank 0 of
// vault 0 in quadrant 0 (Figure 6 discussion).
func TestMask7to14ForcesBank0Vault0(t *testing.T) {
	m := defaultMap(t)
	mask := BitRangeMask(7, 14)
	rng := []uint64{0, 0xdeadbeef, 0xffffffff, 1 << 31, 0x12345678}
	for _, a := range rng {
		loc := m.Decode(ApplyMask(a, mask, 0))
		if loc.Vault != 0 || loc.Bank != 0 || loc.Quadrant != 0 {
			t.Fatalf("masked %#x -> %+v, want vault0/bank0/quadrant0", a, loc)
		}
	}
}

// TestMaskVaultCoverage verifies the vault coverage of each Figure 6
// mask position: 3-10 -> 1 vault, 2-9 -> 2 vaults, 1-8 -> 4 vaults,
// 0-7 -> 8 vaults.
func TestMaskVaultCoverage(t *testing.T) {
	m := defaultMap(t)
	cases := []struct {
		lo, hi int
		vaults int
		banks  int // distinct (vault,bank) pairs
	}{
		{24, 31, 16, 256},
		{10, 17, 8, 8}, // quadrant high bit + all bank bits forced
		{7, 14, 1, 1},
		{3, 10, 1, 16},
		{2, 9, 2, 32},
		{1, 8, 4, 64},
		{0, 7, 8, 128},
	}
	for _, c := range cases {
		mask := BitRangeMask(c.lo, c.hi)
		vaults := map[int]bool{}
		banks := map[[2]int]bool{}
		// Exhaustively scan the mapping-relevant low bits.
		for a := uint64(0); a < 1<<20; a += 16 {
			loc := m.Decode(ApplyMask(a, mask, 0))
			vaults[loc.Vault] = true
			banks[[2]int{loc.Vault, loc.Bank}] = true
		}
		if len(vaults) != c.vaults {
			t.Errorf("mask %d-%d: %d vaults, want %d", c.lo, c.hi, len(vaults), c.vaults)
		}
		if len(banks) != c.banks {
			t.Errorf("mask %d-%d: %d banks, want %d", c.lo, c.hi, len(banks), c.banks)
		}
	}
}

// TestPageCoverage reproduces Section II-C: with 128 B max blocks a
// 4 KB OS page occupies 2 banks in each of all 16 vaults, and
// shrinking the block size raises bank-level parallelism (footnote 6).
func TestPageCoverage(t *testing.T) {
	g := Geometries(HMC11)
	cases := []struct {
		block  MaxBlockSize
		vaults int
		banks  int
	}{
		{Block128, 16, 2},
		{Block64, 16, 4},
		{Block32, 16, 8},
		{Block16, 16, 16},
	}
	for _, c := range cases {
		m, err := NewAddressMap(g, c.block)
		if err != nil {
			t.Fatal(err)
		}
		v, b := m.PageCoverage()
		if v != c.vaults || b != c.banks {
			t.Errorf("block %d: page covers %d vaults x %d banks, want %dx%d",
				c.block, v, b, c.vaults, c.banks)
		}
	}
}

// TestEncodeDecodeRoundTrip is the property test that Encode is a
// right inverse of Decode over the whole structural space.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := defaultMap(t)
	g := m.Geometry()
	f := func(vault, bank uint8, row uint32) bool {
		v := int(vault) % g.Vaults
		b := int(bank) % g.BanksPerVault
		// Rows per bank: bank bytes / page bytes.
		r := uint64(row) % (g.BankBytes() / uint64(g.PageBytes))
		loc := m.Decode(m.Encode(v, b, r))
		return loc.Vault == v && loc.Bank == b && loc.Row == r && loc.BlockOffset == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeTotalCoverage: decoding any address yields in-range fields.
func TestDecodeTotalCoverage(t *testing.T) {
	m := defaultMap(t)
	g := m.Geometry()
	f := func(addr uint64) bool {
		loc := m.Decode(addr)
		return loc.Vault >= 0 && loc.Vault < g.Vaults &&
			loc.Bank >= 0 && loc.Bank < g.BanksPerVault &&
			loc.Quadrant >= 0 && loc.Quadrant < g.Quadrants &&
			loc.Vault/g.VaultsPerQuadrant() == loc.Quadrant &&
			m.GlobalBank(addr) == loc.Vault*g.BanksPerVault+loc.Bank &&
			loc.Row < g.BankBytes()/uint64(g.PageBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformAddressesBalanceVaults: random addresses spread evenly
// across vaults and banks (the premise of the GUPS random workloads).
func TestUniformAddressesBalanceVaults(t *testing.T) {
	m := defaultMap(t)
	counts := make([]int, m.Geometry().Vaults)
	const n = 160000
	// A simple LCG as the address stream.
	a := uint64(12345)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		counts[m.Decode(a).Vault]++
	}
	want := n / len(counts)
	for v, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("vault %d count %d deviates >10%% from %d", v, c, want)
		}
	}
}

func TestModeRegisterValues(t *testing.T) {
	// The paper's footnote 5: default mapping is mode 0x2 = 128 B.
	v, err := DefaultMaxBlock.ModeRegisterValue()
	if err != nil || v != 0x2 {
		t.Fatalf("128 B mode register = %#x, %v; want 0x2", v, err)
	}
	if _, err := MaxBlockSize(99).ModeRegisterValue(); err == nil {
		t.Fatal("invalid block size accepted")
	}
	for _, m := range []MaxBlockSize{Block16, Block32, Block64, Block128} {
		if !m.Valid() {
			t.Errorf("%d not valid", m)
		}
		if _, err := m.ModeRegisterValue(); err != nil {
			t.Errorf("%d: %v", m, err)
		}
	}
	if MaxBlockSize(48).Valid() {
		t.Error("48 B accepted as block size")
	}
}

func TestBitRangeMask(t *testing.T) {
	if got := BitRangeMask(0, 7); got != 0xff {
		t.Errorf("BitRangeMask(0,7) = %#x", got)
	}
	if got := BitRangeMask(7, 14); got != 0x7f80 {
		t.Errorf("BitRangeMask(7,14) = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid range did not panic")
		}
	}()
	BitRangeMask(5, 3)
}

func TestApplyMaskAntiMask(t *testing.T) {
	// Anti-mask forces bits to one: restrict accesses to the upper
	// half of the address space.
	a := ApplyMask(0, 0, 1<<31)
	if a != 1<<31 {
		t.Fatalf("anti-mask failed: %#x", a)
	}
	a = ApplyMask(0xffff, BitRangeMask(0, 7), 0)
	if a != 0xff00 {
		t.Fatalf("mask failed: %#x", a)
	}
}

func TestNewAddressMapErrors(t *testing.T) {
	g := Geometries(HMC11)
	if _, err := NewAddressMap(g, MaxBlockSize(20)); err == nil {
		t.Error("invalid block size accepted")
	}
	bad := g
	bad.Vaults = 12
	bad.BanksPerVault = 256 * 4 / 12 // keep Banks() sane-ish; still invalid
	if _, err := NewAddressMap(bad, Block128); err == nil {
		t.Error("non-power-of-two vaults accepted")
	}
}

func TestHMC20AddressMap(t *testing.T) {
	// HMC 2.0 has 8 vaults per quadrant (3 vq bits): the mapping must
	// still be a bijection onto vault ids.
	m, err := NewAddressMap(Geometries(HMC20), Block128)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		loc := m.Decode(uint64(i) * 128)
		seen[loc.Vault] = true
	}
	if len(seen) != 32 {
		t.Fatalf("sequential blocks covered %d vaults, want 32", len(seen))
	}
}
