package hmc

import (
	"math/bits"
	"testing"
)

// referenceDecode is the division-based decoder that the shift-and-mask
// Decode replaced, kept verbatim as the fuzz oracle; only the field
// widths, which used to live on AddressMap, are recomputed here from
// the geometry and block size.
func referenceDecode(g Geometry, maxBlock MaxBlockSize, addr uint64) Location {
	offsetBits := bits.TrailingZeros(uint(int(maxBlock) / elementBytes))
	vqBits := bits.TrailingZeros(uint(g.VaultsPerQuadrant()))
	qBits := bits.TrailingZeros(uint(g.Quadrants))
	bankBits := bits.TrailingZeros(uint(g.BanksPerVault))
	vqShift := uint(4 + offsetBits)
	qShift := vqShift + uint(vqBits)
	bankShift := qShift + uint(qBits)
	rowShift := bankShift + uint(bankBits)
	addrMask := (uint64(1) << bits.TrailingZeros64(g.SizeBytes)) - 1

	a := addr & addrMask
	field := func(shift uint, width int) uint64 {
		return (a >> shift) & ((1 << uint(width)) - 1)
	}
	loc := Location{
		Quadrant:    int(field(qShift, qBits)),
		Bank:        int(field(bankShift, bankBits)),
		BlockOffset: (a >> 4 & ((1 << uint(offsetBits)) - 1)) * elementBytes,
	}
	loc.Vault = loc.Quadrant*g.VaultsPerQuadrant() + int(field(vqShift, vqBits))
	// A 256 B row spans several max blocks in the same bank; the row
	// index therefore divides out the blocks-per-row factor.
	blocksPerRow := uint64(g.PageBytes) / uint64(maxBlock)
	if blocksPerRow == 0 {
		blocksPerRow = 1
	}
	loc.Row = (a >> rowShift) / blocksPerRow
	return loc
}

// FuzzAddressRoundTrip checks the mask/mapping round-trip invariants
// of the address map for every geometry and max-block mode: Decode
// must equal the division-based reference decoder and stay in
// structural range, GlobalBank must agree with Decode,
// Encode(Decode(a)) must decode back to the same (vault, bank, row),
// and the capacity mask must bound everything. A 384 B-page HMC 1.1
// variant (3 to 24 blocks per row) exercises Decode's division
// fallback for a blocks-per-row factor that is not a power of two.
func FuzzAddressRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x1234_5678))
	f.Add(uint64(1)<<33 | 0x7f)
	f.Add(^uint64(0))
	f.Add(uint64(0x0000_0003_ffff_fff0))

	type cfg struct {
		m *AddressMap
	}
	var maps []cfg
	oddPage := Geometries(HMC11)
	oddPage.PageBytes = 384
	geos := []Geometry{Geometries(HMC10), Geometries(HMC11), Geometries(HMC20), oddPage}
	for _, g := range geos {
		for _, mb := range []MaxBlockSize{Block16, Block32, Block64, Block128} {
			maps = append(maps, cfg{MustAddressMap(g, mb)})
		}
	}

	f.Fuzz(func(t *testing.T, addr uint64) {
		for _, c := range maps {
			m := c.m
			g := m.Geometry()
			loc := m.Decode(addr)
			if want := referenceDecode(g, m.maxBlock, addr); loc != want {
				t.Fatalf("%v/%d/%dB page: Decode(%#x) = %+v, reference %+v", g.Gen, m.maxBlock, g.PageBytes, addr, loc, want)
			}
			if gb, want := m.GlobalBank(addr), loc.Vault*g.BanksPerVault+loc.Bank; gb != want {
				t.Fatalf("%v/%d: GlobalBank(%#x) = %d, Decode gives %d", g.Gen, m.maxBlock, addr, gb, want)
			}
			if loc.Vault < 0 || loc.Vault >= g.Vaults {
				t.Fatalf("%v/%d: vault %d out of range for %#x", g.Gen, m.maxBlock, loc.Vault, addr)
			}
			if loc.Bank < 0 || loc.Bank >= g.BanksPerVault {
				t.Fatalf("%v/%d: bank %d out of range for %#x", g.Gen, m.maxBlock, loc.Bank, addr)
			}
			if loc.Quadrant != loc.Vault/g.VaultsPerQuadrant() {
				t.Fatalf("%v/%d: quadrant %d inconsistent with vault %d", g.Gen, m.maxBlock, loc.Quadrant, loc.Vault)
			}
			if loc.BlockOffset >= uint64(m.maxBlock) {
				t.Fatalf("%v/%d: block offset %d >= max block", g.Gen, m.maxBlock, loc.BlockOffset)
			}
			if gb := m.GlobalBank(addr); gb < 0 || gb >= g.Vaults*g.BanksPerVault {
				t.Fatalf("%v/%d: global bank %d out of range", g.Gen, m.maxBlock, gb)
			}

			enc := m.Encode(loc.Vault, loc.Bank, loc.Row)
			if enc > m.CapacityMask() {
				t.Fatalf("%v/%d: encoded %#x beyond capacity mask %#x", g.Gen, m.maxBlock, enc, m.CapacityMask())
			}
			back := m.Decode(enc)
			if back.Vault != loc.Vault || back.Bank != loc.Bank || back.Row != loc.Row {
				t.Fatalf("%v/%d: round trip %#x -> (v%d b%d r%d) -> %#x -> (v%d b%d r%d)",
					g.Gen, m.maxBlock, addr, loc.Vault, loc.Bank, loc.Row,
					enc, back.Vault, back.Bank, back.Row)
			}
			if back.BlockOffset != 0 {
				t.Fatalf("%v/%d: encode produced nonzero block offset %d", g.Gen, m.maxBlock, back.BlockOffset)
			}
		}
	})
}

// FuzzApplyMask checks the GUPS mask/anti-mask register semantics:
// bits in the zero mask (and not re-set by the anti-mask) are forced
// to zero, anti-mask bits are forced to one, and unconstrained bits
// pass through untouched.
func FuzzApplyMask(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0x7f80), uint64(1)<<20)
	f.Add(uint64(0x1234_5678_9abc_def0), ^uint64(0), uint64(0xff))

	f.Fuzz(func(t *testing.T, addr, zero, one uint64) {
		got := ApplyMask(addr, zero, one)
		if got&(zero&^one) != 0 {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x keeps zero-masked bits", addr, zero, one, got)
		}
		if got&one != one {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x drops anti-mask bits", addr, zero, one, got)
		}
		free := ^(zero | one)
		if got&free != addr&free {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x disturbs unconstrained bits", addr, zero, one, got)
		}
	})
}
