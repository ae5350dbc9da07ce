package hmc

import (
	"fmt"
	"math/bits"
)

// MaxBlockSize is the value of the Address Mapping Mode Register: the
// maximum block size used for low-order interleaving (Figure 3). The
// default on the paper's hardware is 128 B (mode register 0x2).
type MaxBlockSize int

// Valid maximum block sizes (Section II-C, footnote 5).
const (
	Block16  MaxBlockSize = 16
	Block32  MaxBlockSize = 32
	Block64  MaxBlockSize = 64
	Block128 MaxBlockSize = 128
)

// DefaultMaxBlock is the device default studied throughout the paper.
const DefaultMaxBlock = Block128

// ModeRegisterValue returns the Address Mapping Mode Register encoding
// for the block size. Only the 128 B <-> 0x2 pair is attested in the
// paper (footnote 5); the remaining encodings follow the same ordering.
func (m MaxBlockSize) ModeRegisterValue() (uint8, error) {
	switch m {
	case Block16:
		return 0x0, nil
	case Block32:
		return 0x1, nil
	case Block128:
		return 0x2, nil
	case Block64:
		return 0x3, nil
	default:
		return 0, fmt.Errorf("hmc: invalid max block size %d", int(m))
	}
}

// Valid reports whether m is one of the four architected sizes.
func (m MaxBlockSize) Valid() bool {
	switch m {
	case Block16, Block32, Block64, Block128:
		return true
	}
	return false
}

// elementBytes is the flit-aligned element size: the low-order 4
// address bits are always ignored (16 B granularity).
const elementBytes = 16

// AddressBits is the width of the request-header address field; the
// two high-order bits are ignored on 4 GB hardware.
const AddressBits = 34

// Location is the structural decode of a physical address.
type Location struct {
	Quadrant    int    // 0..Quadrants-1
	Vault       int    // global vault id = Quadrant*VaultsPerQuadrant + vault-in-quadrant
	Bank        int    // bank within the vault
	Row         uint64 // DRAM row within the bank (256 B page)
	BlockOffset uint64 // byte offset of the 16 B element inside the max block
}

// AddressMap implements the low-order-interleaved mapping of Figure 3
// for a geometry and max block size. Field layout, low to high:
//
//	[0 .. 3]                 byte-in-element (ignored, 16 B)
//	[4 .. 4+o-1]             element-in-max-block, o = log2(maxBlock/16)
//	[.. +vq bits]            vault within quadrant
//	[.. +q bits]             quadrant
//	[.. +bank bits]          bank within vault
//	[remaining]              DRAM row
//
// so that sequential max blocks first stripe across the vaults of a
// quadrant, then across quadrants, then across banks.
type AddressMap struct {
	geo      Geometry
	maxBlock MaxBlockSize

	// Field shifts and masks, fixed at construction so that Decode and
	// GlobalBank are shifts and ANDs only. Vault-in-quadrant and
	// quadrant are adjacent fields, so together they read out as the
	// global vault id (vaultMask).
	vqShift   uint
	qShift    uint
	bankShift uint
	rowShift  uint
	bankBits  uint

	offMask   uint64
	qMask     uint64
	vaultMask uint64
	bankMask  uint64

	vaultsPerQuadrant int

	// blocksPerRow max blocks share one DRAM row, so Decode divides it
	// out of the row field: with a shift to rowDivShift when it is a
	// power of two (every architected geometry), by division otherwise.
	blocksPerRow uint64
	rowDivShift  uint
	rowDivPow2   bool

	addrMask uint64 // significant low-order address bits
}

// NewAddressMap builds the mapping; it fails on a non-power-of-two
// geometry or an invalid block size.
func NewAddressMap(g Geometry, maxBlock MaxBlockSize) (*AddressMap, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !maxBlock.Valid() {
		return nil, fmt.Errorf("hmc: invalid max block size %d", int(maxBlock))
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(g.Vaults) || !pow2(g.Quadrants) || !pow2(g.BanksPerVault) {
		return nil, fmt.Errorf("hmc: geometry not power-of-two: %+v", g)
	}
	m := &AddressMap{geo: g, maxBlock: maxBlock, vaultsPerQuadrant: g.VaultsPerQuadrant()}
	offsetBits := uint(bits.TrailingZeros(uint(int(maxBlock) / elementBytes)))
	vqBits := uint(bits.TrailingZeros(uint(m.vaultsPerQuadrant)))
	qBits := uint(bits.TrailingZeros(uint(g.Quadrants)))
	m.bankBits = uint(bits.TrailingZeros(uint(g.BanksPerVault)))

	m.vqShift = 4 + offsetBits
	m.qShift = m.vqShift + vqBits
	m.bankShift = m.qShift + qBits
	m.rowShift = m.bankShift + m.bankBits

	mask := func(width uint) uint64 { return (uint64(1) << width) - 1 }
	m.offMask = mask(offsetBits)
	m.qMask = mask(qBits)
	m.vaultMask = mask(vqBits + qBits)
	m.bankMask = mask(m.bankBits)

	m.blocksPerRow = uint64(g.PageBytes) / uint64(maxBlock)
	if m.blocksPerRow == 0 {
		m.blocksPerRow = 1
	}
	if m.blocksPerRow&(m.blocksPerRow-1) == 0 {
		m.rowDivPow2 = true
		m.rowDivShift = m.rowShift + uint(bits.TrailingZeros64(m.blocksPerRow))
	}

	capBits := bits.TrailingZeros64(g.SizeBytes)
	m.addrMask = mask(uint(capBits))
	return m, nil
}

// MustAddressMap is NewAddressMap for known-good inputs; it panics on
// error and is intended for package-internal defaults and tests.
func MustAddressMap(g Geometry, maxBlock MaxBlockSize) *AddressMap {
	m, err := NewAddressMap(g, maxBlock)
	if err != nil {
		panic(err)
	}
	return m
}

// Geometry returns the geometry the map was built for.
func (m *AddressMap) Geometry() Geometry { return m.geo }

// CapacityMask returns the significant address bits (addresses are
// taken modulo device capacity, discarding the ignored high bits of
// the 34-bit field).
func (m *AddressMap) CapacityMask() uint64 { return m.addrMask }

// Decode maps a physical address to its structural location.
func (m *AddressMap) Decode(addr uint64) Location {
	a := addr & m.addrMask
	loc := Location{
		Quadrant:    int((a >> m.qShift) & m.qMask),
		Vault:       int((a >> m.vqShift) & m.vaultMask),
		Bank:        int((a >> m.bankShift) & m.bankMask),
		BlockOffset: ((a >> 4) & m.offMask) * elementBytes,
	}
	// A 256 B row spans several max blocks in the same bank; the row
	// index therefore divides out the blocks-per-row factor.
	if m.rowDivPow2 {
		loc.Row = a >> m.rowDivShift
	} else {
		loc.Row = (a >> m.rowShift) / m.blocksPerRow
	}
	return loc
}

// GlobalBank returns a dense bank index across the whole device,
// Vault*BanksPerVault + Bank of Decode(addr), without building the
// Location: the per-bank admission index the controller consults on
// every request.
func (m *AddressMap) GlobalBank(addr uint64) int {
	a := addr & m.addrMask
	vault := (a >> m.vqShift) & m.vaultMask
	return int(vault<<m.bankBits | (a>>m.bankShift)&m.bankMask)
}

// Encode is the inverse of Decode: it builds the lowest address that
// decodes to the given vault, bank and row (block offset zero).
func (m *AddressMap) Encode(vault, bank int, row uint64) uint64 {
	q := vault / m.vaultsPerQuadrant
	vq := vault % m.vaultsPerQuadrant
	a := uint64(vq)<<m.vqShift |
		uint64(q)<<m.qShift |
		uint64(bank)<<m.bankShift |
		(row*m.blocksPerRow)<<m.rowShift
	return a & m.addrMask
}

// ApplyMask forces the given address bits to zero (mask) and one
// (antiMask), mirroring the GUPS address mask/anti-mask registers used
// in the Figure 6 experiments.
func ApplyMask(addr, zeroMask, oneMask uint64) uint64 {
	return (addr &^ zeroMask) | oneMask
}

// BitRangeMask builds a mask with bits [lo, hi] set, e.g. the paper's
// "bits 7-14 forced to zero" experiments use BitRangeMask(7, 14).
func BitRangeMask(lo, hi int) uint64 {
	if lo < 0 || hi < lo || hi > 63 {
		panic(fmt.Sprintf("hmc: invalid bit range [%d,%d]", lo, hi))
	}
	return ((uint64(1) << uint(hi-lo+1)) - 1) << uint(lo)
}

// PageCoverage reports how a 4 KB OS page spreads over the device:
// the number of distinct vaults touched and banks touched per vault.
// With the default 128 B max block a page covers all 16 vaults and 2
// banks in each (Section II-C); shrinking the max block raises
// bank-level parallelism.
func (m *AddressMap) PageCoverage() (vaults, banksPerVault int) {
	const osPage = 4096
	blocks := osPage / int(m.maxBlock)
	seenVault := make(map[int]bool)
	seenBank := make(map[[2]int]bool)
	for i := 0; i < blocks; i++ {
		loc := m.Decode(uint64(i) * uint64(m.maxBlock))
		seenVault[loc.Vault] = true
		seenBank[[2]int{loc.Vault, loc.Bank}] = true
	}
	if len(seenVault) == 0 {
		return 0, 0
	}
	return len(seenVault), len(seenBank) / len(seenVault)
}
