package hmc

import "fmt"

// Storage is the functional (data-carrying) view of the DRAM stack,
// kept separate from the timing model: timing experiments never touch
// it, while the stream-GUPS data-integrity path (Section III-B) reads
// and writes through it. Rows are allocated sparsely on first write,
// so a 4 GB device costs memory proportional to its touched footprint.
type Storage struct {
	rowBytes uint64
	capacity uint64
	rows     map[uint64][]byte
}

// NewStorage builds a store for a device geometry, allocating rows of
// the DRAM page size lazily.
func NewStorage(g Geometry) *Storage {
	return &Storage{
		rowBytes: uint64(g.PageBytes),
		capacity: g.SizeBytes,
		rows:     make(map[uint64][]byte),
	}
}

func (s *Storage) check(addr uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("hmc: negative length %d", n)
	}
	if addr+uint64(n) > s.capacity || addr+uint64(n) < addr {
		return fmt.Errorf("hmc: access [%#x,+%d) exceeds capacity %#x", addr, n, s.capacity)
	}
	return nil
}

// Write stores data at addr, crossing row boundaries as needed.
func (s *Storage) Write(addr uint64, data []byte) error {
	if err := s.check(addr, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		row := addr / s.rowBytes
		off := addr % s.rowBytes
		buf, ok := s.rows[row]
		if !ok {
			buf = make([]byte, s.rowBytes)
			s.rows[row] = buf
		}
		n := copy(buf[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Read fetches n bytes from addr; untouched memory reads as zero
// (freshly initialized DRAM contents are undefined on real hardware,
// but deterministic zeros make integrity tests exact).
func (s *Storage) Read(addr uint64, n int) ([]byte, error) {
	if err := s.check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		row := addr / s.rowBytes
		off := addr % s.rowBytes
		var src []byte
		if buf, ok := s.rows[row]; ok {
			src = buf[off:]
		} else {
			src = make([]byte, s.rowBytes-off)
		}
		k := copy(dst, src)
		dst = dst[k:]
		addr += uint64(k)
	}
	return out, nil
}

// Clear drops all contents, modelling the data loss that accompanies
// a thermal shutdown (Section IV-C: "when failure occurs, stored data
// in DRAM is lost").
func (s *Storage) Clear() {
	s.rows = make(map[uint64][]byte)
}
