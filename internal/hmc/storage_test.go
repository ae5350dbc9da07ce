package hmc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestStorageReadWrite(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	data := []byte("hello, hybrid memory cube")
	if err := s.Write(1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestStorageZeroFill(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	got, err := s.Read(12345, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
}

func TestStorageRowCrossing(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	// Write spanning a 256 B row boundary.
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	addr := uint64(256 - 100)
	if err := s.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("row-crossing write corrupted data")
	}
	if len(s.rows) != 2 {
		t.Fatalf("touched rows = %d, want 2", len(s.rows))
	}
}

func TestStorageBounds(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	capBytes := s.capacity
	if err := s.Write(capBytes-4, make([]byte, 8)); err == nil {
		t.Error("write past capacity accepted")
	}
	if _, err := s.Read(capBytes, 1); err == nil {
		t.Error("read past capacity accepted")
	}
	if err := s.Write(capBytes-8, make([]byte, 8)); err != nil {
		t.Errorf("write at the top edge rejected: %v", err)
	}
	if _, err := s.Read(0, -1); err == nil {
		t.Error("negative length accepted")
	}
	// Overflow guard.
	if err := s.Write(^uint64(0)-2, make([]byte, 8)); err == nil {
		t.Error("overflowing address accepted")
	}
}

func TestStorageClear(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	s.Write(0, []byte{0xff})
	s.Clear()
	got, _ := s.Read(0, 1)
	if got[0] != 0 {
		t.Fatal("Clear did not erase data")
	}
	if len(s.rows) != 0 {
		t.Fatal("Clear left rows allocated")
	}
}

// Property: a write followed by a read of the same range returns the
// written bytes, at any alignment and length.
func TestStorageRoundTripProperty(t *testing.T) {
	s := NewStorage(Geometries(HMC11))
	f := func(addrSeed uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := uint64(addrSeed)
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got, err := s.Read(addr, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
