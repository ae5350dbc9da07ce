package trace

import (
	"hmcsim/internal/sim"
	"testing"
	"testing/quick"
)

func TestStrideGen(t *testing.T) {
	g := &StrideGen{Stride: 128, Size: 128, Count: 5}
	want := uint64(0)
	n := 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Addr != want || a.Size != 128 || a.Write || a.Dependent {
			t.Fatalf("access %d = %+v, want addr %d", n, a, want)
		}
		want += 128
		n++
	}
	if n != 5 {
		t.Fatalf("emitted %d, want 5", n)
	}
}

func TestStrideGenUnbounded(t *testing.T) {
	g := &StrideGen{Stride: 64, Size: 64}
	for i := 0; i < 1000; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatal("unbounded generator ended")
		}
	}
}

func TestZipfGenSkew(t *testing.T) {
	const n = 1 << 16
	g, err := NewZipfGen(7, n, 0.9, 64, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		a, ok := g.Next()
		if !ok {
			t.Fatal("unbounded zipf ended")
		}
		counts[a.Addr]++
	}
	// Strong skew: the hottest block should carry far more than the
	// uniform share, and the footprint should be far below the draw
	// count.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < draws/100 {
		t.Fatalf("hottest block only %d of %d draws; not skewed", max, draws)
	}
	if len(counts) >= draws {
		t.Fatalf("footprint %d as large as draw count; not skewed", len(counts))
	}
}

func TestZipfGenValidation(t *testing.T) {
	if _, err := NewZipfGen(1, 0, 0.9, 64, 0, 0, false); err == nil {
		t.Error("zero-block zipf accepted")
	}
	if _, err := NewZipfGen(1, 10, 1.5, 64, 0, 0, false); err == nil {
		t.Error("theta > 1 accepted")
	}
}

// Property: zipf addresses stay within the configured region and
// alignment for any seed.
func TestZipfBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const n, size = 1024, 64
		g, err := NewZipfGen(seed, n, 0.7, size, 0, 100, false)
		if err != nil {
			return false
		}
		for {
			a, ok := g.Next()
			if !ok {
				return true
			}
			if a.Addr >= n*size || a.Addr%size != 0 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChaseGen(t *testing.T) {
	g := NewChaseGen(3, 64, 10, 1<<32-1)
	n := 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if !a.Dependent || a.Size != 64 || a.Addr%16 != 0 {
			t.Fatalf("bad chase access %+v", a)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("emitted %d, want 10", n)
	}
}

func TestZetaExtension(t *testing.T) {
	// zeta over a range larger than the exact cap must still be
	// finite, positive and increasing in n.
	small := sim.Zeta(1<<20, 0.9)
	large := sim.Zeta(1<<24, 0.9)
	if !(large > small && small > 0) {
		t.Fatalf("zeta not increasing: %v vs %v", small, large)
	}
}
