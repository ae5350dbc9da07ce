package pim

import (
	"bytes"
	"testing"

	"hmcsim/internal/trace"
)

// accessList replays a fixed access stream.
type accessList []trace.Access

func (l *accessList) Next() (trace.Access, bool) {
	if len(*l) == 0 {
		return trace.Access{}, false
	}
	a := (*l)[0]
	*l = (*l)[1:]
	return a, true
}

// FuzzOffloadReplaysEveryAccess: the host and vault-local runs issue
// the same stream under the same discipline, so both replay every
// access of any mix of independent and dependent references. Each
// input byte is one 64 B access, dependent when its low bit is set.
func FuzzOffloadReplaysEveryAccess(f *testing.F) {
	// Three independent accesses then one dependent: the dependent one
	// arrives while the others are still in flight.
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1}, 64))
	f.Add([]byte{1, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, deps []byte) {
		if len(deps) > 256 {
			deps = deps[:256]
		}
		kernel := make(accessList, len(deps))
		for i, b := range deps {
			kernel[i] = trace.Access{Addr: uint64(i) * 128, Size: 64, Dependent: b&1 != 0}
		}
		c, err := Offload(Kernel{Name: "fuzz", Gen: func() trace.Generator {
			l := kernel
			return &l
		}})
		if err != nil {
			t.Fatal(err)
		}
		if n := uint64(len(kernel)); c.Host.Accesses != n || c.PIM.Accesses != n {
			t.Fatalf("replayed host=%d pim=%d of %d accesses", c.Host.Accesses, c.PIM.Accesses, n)
		}
	})
}
