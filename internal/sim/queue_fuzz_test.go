package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzQueueOrder feeds random schedule/pop programs to the calendar
// queue and the reference heap and requires identical pop order. The
// program encoding is two bytes per op:
//
//	op[0] & 0x07: 0-3 push, 4-5 pop, 6 bounded pop (clock jump), 7 burst
//	op[0] & 0x0f == 0x0f: release (end the queue's lifetime, go on
//	              over its storage with the clock and seq at zero)
//	push delta:   op[1] << (op[0]>>4), exponential 0 .. 255<<15 ps
//
// The exponential delta range spans same-instant bursts through
// µs-scale far-future events, so the fuzzer can steer events across
// the wheel/overflow boundary and force re-keys.
func FuzzQueueOrder(f *testing.F) {
	// Seeds: same-timestamp FIFO churn, a ladder of rising deltas,
	// far-future overflow traffic with clock jumps, a mixed program
	// touching every other opcode, a release after far-future
	// overflow traffic, and a release after a 40-event slot burst
	// followed by a 20-event one, covering both sides of the sort
	// cutoff, and a closed population under the funnel regime.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 0, 7, 0, 4, 0, 4, 0})
	f.Add([]byte{
		0x00, 1, 0x10, 2, 0x20, 3, 0x30, 4, 0x40, 5,
		0x50, 6, 0x60, 7, 0x70, 8, 4, 0, 5, 0, 4, 0, 5, 0,
	})
	f.Add([]byte{
		0xf0, 255, 0xf1, 255, 0xf2, 255, 6, 200, 0x02, 10,
		4, 0, 6, 255, 0x03, 1, 4, 0, 4, 0,
	})
	f.Add([]byte{
		0x01, 7, 7, 0, 4, 0, 0x61, 40, 6, 90, 0x42, 17, 5, 0,
		0x93, 3, 7, 0, 6, 10, 4, 0, 5, 0,
	})
	f.Add(overflowReleaseSeed())
	f.Add(slotBurstSeed())
	f.Add(funnelSeed())

	f.Fuzz(func(t *testing.T, program []byte) {
		d := &diffDriver{t: t}
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], program[i+1]
			switch op & 0x07 {
			case 0, 1, 2, 3:
				d.push(Duration(arg) << (op >> 4))
			case 4, 5:
				d.pop()
			case 6:
				d.popLE(d.now + Duration(arg)<<(op>>4))
			case 7:
				if op&0x0f == 0x0f {
					d.release()
					break
				}
				for n := int(arg)%5 + 1; n > 0; n-- {
					d.push(Duration(n & 1))
				}
			}
		}
		d.drain()
	})
}

// overflowReleaseSeed pops through far-future overflow traffic to a
// clock of about 6.5 µs and releases the queue with events pending on
// the wheel and in the overflow heap. On the adopted storage it then
// pushes 150 events at 0-1 ps, which regrows and re-keys the ring
// before any pop, and one at 82 ns, 80 slots ahead. Had adoption kept
// the old clock, the re-key would anchor the cursor near that slot
// and pop the later event first.
func overflowReleaseSeed() []byte {
	p := []byte{
		0xf0, 255, 0xf1, 200, 0xe2, 100, 0x30, 7, 0x01, 3,
		4, 0, 4, 0, 4, 0, 4, 0, 0xf2, 30, 0x02, 9,
		0x0f, 0,
	}
	p = append(p, bytes.Repeat([]byte{7, 4}, 30)...)
	return append(p, 0x90, 160, 4, 0, 0x51, 9, 4, 0, 6, 40, 7, 3, 4, 0)
}

// slotBurstSeed jumps the clock to 1000 ps, pushes 40 events into the
// next 1024 ps slot in descending time order (pairs share a
// timestamp), pops one, releases the queue with the rest pending, and
// repeats with a 20-event burst on the adopted storage. The first
// burst takes slices.SortFunc, the second the inline insertion sort.
func slotBurstSeed() []byte {
	var p []byte
	burst := func(n int) {
		p = append(p, 0x26, 250) // refused bounded pop: clock to 1000
		for i := 0; i < n; i++ {
			p = append(p, 0x00, byte(255-i/2))
		}
		p = append(p, 4, 0)
	}
	burst(40)
	p = append(p, 0x0f, 0)
	burst(20)
	return p
}

// funnelSeed holds 48 events pending and replaces each popped one, for
// 400 pops, with a delta drawn like funnelDelta's and quantised to the
// encoding: 3-149 units of 2048 ps for the ns-scale mode, and the
// encoding's largest delta, 255<<15 ps (8.4 µs), for the µs-scale
// backlog. Its 448 pops span several tuning windows.
func funnelSeed() []byte {
	r := rand.New(rand.NewSource(9))
	var p []byte
	push := func() {
		if r.Intn(3) == 0 {
			p = append(p, 0xf0, 255)
		} else {
			p = append(p, 0xb0, byte(3+r.Intn(147)))
		}
	}
	for i := 0; i < 48; i++ {
		push()
	}
	for i := 0; i < 400; i++ {
		p = append(p, 4, 0)
		push()
	}
	return p
}
