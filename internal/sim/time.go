// Package sim provides a small deterministic discrete-event simulation
// kernel used by every timing model in hmcsim: an event engine with a
// picosecond clock, FIFO reservation servers for modelling serial
// resources (buses, SerDes lanes, DRAM banks), bounded queues, and a
// fast deterministic random number generator.
//
// Each Engine is deliberately single-threaded — one goroutine, one
// event loop, no locks on the hot path. Parallelism is layered on
// top: independent experiment cells run separate engines in separate
// goroutines (internal/runner), and one large system can be split
// across a Mesh of shard engines that exchange timestamped event
// batches under a conservative lookahead window (shard.go), with
// results byte-identical at every worker count.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a simulated timestamp measured in integer picoseconds.
//
// Picoseconds are fine enough to represent the 187.5 MHz FPGA clock
// (5333 ps period) and 15 Gbps SerDes bit times (66.6 ps) without
// rounding drift, while int64 still covers ~106 days of simulated time.
type Time int64

// Duration is a span of simulated time, also in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t overflows back to t; one picosecond less prints the same.
		return "-" + Time(math.MaxInt64).String()
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// FromNanoseconds converts a float64 nanosecond value into a Time,
// rounding to the nearest picosecond.
func FromNanoseconds(ns float64) Time { return Time(ns*1000 + 0.5) }

// durationUnits are the suffixes of the duration grammar, smallest
// first, so ParseDuration tries the two-letter suffixes before "s".
var durationUnits = []struct {
	suffix string
	unit   Duration
}{
	{"ps", Picosecond},
	{"ns", Nanosecond},
	{"us", Microsecond},
	{"ms", Millisecond},
	{"s", Second},
}

// ParseDuration parses the duration grammar that fault plans and
// traffic overlays share: a finite, non-negative number with a ps,
// ns, us, ms or s suffix ("220ns", "1.5us", "2s"). Integers convert
// exactly; fractions round to the nearest picosecond. NaN, infinite,
// negative and out-of-range values are errors.
func ParseDuration(s string) (Duration, error) {
	for _, u := range durationUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		if n, err := strconv.ParseInt(num, 10, 64); err == nil {
			if n < 0 {
				return 0, fmt.Errorf("negative duration %q", s)
			}
			if n > math.MaxInt64/int64(u.unit) {
				return 0, fmt.Errorf("duration %q overflows the picosecond clock", s)
			}
			return Duration(n) * u.unit, nil
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil || math.IsNaN(v) {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		if v < 0 {
			return 0, fmt.Errorf("negative duration %q", s)
		}
		ps := math.Round(v * float64(u.unit))
		if ps >= math.MaxInt64 { // 2^63 as a float64; catches +Inf
			return 0, fmt.Errorf("duration %q overflows the picosecond clock", s)
		}
		return Duration(ps), nil
	}
	return 0, fmt.Errorf("duration %q needs a ps, ns, us, ms or s suffix", s)
}

// FormatDuration renders d >= 0 in the ParseDuration grammar, in the
// largest unit that divides it exactly ("0ps" for zero), so
// ParseDuration reads back exactly d.
func FormatDuration(d Duration) string {
	for i := len(durationUnits) - 1; i > 0; i-- {
		if u := durationUnits[i]; d != 0 && d%u.unit == 0 {
			return strconv.FormatInt(int64(d/u.unit), 10) + u.suffix
		}
	}
	return strconv.FormatInt(int64(d), 10) + "ps"
}
