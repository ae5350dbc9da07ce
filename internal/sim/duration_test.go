package sim

import (
	"math"
	"testing"
)

// TestParseDuration pins the grammar fault plans and traffic overlays
// share: every unit, fractions rounded to the picosecond, integers
// exact to the top of the clock, and NaN, infinite, negative,
// out-of-range and unit-less values rejected.
func TestParseDuration(t *testing.T) {
	for in, want := range map[string]Duration{
		"0ps":                   0,
		"-0us":                  0,
		"500ps":                 500,
		"220ns":                 220 * Nanosecond,
		"1.5us":                 1500 * Nanosecond,
		"1.5ns":                 1500,
		"0.4ps":                 0,
		"0.5ps":                 1,
		"40us":                  40 * Microsecond,
		"2ms":                   2 * Millisecond,
		"2s":                    2 * Second,
		"1e-3us":                Nanosecond,
		"9223372036854775807ps": math.MaxInt64,
		"9223372s":              9223372 * Second,
	} {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "10", "us", "10m", "10 us", "x10us",
		"NaNus", "NaNs", "Infus", "+Infps", "-Infns",
		"-1ns", "-0.5us",
		"9223372036854775808ps", "9223373s", "9.3e18ps", "1e400ps",
	} {
		if got, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) = %d, want an error", in, got)
		}
	}
}

// TestFormatDuration: the largest unit that divides exactly, and zero
// as 0ps.
func TestFormatDuration(t *testing.T) {
	for d, want := range map[Duration]string{
		0:                        "0ps",
		1:                        "1ps",
		1500:                     "1500ps",
		220 * Nanosecond:         "220ns",
		1500 * Nanosecond:        "1500ns",
		40 * Microsecond:         "40us",
		2000 * Millisecond:       "2s",
		math.MaxInt64:            "9223372036854775807ps",
		9223372 * Second:         "9223372s",
		Second + Millisecond:     "1001ms",
		Millisecond + Nanosecond: "1000001ns",
	} {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%d) = %q, want %q", int64(d), got, want)
		}
	}
}

// FuzzDurationRoundTrip: FormatDuration's rendering of every
// non-negative duration parses back to exactly that duration, and
// ParseDuration accepts no string as a negative duration.
func FuzzDurationRoundTrip(f *testing.F) {
	f.Add(int64(0), "0ps")
	f.Add(int64(220*Nanosecond), "1.5us")
	f.Add(int64(math.MaxInt64), "NaNus")
	f.Add(int64(9007199254740993), "-0s")
	f.Add(int64(-1), "9223372036854775807ps")
	f.Fuzz(func(t *testing.T, d int64, s string) {
		if d >= 0 {
			txt := FormatDuration(Duration(d))
			if back, err := ParseDuration(txt); err != nil || back != Duration(d) {
				t.Fatalf("ParseDuration(FormatDuration(%d) = %q) = %d, %v", d, txt, back, err)
			}
		}
		if v, err := ParseDuration(s); err == nil && v < 0 {
			t.Fatalf("ParseDuration(%q) = %d, negative", s, v)
		}
	})
}
