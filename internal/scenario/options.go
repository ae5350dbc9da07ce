package scenario

import (
	"flag"
	"math"
	"strconv"

	"hmcsim/internal/sim"
)

// BindFlags registers the run overlays on fs, writing straight into o:
// -thermal, -cooling, -shards, -faults, -fault-retries,
// -fault-backoff-us, -fault-deadline-us, -traffic and -slo-ns. The
// registered defaults are o's current values. Naming a -cooling config
// implies -thermal. The measurement windows, seed and -tail stay with
// each command, whose defaults differ.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.Thermal, "thermal", o.Thermal, "close the thermal/power feedback loop on scenario runs: live RC temperatures throttle the backend")
	fs.Func("cooling", "Table III cooling environment for the feedback loop: Cfg1..Cfg4 (default Cfg2; implies -thermal)", func(s string) error {
		o.Cooling = s
		o.Thermal = o.Thermal || s != ""
		return nil
	})
	fs.IntVar(&o.Shards, "shards", o.Shards, "worker goroutines per sharded scenario's PDES mesh (Spec.Groups > 1); results are identical at every value")
	fs.StringVar(&o.Faults.Plan, "faults", o.Faults.Plan, "inject faults into scenario runs: a fault plan like \"rate=0.01,fail=2@300us,repair=2@500us\" (see internal/fault)")
	fs.IntVar(&o.Faults.MaxRetries, "fault-retries", o.Faults.MaxRetries, "retry errored scenario requests up to N times with exponential backoff")
	fs.Var((*usFlag)(&o.Faults.Backoff), "fault-backoff-us", "base retry backoff in simulated microseconds (0 = the backend's latency floor)")
	fs.Var((*usFlag)(&o.Faults.Deadline), "fault-deadline-us", "abandon scenario requests older than this many simulated microseconds (0 = never)")
	fs.StringVar(&o.Traffic, "traffic", o.Traffic, "overlay a traffic model on every scenario tenant: \"open:R\", \"phases:R@D,...\" (~R@D ramps), \"burst:BR/IR@BD/ID\" or \"diurnal:LO..HI@PERIOD\" (rates MRPS/port, durations like 40us)")
	fs.Float64Var(&o.SLONs, "slo-ns", o.SLONs, "default per-tenant latency SLO target in nanoseconds; adds the QoS/SLO grid to scenario reports")
}

// usFlag is a sim.Duration flag spelled in (fractional) simulated
// microseconds.
type usFlag sim.Duration

func (f *usFlag) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = usFlag(fromUs(v))
	return nil
}

func (f *usFlag) String() string {
	if f == nil {
		return "0"
	}
	return strconv.FormatFloat(toUs(sim.Duration(*f)), 'g', -1, 64)
}

// fromUs converts microseconds to simulated time, truncating toward
// zero.
func fromUs(v float64) sim.Duration { return sim.Duration(v * float64(sim.Microsecond)) }

// toUs converts simulated time to microseconds such that fromUs
// recovers it exactly (a plain division is off by one ulp for some
// picosecond values, which truncation would turn into 1 ps).
func toUs(d sim.Duration) float64 {
	v := float64(d) / float64(sim.Microsecond)
	if fromUs(v) != d {
		v = math.Nextafter(v, math.Copysign(math.Inf(1), v))
	}
	return v
}

// WireOptions is the JSON form of Options (the hmcsimd request body's
// "options" object): windows and fault timings in microseconds, every
// field optional. Omitted windows select the publication-fidelity
// defaults, and naming a cooling config implies thermal.
type WireOptions struct {
	WarmupUs  float64     `json:"warmup_us,omitempty"`
	MeasureUs float64     `json:"measure_us,omitempty"`
	Seed      uint64      `json:"seed,omitempty"`
	Tail      bool        `json:"tail,omitempty"`
	Thermal   bool        `json:"thermal,omitempty"`
	Cooling   string      `json:"cooling,omitempty"`
	Shards    int         `json:"shards,omitempty"`
	Faults    *WireFaults `json:"faults,omitempty"`
	Traffic   string      `json:"traffic,omitempty"`
	SLONs     float64     `json:"slo_ns,omitempty"`
}

// WireFaults is the JSON form of Faults.
type WireFaults struct {
	Plan       string  `json:"plan,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
	BackoffUs  float64 `json:"backoff_us,omitempty"`
	DeadlineUs float64 `json:"deadline_us,omitempty"`
}

// Wire encodes o in its JSON form; Options decodes it back exactly.
func (o Options) Wire() WireOptions {
	w := WireOptions{
		WarmupUs:  toUs(o.Warmup),
		MeasureUs: toUs(o.Measure),
		Seed:      o.Seed,
		Tail:      o.Tail,
		Thermal:   o.Thermal,
		Cooling:   o.Cooling,
		Shards:    o.Shards,
		Traffic:   o.Traffic,
		SLONs:     o.SLONs,
	}
	if f := o.Faults; f.Active() {
		w.Faults = &WireFaults{Plan: f.Plan, MaxRetries: f.MaxRetries, BackoffUs: toUs(f.Backoff), DeadlineUs: toUs(f.Deadline)}
	}
	return w
}

// Options decodes the JSON form.
func (w WireOptions) Options() Options {
	o := Options{
		Warmup:  fromUs(w.WarmupUs),
		Measure: fromUs(w.MeasureUs),
		Seed:    w.Seed,
		Tail:    w.Tail,
		Thermal: w.Thermal || w.Cooling != "",
		Cooling: w.Cooling,
		Shards:  w.Shards,
		Traffic: w.Traffic,
		SLONs:   w.SLONs,
	}
	if f := w.Faults; f != nil {
		o.Faults = Faults{Plan: f.Plan, MaxRetries: f.MaxRetries, Backoff: fromUs(f.BackoffUs), Deadline: fromUs(f.DeadlineUs)}
	}
	return o
}
