package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hmcsim/internal/sim"
)

// EventKind selects what a scripted plan event does.
type EventKind int

const (
	// Fail opens a hard outage window on a zone: its accesses complete
	// with Result.Err until a matching Repair.
	Fail EventKind = iota
	// Repair closes a zone's outage window.
	Repair
	// Rate changes the transient link-error probability.
	Rate
)

func (k EventKind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Repair:
		return "repair"
	case Rate:
		return "rate"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scripted state change at an absolute simulation time.
type Event struct {
	// At is the simulation instant the event fires (from engine time 0,
	// so warmup is covered — faults do not wait for the measured
	// window, like real hardware).
	At sim.Time
	// Kind selects the state change.
	Kind EventKind
	// Zone is the Fail/Repair target (cube of a chain, channel of a
	// multi-channel DDR4 system, 0 for single devices).
	Zone int
	// Rate is the new transient error probability for Kind == Rate.
	Rate float64
}

// Plan scripts a deterministic fault-injection schedule. The zero
// value injects nothing. A plan is pure data: the same plan and seed
// replay the exact same fault sequence on every run.
type Plan struct {
	// Rate is the initial per-request transient link-error probability
	// in [0,1]: an affected request's completion is stretched by one
	// retransmission round trip (the CRC retry-buffer path), invisible
	// to the caller except as latency.
	Rate float64
	// RetryCost is the completion stretch per injected link retry;
	// 0 derives one round trip at the backend's latency floor.
	RetryCost sim.Duration
	// MTBF/MTTR enable the stochastic outage process when both are
	// positive: each zone independently alternates up/down with
	// exponentially-distributed times of these means, drawn from a
	// seeded per-zone stream.
	MTBF, MTTR sim.Duration
	// Events are the scripted state changes, fired in At order.
	Events []Event
}

// Zero reports whether the plan injects nothing at all.
func (p Plan) Zero() bool {
	return p.Rate == 0 && p.MTBF == 0 && p.MTTR == 0 && len(p.Events) == 0
}

// Normalize returns the plan with events stably sorted by At (equal
// timestamps keep their script order, so "repair then fail at t" is
// honored as written). It never panics on any input.
func (p Plan) Normalize() Plan {
	if len(p.Events) > 1 {
		evs := make([]Event, len(p.Events))
		copy(evs, p.Events)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		p.Events = evs
	}
	return p
}

// Validate checks value ranges. Zone upper bounds are the injector's
// to check (the plan does not know the backend's zone count); zones
// at or beyond it are ignored at run time with the same contract as
// chain.Network.FailCube.
func (p Plan) Validate() error {
	if !(p.Rate >= 0 && p.Rate <= 1) { // written so that NaN fails
		return fmt.Errorf("fault: rate %v outside [0,1]", p.Rate)
	}
	if p.RetryCost < 0 {
		return fmt.Errorf("fault: negative retry cost %v", p.RetryCost)
	}
	if p.MTBF < 0 || p.MTTR < 0 {
		return fmt.Errorf("fault: negative MTBF/MTTR")
	}
	if (p.MTBF > 0) != (p.MTTR > 0) {
		return fmt.Errorf("fault: MTBF and MTTR must both be set (or both zero)")
	}
	for _, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event at negative time %v", e.At)
		}
		switch e.Kind {
		case Fail, Repair:
			if e.Zone < 0 {
				return fmt.Errorf("fault: %s zone %d negative", e.Kind, e.Zone)
			}
		case Rate:
			if !(e.Rate >= 0 && e.Rate <= 1) {
				return fmt.Errorf("fault: rate event %v outside [0,1]", e.Rate)
			}
		default:
			return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
		}
	}
	return nil
}

// String renders the plan in the ParsePlan grammar; ParsePlan of the
// result reproduces the plan exactly (round-trip property, fuzzed).
func (p Plan) String() string {
	var parts []string
	if p.Rate != 0 {
		parts = append(parts, "rate="+formatFloat(p.Rate))
	}
	if p.RetryCost != 0 {
		parts = append(parts, "retry="+sim.FormatDuration(p.RetryCost))
	}
	if p.MTBF != 0 {
		parts = append(parts, "mtbf="+sim.FormatDuration(p.MTBF))
	}
	if p.MTTR != 0 {
		parts = append(parts, "mttr="+sim.FormatDuration(p.MTTR))
	}
	for _, e := range p.Events {
		switch e.Kind {
		case Fail, Repair:
			parts = append(parts, fmt.Sprintf("%s=%d@%s", e.Kind, e.Zone, sim.FormatDuration(e.At)))
		case Rate:
			parts = append(parts, fmt.Sprintf("rate=%s@%s", formatFloat(e.Rate), sim.FormatDuration(e.At)))
		}
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the compact plan grammar the CLIs accept: a
// comma-separated list of key=value tokens, where fail/repair values
// are zone indexes, rate values are probabilities, and a trailing
// @time turns a setting into a scripted event at that instant:
//
//	rate=0.001                     initial transient error probability
//	retry=220ns                    stretch per injected link retry
//	mtbf=200us,mttr=40us           seeded stochastic outage process
//	fail=2@300us,repair=2@500us    scripted outage window on zone 2
//	rate=0.05@400us                error-rate change mid-run
//
// Durations are sim.ParseDuration's: a finite, non-negative number
// with a ps, ns, us, ms or s suffix, rounded to the picosecond. The
// result is normalized (events sorted by time) and validated.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: token %q is not key=value", tok)
		}
		val, at, timed := cutTime(val)
		var atT sim.Time
		if timed {
			d, err := sim.ParseDuration(at)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: token %q: %w", tok, err)
			}
			atT = d
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: token %q: bad rate: %w", tok, err)
			}
			if timed {
				p.Events = append(p.Events, Event{At: atT, Kind: Rate, Rate: r})
			} else {
				p.Rate = r
			}
		case "fail", "repair":
			z, err := strconv.Atoi(val)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: token %q: bad zone: %w", tok, err)
			}
			if !timed {
				return Plan{}, fmt.Errorf("fault: token %q needs an @time (e.g. %s=%s@200us)", tok, key, val)
			}
			kind := Fail
			if key == "repair" {
				kind = Repair
			}
			p.Events = append(p.Events, Event{At: atT, Kind: kind, Zone: z})
		case "retry", "mtbf", "mttr":
			if timed {
				return Plan{}, fmt.Errorf("fault: token %q: %s is not schedulable", tok, key)
			}
			d, err := sim.ParseDuration(val)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: token %q: %w", tok, err)
			}
			switch key {
			case "retry":
				p.RetryCost = d
			case "mtbf":
				p.MTBF = d
			case "mttr":
				p.MTTR = d
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// cutTime splits a value from its optional @time suffix.
func cutTime(v string) (val, at string, ok bool) {
	val, at, ok = strings.Cut(v, "@")
	return val, at, ok
}

// formatFloat renders a probability with full round-trip precision.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
