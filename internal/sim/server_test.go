package sim

import (
	"testing"
	"testing/quick"
)

func TestServerIdleStart(t *testing.T) {
	var s Server
	start, end := s.Reserve(100, 10)
	if start != 100 || end != 110 {
		t.Fatalf("Reserve on idle server = [%v,%v), want [100,110)", start, end)
	}
}

func TestServerQueuesFIFO(t *testing.T) {
	var s Server
	s.Reserve(0, 50)
	start, end := s.Reserve(10, 20)
	if start != 50 || end != 70 {
		t.Fatalf("second reservation = [%v,%v), want [50,70)", start, end)
	}
	// The queue still extends 60 past t=10: the next slot starts at 70.
	if start, _ := s.Reserve(10, 0); start != 70 {
		t.Fatalf("reservation behind a backlog starts at %v, want 70", start)
	}
	s.Reset()
	if start, _ := s.Reserve(0, 5); start != 0 {
		t.Fatalf("reservation after Reset starts at %v, want 0", start)
	}
}

func TestServerGapThenIdle(t *testing.T) {
	var s Server
	s.Reserve(0, 10)
	start, _ := s.Reserve(100, 5)
	if start != 100 {
		t.Fatalf("reservation after idle gap starts at %v, want 100", start)
	}
	// Idle again by t=200: no backlog delays the next slot.
	if start, _ := s.Reserve(200, 5); start != 200 {
		t.Fatalf("reservation on an idle server starts at %v, want 200", start)
	}
}

func TestServerReserveAt(t *testing.T) {
	var s Server
	// Data not ready until t=40 even though the bus is free at t=0.
	start, end := s.ReserveAt(10, 40, 5)
	if start != 40 || end != 45 {
		t.Fatalf("ReserveAt = [%v,%v), want [40,45)", start, end)
	}
}

func TestServerNegativeDuration(t *testing.T) {
	var s Server
	start, end := s.Reserve(10, -5)
	if start != 10 || end != 10 {
		t.Fatalf("negative duration reservation = [%v,%v), want [10,10)", start, end)
	}
}

// Property: reservations made with nondecreasing now never overlap and
// are granted in order.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(arrivalGaps, durations []uint8) bool {
		n := len(arrivalGaps)
		if len(durations) < n {
			n = len(durations)
		}
		var s Server
		var now Time
		var prevEnd Time
		for i := 0; i < n; i++ {
			now += Time(arrivalGaps[i])
			start, end := s.Reserve(now, Duration(durations[i]))
			if start < prevEnd || start < now || end != start+Duration(durations[i]) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
