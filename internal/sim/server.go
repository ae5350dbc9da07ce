package sim

// Server models a serial FIFO resource — a bus, a SerDes lane pair, a
// DRAM bank — using the reservation pattern: callers ask for a slot of
// busy time and receive the interval [start, end) they were granted.
//
// Because the event engine executes events in timestamp order, making
// reservations "inline" during event processing yields the same
// schedule a token-passing implementation would produce, at a fraction
// of the event count.
type Server struct {
	// freeAt is the first instant at which the resource is idle.
	freeAt Time
}

// Reserve grants the next available interval of length d starting no
// earlier than now. It returns the start and end of the granted slot.
func (s *Server) Reserve(now Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start = s.freeAt
	if now > start {
		start = now
	}
	end = start + d
	s.freeAt = end
	return start, end
}

// ReserveAt behaves like Reserve but also honours an earliest-start
// constraint (e.g. data cannot occupy the bus before it exists).
func (s *Server) ReserveAt(now, earliest Time, d Duration) (start, end Time) {
	if earliest > now {
		now = earliest
	}
	return s.Reserve(now, d)
}

// Reset returns the server to idle at time zero.
func (s *Server) Reset() { s.freeAt = 0 }
