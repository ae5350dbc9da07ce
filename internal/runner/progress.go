package runner

import "sync/atomic"

// Progress is a race-safe sweep-progress counter. Map's Config.Progress
// callback reports per-cell completion, but the calls arrive on
// whatever worker finished the cell — a concurrent reader (a status
// endpoint, a TUI) previously needed its own locking around the
// callback's captures. Progress closes that gap: plug Observe in as
// the callback and Snapshot from any goroutine.
//
// The two fields are independent atomics, so a Snapshot racing an
// Observe can see the new done with the old total (or vice versa);
// both orders are momentarily-true states of the sweep, never torn
// values. The zero value is ready to use.
type Progress struct {
	done  atomic.Int64
	total atomic.Int64
}

// Observe records a progress callback; it has Config.Progress's shape,
// so `cfg.Progress = p.Observe` wires a pool run to the counter.
func (p *Progress) Observe(done, total int) {
	p.total.Store(int64(total))
	p.done.Store(int64(done))
}

// SetTotal pre-declares the cell count before any cell completes, so
// a snapshot taken between submission and the first completion shows
// 0/n instead of 0/0.
func (p *Progress) SetTotal(n int) { p.total.Store(int64(n)) }

// Snapshot returns the most recent (done, total) observation.
func (p *Progress) Snapshot() (done, total int) {
	return int(p.done.Load()), int(p.total.Load())
}
