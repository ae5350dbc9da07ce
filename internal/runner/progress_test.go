package runner

import (
	"context"
	"sync"
	"testing"
)

// TestProgressSnapshotDuringMap is the race the counter exists to
// close: Map reports per-cell completion from whatever worker
// finished, while another goroutine snapshots aggregate progress
// concurrently — no ad-hoc locking at the call site, no torn reads
// (run under -race in CI).
func TestProgressSnapshotDuringMap(t *testing.T) {
	var p Progress
	const n = 256
	p.SetTotal(n)

	if done, total := p.Snapshot(); done != 0 || total != n {
		t.Fatalf("pre-run snapshot = %d/%d, want 0/%d", done, total, n)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				done, total := p.Snapshot()
				if total != n {
					t.Errorf("snapshot total = %d, want %d", total, n)
					return
				}
				if done < 0 || done > total {
					t.Errorf("snapshot done = %d outside [0,%d]", done, total)
					return
				}
			}
		}()
	}

	cfg := Config{Workers: 8, Progress: p.Observe}
	if _, err := Map(context.Background(), cfg, n, func(context.Context, int) (int, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()

	if done, total := p.Snapshot(); done != n || total != n {
		t.Fatalf("final snapshot = %d/%d, want %d/%d", done, total, n, n)
	}
}
