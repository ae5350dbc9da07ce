package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 10; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded queue rejected Push")
		}
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue[string](2)
	if !q.Push("a") || !q.Push("b") {
		t.Fatal("pushes under capacity rejected")
	}
	if q.Push("c") {
		t.Fatal("push over capacity accepted")
	}
	if !q.Full() {
		t.Fatal("Full() false at capacity")
	}
	q.Pop()
	if q.Full() {
		t.Fatal("Full() true after Pop")
	}
	if !q.Push("c") {
		t.Fatal("push after Pop rejected")
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue[int](0)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty succeeded")
	}
	q.Push(42)
	v, ok := q.Peek()
	if !ok || v != 42 {
		t.Fatalf("Peek = (%d,%v)", v, ok)
	}
	if q.Len() != 1 {
		t.Fatal("Peek consumed the element")
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue[int](0)
	// Interleave enough pushes and pops to trigger compaction.
	for i := 0; i < 10000; i++ {
		q.Push(i)
		if i%2 == 1 {
			v, ok := q.Pop()
			if !ok || v != i/2 {
				t.Fatalf("Pop during churn = (%d,%v), want %d", v, ok, i/2)
			}
		}
	}
	if q.Len() != 5000 {
		t.Fatalf("Len after churn = %d, want 5000", q.Len())
	}
	for i := 0; i < 5000; i++ {
		v, ok := q.Pop()
		if !ok || v != 5000+i {
			t.Fatalf("drain Pop = (%d,%v), want %d", v, ok, 5000+i)
		}
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue[int](0)
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				q.Push(next)
				next++
			} else if v, ok := q.Pop(); ok {
				if v != expect {
					return false
				}
				expect++
			}
		}
		return q.Len() == next-expect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
