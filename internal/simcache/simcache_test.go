package simcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hmcsim/internal/scenario"
)

func testKey(i int) Key {
	spec := scenario.Spec{Name: "cache-test", Tenants: []scenario.Tenant{{Name: "t"}}}
	return KeyOf(spec, scenario.Options{Seed: uint64(i + 1)})
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHitMiss(t *testing.T) {
	c := mustNew(t, Config{Entries: 8})
	ctx := context.Background()
	k := testKey(0)
	want := []byte("result-bytes")

	var computes atomic.Int64
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return want, nil
	}
	v, src, err := c.Do(ctx, k, compute)
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("cold Do = %q, %v", v, err)
	}
	if src != Computed {
		t.Fatalf("cold Do source = %v, want miss", src)
	}
	v, src, err = c.Do(ctx, k, compute)
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("warm Do = %q, %v", v, err)
	}
	if src != Hit {
		t.Fatalf("warm Do source = %v, want hit", src)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if _, ok := c.Get(testKey(99)); ok {
		t.Fatalf("Get of an unknown key hit")
	}
}

// TestSingleFlight is the coalescing contract: N concurrent identical
// requests run exactly one computation, and everyone gets its bytes.
func TestSingleFlight(t *testing.T) {
	c := mustNew(t, Config{Entries: 8})
	k := testKey(1)
	const n = 32

	var computes atomic.Int64
	gate := make(chan struct{})     // holds the leader's computation open
	leaderIn := make(chan struct{}) // closed once the leader is inside compute
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		close(leaderIn)
		<-gate
		return []byte("one-run"), nil
	}

	var wg sync.WaitGroup
	vals := make([][]byte, n)
	srcs := make([]Source, n)
	errs := make([]error, n)
	run := func(i int) {
		defer wg.Done()
		vals[i], srcs[i], errs[i] = c.Do(context.Background(), k, compute)
	}
	wg.Add(1)
	go run(0)
	<-leaderIn // the leader is mid-computation; the key is in flight
	for i := 1; i < n; i++ {
		wg.Add(1)
		go run(i)
	}
	// Release the leader only after every follower has registered on
	// the in-flight call, so all n-1 deterministically coalesce.
	for c.Stats().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d computations, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(vals[i], []byte("one-run")) {
			t.Fatalf("request %d got %q", i, vals[i])
		}
		want := Coalesced
		if i == 0 {
			want = Computed
		}
		if srcs[i] != want {
			t.Errorf("request %d source = %v, want %v", i, srcs[i], want)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", s, n-1)
	}
}

// TestErrorsNotCached: a failed computation must not poison the key.
func TestErrorsNotCached(t *testing.T) {
	c := mustNew(t, Config{Entries: 8})
	ctx := context.Background()
	k := testKey(2)
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	v, src, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || src != Computed || !bytes.Equal(v, []byte("ok")) {
		t.Fatalf("retry after error = %q, %v, %v (want fresh compute)", v, src, err)
	}
}

// TestEvictionOrder pins strict LRU: filling past capacity evicts the
// least-recently-used key, and a Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	c := mustNew(t, Config{Entries: 3})
	keys := []Key{testKey(0), testKey(1), testKey(2), testKey(3)}
	for i := 0; i < 3; i++ {
		c.Put(keys[i], []byte{byte(i)})
	}
	// Touch key0 so key1 is now least recently used.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("key0 missing before eviction")
	}
	c.Put(keys[3], []byte{3})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Errorf("key1 survived; LRU should have evicted it")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(keys[i]); !ok {
			t.Errorf("key%d evicted out of LRU order", i)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

// TestVersionStampInvalidates: the engine-version stamp participates
// in the key, so results cached under one version are never addressed
// under another — stale entries die by construction.
func TestVersionStampInvalidates(t *testing.T) {
	spec := scenario.Spec{Name: "vers", Tenants: []scenario.Tenant{{Name: "t"}}}
	o := scenario.Options{Seed: 1}
	k1 := KeyWithVersion(spec, o, "engine-v1")
	k2 := KeyWithVersion(spec, o, "engine-v2")
	if k1 == k2 {
		t.Fatalf("version stamp did not change the key")
	}
	if KeyOf(spec, o) != KeyWithVersion(spec, o, scenario.EngineVersion) {
		t.Fatalf("KeyOf is not the EngineVersion instance of KeyWithVersion")
	}

	c := mustNew(t, Config{Entries: 8})
	c.Put(k1, []byte("old-engine-result"))
	if _, ok := c.Get(k2); ok {
		t.Fatalf("entry cached under engine-v1 served under engine-v2")
	}
	var computes atomic.Int64
	v, src, err := c.Do(context.Background(), k2, func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte("new-engine-result"), nil
	})
	if err != nil || src != Computed || computes.Load() != 1 {
		t.Fatalf("bumped version did not recompute: src=%v err=%v computes=%d", src, err, computes.Load())
	}
	if !bytes.Equal(v, []byte("new-engine-result")) {
		t.Fatalf("got %q", v)
	}
}

// TestDiskStore: computed entries persist to Dir and survive a
// "restart" (a fresh Cache over the same directory), loading on a
// memory miss; corrupt-file semantics degrade to a miss.
func TestDiskStore(t *testing.T) {
	dir := t.TempDir()
	k := testKey(5)
	want := []byte("persisted")
	{
		c := mustNew(t, Config{Entries: 4, Dir: dir})
		if _, src, err := c.Do(context.Background(), k, func(context.Context) ([]byte, error) { return want, nil }); err != nil || src != Computed {
			t.Fatalf("seed run: src=%v err=%v", src, err)
		}
	}
	c := mustNew(t, Config{Entries: 4, Dir: dir})
	var computes atomic.Int64
	v, src, err := c.Do(context.Background(), k, func(context.Context) ([]byte, error) {
		computes.Add(1)
		return nil, errors.New("should not recompute")
	})
	if err != nil || computes.Load() != 0 {
		t.Fatalf("disk-warm Do recomputed: err=%v computes=%d", err, computes.Load())
	}
	if src != DiskHit || !bytes.Equal(v, want) {
		t.Fatalf("disk-warm Do = %q, %v; want %q, disk-hit", v, src, want)
	}
	// Loaded into memory: the second lookup is a plain hit.
	if _, src, _ := c.Do(context.Background(), k, nil); src != Hit {
		t.Fatalf("post-load source = %v, want hit", src)
	}
	if s := c.Stats(); s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit then 1 memory hit", s)
	}
}

// TestDiskEvictionFallback: an entry evicted from memory is still
// served from the disk tier.
func TestDiskEvictionFallback(t *testing.T) {
	c := mustNew(t, Config{Entries: 2, Dir: t.TempDir()})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = testKey(i)
		c.Put(keys[i], []byte(fmt.Sprintf("v%d", i)))
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	v, src, ok := c.lookup(keys[0])
	if !ok || src != DiskHit || !bytes.Equal(v, []byte("v0")) {
		t.Fatalf("evicted key lookup = %q, %v, %v; want disk hit", v, src, ok)
	}
}
