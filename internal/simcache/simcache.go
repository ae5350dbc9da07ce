// Package simcache is the content-addressed result cache behind the
// simulation service (cmd/hmcsimd). Every run in this repo is
// deterministic by construction — seeded, worker-count-independent,
// golden-tested — so a result is a pure function of its canonical run
// inputs, and identical queries are pure recomputation. The cache
// keys rendered results by the SHA-256 of the canonical encoding of
// (Spec, Options, seed) plus the scenario.EngineVersion stamp, holds
// them in an in-memory LRU with single-flight deduplication
// (concurrent identical requests coalesce onto one run), and can
// optionally persist entries to a directory so warmed sweeps survive
// restarts.
//
// Values are opaque bytes. The service stores each run's canonical
// JSON report, which makes the byte-identity guarantee trivial: a
// warm hit is served from the very bytes the cold run produced.
package simcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hmcsim/internal/scenario"
)

// Key is a content-addressed cache key: the SHA-256 digest of the
// canonical run-input encoding and the engine version stamp.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the cache key for Run(spec, o) under the current
// scenario.EngineVersion.
func KeyOf(spec scenario.Spec, o scenario.Options) Key {
	return KeyWithVersion(spec, o, scenario.EngineVersion)
}

// KeyWithVersion derives the cache key under an explicit version
// stamp. The stamp participates in the hash, so bumping
// scenario.EngineVersion invalidates every stale entry by
// construction — old results are simply never addressed again.
func KeyWithVersion(spec scenario.Spec, o scenario.Options, version string) Key {
	h := sha256.New()
	var n [8]byte
	for i, b := 0, len(version); i < 8; i++ {
		n[i] = byte(b >> (8 * i))
	}
	h.Write(n[:])
	h.Write([]byte(version))
	h.Write(scenario.CacheBytes(spec, o))
	var k Key
	h.Sum(k[:0])
	return k
}

// Config tunes a cache.
type Config struct {
	// Entries bounds the in-memory LRU (0 = 4096). Eviction is
	// strictly least-recently-used; a disk-backed cache keeps evicted
	// entries on disk.
	Entries int
	// Dir, when non-empty, persists every computed entry to
	// Dir/<hex key> and consults it on memory misses, so a warmed
	// parameter sweep survives a restart. The directory is created on
	// New. Files are written atomically (temp + rename); a corrupt or
	// missing file is treated as a miss, never an error.
	Dir string
}

// Stats counts cache traffic (monotonic; snapshot via Cache.Stats).
type Stats struct {
	// Hits are lookups served from memory.
	Hits uint64
	// DiskHits are lookups that missed memory but loaded from Dir.
	DiskHits uint64
	// Misses are lookups that computed (they also warm the cache).
	Misses uint64
	// Coalesced are Do calls that piggybacked on another in-flight
	// computation of the same key instead of running their own.
	Coalesced uint64
	// Evictions counts LRU entries dropped to respect Entries.
	Evictions uint64
}

type entry struct {
	key Key
	val []byte
}

// call is one in-flight computation; followers wait on done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is the content-addressed store. All methods are safe for
// concurrent use.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	lru      *list.List // front = most recent; element value = *entry
	byKey    map[Key]*list.Element
	inflight map[Key]*call
	stats    Stats
}

// New builds a cache, creating Config.Dir when set.
func New(cfg Config) (*Cache, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = 4096
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("simcache: %w", err)
		}
	}
	return &Cache{
		cfg:      cfg,
		lru:      list.New(),
		byKey:    map[Key]*list.Element{},
		inflight: map[Key]*call{},
	}, nil
}

// Source says where a Do result came from.
type Source int

const (
	// Computed: this call ran the computation (a miss).
	Computed Source = iota
	// Hit: served from the in-memory LRU.
	Hit
	// DiskHit: loaded from the on-disk store into memory.
	DiskHit
	// Coalesced: another in-flight call computed it; this one waited.
	Coalesced
)

func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case DiskHit:
		return "disk-hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// Get returns the cached value for key, consulting memory then disk.
// The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key Key) ([]byte, bool) {
	v, _, ok := c.lookup(key)
	return v, ok
}

// Lookup is Get plus provenance: on success the Source says whether
// the value came from memory (Hit) or the disk tier (DiskHit).
func (c *Cache) Lookup(key Key) ([]byte, Source, bool) { return c.lookup(key) }

func (c *Cache) lookup(key Key) ([]byte, Source, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, Hit, true
	}
	c.mu.Unlock()
	if c.cfg.Dir != "" {
		if v, err := os.ReadFile(c.path(key)); err == nil {
			c.mu.Lock()
			// Another goroutine may have inserted while we read; keep
			// whichever is present (contents are identical by key).
			if _, ok := c.byKey[key]; !ok {
				c.insertLocked(key, v)
			}
			c.stats.DiskHits++
			c.mu.Unlock()
			return v, DiskHit, true
		}
	}
	return nil, Computed, false
}

// Put stores a value (memory and, when configured, disk). Mostly a
// test/bench hook — Do is the normal write path.
func (c *Cache) Put(key Key, val []byte) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
	} else {
		c.insertLocked(key, val)
	}
	c.mu.Unlock()
	c.persist(key, val)
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent Do calls for the same key coalesce onto one computation:
// exactly one runs compute, the rest wait for its result (or their
// own ctx). Errors are returned to every waiter and never cached.
// The returned bytes are shared — callers must not mutate them.
func (c *Cache) Do(ctx context.Context, key Key, compute func(ctx context.Context) ([]byte, error)) ([]byte, Source, error) {
	if v, src, ok := c.lookup(key); ok {
		return v, src, nil
	}
	c.mu.Lock()
	// Re-check memory under the lock: a leader may have completed
	// between lookup and here.
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Coalesced, cl.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	cl.val, cl.err = compute(ctx)
	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		if _, ok := c.byKey[key]; !ok {
			c.insertLocked(key, cl.val)
		}
	}
	c.mu.Unlock()
	if cl.err == nil {
		c.persist(key, cl.val)
	}
	close(cl.done)
	return cl.val, Computed, cl.err
}

// insertLocked adds a fresh entry at the LRU front and evicts from
// the back past capacity. Caller holds mu.
func (c *Cache) insertLocked(key Key, val []byte) {
	c.byKey[key] = c.lru.PushFront(&entry{key: key, val: val})
	for c.lru.Len() > c.cfg.Entries {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.byKey, e.key)
		c.stats.Evictions++
	}
}

// persist writes an entry to the disk store (atomic temp + rename).
// Failures are deliberately swallowed: the disk tier is an optimistic
// accelerator, and a full or read-only disk must not fail runs.
func (c *Cache) persist(key Key, val []byte) {
	if c.cfg.Dir == "" {
		return
	}
	path := c.path(key)
	tmp, err := os.CreateTemp(c.cfg.Dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.cfg.Dir, key.String())
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
