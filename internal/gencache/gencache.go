// Package gencache implements the generation-checked response cache shared
// by the serving layers (RDAP, WHOIS, dropscope, the feed): a bounded LRU
// whose whole contents are keyed by a generation, the registry store's
// mutation counter (the feed's: its cursor). Any mutation bumps the
// generation, so the first lookup under a newer generation flushes
// everything — rendered bytes can never outlive the state they were rendered
// from.
//
// The install discipline callers must follow (documented in detail on
// registry.Store.Generation): read the generation, render, read it again,
// and Put only when the two reads match. Put drops installs carrying a
// generation older than the cache's current one, so a slow renderer can
// never resurrect stale bytes after a flush.
package gencache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a generation-checked LRU from K to V. The zero value is not
// usable; call New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	hits, misses atomic.Uint64

	mu      sync.Mutex
	gen     uint64
	cap     int
	entries map[K]*list.Element
	lru     *list.List // front = most recently used
}

type node[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries (capacity < 1
// is treated as 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:     capacity,
		entries: make(map[K]*list.Element),
		lru:     list.New(),
	}
}

// flushTo discards everything when gen is newer than the cached generation.
// The caller holds c.mu.
func (c *Cache[K, V]) flushTo(gen uint64) {
	if gen > c.gen {
		clear(c.entries)
		c.lru.Init()
		c.gen = gen
	}
}

// Get returns the value cached under key at generation gen. A generation
// newer than the cache's flushes the whole cache first (every entry is
// stale); a generation older than the cache's cannot be served and misses.
func (c *Cache[K, V]) Get(gen uint64, key K) (V, bool) {
	c.mu.Lock()
	c.flushTo(gen)
	if el, ok := c.entries[key]; ok && gen == c.gen {
		c.lru.MoveToFront(el)
		v := el.Value.(*node[K, V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put installs val under key at generation gen, evicting the least recently
// used entry when full. Installs older than the cache's current generation
// are dropped — the renderer raced a mutation and its bytes are already
// stale.
func (c *Cache[K, V]) Put(gen uint64, key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushTo(gen)
	if gen < c.gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*node[K, V]).val = val
		c.lru.MoveToFront(el)
		return
	}
	if len(c.entries) >= c.cap {
		oldest := c.lru.Back()
		if oldest != nil {
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*node[K, V]).key)
		}
	}
	c.entries[key] = c.lru.PushFront(&node[K, V]{key: key, val: val})
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters is a snapshot of cache effectiveness, embedded in the serving
// layers' Metrics so operators can see the cache working.
type Counters struct {
	Hits   uint64
	Misses uint64
}

// HitRatio returns hits/(hits+misses), 0 when idle.
func (c Counters) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Stats returns the hit/miss counters accumulated since construction.
func (c *Cache[K, V]) Stats() Counters {
	return Counters{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
