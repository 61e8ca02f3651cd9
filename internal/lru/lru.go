// Package lru is the one memoization primitive behind every cache tier
// in vitdyn: a generic, sharded LRU map with per-entry single-flight
// computation, never-cached errors, an on-hit staleness check and one
// set of counters. The cost store (engine.Store), the catalog and
// response caches (internal/serve) and costdb's default fast tier are
// thin keyed wrappers over it.
//
// Capacity is split exactly across a power-of-two shard count derived
// from it (at most 16 shards, at least 8 entries each), so tiny caches
// get one shard and strict global LRU order. Every entry carries the tag
// it was inserted under (a cost-model epoch, or 0): a lookup under
// another tag, or a finished value the cache's stale func rejects, drops
// the entry as one invalidation. Because the tag is fixed at insert, a
// computation started under an old tag is never joined under a new one.
package lru

import (
	"sync"
	"sync/atomic"
)

// shardsFor returns the shard count for a capacity: the largest power
// of two ≤ min(16, capacity/8), floored at 1.
func shardsFor(capacity int) int {
	n := 1
	for n*2 <= 16 && n*2 <= capacity/8 {
		n *= 2
	}
	return n
}

// entry is one resident key. The once makes concurrent callers of a
// cold key compute once and share the result; done is set (release
// ordering) after the once completes, so non-blocking readers (Get,
// Range) can observe finished entries without joining the once — an
// empty once.Do from a reader could otherwise win the race and suppress
// the real compute. key and tag are immutable after insert.
type entry[K comparable, V any] struct {
	key        K
	tag        uint64
	prev, next *entry[K, V] // LRU list links, guarded by the shard mutex
	once       sync.Once
	done       atomic.Bool
	val        V
	err        error
}

// shard is one independently locked slice of the cache: a map for
// lookup and an intrusive circular LRU list through root (root.next is
// the most recently used entry, root.prev the eviction candidate).
type shard[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*entry[K, V]
	root entry[K, V]
	cap  int
}

// link puts e at the front of the LRU list.
func (s *shard[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &s.root, s.root.next
	e.prev.next, e.next.prev = e, e
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard[K, V]) toFront(e *entry[K, V]) {
	s.unlink(e)
	s.link(e)
}

// remove drops e from the shard. Caller holds s.mu.
func (s *shard[K, V]) remove(e *entry[K, V]) {
	s.unlink(e)
	delete(s.m, e.key)
}

// Cache is a bounded, sharded LRU map from K to V with single-flight
// computation. Safe for concurrent use; construct with New.
type Cache[K comparable, V any] struct {
	shards   []shard[K, V]
	shift    uint // 64 - log2(len(shards)); see shardFor
	capacity int
	hash     func(K) uint64
	stale    func(V) bool

	hits          atomic.Int64
	misses        atomic.Int64
	errors        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New returns a cache holding at most capacity entries (capacity < 1 is
// treated as 1), sharded by hash. stale, when non-nil, is consulted
// outside any lock on every hit of a finished entry; returning true
// drops the entry as an invalidation.
func New[K comparable, V any](capacity int, hash func(K) uint64, stale func(V) bool) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return newSharded(capacity, shardsFor(capacity), hash, stale)
}

// newSharded is New with an explicit power-of-two shard count ≤
// capacity (tests and the sharding benchmark compare counts).
func newSharded[K comparable, V any](capacity, shards int, hash func(K) uint64, stale func(V) bool) *Cache[K, V] {
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), shift: 64, capacity: capacity, hash: hash, stale: stale}
	for n := shards; n > 1; n >>= 1 {
		c.shift--
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[K]*entry[K, V])
		s.root.prev, s.root.next = &s.root, &s.root
		s.cap = capacity / shards
		if i < capacity%shards {
			s.cap++
		}
	}
	return c
}

// shardFor picks k's shard from the high bits of a Fibonacci-scrambled
// hash, so a caller hash whose low bits cluster still spreads. With one
// shard the shift is 64 and the index is always 0.
func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[(c.hash(k)*0x9E3779B97F4A7C15)>>c.shift]
}

// isStale reports whether e may no longer be served to a caller
// presenting tag.
func (c *Cache[K, V]) isStale(e *entry[K, V], tag uint64) bool {
	return e.tag != tag || (c.stale != nil && e.done.Load() && e.err == nil && c.stale(e.val))
}

// find returns k's resident entry, refreshed to most recently used, or
// nil when absent or stale. A stale entry is dropped here and counted as
// exactly one invalidation, however many callers see it at once.
func (c *Cache[K, V]) find(s *shard[K, V], k K, tag uint64) *entry[K, V] {
	s.mu.Lock()
	e := s.m[k]
	if e != nil {
		s.toFront(e)
	}
	s.mu.Unlock()
	if e == nil || !c.isStale(e, tag) {
		return e
	}
	if c.drop(s, e) {
		c.invalidations.Add(1)
	}
	return nil
}

// insert makes e resident at the front of s, evicting from the back
// past capacity. With join, a resident entry of the same key and tag —
// a concurrent inserter won the race — is refreshed and returned
// instead; otherwise the resident entry is replaced, counting an
// invalidation when it carried another tag.
func (c *Cache[K, V]) insert(s *shard[K, V], e *entry[K, V], join bool) *entry[K, V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.m[e.key]; cur != nil {
		if join && cur.tag == e.tag {
			s.toFront(cur)
			return cur
		}
		s.remove(cur)
		if cur.tag != e.tag {
			c.invalidations.Add(1)
		}
	}
	s.link(e)
	s.m[e.key] = e
	for len(s.m) > s.cap {
		s.remove(s.root.prev)
		c.evictions.Add(1)
	}
	return e
}

// drop removes e if it is still the resident entry for its key — a
// concurrent eviction plus re-insert of the key must not have its fresh
// entry removed by a stale failure or invalidation. It reports whether
// e was removed.
func (c *Cache[K, V]) drop(s *shard[K, V], e *entry[K, V]) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[e.key] != e {
		return false
	}
	s.remove(e)
	return true
}

// GetOrCompute returns the value for k under tag, running compute at
// most once per resident entry: concurrent callers of a cold key share
// one computation. ran reports whether this caller's compute produced
// the value; the caller that ran counts as a miss, callers that shared
// a finished or in-flight computation as hits. Errors are returned but
// never cached: whichever caller observes the failure drops the entry
// (identity-checked) and counts an error, so the next call retries. A
// resident entry under another tag is replaced, never joined.
func (c *Cache[K, V]) GetOrCompute(k K, tag uint64, compute func() (V, error)) (v V, ran bool, err error) {
	s := c.shardFor(k)
	e := c.find(s, k, tag)
	if e == nil {
		e = c.insert(s, &entry[K, V]{key: k, tag: tag}, true)
	}
	e.once.Do(func() {
		ran = true
		e.val, e.err = compute()
	})
	e.done.Store(true)
	if e.err != nil {
		c.drop(s, e)
		c.errors.Add(1)
		return v, ran, e.err
	}
	if ran {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.val, ran, nil
}

// Get returns k's value when it is resident under tag, finished and
// healthy, without ever blocking on an in-flight computation. It counts
// a hit or a miss.
func (c *Cache[K, V]) Get(k K, tag uint64) (V, bool) {
	v, ok := c.Peek(k, tag)
	if !ok {
		c.misses.Add(1)
	}
	return v, ok
}

// Peek is Get without counting a miss: for a fast-path probe whose miss
// the caller resolves through GetOrCompute, which counts the outcome.
func (c *Cache[K, V]) Peek(k K, tag uint64) (V, bool) {
	s := c.shardFor(k)
	e := c.find(s, k, tag)
	if e == nil || !e.done.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	return e.val, true
}

// Put makes v resident for k under tag, replacing any entry for k.
func (c *Cache[K, V]) Put(k K, tag uint64, v V) {
	e := &entry[K, V]{key: k, tag: tag, val: v}
	e.once.Do(func() {})
	e.done.Store(true)
	c.insert(c.shardFor(k), e, false)
}

// Remove drops k's entry, in flight or finished, reporting whether one
// was resident. A caller sharing an in-flight computation still receives
// its result.
func (c *Cache[K, V]) Remove(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[k]
	if e == nil {
		return false
	}
	s.remove(e)
	return true
}

// Contains reports whether k is resident, without touching recency
// order or counters.
func (c *Cache[K, V]) Contains(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k] != nil
}

// Range calls fn for every resident entry whose computation finished
// successfully, stopping early if fn returns false. Order is
// unspecified; recency and counters are untouched. In-flight and failed
// entries are skipped, so Range never blocks on a slow compute.
func (c *Cache[K, V]) Range(fn func(K, V) bool) {
	var ents []*entry[K, V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ents = ents[:0]
		for _, e := range s.m {
			ents = append(ents, e)
		}
		s.mu.Unlock()
		for _, e := range ents {
			if e.done.Load() && e.err == nil && !fn(e.key, e.val) {
				return
			}
		}
	}
}

// Len returns the number of resident entries, in-flight ones included.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time accounting snapshot; the JSON names are the
// /statsz cache-section fields. Hits count lookups served from a
// resident entry (including joins of an in-flight computation); misses
// count computations actually run plus Get probes that found nothing
// usable; errors count failed computations (never cached, so neither
// hits nor misses); evictions count entries dropped under capacity
// pressure; invalidations count stale entries dropped. Each counter is
// individually exact, the set approximate under concurrent load.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Errors        int64 `json:"errors"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	Shards        int   `json:"shards"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (st Stats) HitRate() float64 {
	return HitRate(st.Hits, st.Misses)
}

// HitRate returns hits / (hits + misses), or 0 when both are zero — the
// one hit-rate definition every cache view reports.
func HitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Errors:        c.errors.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Capacity:      c.capacity,
		Shards:        len(c.shards),
	}
}

// FNV-1a building blocks for the per-cache shard hash functions.
const (
	HashSeed = 14695981039346656037
	prime64  = 1099511628211
)

// HashString folds s into h, followed by a separator byte so adjacent
// strings ("ab","c") and ("a","bc") hash apart.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return (h ^ 0xff) * prime64
}

// HashUint64 folds v into h.
func HashUint64(h, v uint64) uint64 {
	return (h ^ v) * prime64
}
