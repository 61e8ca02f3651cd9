package engine

import "vitdyn/internal/lru"

// DefaultStoreCapacity bounds a store created with capacity <= 0: enough
// for every sweep this repository ships (the largest, a channelStep-64
// SegFormer sweep, costs ~2k distinct signatures) with room for several
// backends, while one entry is only a key and a couple of floats.
const DefaultStoreCapacity = 16384

// storeKey identifies one cached cost vector: which substrate priced the
// graph, the substrate's cost-model epoch (see BackendEpoch), and the
// graph's cost-relevant shape signature. Epoch in the key means a
// backend upgrade misses cleanly instead of serving stale costs; the old
// epoch's entries age out of the LRU on their own.
type storeKey struct {
	backend string
	epoch   uint64
	sig     uint64
}

func hashStoreKey(k storeKey) uint64 {
	return lru.HashUint64(lru.HashUint64(lru.HashString(lru.HashSeed, k.backend), k.epoch), k.sig)
}

// Store is the CostCache implementation: a sharded, LRU-evicting
// (backend name, epoch, graph signature) → cost-vector store with
// hit/miss/error/eviction accounting. Every engine built without an
// explicit cache owns one; the serving layer shares one across all
// requests. A Store is safe for concurrent use.
type Store struct {
	lru *lru.Cache[storeKey, []float64]
}

var _ CostCache = (*Store)(nil)

// NewStore returns a store holding at most capacity entries;
// capacity <= 0 selects DefaultStoreCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{lru: lru.New[storeKey, []float64](capacity, hashStoreKey, nil)}
}

// GetOrComputeVector returns the cached cost vector for (backend,
// epoch, sig), computing it once on a miss (see lru.Cache.GetOrCompute:
// racers share one compute, errors are never cached). The returned
// slice is shared with the cache and must not be mutated.
func (s *Store) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	vals, _, err := s.lru.GetOrCompute(storeKey{backend: backend, epoch: epoch, sig: sig}, 0, compute)
	return vals, err
}

// GetOrCompute is the scalar convenience form of GetOrComputeVector: the
// value is stored as (and shared with) a 1-vector.
func (s *Store) GetOrCompute(backend string, epoch, sig uint64, compute func() (float64, error)) (float64, error) {
	vals, err := s.GetOrComputeVector(backend, epoch, sig, func() ([]float64, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return []float64{v}, nil
	})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// Range calls fn for every finished, healthy entry until fn returns
// false, never blocking on an in-flight compute (see lru.Cache.Range);
// vals is shared with the store and must not be mutated.
func (s *Store) Range(fn func(backend string, epoch, sig uint64, vals []float64) bool) {
	s.lru.Range(func(k storeKey, vals []float64) bool {
		return len(vals) == 0 || fn(k.backend, k.epoch, k.sig, vals)
	})
}

// Contains reports whether (backend, epoch, sig) is resident, without
// touching recency order or counters (for tests and diagnostics).
func (s *Store) Contains(backend string, epoch, sig uint64) bool {
	return s.lru.Contains(storeKey{backend: backend, epoch: epoch, sig: sig})
}

// Remove drops (backend, epoch, sig), reporting whether it was
// resident: how an import that fails midway takes back what it seeded.
func (s *Store) Remove(backend string, epoch, sig uint64) bool {
	return s.lru.Remove(storeKey{backend: backend, epoch: epoch, sig: sig})
}

// Len returns the number of resident entries.
func (s *Store) Len() int { return s.lru.Len() }

// StoreStats is the /statsz store section: the lru.Stats counters a
// store moves.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Errors    int64 `json:"errors"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (st StoreStats) HitRate() float64 { return lru.HitRate(st.Hits, st.Misses) }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	st := s.lru.Stats()
	return StoreStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Errors:    st.Errors,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Capacity:  st.Capacity,
	}
}
