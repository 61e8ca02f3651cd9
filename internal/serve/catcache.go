package serve

// Catalog-level result cache. The cost store amortizes *per-shape*
// backend evaluations, but a fully warm /v1/catalog request still re-runs
// the whole generate → prefilter → cost → frontier pipeline — thousands
// of candidate constructions and store lookups to reproduce a catalog
// that cannot have changed. This cache memoizes the finished artifact:
// the canonicalized request spec maps straight to the built rdd.Catalog,
// so a repeat request is one map lookup — zero backend evaluations, zero
// generated candidates. Entries are tagged with the backend's cost-model
// epoch (engine.BackendEpoch); a backend upgrade flips the epoch and the
// stale catalog is invalidated on its next lookup instead of being served
// silently wrong — and a build still in flight under the old epoch is
// never joined by a request under the new one. Sharding, LRU order,
// single-flight builds and accounting are internal/lru's.

import (
	"vitdyn/internal/lru"
	"vitdyn/internal/rdd"
)

// DefaultCatalogCacheCapacity bounds a cache created with capacity <= 0.
// The request space is tiny — five families × a handful of datasets,
// variants, steps and backends — so 128 holds every spec this repository
// can serve with room for ad-hoc step values.
const DefaultCatalogCacheCapacity = 128

// catalogKey is the canonicalized identity of one catalog build: the
// request spec with defaults resolved (so "dataset omitted" and
// "dataset=ADE" share an entry) plus the resolved backend name. The
// worker budget is deliberately absent — the pipeline is deterministic,
// so worker count changes latency, never bytes.
type catalogKey struct {
	family  string
	dataset string
	variant string
	step    int
	backend string // resolved CostBackend.Name()
}

// catalogKeyFor canonicalizes a request the same way CatalogRequest.Seq
// resolves its defaults.
func catalogKeyFor(cr CatalogRequest, backendName string) catalogKey {
	dataset := cr.Dataset
	if dataset == "" {
		dataset = "ADE"
	}
	variant := cr.Variant
	if variant == "" {
		variant = "Tiny"
	}
	return catalogKey{
		family:  cr.Family,
		dataset: dataset,
		variant: variant,
		step:    cr.Step,
		backend: backendName,
	}
}

// hashCatalogKey is the catalog cache's shard hash over every key field.
func hashCatalogKey(k catalogKey) uint64 {
	h := lru.HashString(lru.HashSeed, k.family)
	h = lru.HashString(h, k.dataset)
	h = lru.HashString(h, k.variant)
	h = lru.HashString(h, k.backend)
	return lru.HashUint64(h, uint64(k.step))
}

// CatalogCache is a bounded LRU of built catalogs keyed by canonicalized
// request spec and tagged with the backend epoch. Safe for concurrent
// use.
type CatalogCache struct {
	lru *lru.Cache[catalogKey, *rdd.Catalog]
}

// NewCatalogCache returns a cache holding at most capacity catalogs;
// capacity <= 0 selects DefaultCatalogCacheCapacity.
func NewCatalogCache(capacity int) *CatalogCache {
	if capacity <= 0 {
		capacity = DefaultCatalogCacheCapacity
	}
	return &CatalogCache{lru: lru.New[catalogKey, *rdd.Catalog](capacity, hashCatalogKey, nil)}
}

// lookup returns the cached catalog for (key, epoch) when it is resident,
// fully built and healthy — the fast path handlers take before paying
// for a sweep slot. A resident entry of another epoch is invalidated,
// and entries still building or failed report absent without blocking.
// Only successful lookups count (as hits): the miss is counted by the
// getOrBuild that follows.
func (c *CatalogCache) lookup(key catalogKey, epoch uint64) (*rdd.Catalog, bool) {
	return c.lru.Peek(key, epoch)
}

// getOrBuild returns the catalog for (key, epoch), running build at most
// once per resident key — concurrent cold requests for one spec share a
// single sweep. Callers hold a sweep slot: build runs on the calling
// goroutine and must never acquire one itself (a slot-holder waiting on
// a slot-acquiring build is how slot pools deadlock). Build errors are
// returned but never cached. An entry resident under a different epoch
// is replaced.
func (c *CatalogCache) getOrBuild(key catalogKey, epoch uint64, build func() (*rdd.Catalog, error)) (*rdd.Catalog, error) {
	cat, _, err := c.lru.GetOrCompute(key, epoch, build)
	return cat, err
}

// Len returns the number of resident entries.
func (c *CatalogCache) Len() int { return c.lru.Len() }

// CatalogCacheStats is the /statsz catalog_cache section. Hits count
// lookups served from a built catalog (including joins of an in-flight
// build); misses count builds actually run; errors count failed builds
// (never cached); invalidations count entries dropped because their
// backend moved to a new cost-model epoch.
type CatalogCacheStats = lru.Stats

// Stats returns a snapshot of the cache counters.
func (c *CatalogCache) Stats() CatalogCacheStats { return c.lru.Stats() }
