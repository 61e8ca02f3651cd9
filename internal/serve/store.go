// Package serve is the request-level serving layer on top of the sweep
// engine: one cost store (engine.Store) shared by every engine the server
// creates, a catalog-result cache and a pre-encoded response cache — all
// three thin keyed wrappers over the generic internal/lru cache — and an
// HTTP daemon exposing catalog construction, profiling and introspection
// endpoints. It is the piece that amortizes graph costing across many
// concurrent catalog requests — the same sharing-of-costed-shapes idea
// the paper's RDD catalogs exploit within one sweep, lifted to the whole
// process.
package serve

import (
	"fmt"
	"io"

	"vitdyn/internal/engine"
)

// Store is the process-wide (backend, epoch, graph signature) →
// cost-vector store; see engine.Store.
type Store = engine.Store

// StoreStats is a point-in-time view of a Store's counters.
type StoreStats = engine.StoreStats

// DefaultStoreCapacity bounds a store created with capacity <= 0.
const DefaultStoreCapacity = engine.DefaultStoreCapacity

// NewStore returns a store holding at most capacity entries;
// capacity <= 0 selects DefaultStoreCapacity.
func NewStore(capacity int) *Store { return engine.NewStore(capacity) }

// InstallProcessStore backs the cmd binaries' -cache flag: it installs
// a fresh store of the given capacity as the process-wide default
// engine cache and returns a teardown function that uninstalls it and
// prints the final hit/miss/eviction accounting to w, prefixed with the
// binary name.
func InstallProcessStore(capacity int, prefix string, w io.Writer) func() {
	store := NewStore(capacity)
	engine.SetDefaultCache(store)
	return func() {
		engine.SetDefaultCache(nil)
		st := store.Stats()
		fmt.Fprintf(w, "%s: cost store: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries\n",
			prefix, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, st.Entries)
	}
}
