package serve

// This file wires the durable cost tier (internal/costdb) into the
// serving layer: the /v1/store/export and /v1/store/import endpoints
// stream the snapshot format over HTTP so one daemon can seed another,
// /v1/store/delta serves the incremental form gossip pulls (fleet
// sharing of costed shapes without a coordination service), and
// InstallProcessCostDB backs the cmd binaries' -cache-path flag the way
// InstallProcessStore backs -cache.

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
)

// maxImportBodyBytes bounds a /v1/store/import body. At ~30 bytes per
// entry this admits millions of costed shapes — far past any store this
// repository can fill — while keeping one request from exhausting the
// daemon.
const maxImportBodyBytes = 64 << 20

// cache returns the CostCache every request engine shares: the durable
// tier when the server was opened with one, else the in-memory store.
func (s *Server) cache() engine.CostCache {
	if s.opts.DB != nil {
		return s.opts.DB
	}
	return s.opts.Store
}

// storeEntries materializes the server's full cost contents in the
// canonical snapshot order: the durable tier when present (it is a
// superset of the store, modulo eviction), else the resident store.
func (s *Server) storeEntries() []costdb.Entry {
	var entries []costdb.Entry
	s.opts.Store.Range(func(backend string, epoch, sig uint64, vals []float64) bool {
		entries = append(entries, costdb.Entry{Backend: backend, Epoch: epoch, Sig: sig, Vals: vals})
		return true
	})
	costdb.SortEntries(entries)
	return entries
}

// handleStoreExport serves GET /v1/store/export: the full cost-store
// contents as one checksummed snapshot stream — the exact bytes
// /v1/store/import (or a costdb.Persistent import) accepts.
func (s *Server) handleStoreExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/store/export streams the cost store as a snapshot")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="vitdyn-store.vcdb"`)
	var err error
	if db := s.opts.DB; db != nil {
		err = db.ExportTo(w)
	} else {
		err = costdb.WriteSnapshot(w, s.storeEntries())
	}
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the
		// client's checksum verification fails loudly.
		s.exportErrors.Add(1)
		return
	}
	s.exports.Add(1)
}

// importResponse is the POST /v1/store/import body: how many entries
// the snapshot held and how many were new to this server.
type importResponse struct {
	Entries  int `json:"entries"`
	Imported int `json:"imported"`
}

// handleStoreImport serves POST /v1/store/import: merge a snapshot
// stream into the server's cost store (and its durable tier, when
// present). Entries already resident are left untouched, so seeding is
// idempotent and two daemons can exchange stores in either order. A
// snapshot holding a non-finite or non-positive cost is rejected whole
// (400, counted in import_errors) before anything is seeded.
func (s *Server) handleStoreImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a snapshot stream (see /v1/store/export) to /v1/store/import")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxImportBytes)
	var total, added int
	var err error
	if db := s.opts.DB; db != nil {
		total, added, err = db.Import(r.Body)
	} else {
		// Stage the whole stream first: the snapshot's only integrity
		// check is its trailing CRC, so nothing enters the store until
		// every byte has verified — a snapshot corrupted in transit must
		// reject cleanly, not seed wrong costs.
		var staged []costdb.Entry
		total, err = costdb.ReadSnapshot(r.Body, func(e costdb.Entry) error {
			staged = append(staged, e)
			return nil
		})
		for i := 0; err == nil && i < len(staged); i++ {
			err = staged[i].Validate()
		}
		if err == nil {
			added, err = seedAll(s.opts.Store, staged)
		}
	}
	if err != nil {
		// Staging means nothing entered the store; count the rejection so
		// a fleet shipping bad snapshots is visible in /statsz.
		s.importErrors.Add(1)
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad snapshot stream after %d entries: %v", total, err)
		return
	}
	s.imports.Add(1)
	s.importedEntries.Add(int64(added))
	writeJSON(w, http.StatusOK, importResponse{Entries: total, Imported: added})
}

// seedStore is what an import seeds: a cost cache that can take an
// entry back out (*Store).
type seedStore interface {
	engine.CostCache
	Remove(backend string, epoch, sig uint64) bool
}

// seedAll seeds validated entries all or nothing: when a Seed fails
// midway (it joined a concurrent computation of the same key that
// failed), the entries this call added are removed again. It returns
// how many entries were new.
func seedAll(store seedStore, entries []costdb.Entry) (int, error) {
	var added []costdb.Entry
	for _, e := range entries {
		isNew, err := engine.Seed(store, e.Backend, e.Epoch, e.Sig, e.Vals)
		if err != nil {
			for _, a := range added {
				store.Remove(a.Backend, a.Epoch, a.Sig)
			}
			return 0, err
		}
		if isNew {
			added = append(added, e)
		}
	}
	return len(added), nil
}

// handleStoreDelta serves GET /v1/store/delta?since=<gen:seq>: every
// cost record inserted since the cursor, as one checksummed delta
// stream — the pull source of the gossip loop. An empty or stale cursor
// degrades to a full dump in the same framing. Without a durable tier
// there is no insert log to cursor into, so the resident store is
// served as an uncursored (generation-0) full dump: peers re-merge it
// each round, idempotent but not incremental.
func (s *Server) handleStoreDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/store/delta?since=gen:seq streams cost records inserted since the cursor")
		return
	}
	since, err := costdb.ParseCursor(r.URL.Query().Get("since"))
	if err != nil {
		s.deltaErrors.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var sent int
	if db := s.opts.DB; db != nil {
		_, sent, err = db.ExportDeltaTo(w, since)
	} else {
		entries := s.storeEntries()
		sent, err = len(entries), costdb.WriteDelta(w, costdb.DeltaHeader{}, entries)
	}
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the
		// client's checksum verification fails loudly.
		s.deltaErrors.Add(1)
		return
	}
	s.deltas.Add(1)
	s.deltaEntriesSent.Add(int64(sent))
}

// InstallProcessCostDB backs the cmd binaries' -cache-path flag: a
// fresh store of the given capacity under a durable costdb tier at dir,
// installed as the process-wide default engine cache. The returned
// teardown uninstalls it, closes the durable tier (compacting the WAL
// into a fresh snapshot) and prints the combined accounting to w — so
// a re-run of the same experiments starts warm from disk.
func InstallProcessCostDB(capacity int, dir, prefix string, w io.Writer) (func(), error) {
	store := NewStore(capacity)
	db, err := costdb.Open(dir, store, costdb.Options{StaleEpoch: engine.StaleEpoch})
	if err != nil {
		return nil, err
	}
	engine.SetDefaultCache(db)
	return func() {
		engine.SetDefaultCache(nil)
		st := store.Stats()
		dst := db.Stats()
		if err := db.Close(); err != nil {
			fmt.Fprintf(w, "%s: cost store: close: %v\n", prefix, err)
		}
		fmt.Fprintf(w, "%s: cost store: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries\n",
			prefix, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, st.Entries)
		fmt.Fprintf(w, "%s: costdb %s: %d loaded, %d entries, %d appends, %d disk hits, %d compactions\n",
			prefix, dir, dst.LoadedEntries, dst.Entries, dst.Appends, dst.DiskHits, dst.Compactions)
	}, nil
}
