package serve

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"testing"

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
)

// TestStoreImportRejectsBadCosts turns the NaN/-5 import probe into a
// regression test: a checksummed snapshot holding a non-finite or
// non-positive cost is rejected whole with 400, counted as an import
// error, and seeds nothing — on the memory-only and the durable path —
// even when its valid entries come first.
func TestStoreImportRejectsBadCosts(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -5, 0, math.Inf(1), math.Inf(-1)} {
		entries := []costdb.Entry{
			{Backend: "flops-proxy", Sig: 1, Vals: []float64{1}},
			{Backend: "flops-proxy", Sig: 2, Vals: []float64{2, 3}},
			{Backend: "flops-proxy", Sig: 3, Vals: []float64{4, bad}},
		}
		var snap bytes.Buffer
		if err := costdb.WriteSnapshot(&snap, entries); err != nil {
			t.Fatal(err)
		}
		post := func(url string) int {
			t.Helper()
			resp, err := http.Post(url+"/v1/store/import", "application/octet-stream", bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}

		srv, ts := newTestServer(t, Options{})
		if status := post(ts.URL); status != http.StatusBadRequest {
			t.Errorf("cost %v: memory-only import %d, want 400", bad, status)
		}
		if n := srv.Store().Len(); n != 0 {
			t.Errorf("cost %v: memory-only import seeded %d entries", bad, n)
		}
		if got := srv.importErrors.Load(); got != 1 {
			t.Errorf("cost %v: import_errors %d, want 1", bad, got)
		}

		dbSrv, dbTS, db := newPersistentServer(t, t.TempDir())
		if status := post(dbTS.URL); status != http.StatusBadRequest {
			t.Errorf("cost %v: durable import %d, want 400", bad, status)
		}
		if st := db.Stats(); st.Entries != 0 || st.Appends != 0 {
			t.Errorf("cost %v: durable import committed state: %+v", bad, st)
		}
		if n := dbSrv.Store().Len(); n != 0 {
			t.Errorf("cost %v: durable import seeded %d entries", bad, n)
		}
		if got := dbSrv.importErrors.Load(); got != 1 {
			t.Errorf("cost %v: durable import_errors %d, want 1", bad, got)
		}
		db.Close()
	}
}

// failingStore fails the Seed of one signature, as joining a concurrent
// computation of the same key that fails does.
type failingStore struct {
	*Store
	failSig uint64
}

func (f failingStore) GetOrComputeVector(backend string, epoch, sig uint64, compute func() ([]float64, error)) ([]float64, error) {
	if sig == f.failSig {
		return nil, errors.New("joined a failed computation")
	}
	return f.Store.GetOrComputeVector(backend, epoch, sig, compute)
}

// TestSeedAllIsAllOrNothing: a Seed failing midway removes the entries
// the import had already added, and leaves entries resident before the
// import alone.
func TestSeedAllIsAllOrNothing(t *testing.T) {
	store := NewStore(0)
	if _, err := engine.Seed(store, "flops-proxy", 0, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	entries := []costdb.Entry{
		{Backend: "flops-proxy", Sig: 1, Vals: []float64{1}},
		{Backend: "flops-proxy", Sig: 2, Vals: []float64{2}},
		{Backend: "flops-proxy", Sig: 3, Vals: []float64{3}},
		{Backend: "flops-proxy", Sig: 4, Vals: []float64{4}},
	}
	if _, err := seedAll(failingStore{Store: store, failSig: 4}, entries); err == nil {
		t.Fatal("seedAll reported success past a failed Seed")
	}
	for _, sig := range []uint64{1, 3} {
		if store.Contains("flops-proxy", 0, sig) {
			t.Errorf("entry %d stayed seeded after the import failed", sig)
		}
	}
	if !store.Contains("flops-proxy", 0, 2) {
		t.Error("the failed import removed an entry resident before it")
	}

	added, err := seedAll(store, entries)
	if err != nil || added != 3 || store.Len() != 4 {
		t.Errorf("clean seedAll: added %d, err %v, %d resident; want 3, nil, 4", added, err, store.Len())
	}
}
