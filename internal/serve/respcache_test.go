package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vitdyn/internal/engine"
	"vitdyn/internal/obs"
	"vitdyn/internal/rdd"
)

// replayBody is a small replay request used across the golden tests.
const replayBody = `{"catalog":{"family":"ofa","backend":"flops"},"trace":{"kind":"sinusoid","frames":64},"policies":["dynamic","static-full"]}`

// TestResponseBytesGoldenAcrossEndpoints is the golden check for the
// pre-encoded response cache: for each cacheable endpoint, the bytes
// served from the cache must equal the bytes the cold path freshly
// encoded — not structurally, byte for byte.
func TestResponseBytesGoldenAcrossEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	// GET /v1/catalog.
	url := ts.URL + "/v1/catalog?family=ofa&backend=flops"
	status, cold := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("catalog cold status %d, body %s", status, cold)
	}
	status, warm := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("catalog warm status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("catalog cached bytes differ from fresh encode:\n got: %s\nwant: %s", warm, cold)
	}
	if rc := srv.RespCache().Stats(); rc.Hits != 1 {
		t.Fatalf("catalog warm repeat missed the response cache: %+v", rc)
	}

	// POST /v1/replay.
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	status, cold = post("/v1/replay", replayBody)
	if status != http.StatusOK {
		t.Fatalf("replay cold status %d, body %s", status, cold)
	}
	hitsBefore := srv.RespCache().Stats().Hits
	status, warm = post("/v1/replay", replayBody)
	if status != http.StatusOK {
		t.Fatalf("replay warm status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("replay cached bytes differ from fresh encode:\n got: %s\nwant: %s", warm, cold)
	}
	if rc := srv.RespCache().Stats(); rc.Hits != hitsBefore+1 {
		t.Fatalf("replay repeat missed the response cache: %+v", rc)
	}

	// POST /v1/batch.
	batchBody := `{"requests":[{"family":"ofa","backend":"flops"},{"family":"swin-retrained","backend":"flops"}]}`
	status, cold = post("/v1/batch", batchBody)
	if status != http.StatusOK {
		t.Fatalf("batch cold status %d, body %s", status, cold)
	}
	hitsBefore = srv.RespCache().Stats().Hits
	status, warm = post("/v1/batch", batchBody)
	if status != http.StatusOK {
		t.Fatalf("batch warm status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("batch cached bytes differ from fresh encode:\n got: %s\nwant: %s", warm, cold)
	}
	if rc := srv.RespCache().Stats(); rc.Hits != hitsBefore+1 {
		t.Fatalf("batch repeat missed the response cache: %+v", rc)
	}

	// Every warm hit must still carry exact framing: Content-Length set
	// and matching the body.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(buf.Len()) {
		t.Errorf("warm Content-Length %q, body is %d bytes", got, buf.Len())
	}
}

// TestReplayFormsShareCachedBytes: the single-trace form and the
// one-element batch form produce identical responses, so they share one
// cache entry — the second spelling is a warm hit on the first's bytes.
func TestReplayFormsShareCachedBytes(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	single := `{"catalog":{"family":"ofa","backend":"flops"},"trace":{"kind":"step","frames":16}}`
	batch := `{"catalog":{"family":"ofa","backend":"flops"},"traces":[{"kind":"step","frames":16}]}`
	var bodies [2][]byte
	for i, body := range []string{single, batch} {
		resp, err := http.Post(ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("form %d status %d, body %s", i, resp.StatusCode, buf.Bytes())
		}
		bodies[i] = buf.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("single and batch forms diverge:\n%s\n%s", bodies[0], bodies[1])
	}
	if rc := srv.RespCache().Stats(); rc.Hits != 1 || rc.Entries != 1 {
		t.Errorf("forms did not share one cache entry: %+v", rc)
	}
}

// TestRespCacheUnit exercises the cache directly: copy-on-put,
// precomputed Content-Length, size caps, and per-shard LRU eviction.
func TestRespCacheUnit(t *testing.T) {
	c := NewRespCache(4) // 4 entries → 1 shard, strict global LRU
	if n := c.Stats().Shards; n != 1 {
		t.Fatalf("capacity-4 cache got %d shards, want 1", n)
	}
	body := []byte(`{"paths":[]}` + "\n")
	c.put(respCatalog, "family=ofa", body, nil)
	body[0] = 'X' // the cache must have taken a private copy
	ent, ok := c.lookup(respCatalog, "family=ofa")
	if !ok {
		t.Fatal("resident entry missed")
	}
	if ent.body[0] != '{' {
		t.Error("put did not copy the body; caller mutation leaked into the cache")
	}
	if want := fmt.Sprint(len(body)); len(ent.clen) != 1 || ent.clen[0] != want {
		t.Errorf("precomputed Content-Length %v, want [%s]", ent.clen, want)
	}

	// Oversized bodies, empty bodies and empty keys are never cached.
	c.put(respCatalog, "huge", make([]byte, maxRespBodyBytes+1), nil)
	if _, ok := c.lookup(respCatalog, "huge"); ok {
		t.Error("oversized body was cached")
	}
	c.put(respCatalog, "empty", nil, nil)
	if _, ok := c.lookup(respCatalog, "empty"); ok {
		t.Error("empty body was cached")
	}
	c.put(respCatalog, "", body, nil)
	if _, ok := c.lookup(respCatalog, ""); ok {
		t.Error("empty key was cached")
	}

	// Kinds are separate namespaces.
	c.put(respReplay, "family=ofa", []byte("replay\n"), nil)
	ent, ok = c.lookup(respCatalog, "family=ofa")
	if !ok || ent.body[0] != '{' {
		t.Error("replay key collided with catalog key")
	}

	// LRU eviction: fill past capacity, oldest untouched entry leaves.
	small := NewRespCache(2)
	small.put(respCatalog, "a", body, nil)
	small.put(respCatalog, "b", body, nil)
	small.lookup(respCatalog, "a") // refresh a
	small.put(respCatalog, "c", body, nil)
	if _, ok := small.lookup(respCatalog, "b"); ok {
		t.Error("LRU kept the stale entry")
	}
	if _, ok := small.lookup(respCatalog, "a"); !ok {
		t.Error("LRU evicted the refreshed entry")
	}
	if st := small.Stats(); st.Evictions != 1 {
		t.Errorf("evictions %d, want 1", st.Evictions)
	}
}

// TestRespCacheStaleStampInvalidates: a resident entry whose backend
// moved to a new epoch is dropped on lookup, counted as an invalidation
// plus a miss, never served.
func TestRespCacheStaleStampInvalidates(t *testing.T) {
	defer engine.SetEpochSalt(0)
	engine.SetEpochSalt(0)
	backend := engine.FLOPs()
	c := NewRespCache(8)
	c.put(respCatalog, "k", []byte("body\n"),
		[]epochStamp{{backend: backend, epoch: engine.BackendEpoch(backend)}})
	if _, ok := c.lookup(respCatalog, "k"); !ok {
		t.Fatal("fresh stamp missed")
	}
	engine.SetEpochSalt(77)
	if _, ok := c.lookup(respCatalog, "k"); ok {
		t.Fatal("stale stamp served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Errorf("after salt flip: %+v, want 1 invalidation, 0 entries", st)
	}
}

// TestBatchEpochSaltInvalidatesCachedBytes drives the invalidation
// through the full endpoint: cached batch bytes are dropped when the
// epoch salt flips, and the rebuilt response is byte-identical.
func TestBatchEpochSaltInvalidatesCachedBytes(t *testing.T) {
	defer engine.SetEpochSalt(0)
	engine.SetEpochSalt(0)
	srv, ts := newTestServer(t, Options{})
	body := `{"requests":[{"family":"ofa","backend":"flops"}]}`
	post := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	cold := post()
	warm := post()
	if !bytes.Equal(cold, warm) {
		t.Error("warm batch differs from cold")
	}
	if rc := srv.RespCache().Stats(); rc.Hits != 1 {
		t.Fatalf("warm batch missed the cache: %+v", rc)
	}
	engine.SetEpochSalt(99)
	bumped := post()
	if !bytes.Equal(cold, bumped) {
		t.Error("post-bump batch differs (pipeline should be deterministic across epochs)")
	}
	rc := srv.RespCache().Stats()
	if rc.Invalidations != 1 || rc.Hits != 1 {
		t.Errorf("post-bump accounting: %+v, want 1 invalidation and no new hit", rc)
	}
}

// TestUncacheableReplayMovesNoMissCounter: a replay whose inline values
// trace pushes its cache key past maxRespKeyBytes is uncacheable, so it
// must move neither the cumulative nor the windowed miss counter (the
// windowed one used to count it, reading the window hit rate low).
func TestUncacheableReplayMovesNoMissCounter(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	values := make([]float64, 20000)
	for i := range values {
		values[i] = 1e9 + float64(i)
	}
	spec := rdd.TraceSpec{Kind: "values", Values: values}
	req := ReplayRequest{Catalog: CatalogRequest{Family: "ofa", Backend: "flops"}, Trace: &spec}
	if key := replayCacheKey(req.Catalog, []rdd.TraceSpec{spec}, nil); key != "" {
		t.Fatalf("cache key of %d bytes accepted; test is vacuous", len(key))
	}
	for i := 0; i < 2; i++ {
		if status, body := postReplay(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("replay %d status %d, body %.200s", i, status, body)
		}
	}
	if rc := srv.RespCache().Stats(); rc.Misses != 0 || rc.Hits != 0 {
		t.Errorf("uncacheable replays moved the response cache counters: %+v", rc)
	}
	if n := srv.wRespMisses.Sum(time.Hour); n != 0 {
		t.Errorf("uncacheable replays counted %d windowed misses, want 0", n)
	}
}

// TestMiddlewareFiresOnFastPath is the regression test for the cached
// bytes path: a response served pre-mux must still carry the request ID
// header, observe the per-route histogram, bump the status-class
// counter, and emit an access-log line — the middleware contract does
// not narrow because the mux was skipped.
func TestMiddlewareFiresOnFastPath(t *testing.T) {
	var logBuf bytes.Buffer
	srv := NewServer(Options{AccessLog: obs.NewAccessLogger(&logBuf, obs.JSONFormat)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/catalog?family=ofa&backend=flops"
	if status, body := get(t, url); status != http.StatusOK {
		t.Fatalf("cold status %d, body %s", status, body)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	const inboundID = "fastpath-regression-1"
	req.Header.Set("X-Request-Id", inboundID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	if rc := srv.RespCache().Stats(); rc.Hits != 1 {
		t.Fatalf("warm request did not take the fast path: %+v", rc)
	}
	if got := resp.Header.Get("X-Request-Id"); got != inboundID {
		t.Errorf("fast path dropped the request ID: got %q, want %q", got, inboundID)
	}
	// Close the front end so both handlers have fully returned — observe
	// runs after the response body is on the wire.
	ts.Close()

	rm := srv.routeStats["/v1/catalog"]
	if got := rm.latency.Count(); got != 2 {
		t.Errorf("per-route histogram observed %d requests, want 2", got)
	}
	if got := rm.status[2].Value(); got != 2 { // index 2 = 2xx
		t.Errorf("2xx counter %d, want 2", got)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var entry obs.AccessEntry
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("access line not JSON: %v", err)
	}
	if entry.RequestID != inboundID || entry.Status != http.StatusOK || entry.Route != "/v1/catalog" {
		t.Errorf("fast-path access entry %+v, want id %q status 200 route /v1/catalog", entry, inboundID)
	}
	if entry.Bytes == 0 {
		t.Error("fast-path access entry recorded 0 bytes")
	}
}

// nullResponseWriter is a header-only ResponseWriter for allocation
// measurements: body bytes are counted by the handler, discarded here.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestCatalogFastPathZeroAllocs pins the acceptance bar: a warm
// /v1/catalog with an inbound request ID allocates nothing at all,
// measured through the full HTTP handler (middleware included).
func TestCatalogFastPathZeroAllocs(t *testing.T) {
	srv := NewServer(Options{})
	h := srv.Handler()
	cold := httptest.NewRequest(http.MethodGet, "/v1/catalog?family=ofa&backend=flops", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, cold)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold status %d, body %s", rec.Code, rec.Body.String())
	}

	warm := httptest.NewRequest(http.MethodGet, "/v1/catalog?family=ofa&backend=flops", nil)
	warm.Header.Set("X-Request-Id", "warm-alloc-probe")
	w := &nullResponseWriter{h: make(http.Header)}
	if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, warm) }); allocs != 0 {
		t.Errorf("warm catalog through the handler allocates %.1f objects/op, want 0", allocs)
	}
	if rc := srv.RespCache().Stats(); rc.Hits == 0 {
		t.Fatal("allocation probe never hit the response cache; measurement is vacuous")
	}
}

// TestRespCacheConcurrentInvalidation hammers the shards from many
// goroutines while the epoch salt flips underneath them — run under
// -race, this pins the locking discipline of lookup/put/invalidate; the
// counter invariant (every lookup is a hit or a miss) pins that no
// outcome is dropped on the invalidation path.
func TestRespCacheConcurrentInvalidation(t *testing.T) {
	defer engine.SetEpochSalt(0)
	engine.SetEpochSalt(0)
	backend := engine.FLOPs()
	c := NewRespCache(128)
	if c.Stats().Shards < 2 {
		t.Fatalf("capacity-128 cache got %d shards; concurrency test wants several", c.Stats().Shards)
	}
	const (
		workers = 8
		ops     = 300
	)
	body := []byte(`{"k":"v"}` + "\n")
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%d", (g*ops+i)%32)
				if ent, ok := c.lookup(respCatalog, key); ok {
					if !bytes.Equal(ent.body, body) {
						t.Errorf("cached body corrupted: %q", ent.body)
						return
					}
					continue
				}
				c.put(respCatalog, key, body,
					[]epochStamp{{backend: backend, epoch: engine.BackendEpoch(backend)}})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			engine.SetEpochSalt(uint64(i % 3))
		}
	}()
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*ops {
		t.Errorf("lookup accounting leaked: %d hits + %d misses != %d lookups",
			st.Hits, st.Misses, workers*ops)
	}
}

// BenchmarkHandlerCatalogWarm measures the full warm path through the
// HTTP handler — the number loadgen's p50 is made of.
func BenchmarkHandlerCatalogWarm(b *testing.B) {
	srv := NewServer(Options{})
	h := srv.Handler()
	cold := httptest.NewRequest(http.MethodGet, "/v1/catalog?family=ofa&backend=flops", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, cold)
	if rec.Code != http.StatusOK {
		b.Fatalf("cold status %d", rec.Code)
	}
	warm := httptest.NewRequest(http.MethodGet, "/v1/catalog?family=ofa&backend=flops", nil)
	warm.Header.Set("X-Request-Id", "bench")
	w := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, warm)
	}
}
