package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

type testKey struct {
	name string
	n    int
}

func hashTestKey(k testKey) uint64 { return HashUint64(HashString(HashSeed, k.name), uint64(k.n)) }

func newTestCache(capacity int) *Cache[testKey, int] {
	return New[testKey, int](capacity, hashTestKey, nil)
}

func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

func TestShardsAndCapacityExact(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {15, 1}, {16, 2}, {100, 8}, {128, 16}, {256, 16}, {16384, 16},
	} {
		c := newTestCache(tc.capacity)
		st := c.Stats()
		if st.Capacity != tc.capacity || st.Shards != tc.shards {
			t.Errorf("capacity %d: got capacity %d over %d shards, want %d over %d",
				tc.capacity, st.Capacity, st.Shards, tc.capacity, tc.shards)
		}
		for i := 0; i < 3*tc.capacity; i++ {
			if _, _, err := c.GetOrCompute(testKey{n: i}, 0, value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := c.Len(); n > tc.capacity {
			t.Errorf("capacity %d: over-filled cache holds %d entries", tc.capacity, n)
		}
		if st := c.Stats(); st.Evictions != int64(3*tc.capacity-c.Len()) {
			t.Errorf("capacity %d: %d evictions for %d inserts and %d resident", tc.capacity, st.Evictions, 3*tc.capacity, c.Len())
		}
	}
}

func TestEvictionOrderLRU(t *testing.T) {
	c := newTestCache(3) // one shard: exact global LRU
	for i := 1; i <= 3; i++ {
		c.Put(testKey{n: i}, 0, i)
	}
	c.Get(testKey{n: 1}, 0) // 2 is now least recently used
	c.Put(testKey{n: 4}, 0, 4)
	if c.Contains(testKey{n: 2}) {
		t.Error("least recently used entry survived eviction")
	}
	for _, n := range []int{1, 3, 4} {
		if !c.Contains(testKey{n: n}) {
			t.Errorf("entry %d evicted, want resident", n)
		}
	}
}

func TestGetPeekAccounting(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "k"}
	if _, ok := c.Peek(k, 0); ok {
		t.Fatal("empty cache hit")
	}
	if _, ok := c.Get(k, 0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, 0, 7)
	if v, ok := c.Get(k, 0); !ok || v != 7 {
		t.Fatalf("Get = %v, %v; want 7, true", v, ok)
	}
	if v, ok := c.Peek(k, 0); !ok || v != 7 {
		t.Fatalf("Peek = %v, %v; want 7, true", v, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v; want 2 hits and 1 miss (Peek misses are the caller's to count)", st)
	}
}

func TestConcurrentSingleFlight(t *testing.T) {
	c := newTestCache(256)
	const goroutines, iters, distinct = 16, 300, 8
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (g + i) % distinct
				v, _, err := c.GetOrCompute(testKey{n: n}, 0, func() (int, error) {
					computes.Add(1)
					return 10 * n, nil
				})
				if err != nil || v != 10*n {
					t.Errorf("key %d: got %v, %v", n, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != distinct {
		t.Errorf("compute ran %d times, want %d", got, distinct)
	}
	st := c.Stats()
	if st.Misses != distinct || st.Hits+st.Misses != goroutines*iters {
		t.Errorf("stats %+v; want %d misses and %d lookups", st, distinct, goroutines*iters)
	}
}

func TestJoinerSharesInFlightCompute(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "slow"}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ran, _ := c.GetOrCompute(k, 0, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- ran
	}()
	<-started
	if _, ok := c.Get(k, 0); ok {
		t.Error("Get served an in-flight entry")
	}
	joined := make(chan bool)
	go func() {
		_, ran, _ := c.GetOrCompute(k, 0, value(2))
		joined <- ran
	}()
	close(release)
	if !<-done {
		t.Error("inserter did not run its compute")
	}
	if <-joined {
		t.Error("joiner ran a second compute")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "k"}
	boom := errors.New("substrate offline")
	if _, ran, err := c.GetOrCompute(k, 0, func() (int, error) { return 0, boom }); !errors.Is(err, boom) || !ran {
		t.Fatalf("err = %v, ran = %v; want the compute error from this caller", err, ran)
	}
	if c.Contains(k) {
		t.Error("failed entry left resident")
	}
	if v, ran, err := c.GetOrCompute(k, 0, value(3)); err != nil || v != 3 || !ran {
		t.Errorf("retry = %v, %v, %v; want a fresh compute of 3", v, ran, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v; want 1 error, 1 miss, 0 hits", st)
	}
}

// TestHitPathFailureCountsAsError: a lookup that finds a resident entry,
// wins its once and fails the compute must count as an error (not a
// hit, not a miss), drop the entry and let the next lookup recompute.
// The resident-but-uncomputed entry is staged white-box: it is exactly
// the state a concurrent inserter leaves between publishing its entry
// and running its once.
func TestHitPathFailureCountsAsError(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "k"}
	c.insert(c.shardFor(k), &entry[testKey, int]{key: k}, false)
	boom := fmt.Errorf("backend exploded")
	if _, _, err := c.GetOrCompute(k, 0, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Errors != 1 {
		t.Errorf("stats %+v; want 0 hits, 0 misses, 1 error", st)
	}
	if c.Contains(k) {
		t.Error("failed entry left resident")
	}
	if _, ran, err := c.GetOrCompute(k, 0, value(7)); err != nil || !ran {
		t.Errorf("retry after failure: ran = %v, err = %v; want a recompute", ran, err)
	}
}

// TestEvictBeforeComputeKeepsFreshEntry: an inserter's entry is evicted
// while its compute is in flight, the key is re-inserted fresh, and only
// then does the original compute fail. The stale failure must not
// remove the fresh entry.
func TestEvictBeforeComputeKeepsFreshEntry(t *testing.T) {
	c := newTestCache(1)
	k := testKey{n: 1}
	started, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("slow compute failed")
	done := make(chan error)
	go func() {
		_, _, err := c.GetOrCompute(k, 0, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		done <- err
	}()
	<-started
	c.Put(testKey{n: 2}, 0, 2) // evicts the in-flight entry
	if _, _, err := c.GetOrCompute(k, 0, value(1)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != boom {
		t.Fatalf("evicted inserter err = %v, want %v", err, boom)
	}
	if v, ok := c.Get(k, 0); !ok || v != 1 {
		t.Errorf("fresh entry = %v, %v after the stale failure; want 1, true", v, ok)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want exactly the one stale failure", st.Errors)
	}
}

func TestTagMismatchInvalidates(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "k"}
	if _, _, err := c.GetOrCompute(k, 1, value(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(k, 2); ok {
		t.Fatal("entry served under another tag")
	}
	if c.Contains(k) {
		t.Error("stale entry left resident")
	}
	if _, ran, _ := c.GetOrCompute(k, 2, value(2)); !ran {
		t.Error("new tag joined the old entry")
	}
	// GetOrCompute itself invalidates a mismatched entry.
	if _, ran, _ := c.GetOrCompute(k, 3, value(3)); !ran {
		t.Error("new tag joined the old entry")
	}
	if st := c.Stats(); st.Invalidations != 2 || c.Len() != 1 {
		t.Errorf("stats %+v, len %d; want 2 invalidations and 1 resident", st, c.Len())
	}
}

// TestInFlightComputeNotJoinedAcrossTags: a computation started under an
// old tag must not be joined by a caller presenting a new one.
func TestInFlightComputeNotJoinedAcrossTags(t *testing.T) {
	c := newTestCache(8)
	k := testKey{name: "k"}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.GetOrCompute(k, 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- v
	}()
	<-started
	v, ran, err := c.GetOrCompute(k, 2, value(2)) // must not block on the old build
	if err != nil || !ran || v != 2 {
		t.Errorf("new-tag compute = %v, %v, %v; want its own value 2", v, ran, err)
	}
	close(release)
	if v := <-done; v != 1 {
		t.Errorf("old-tag caller got %d, want its own value 1", v)
	}
	if v, ok := c.Get(k, 2); !ok || v != 2 {
		t.Errorf("resident entry = %v, %v; want the new tag's 2", v, ok)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestStaleInvalidationCountedOnce: readers that all found one entry
// before any of them judged it stale (the stale func holds each reader
// until every reader is inside it) drop it once and count one
// invalidation.
func TestStaleInvalidationCountedOnce(t *testing.T) {
	const readers = 16
	var expired atomic.Bool
	var inside sync.WaitGroup
	inside.Add(readers)
	c := New[testKey, int](64, hashTestKey, func(int) bool {
		if !expired.Load() {
			return false
		}
		inside.Done()
		inside.Wait()
		return true
	})
	k := testKey{name: "k"}
	c.Put(k, 0, 1)
	if _, ok := c.Get(k, 0); !ok {
		t.Fatal("fresh entry missed")
	}
	expired.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := c.Get(k, 0); ok {
				t.Error("stale entry served")
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Errorf("stats %+v; want 1 invalidation and 0 entries", st)
	}
	if st.Hits != 1 || st.Misses != readers {
		t.Errorf("stats %+v; want 1 hit and %d misses", st, readers)
	}
}

func TestRangeSkipsInFlightAndFailed(t *testing.T) {
	c := newTestCache(8)
	c.Put(testKey{name: "ok"}, 0, 1)
	failed := &entry[testKey, int]{key: testKey{name: "failed"}, err: errors.New("boom")}
	failed.done.Store(true)
	c.insert(c.shardFor(failed.key), failed, false)

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(testKey{name: "slow"}, 0, func() (int, error) {
			close(started)
			<-release
			return 2, nil
		})
	}()
	<-started
	var seen []string
	c.Range(func(k testKey, v int) bool {
		seen = append(seen, k.name)
		return true
	})
	close(release)
	<-done
	if len(seen) != 1 || seen[0] != "ok" {
		t.Errorf("Range yielded %v, want only the finished healthy entry", seen)
	}
}

func TestRemove(t *testing.T) {
	c := newTestCache(8)
	c.Put(testKey{name: "a"}, 0, 1)
	c.Put(testKey{name: "b"}, 0, 2)
	if !c.Remove(testKey{name: "a"}) {
		t.Error("Remove of a resident key reported false")
	}
	if c.Remove(testKey{name: "a"}) || c.Remove(testKey{name: "absent"}) {
		t.Error("Remove of a missing key reported true")
	}
	if c.Contains(testKey{name: "a"}) || !c.Contains(testKey{name: "b"}) || c.Len() != 1 {
		t.Errorf("after Remove: a resident %v, b resident %v, len %d", c.Contains(testKey{name: "a"}), c.Contains(testKey{name: "b"}), c.Len())
	}
	// The key computes afresh after removal.
	if v, ran, err := c.GetOrCompute(testKey{name: "a"}, 0, value(3)); err != nil || !ran || v != 3 {
		t.Errorf("GetOrCompute after Remove = %d, ran %v, err %v; want 3, true, nil", v, ran, err)
	}
}

func TestGetZeroAllocs(t *testing.T) {
	c := New[testKey, *int](256, hashTestKey, func(*int) bool { return false })
	v := 1
	for i := 0; i < 64; i++ {
		c.Put(testKey{name: "warm", n: i}, 0, &v)
	}
	k := testKey{name: "warm", n: 7}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(k, 0); !ok {
			t.Fatal("warm key missed")
		}
	}); allocs != 0 {
		t.Errorf("warm Get allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkGetParallel pins the sharding decision: warm lookups under
// parallel load on one shard versus the count New derives for the
// capacity (compare the sub-benchmarks' ns/op).
func BenchmarkGetParallel(b *testing.B) {
	const capacity = 256
	for _, shards := range []int{1, shardsFor(capacity)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := newSharded[testKey, int](capacity, shards, hashTestKey, nil)
			keys := make([]testKey, 64)
			for i := range keys {
				keys[i] = testKey{name: "bench", n: i}
				c.Put(keys[i], 1, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, ok := c.Peek(keys[i&63], 1); !ok {
						b.Error("warm key missed")
						return
					}
					i++
				}
			})
		})
	}
}
