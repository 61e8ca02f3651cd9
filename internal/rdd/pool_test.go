package rdd

import "testing"

// TestTracePoolReuseIsInvisible pins the pooling contract: a recycled
// backing array may carry arbitrary stale contents, and the next
// generated trace must be identical to one built from a cold
// allocation anyway, because every generator writes all of its frames.
func TestTracePoolReuseIsInvisible(t *testing.T) {
	fresh := func() map[string]Trace {
		return map[string]Trace{
			"sinusoid": SinusoidTrace(100, 2, 9, 17),
			"step":     StepTrace(100, 2, 9, 13),
			"bursty":   BurstyTrace(100, 2, 9, 0.3, 5),
		}
	}
	want := fresh()
	// Poison the pool with a recycled trace full of sentinel values big
	// enough to serve every generator above from the pool.
	poison := make(Trace, 100)
	for i := range poison {
		poison[i] = -12345
	}
	for name, wantTr := range want {
		RecycleTrace(poison)
		got := fresh()[name]
		if len(got) != len(wantTr) {
			t.Fatalf("%s: pooled rebuild has %d frames, want %d", name, len(got), len(wantTr))
		}
		for i := range got {
			if got[i] != wantTr[i] {
				t.Fatalf("%s: frame %d = %v after pooled rebuild, want %v (stale pool contents leaked)", name, i, got[i], wantTr[i])
			}
			if got[i] == -12345 {
				t.Fatalf("%s: frame %d still holds the poison sentinel", name, i)
			}
		}
		// Return the array for the next round regardless of whether this
		// generator drew it from the pool.
		poison = got
	}
}

// TestTracePoolCountsHitsAndMisses checks the /statsz-facing counters
// move the right way: every build counts exactly one hit or one miss; a
// recycle followed by a same-size build is a hit that reuses the
// recycled array, unless the pool dropped the Put (sync.Pool may, and
// under the race detector it does so at random), in which case it is a
// miss; a build larger than anything recycled is a miss.
func TestTracePoolCountsHitsAndMisses(t *testing.T) {
	drainTracePool(t)
	h0, m0 := TracePoolStats()

	tr := SinusoidTrace(64, 1, 5, 10)
	if h, m := TracePoolStats(); h != h0 || m != m0+1 {
		t.Fatalf("cold build: stats (%d,%d) → (%d,%d), want exactly one miss", h0, m0, h, m)
	}
	RecycleTrace(tr)
	tr2 := StepTrace(64, 1, 5, 8)
	h1, m1 := TracePoolStats()
	switch {
	case h1 == h0+1 && m1 == m0+1:
		if &tr[:1][0] != &tr2[:1][0] {
			t.Fatalf("recycled rebuild counted a hit but did not reuse the recycled backing array")
		}
	case h1 == h0 && m1 == m0+2:
		// The pool dropped the recycled array: the rebuild is a miss.
	default:
		t.Fatalf("recycled rebuild: stats (%d,%d) → (%d,%d), want exactly one more hit or one more miss", h0, m0+1, h1, m1)
	}

	RecycleTrace(tr2)
	// An oversized request cannot be served by the 64-frame array: the
	// pool drops it and the build counts as a miss.
	_ = SinusoidTrace(128, 1, 5, 10)
	if h, m := TracePoolStats(); h != h1 || m != m1+1 {
		t.Fatalf("oversized build: stats (%d,%d), want unchanged hits %d and one more miss %d", h, m, h1, m1+1)
	}
}

func TestRecycleTraceNilAndEmpty(t *testing.T) {
	RecycleTrace(nil)     // must not panic
	RecycleTrace(Trace{}) // zero-capacity: no-op
	_ = SinusoidTrace(4, 1, 2, 2)
}

// drainTracePool empties the pool so hit/miss assertions see a known
// starting state (other tests in the package recycle traces too).
func drainTracePool(t *testing.T) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if _, ok := tracePool.Get().(*Trace); !ok {
			return
		}
	}
	t.Fatal("trace pool did not drain")
}
