package engine

import "testing"

// TestStoreCapacityExact: a store reports and holds exactly the capacity
// it was asked for, however that capacity splits across shards.
func TestStoreCapacityExact(t *testing.T) {
	for _, capacity := range []int{1, 2, 100, 16384} {
		s := NewStore(capacity)
		if got := s.Stats().Capacity; got != capacity {
			t.Errorf("NewStore(%d) reports capacity %d", capacity, got)
		}
		for sig := uint64(0); sig < uint64(2*capacity+5); sig++ {
			if _, err := s.GetOrComputeVector("b", 1, sig, func() ([]float64, error) { return []float64{1}, nil }); err != nil {
				t.Fatal(err)
			}
			if n := s.Len(); n > capacity {
				t.Fatalf("NewStore(%d) holds %d entries after %d inserts", capacity, n, sig+1)
			}
		}
	}
}
