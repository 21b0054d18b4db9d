package cache

import "testing"

// Each micro-benchmark's loop body is built by a function that sets up its
// state and returns one operation, so TestHotPathsDoNotAllocate runs
// exactly what the benchmarks time.

// tagArrayAccess is the hot L1 lookup: a hit on a warm array.
func tagArrayAccess() func(i int) {
	ta := NewTagArray(32, 4, 128, 1)
	for i := uint64(0); i < 128; i++ {
		ta.ReserveVictim(i * 128)
		ta.Fill(i * 128)
	}
	return func(i int) { ta.Access(uint64(i%128) * 128) }
}

// tagArrayMissPath is one reserve+fill round trip.
func tagArrayMissPath() func(i int) {
	ta := NewTagArray(64, 8, 128, 1)
	return func(i int) {
		addr := uint64(i) * 128
		if _, ok := ta.ReserveVictim(addr); ok {
			ta.Fill(addr)
		}
	}
}

// mshrAllocateRelease is one step of MSHR bookkeeping.
func mshrAllocateRelease() func(i int) {
	m := NewMSHR[int](32, 8)
	return func(i int) {
		addr := uint64(i % 24)
		if m.Allocate(addr, i) == AllocFullEntries {
			m.Release(addr)
		}
		if i%3 == 0 {
			m.Release(addr)
		}
	}
}

func benchOp(b *testing.B, op func(i int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func BenchmarkTagArrayAccess(b *testing.B)      { benchOp(b, tagArrayAccess()) }
func BenchmarkTagArrayMissPath(b *testing.B)    { benchOp(b, tagArrayMissPath()) }
func BenchmarkMSHRAllocateRelease(b *testing.B) { benchOp(b, mshrAllocateRelease()) }

// TestHotPathsDoNotAllocate holds every benchmarked operation to zero heap
// allocations: the L1 and L2 run them on every access.
func TestHotPathsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(i int)
	}{
		{"TagArrayAccess", tagArrayAccess()},
		{"TagArrayMissPath", tagArrayMissPath()},
		{"MSHRAllocateRelease", mshrAllocateRelease()},
	} {
		i := 0
		if n := testing.AllocsPerRun(1000, func() { tc.op(i); i++ }); n != 0 {
			t.Errorf("%s: %v allocations per operation, want 0", tc.name, n)
		}
	}
}
