package core

import (
	"testing"
)

// storeVariants runs a subtest against both store layouts: "reference" is
// the per-thread slot array, "sharded" the global store at 8 stripes.
func storeVariants(t *testing.T, fn func(t *testing.T, l layout)) {
	t.Helper()
	t.Run("reference", func(t *testing.T) { fn(t, layout{PerThread, 0}) })
	t.Run("sharded", func(t *testing.T) { fn(t, layout{Global, 8}) })
}

// TestInstancesSnapshotIsolated is the regression test for Instances
// returning copies: a snapshot taken before further events must not change
// when the store mutates its preallocated slots in place.
func TestInstancesSnapshotIsolated(t *testing.T) {
	storeVariants(t, func(t *testing.T, l layout) {
		cls := &Class{Name: "snap", States: 4, Limit: 8}
		s := l.store(StoreOpts{})
		s.Register(cls)

		enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
		work := TransitionSet{{From: 1, To: 2, KeyMask: 1}}
		if err := s.UpdateState(cls, "enter", 0, NewKey(7), enter); err != nil {
			t.Fatal(err)
		}

		snap := s.Instances(cls)
		if len(snap) != 1 || snap[0].State != 1 {
			t.Fatalf("unexpected snapshot %+v", snap)
		}

		// Drive the live instance forward; the old snapshot must not move.
		if err := s.UpdateState(cls, "work", 0, NewKey(7), work); err != nil {
			t.Fatal(err)
		}
		if snap[0].State != 1 {
			t.Fatalf("snapshot aliased live slot: state moved to %d", snap[0].State)
		}

		// Expunge and reuse the slot under a different key; still isolated.
		s.ResetClass(cls)
		if err := s.UpdateState(cls, "enter", 0, NewKey(9), enter); err != nil {
			t.Fatal(err)
		}
		if snap[0].Key != NewKey(7) || !snap[0].Active {
			t.Fatalf("snapshot aliased reused slot: %+v", snap[0])
		}
	})
}

// TestAllocLeavesLiveUntouched is the regression test for the alloc/commit
// split: claiming a slot must not move the live count until the caller
// commits it, so error paths between alloc and activation cannot leak
// counts.
func TestAllocLeavesLiveUntouched(t *testing.T) {
	cls := &Class{Name: "alloc", States: 4, Limit: 4}
	s := NewStore(PerThread, nil)
	s.Register(cls)
	cs := s.classes[cls]

	inst := cs.alloc()
	if inst == nil {
		t.Fatal("alloc failed on empty class")
	}
	if cs.live != 0 {
		t.Fatalf("alloc moved live count to %d before commit", cs.live)
	}
	// Abandoning the slot (an error path) leaves the count right and the
	// slot reusable.
	if got := s.LiveCount(cls); got != 0 {
		t.Fatalf("LiveCount = %d after abandoned alloc", got)
	}
	again := cs.alloc()
	if again != inst {
		t.Fatalf("abandoned slot not reused: %p vs %p", again, inst)
	}
	*again = Instance{State: 1, Key: NewKey(1), Active: true}
	cs.commit()
	if got := s.LiveCount(cls); got != 1 {
		t.Fatalf("LiveCount = %d after commit", got)
	}
}

// TestShardCountSelection pins the StoreOpts.Shards contract: the context
// picks the layout, and Shards only sizes the global store's stripes.
func TestShardCountSelection(t *testing.T) {
	cases := []struct {
		ctx    Context
		shards int
		want   int
	}{
		{Global, 1, 1}, // one stripe, not a different implementation
		{Global, 2, 2},
		{Global, 3, 4},    // rounded up to a power of two
		{Global, 500, 64}, // capped
		{PerThread, 0, 0},
		{PerThread, 8, 0}, // per-thread stores take no locks
	}
	for _, c := range cases {
		s := NewStoreOpts(StoreOpts{Context: c.ctx, Shards: c.shards})
		if got := s.Shards(); got != c.want {
			t.Errorf("StoreOpts{%v, Shards: %d}: %d stripes, want %d", c.ctx, c.shards, got, c.want)
		}
	}
	if s := NewStoreOpts(StoreOpts{Context: Global}); s.Shards() < 1 {
		t.Error("Global store with Shards 0 was not sized to GOMAXPROCS")
	}
}

// TestShardedRegisterWithStorage checks the caller-storage path against the
// sharded store: the supplied block bounds capacity and re-registration
// expunges.
func TestShardedRegisterWithStorage(t *testing.T) {
	cls := &Class{Name: "storage", States: 4, Limit: 64}
	s := NewStoreOpts(StoreOpts{Context: Global, Shards: 4})
	block := make([]Instance, 2) // tighter than the class limit
	s.RegisterWithStorage(cls, block)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
	for k := 0; k < 3; k++ {
		s.UpdateState(cls, "enter", 0, NewKey(Value(k)), enter)
	}
	if got := s.LiveCount(cls); got != 2 {
		t.Fatalf("LiveCount = %d with 2-slot caller storage", got)
	}

	s.RegisterWithStorage(cls, make([]Instance, 4))
	if got := s.LiveCount(cls); got != 0 {
		t.Fatalf("re-registration kept %d instances live", got)
	}
}
