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
		if err := s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), NewKey(7)); err != nil {
			t.Fatal(err)
		}

		snap := s.Instances(cls)
		if len(snap) != 1 || snap[0].State != 1 {
			t.Fatalf("unexpected snapshot %+v", snap)
		}

		// Drive the live instance forward; the old snapshot must not move.
		if err := s.UpdateStatePlan(NewSymbolPlan(cls, "work", 0, work), NewKey(7)); err != nil {
			t.Fatal(err)
		}
		if snap[0].State != 1 {
			t.Fatalf("snapshot aliased live slot: state moved to %d", snap[0].State)
		}

		// Expunge and reuse the slot under a different key; still isolated.
		s.ResetClass(cls)
		if err := s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), NewKey(9)); err != nil {
			t.Fatal(err)
		}
		if snap[0].Key != NewKey(7) || !snap[0].Active {
			t.Fatalf("snapshot aliased reused slot: %+v", snap[0])
		}
	})
}

// TestAllocLeavesLiveUntouched is the regression test for the alloc/activate
// split: finding a free slot must not move the live count until the caller
// activates it, so error paths between the two cannot leak counts. It runs
// on both layouts, since both share the class record.
func TestAllocLeavesLiveUntouched(t *testing.T) {
	for _, l := range []layout{{PerThread, 0}, {Global, 4}} {
		cls := &Class{Name: "alloc", States: 4, Limit: 4}
		s := l.store(StoreOpts{})
		s.Register(cls)
		c := s.classOf(cls)
		c.lock(c.allMask())

		slot := c.alloc()
		if slot < 0 {
			t.Fatalf("%v: alloc failed on empty class", l)
		}
		if n := c.live.Load(); n != 0 {
			t.Fatalf("%v: alloc moved live count to %d before activation", l, n)
		}
		if l.ctx == Global {
			// The striped allocator takes its slot off the free
			// bitmap; an abandoning error path hands it back.
			c.freeSlot(slot)
		}
		if got := c.alloc(); got != slot {
			t.Fatalf("%v: abandoned slot not reused: %d vs %d", l, got, slot)
		}
		c.activate(slot, 1, NewKey(1))
		c.unlock(c.allMask())
		if got := s.LiveCount(cls); got != 1 {
			t.Fatalf("%v: LiveCount = %d after activation", l, got)
		}
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
		if got := s.nshards; got != c.want {
			t.Errorf("StoreOpts{%v, Shards: %d}: %d stripes, want %d", c.ctx, c.shards, got, c.want)
		}
	}
	if s := NewStoreOpts(StoreOpts{Context: Global}); s.nshards < 1 {
		t.Error("Global store with Shards 0 was not sized to GOMAXPROCS")
	}
}
