package core

import (
	"runtime"
	"testing"
)

// Allocation regressions for the store's event path. Its note buffers live
// on a per-store channel, not in a sync.Pool (which drops items at random
// under -race), so the counts hold under the race detector too.

// noteCounter counts the notifications a batch delivers without
// allocating itself.
type noteCounter struct {
	NopHandler
	n int
}

func (c *noteCounter) InstanceNew(*Class, *Instance)                        { c.n++ }
func (c *noteCounter) Transition(*Class, *Instance, uint32, uint32, string) { c.n++ }
func (c *noteCounter) Accept(*Class, *Instance)                             { c.n++ }

// TestUpdateBatchAllocs: in steady state the event path allocates nothing,
// on the per-thread slot array and on the striped global store, even though
// each lifecycle's notifications spill far past a noteBuf's inline array —
// also when garbage collections run between lifecycles, as they do in a
// long-lived producer (two collections empty a sync.Pool), and whether the
// lifecycle arrives as one UpdateBatch or one UpdateStatePlan per op.
func TestUpdateBatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   StoreOpts
		gc     bool // collect twice before every lifecycle
		single bool // one UpdateStatePlan per op, not one UpdateBatch
	}{
		{"slots", StoreOpts{Context: PerThread}, false, false},
		{"striped", StoreOpts{Context: Global, Shards: 4}, false, false},
		{"slots-gc", StoreOpts{Context: PerThread}, true, false},
		{"striped-gc", StoreOpts{Context: Global, Shards: 4}, true, false},
		{"slots-single-gc", StoreOpts{Context: PerThread}, true, true},
		{"striped-single-gc", StoreOpts{Context: Global, Shards: 4}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &noteCounter{}
			tc.opts.Handler = h
			s := NewStoreOpts(tc.opts)
			cls := &Class{Name: "alloc", States: 4, Limit: DefaultInstanceLimit}
			s.Register(cls)
			enter := NewSymbolPlan(cls, "enter", 0, TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}})
			work := NewSymbolPlan(cls, "work", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}})
			exit := NewSymbolPlan(cls, "exit", 0, TransitionSet{{From: 1, To: 3, Flags: TransCleanup}, {From: 2, To: 3, Flags: TransCleanup}})

			// One batch is a whole lifecycle: 24 keyed inits, two rounds
			// of work per key, then the cleanup that accepts and expunges
			// every instance — 144 notifications, most of them spilled.
			const keys = 24
			var ops []BatchOp
			for k := 0; k < keys; k++ {
				ops = append(ops, BatchOp{Plan: enter, Key: NewKey(Value(k))})
			}
			for r := 0; r < 2; r++ {
				for k := 0; k < keys; k++ {
					ops = append(ops, BatchOp{Plan: work, Key: NewKey(Value(k))})
				}
			}
			ops = append(ops, BatchOp{Plan: exit, Key: AnyKey})

			run := func() {
				if tc.gc {
					runtime.GC()
					runtime.GC()
				}
				if !tc.single {
					if err := s.UpdateBatch(ops); err != nil {
						t.Fatal(err)
					}
					return
				}
				for _, op := range ops {
					if err := s.UpdateStatePlan(op.Plan, op.Key); err != nil {
						t.Fatal(err)
					}
				}
			}
			run()
			if want := 6 * keys; h.n != want {
				t.Fatalf("one lifecycle delivered %d notifications, want %d", h.n, want)
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("one lifecycle allocated %.1f times in steady state, want 0", allocs)
			}
		})
	}
}
