package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// Differential property harness: the global lock-striped store must be
// observationally equivalent to the per-thread slot-array store. The
// reference both are held to is the lifecycle model (model_test.go); this
// harness adds what the model does not vary — random class limits per
// schedule, per-event plan lowering on one side, concurrent goroutines —
// and pins that the two candidate walks, the slot scan and the stripe plan,
// hand the shared lifecycle the same candidates. Identical randomised event
// schedules — init, update, clone, cleanup over random keys, ANY patterns,
// strict and required events, overflow — are driven through both stores,
// asserting identical verdicts, live counts, instance sets and handler
// notification multisets after every event. Notifications are compared as
// multisets, which is also the only meaningful comparison once the striped
// store runs concurrently.

// noteHandler records every notification as a serialised line.
type noteHandler struct {
	mu    sync.Mutex
	notes []string
}

func (h *noteHandler) add(format string, args ...interface{}) {
	h.mu.Lock()
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *noteHandler) InstanceNew(cls *Class, inst *Instance) {
	h.add("new|%s|%s|%d", cls.Name, inst.Key, inst.State)
}

func (h *noteHandler) InstanceClone(cls *Class, parent, clone *Instance) {
	h.add("clone|%s|%s|%s|%d", cls.Name, parent.Key, clone.Key, clone.State)
}

func (h *noteHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	h.add("trans|%s|%s|%d|%d|%s", cls.Name, inst.Key, from, to, symbol)
}

func (h *noteHandler) Accept(cls *Class, inst *Instance) {
	h.add("accept|%s|%s|%d", cls.Name, inst.Key, inst.State)
}

func (h *noteHandler) Fail(v *Violation) {
	h.add("fail|%s|%s|%s|%d|%s", v.Class.Name, v.Kind, v.Key, v.State, v.Symbol)
}

func (h *noteHandler) Overflow(cls *Class, key Key) {
	h.add("overflow|%s|%s", cls.Name, key)
}

func (h *noteHandler) Evict(cls *Class, inst *Instance) {
	h.add("evict|%s|%s|%d", cls.Name, inst.Key, inst.State)
}

func (h *noteHandler) Quarantine(cls *Class, on bool) {
	h.add("quarantine|%s|%v", cls.Name, on)
}

// sorted returns the notification multiset in canonical order.
func (h *noteHandler) sorted() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.notes...)
	sort.Strings(out)
	return out
}

// diffEvent is one step of a randomised schedule.
type diffEvent struct {
	op     string // "update", "reset", "resetclass"
	symbol string
	flags  SymbolFlags
	key    Key
	ts     TransitionSet
}

// randKey builds a key binding 0..KeySize slots with small values, so that
// clones, exact matches, ANY patterns and collisions all occur.
func randKey(rng *rand.Rand) Key {
	k := Key{}
	for i := 0; i < KeySize; i++ {
		if rng.Intn(3) == 0 {
			k = k.Set(i, Value(rng.Intn(5)))
		}
	}
	return k
}

// randSchedule builds one schedule over the given class shape.
func randSchedule(rng *rand.Rand, states uint32, n int) []diffEvent {
	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: uint32(rng.Intn(1 << KeySize))}}
	if rng.Intn(2) == 0 {
		// The bound's entry event also moves live instances on: when one
		// consumes it, no new instance may start.
		enter = append(enter, Transition{From: 1, To: 2, KeyMask: uint32(rng.Intn(1 << KeySize))})
	}
	var mid TransitionSet
	for s := uint32(1); s < states; s++ {
		mid = append(mid, Transition{From: s, To: 1 + (s+1)%states, KeyMask: uint32(rng.Intn(1 << KeySize))})
	}
	site := TransitionSet{{From: 2, To: states, KeyMask: 1}}
	var exit TransitionSet
	for s := uint32(1); s <= states; s++ {
		if s == 1 || rng.Intn(2) == 0 {
			exit = append(exit, Transition{From: s, To: states + 1, Flags: TransCleanup})
		}
	}

	evs := make([]diffEvent, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(16) {
		case 0:
			evs = append(evs, diffEvent{op: "reset"})
		case 1:
			evs = append(evs, diffEvent{op: "resetclass"})
		case 2, 3:
			evs = append(evs, diffEvent{op: "update", symbol: "enter", ts: enter, key: randKey(rng)})
		case 4:
			evs = append(evs, diffEvent{op: "update", symbol: "exit", ts: exit, key: randKey(rng)})
		case 5:
			evs = append(evs, diffEvent{op: "update", symbol: "site", flags: SymRequired, ts: site, key: randKey(rng)})
		case 6:
			evs = append(evs, diffEvent{op: "update", symbol: "mid", flags: SymStrict, ts: mid, key: randKey(rng)})
		default:
			evs = append(evs, diffEvent{op: "update", symbol: "mid", ts: mid, key: randKey(rng)})
		}
	}
	return evs
}

// instSet summarises a store's live instances as sorted key→state lines.
func instSet(s *Store, cls *Class) []string {
	var out []string
	for _, in := range s.Instances(cls) {
		out = append(out, fmt.Sprintf("%s|%d", in.Key, in.State))
	}
	sort.Strings(out)
	return out
}

// runDifferential drives one schedule through both stores and compares them
// after every event.
func runDifferential(t *testing.T, seed int64, shards int, failFast bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Small limits make overflow reachable; vary them per schedule, along
	// with the overflow-degradation policy so the whole supervision matrix
	// rides the same 1300+-schedule sweep (chaos_test.go adds injected
	// allocation failures on top).
	cls := &Class{Name: "diff", States: 8, Limit: 2 + rng.Intn(8)}
	sup := StoreOpts{
		Failure:         failureFor(failFast),
		Overflow:        []OverflowPolicy{DropNew, EvictOldest, QuarantineClass}[rng.Intn(3)],
		QuarantineAfter: 1 + rng.Intn(3),
		RearmEvents:     1 + rng.Intn(8),
	}
	states := uint32(3 + rng.Intn(3))

	href := &noteHandler{}
	hsh := &noteHandler{}
	sup.Handler = href
	ref := layout{PerThread, 0}.store(sup)
	sup.Handler = hsh
	sh := layout{Global, shards}.store(sup)
	ref.Register(cls)
	sh.Register(cls)

	for i, ev := range randSchedule(rng, states, 48) {
		var errRef, errSh error
		switch ev.op {
		case "reset":
			ref.Reset()
			sh.Reset()
		case "resetclass":
			ref.ResetClass(cls)
			sh.ResetClass(cls)
		default:
			errRef = ref.UpdateStatePlan(NewSymbolPlan(cls, ev.symbol, ev.flags, ev.ts), ev.key)
			errSh = sh.UpdateStatePlan(NewSymbolPlan(cls, ev.symbol, ev.flags, ev.ts), ev.key)
		}
		if (errRef == nil) != (errSh == nil) {
			t.Fatalf("seed %d event %d (%s %s): verdict diverged: ref=%v sharded=%v",
				seed, i, ev.symbol, ev.key, errRef, errSh)
		}
		if lr, ls := ref.LiveCount(cls), sh.LiveCount(cls); lr != ls {
			t.Fatalf("seed %d event %d (%s %s): live count diverged: ref=%d sharded=%d",
				seed, i, ev.symbol, ev.key, lr, ls)
		}
		if ir, is := instSet(ref, cls), instSet(sh, cls); !reflect.DeepEqual(ir, is) {
			t.Fatalf("seed %d event %d (%s %s): instances diverged:\nref:     %v\nsharded: %v",
				seed, i, ev.symbol, ev.key, ir, is)
		}
		if qr, qs := ref.Quarantined(cls), sh.Quarantined(cls); qr != qs {
			t.Fatalf("seed %d event %d: quarantine state diverged: ref=%v sharded=%v", seed, i, qr, qs)
		}
		if hr, hs := healthOf(ref, cls), healthOf(sh, cls); hr != hs {
			t.Fatalf("seed %d event %d: health diverged: ref=%v sharded=%v", seed, i, hr, hs)
		}
		if nr, ns := href.sorted(), hsh.sorted(); !reflect.DeepEqual(nr, ns) {
			t.Fatalf("seed %d event %d (%s %s): notification multisets diverged:\nref:     %v\nsharded: %v",
				seed, i, ev.symbol, ev.key, nr, ns)
		}
	}
}

// TestDifferentialShardedVsReference runs ≥1000 randomised schedules of the
// striped store against the slot array, covering both fail-fast modes and
// several stripe counts (including 2, where cross-shard traffic is most
// likely).
func TestDifferentialShardedVsReference(t *testing.T) {
	const schedules = 1200
	for i := 0; i < schedules; i++ {
		shards := []int{2, 4, 8, 16}[i%4]
		runDifferential(t, int64(i), shards, i%2 == 0)
	}
}

// TestDifferentialSingleStripe pins the striped store with one stripe
// against the slot array separately: any divergence here is in the hash
// index or free list, not the lock planning.
func TestDifferentialSingleStripe(t *testing.T) {
	for i := 0; i < 100; i++ {
		runDifferential(t, int64(10000+i), 1, i%2 == 0)
	}
}

// TestDifferentialConcurrentPerKey checks linearisable per-key outcomes:
// goroutines drive disjoint key ranges concurrently into one sharded global
// store; afterwards each goroutine's schedule replayed alone against a
// per-thread store must produce exactly the final instances the shared store
// holds for that goroutine's keys. Keys are made independent by an «init»
// transition that binds the event key directly (no shared ANY parent), so
// the decomposition is semantically exact. Run under -race this also proves
// the striped locking publishes instance state correctly.
func TestDifferentialConcurrentPerKey(t *testing.T) {
	const (
		goroutines = 4
		perG       = 400
		keysPerG   = 8
	)
	cls := &Class{Name: "conc", States: 8, Limit: goroutines*keysPerG + 8}
	sh := NewStoreOpts(StoreOpts{Context: Global, Shards: 8})
	sh.Register(cls)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit, KeyMask: 1}}
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 3, KeyMask: 1}, {From: 3, To: 2, KeyMask: 1}}
	site := TransitionSet{{From: 2, To: 4, KeyMask: 1}}

	type step struct {
		symbol string
		flags  SymbolFlags
		key    Key
		ts     TransitionSet
	}
	schedules := make([][]step, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 99))
			for i := 0; i < perG; i++ {
				key := NewKey(Value(g*keysPerG + rng.Intn(keysPerG)))
				var st step
				switch rng.Intn(8) {
				case 0:
					st = step{symbol: "enter", key: key, ts: enter}
				case 1:
					st = step{symbol: "site", flags: SymRequired, key: key, ts: site}
				default:
					st = step{symbol: "mid", key: key, ts: mid}
				}
				schedules[g] = append(schedules[g], st)
				sh.UpdateStatePlan(NewSymbolPlan(cls, st.symbol, st.flags, st.ts), st.key)
			}
		}(g)
	}
	wg.Wait()

	// Index the shared store's final instances by key.
	got := map[Key]uint32{}
	for _, in := range sh.Instances(cls) {
		got[in.Key] = in.State
	}

	for g := 0; g < goroutines; g++ {
		ref := NewStoreOpts(StoreOpts{Context: PerThread})
		ref.Register(cls)
		for _, st := range schedules[g] {
			ref.UpdateStatePlan(NewSymbolPlan(cls, st.symbol, st.flags, st.ts), st.key)
		}
		want := map[Key]uint32{}
		for _, in := range ref.Instances(cls) {
			want[in.Key] = in.State
		}
		for k, wstate := range want {
			if gstate, ok := got[k]; !ok || gstate != wstate {
				t.Errorf("goroutine %d key %s: sharded state %d (present=%v), reference %d",
					g, k, gstate, ok, wstate)
			}
		}
		// And no phantom instances in this goroutine's key range.
		for k, gstate := range got {
			if int(k.Data[0])/keysPerG == g {
				if _, ok := want[k]; !ok {
					t.Errorf("goroutine %d: phantom instance %s state %d", g, k, gstate)
				}
			}
		}
	}
}

// TestDifferentialConcurrentInvariants hammers the cross-shard paths (ANY
// keys, cleanup, required sites, overflow) from several goroutines at once;
// exact outcomes are timing-dependent, but the structural invariants —
// LiveCount agrees with Instances, no duplicate keys, cleanup empties the
// class — must hold at every quiescent check, and -race must stay silent.
func TestDifferentialConcurrentInvariants(t *testing.T) {
	cls := &Class{Name: "stress", States: 8, Limit: 24}
	sh := NewStoreOpts(StoreOpts{Context: Global, Shards: 4})
	sh.Register(cls)

	enter := TransitionSet{{From: 0, To: 1, Flags: TransInit}}
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 2, KeyMask: 3}}
	exit := TransitionSet{{From: 1, To: 7, Flags: TransCleanup}, {From: 2, To: 7, Flags: TransCleanup}}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; i < 500; i++ {
				switch rng.Intn(10) {
				case 0:
					sh.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
				case 1:
					sh.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
				case 2:
					sh.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, mid), randKey(rng))
				default:
					sh.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), randKey(rng))
				}
			}
		}(g)
	}
	wg.Wait()

	insts := sh.Instances(cls)
	if len(insts) != sh.LiveCount(cls) {
		t.Fatalf("LiveCount=%d but %d instances", sh.LiveCount(cls), len(insts))
	}
	seen := map[Key]bool{}
	for _, in := range insts {
		if seen[in.Key] {
			t.Fatalf("duplicate live key %s", in.Key)
		}
		seen[in.Key] = true
	}
	sh.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
	if n := sh.LiveCount(cls); n != 0 {
		t.Fatalf("cleanup left %d instances live", n)
	}
}
