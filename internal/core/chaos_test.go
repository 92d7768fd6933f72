package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tesla/internal/faultinject"
)

// Chaos property suite: the supervision layer under deterministic fault
// injection (internal/faultinject). The acceptance bar from the issue:
// with injected allocation failures and handler panics at 1% and 10% rates,
// the monitor never deadlocks, never corrupts instance state, degrades
// per-class (no cross-class interference), and health counters exactly
// account for every suppressed event. `make chaos-gate` runs this file under
// -race with the fixed seed matrix below.

var chaosSeeds = []int64{1, 7, 42, 1337, 99991}

// chaosPolicies is the degradation matrix one schedule draws from.
var chaosPolicies = []OverflowPolicy{DropNew, EvictOldest, QuarantineClass}

// healthOf flattens a class's health for comparison (HandlerPanics excluded:
// it is attributed store-wide at dispatch, not part of store parity).
func healthOf(s *Store, cls *Class) [5]uint64 {
	h := storeHealth(s, cls)
	return [5]uint64{h.Violations, h.Overflows, h.Evictions, h.Suppressed, h.Quarantines}
}

// runChaosDifferential drives one randomised schedule with injected
// allocation failures through the per-thread slot array and the striped
// store, asserting
// after every event that verdicts, live counts, instance sets, notification
// multisets, quarantine state and health counters all agree. The two stores
// get two injectors built from the same seed, so they see byte-identical
// fault schedules. With cached set, the striped store runs one plan per
// (symbol, flags), lowered once and reused for the whole schedule, while the
// slot array keeps lowering a fresh plan per event through UpdateStatePlan.
func runChaosDifferential(t *testing.T, seed int64, shards int, rate float64, cached bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pol := chaosPolicies[rng.Intn(len(chaosPolicies))]
	cls := &Class{Name: "chaos", States: 8, Limit: 2 + rng.Intn(6)}
	// Small thresholds make quarantine and re-arm reachable inside a
	// 64-event schedule.
	quarAfter := 1 + rng.Intn(3)
	rearm := 1 + rng.Intn(6)
	states := uint32(3 + rng.Intn(3))

	injRef := faultinject.New(uint64(seed))
	injSh := faultinject.New(uint64(seed))
	injRef.SetRate(faultinject.SiteAlloc, rate)
	injSh.SetRate(faultinject.SiteAlloc, rate)

	href := &noteHandler{}
	hsh := &noteHandler{}
	failure := failureFor(rng.Intn(2) == 0)
	ref := NewStoreOpts(StoreOpts{
		Context: PerThread, Handler: href, Failure: failure,
		Overflow: pol, QuarantineAfter: quarAfter, RearmEvents: rearm,
		AllocFail: func(c *Class) bool { return injRef.Should(faultinject.SiteAlloc, c.Name) },
	})
	sh := NewStoreOpts(StoreOpts{
		Context: Global, Handler: hsh, Shards: shards, Failure: failure,
		Overflow: pol, QuarantineAfter: quarAfter, RearmEvents: rearm,
		AllocFail: func(c *Class) bool { return injSh.Should(faultinject.SiteAlloc, c.Name) },
	})
	ref.Register(cls)
	sh.Register(cls)

	plans := planCache{}
	for i, ev := range randSchedule(rng, states, 64) {
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
			if cached {
				errSh = sh.UpdateStatePlan(plans.plan(cls, ev.symbol, ev.flags, ev.ts), ev.key)
			} else {
				errSh = sh.UpdateStatePlan(NewSymbolPlan(cls, ev.symbol, ev.flags, ev.ts), ev.key)
			}
		}
		if (errRef == nil) != (errSh == nil) {
			t.Fatalf("seed %d rate %v event %d (%s %s): verdict diverged: ref=%v sharded=%v",
				seed, rate, i, ev.symbol, ev.key, errRef, errSh)
		}
		if qr, qs := ref.Quarantined(cls), sh.Quarantined(cls); qr != qs {
			t.Fatalf("seed %d rate %v event %d: quarantine diverged: ref=%v sharded=%v",
				seed, rate, i, qr, qs)
		}
		if lr, ls := ref.LiveCount(cls), sh.LiveCount(cls); lr != ls {
			t.Fatalf("seed %d rate %v event %d (%s %s): live diverged: ref=%d sharded=%d",
				seed, rate, i, ev.symbol, ev.key, lr, ls)
		}
		if ir, is := instSet(ref, cls), instSet(sh, cls); !reflect.DeepEqual(ir, is) {
			t.Fatalf("seed %d rate %v event %d: instances diverged:\nref:     %v\nsharded: %v",
				seed, rate, i, ir, is)
		}
		if hr, hs := healthOf(ref, cls), healthOf(sh, cls); hr != hs {
			t.Fatalf("seed %d rate %v event %d: health diverged:\nref:     %v\nsharded: %v",
				seed, rate, i, hr, hs)
		}
		if nr, ns := href.sorted(), hsh.sorted(); !reflect.DeepEqual(nr, ns) {
			t.Fatalf("seed %d rate %v event %d: notifications diverged:\nref:     %v\nsharded: %v",
				seed, rate, i, nr, ns)
		}
	}
	if fr, fs := injRef.TotalFired(), injSh.TotalFired(); fr != fs {
		t.Fatalf("seed %d rate %v: injectors diverged: ref fired %d, sharded %d", seed, rate, fr, fs)
	}
}

// TestChaosDifferentialInjected extends the differential harness with the
// policy matrix and fault-injected allocation failures at the issue's 1% and
// 10% rates (plus a brutal 50%), across stripe counts.
func TestChaosDifferentialInjected(t *testing.T) {
	n := 0
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		for i := 0; i < 150; i++ {
			shards := []int{1, 2, 4, 8, 16}[i%5]
			runChaosDifferential(t, int64(5000+i), shards, rate, false)
			n++
		}
	}
	if n < 400 {
		t.Fatalf("schedule budget shrank: %d", n)
	}
}

// classStream extracts one class's notification subsequence, in order.
func classStream(h *noteHandler, cls string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, n := range h.notes {
		if strings.Contains(n, "|"+cls+"|") || strings.HasSuffix(n, "|"+cls) {
			out = append(out, n)
		}
	}
	return out
}

// runIsolation drives a hot class A (tiny limit, injected allocation
// failures) interleaved with a healthy class B through one store under the
// quarantine policy and returns B's exact notification stream and verdict
// sequence. B never overflows, so the policy only ever acts on A.
func runIsolation(t *testing.T, l layout, inject bool, rate float64) ([]string, string) {
	t.Helper()
	a := &Class{Name: "iso-a", States: 4, Limit: 1}
	b := &Class{Name: "iso-b", States: 4, Limit: 8}

	inj := faultinject.New(2026)
	inj.SetRate(faultinject.SiteAlloc, rate)
	h := &noteHandler{}
	s := l.store(StoreOpts{
		Handler:  h,
		Overflow: QuarantineClass, QuarantineAfter: 2, RearmEvents: 4,
		AllocFail: func(c *Class) bool {
			if !inject || c.Name != "iso-a" {
				return false
			}
			return inj.Should(faultinject.SiteAlloc, c.Name)
		},
	})
	s.Register(a)
	s.Register(b)

	enter := initTS()
	mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}}
	site := TransitionSet{{From: 2, To: 3, KeyMask: 1}}

	var verdicts strings.Builder
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 400; i++ {
		// Class A: hammer inits so it overflows and quarantines.
		s.UpdateStatePlan(NewSymbolPlan(a, "enter", 0, enter), NewKey(Value(rng.Intn(50))))
		// Class B: a well-behaved workload whose outcomes we fingerprint.
		k := NewKey(Value(rng.Intn(4)))
		switch i % 5 {
		case 0:
			err := s.UpdateStatePlan(NewSymbolPlan(b, "enter", 0, enter), k)
			fmt.Fprintf(&verdicts, "%d:enter:%v\n", i, err)
		case 3:
			err := s.UpdateStatePlan(NewSymbolPlan(b, "site", SymRequired, site), k)
			fmt.Fprintf(&verdicts, "%d:site:%v\n", i, err)
		default:
			err := s.UpdateStatePlan(NewSymbolPlan(b, "mid", 0, mid), k)
			fmt.Fprintf(&verdicts, "%d:mid:%v\n", i, err)
		}
	}
	if inject && !s.Quarantined(a) && storeHealth(s, a).Quarantines == 0 {
		t.Fatal("isolation run never quarantined class A; test lost its teeth")
	}
	if hb := storeHealth(s, b); hb.Degraded() {
		t.Fatalf("class B degraded: %+v", hb)
	}
	return classStream(h, "iso-b"), verdicts.String()
}

// TestChaosCrossClassIsolation: quarantining (and fault-injecting) class A
// leaves class B's notifications and verdicts byte-identical to an
// uninjected run, on both store layouts and both issue rates.
func TestChaosCrossClassIsolation(t *testing.T) {
	for _, l := range []layout{{PerThread, 0}, {Global, 4}} {
		for _, rate := range []float64{0.01, 0.10} {
			baseNotes, baseVerdicts := runIsolation(t, l, false, rate)
			injNotes, injVerdicts := runIsolation(t, l, true, rate)
			if injVerdicts != baseVerdicts {
				t.Fatalf("%v rate=%v: class B verdicts diverged under class-A faults", l, rate)
			}
			if !reflect.DeepEqual(injNotes, baseNotes) {
				t.Fatalf("%v rate=%v: class B notifications diverged under class-A faults:\nbase: %v\ninj:  %v",
					l, rate, baseNotes, injNotes)
			}
		}
	}
}

// injectedPanicHandler panics on a deterministic injected schedule.
type injectedPanicHandler struct {
	NopHandler
	inj *faultinject.Injector
}

func (h *injectedPanicHandler) Transition(cls *Class, inst *Instance, from, to uint32, symbol string) {
	if h.inj.Should(faultinject.SiteHandlerPanic, cls.Name) {
		panic("injected handler panic")
	}
}

// TestChaosHandlerPanicRates: with handler panics injected at 1% and 10%,
// no panic escapes, every panic is counted, and the store keeps monitoring.
func TestChaosHandlerPanicRates(t *testing.T) {
	for _, l := range []layout{{PerThread, 0}, {Global, 4}} {
		for _, rate := range []float64{0.01, 0.10} {
			inj := faultinject.New(77)
			inj.SetRate(faultinject.SiteHandlerPanic, rate)
			cls := &Class{Name: "hp", States: 4, Limit: 64}
			s := l.store(StoreOpts{
				Handler: &injectedPanicHandler{inj: inj},
				// Keep the handler in service so every injected panic is
				// exercised rather than short-circuited by quarantine.
				handlerPanicLimit: 1 << 30,
			})
			s.Register(cls)
			mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}}
			for i := 0; i < 2000; i++ {
				k := NewKey(Value(i % 64))
				s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, initTS()), k)
				s.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), k)
			}
			if got, want := s.HandlerPanics(), inj.Fired(faultinject.SiteHandlerPanic, "hp"); got != want {
				t.Fatalf("%v rate=%v: recovered %d panics, injector fired %d", l, rate, got, want)
			}
			if got := s.HandlerPanics(); got == 0 {
				t.Fatalf("%v rate=%v: no panics injected; test lost its teeth", l, rate)
			}
			if n := s.LiveCount(cls); n != 64 {
				t.Fatalf("%v rate=%v: live=%d, monitoring degraded by handler faults", l, rate, n)
			}
		}
	}
}

// TestChaosConcurrentInvariants hammers sharded stores from several
// goroutines with every policy active (one store per policy, one class in
// each), allocation failures and handler panics injected at 10%, and
// trace-style re-entrant reads mixed in. The schedule must complete (no
// deadlock — enforced by a watchdog), leave instance state structurally
// consistent, and keep -race silent.
func TestChaosConcurrentInvariants(t *testing.T) {
	for _, seed := range chaosSeeds {
		inj := faultinject.New(uint64(seed))
		inj.SetRate(faultinject.SiteAlloc, 0.10)
		inj.SetRate(faultinject.SiteHandlerPanic, 0.10)

		classes := []*Class{
			{Name: "c-drop", States: 8, Limit: 16},
			{Name: "c-evict", States: 8, Limit: 16},
			{Name: "c-quar", States: 8, Limit: 16},
		}
		stores := make([]*Store, len(classes))
		for i, pol := range chaosPolicies {
			stores[i] = NewStoreOpts(StoreOpts{
				Context: Global, Shards: 8,
				Handler:           &injectedPanicHandler{inj: inj},
				handlerPanicLimit: 1 << 30,
				AllocFail:         func(c *Class) bool { return inj.Should(faultinject.SiteAlloc, c.Name) },
				Overflow:          pol, QuarantineAfter: 4, RearmEvents: 32,
			})
			stores[i].Register(classes[i])
		}

		enter := initTS()
		mid := TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 3}}
		exit := TransitionSet{{From: 1, To: 7, Flags: TransCleanup}, {From: 2, To: 7, Flags: TransCleanup}}

		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)*31 + seed))
				for i := 0; i < 600; i++ {
					ci := rng.Intn(len(classes))
					s, cls := stores[ci], classes[ci]
					switch rng.Intn(12) {
					case 0:
						s.UpdateStatePlan(NewSymbolPlan(cls, "exit", 0, exit), AnyKey)
					case 1:
						s.UpdateStatePlan(NewSymbolPlan(cls, "site", SymRequired, mid), randKey(rng))
					case 2:
						_ = s.Instances(cls)
						_ = s.HealthReport()
					case 3:
						s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), AnyKey)
					default:
						s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, enter), randKey(rng))
						s.UpdateStatePlan(NewSymbolPlan(cls, "mid", 0, mid), randKey(rng))
					}
				}
			}(g)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("seed %d: chaos schedule deadlocked", seed)
		}

		var panics uint64
		for ci, cls := range classes {
			s := stores[ci]
			panics += s.HandlerPanics()
			insts := s.Instances(cls)
			if len(insts) != s.LiveCount(cls) {
				t.Fatalf("seed %d %s: LiveCount=%d but %d instances", seed, cls.Name, s.LiveCount(cls), len(insts))
			}
			seen := map[Key]bool{}
			for _, in := range insts {
				if !in.Active {
					t.Fatalf("seed %d %s: inactive instance in snapshot", seed, cls.Name)
				}
				if seen[in.Key] {
					t.Fatalf("seed %d %s: duplicate live key %s", seed, cls.Name, in.Key)
				}
				seen[in.Key] = true
			}
		}
		if panics == 0 {
			t.Fatalf("seed %d: no handler panics injected; test lost its teeth", seed)
		}
		// The stores still work after the storm: a fresh class monitors.
		fresh := &Class{Name: "fresh", States: 3, Limit: 4}
		for _, s := range stores {
			s.Register(fresh)
			s.ResetClass(fresh)
		}
		s2 := NewStoreOpts(StoreOpts{Context: Global, Shards: 8})
		s2.Register(fresh)
		if err := s2.UpdateStatePlan(NewSymbolPlan(fresh, "enter", 0, initTS()), NewKey(1)); err != nil {
			t.Fatalf("seed %d: post-chaos monitoring broken: %v", seed, err)
		}
	}
}

// TestChaosSuppressionExact: health counters account for every suppressed
// event exactly. The schedule is built so the quarantine/re-arm trajectory
// is fully predictable, then asserted event-for-event on both stores.
func TestChaosSuppressionExact(t *testing.T) {
	bothStores(t, func(t *testing.T, mk func(o StoreOpts) *Store) {
		cls := &Class{Name: "sup", States: 3, Limit: 1}
		s := mk(StoreOpts{Overflow: QuarantineClass, QuarantineAfter: 1, RearmEvents: 10})
		s.Register(cls)

		s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, initTS()), NewKey(1)) // fills the single slot
		s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, initTS()), NewKey(2)) // overflow → quarantine #1
		// Drive 25 more inits, each with a fresh key so every processed one
		// is an allocation attempt. Expected trajectory:
		//   events  1–10: suppressed            (Suppressed 10)
		//   event     11: re-arms, alloc OK     (live 1)
		//   event     12: overflow → quarantine #2
		//   events 13–22: suppressed            (Suppressed 20)
		//   event     23: re-arms, alloc OK     (live 1)
		//   event     24: overflow → quarantine #3
		//   event     25: suppressed            (Suppressed 21)
		const driven = 25
		for i := 0; i < driven; i++ {
			s.UpdateStatePlan(NewSymbolPlan(cls, "enter", 0, initTS()), NewKey(Value(100+i)))
		}
		h := storeHealth(s, cls)
		if h.Suppressed != 21 {
			t.Fatalf("Suppressed = %d, want 21 (health %+v)", h.Suppressed, h)
		}
		if h.Quarantines != 3 || h.Overflows != 3 {
			t.Fatalf("Quarantines = %d, Overflows = %d, want 3/3", h.Quarantines, h.Overflows)
		}
		// Accounting identity: every driven event is either suppressed or
		// processed, and every processed event is visible as an overflow or
		// a successful allocation (the two re-arm events).
		processed := driven - int(h.Suppressed)
		if visible := int(h.Overflows-1) + 2; processed != visible {
			t.Fatalf("processed %d events but only %d visible in health", processed, visible)
		}
		if !s.Quarantined(cls) {
			t.Fatal("class should end quarantined")
		}
	})
}

// TestChaosQuarantineRaisedMidLock: an event that passed the unlocked
// quarantine gate and then waited on a stripe while another event
// quarantined the class is suppressed and counted. The quarantining event
// held one stripe, so it deferred the expunge; the waiting event's plan
// escalates to every stripe for that flush, and the flush must not let the
// event through uncounted. The fault injector doubles as the hook that
// holds the quarantining event inside its stripe. Whether or not the
// waiter reaches the lock in time, every event it sends is suppressed.
func TestChaosQuarantineRaisedMidLock(t *testing.T) {
	for _, batched := range []bool{false, true} {
		cls := &Class{Name: "midlock", States: 3, Limit: 4}
		inside, release := make(chan struct{}), make(chan struct{})
		var armed atomic.Bool
		armed.Store(true)
		s := NewStoreOpts(StoreOpts{
			Context: Global, Shards: 8,
			Overflow: QuarantineClass, QuarantineAfter: 1, RearmEvents: 100,
			AllocFail: func(*Class) bool {
				if armed.CompareAndSwap(true, false) {
					close(inside)
					<-release
					return true
				}
				return false
			},
		})
		s.Register(cls)
		enter := NewSymbolPlan(cls, "enter", 0, initTS())
		c := s.classFor(cls)

		// The waiter's keys share the quarantining key's stripe, so its
		// events queue on the stripe that event holds.
		kx := NewKey(1)
		var same []Key
		for v := Value(2); len(same) < 2; v++ {
			if k := NewKey(v); c.stripeOf(hashKey(k)) == c.stripeOf(hashKey(kx)) {
				same = append(same, k)
			}
		}

		xdone, ydone := make(chan struct{}), make(chan struct{})
		go func() {
			s.UpdateStatePlan(enter, kx)
			close(xdone)
		}()
		<-inside
		want := uint64(1)
		go func() {
			if batched {
				s.UpdateBatch([]BatchOp{{Plan: enter, Key: same[0]}, {Plan: enter, Key: same[1]}})
			} else {
				s.UpdateStatePlan(enter, same[0])
			}
			close(ydone)
		}()
		if batched {
			want = 2
		}
		time.Sleep(20 * time.Millisecond) // let the waiter pass the gate and block
		close(release)
		<-xdone
		<-ydone

		h := storeHealth(s, cls)
		if h.Quarantines != 1 || h.Suppressed != want {
			t.Fatalf("batched=%v: health %+v, want 1 quarantine and %d suppressed", batched, h, want)
		}
		if !s.Quarantined(cls) || s.LiveCount(cls) != 0 {
			t.Fatalf("batched=%v: quarantined=%v live=%d, want quarantined and empty",
				batched, s.Quarantined(cls), s.LiveCount(cls))
		}
	}
}

// TestChaosQuarantineStorm: one goroutine keeps forcing the class into
// quarantine (its «init» allocations fail on demand) while others send
// single events and UpdateBatch windows to the same class. A checker holds
// every stripe and asserts that the live count matches the block and that
// a quarantined class with no flush pending holds no instance.
func TestChaosQuarantineStorm(t *testing.T) {
	cls := &Class{Name: "storm", States: 4, Limit: 16}
	var forcing atomic.Bool
	s := NewStoreOpts(StoreOpts{
		Context: Global, Shards: 8,
		Overflow: QuarantineClass, QuarantineAfter: 1, RearmEvents: 8,
		AllocFail: func(*Class) bool { return forcing.Load() },
	})
	s.Register(cls)
	c := s.classFor(cls)
	enter := NewSymbolPlan(cls, "enter", 0, initTS())
	step := NewSymbolPlan(cls, "step", 0, TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 3}})

	stop := make(chan struct{})
	var senders, checker sync.WaitGroup
	senders.Add(1)
	go func() {
		defer senders.Done()
		for i := 0; i < 200; i++ {
			forcing.Store(true)
			s.UpdateStatePlan(enter, NewKey(Value(100+i)))
			forcing.Store(false)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < 3; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var window []BatchOp
			for i := 0; i < 2000; i++ {
				p := enter
				if rng.Intn(2) == 0 {
					p = step
				}
				key := NewKey(Value(rng.Intn(6)), Value(rng.Intn(3)))
				if g == 0 {
					s.UpdateStatePlan(p, key)
					continue
				}
				window = append(window, BatchOp{Plan: p, Key: key})
				if len(window) == 8 {
					s.UpdateBatch(window)
					window = window[:0]
				}
			}
		}(g)
	}
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			all := c.allMask()
			c.lock(all)
			n := 0
			for i := range c.insts {
				if c.insts[i].Active {
					n++
				}
			}
			if n != int(c.live.Load()) {
				t.Errorf("block holds %d instances, live count %d", n, c.live.Load())
			}
			if c.quarantined.Load() && !c.needsFlush.Load() && n > 0 {
				t.Errorf("quarantined class with no flush pending holds %d instances", n)
			}
			c.unlock(all)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	done := make(chan struct{})
	go func() { senders.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("quarantine storm deadlocked")
	}
	close(stop)
	checker.Wait()

	h := storeHealth(s, cls)
	if h.Quarantines < 2 || h.Suppressed == 0 {
		t.Fatalf("health %+v: the storm never cycled quarantine; test lost its teeth", h)
	}
	// The class comes back: suppressed events re-arm it, then it monitors.
	for i := 0; s.Quarantined(cls) && i < 16; i++ {
		s.UpdateStatePlan(enter, NewKey(Value(1000+i)))
	}
	s.ResetClass(cls)
	if err := s.UpdateStatePlan(enter, NewKey(7)); err != nil || s.LiveCount(cls) != 1 {
		t.Fatalf("after the storm: err=%v live=%d, want one live instance", err, s.LiveCount(cls))
	}
}
