package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tesla/internal/faultinject"
)

// The lifecycle model: an executable statement of the §4.4.1 instance rules
// and the §4.4.2 degradation policy of DESIGN §11, written from the rules
// rather than from the store. It keeps no slots, locks, plans, stripes or
// store helpers — only the live instances, as a map from key to state
// stamped with creation order, and the quarantine and health counts — and
// emits the noteHandler lines a store must emit for the same event. It is
// the reference both store layouts are held to: TestModelDifferential drives
// randomised schedules through every layout on both dispatch planes, under
// every overflow policy, both failure actions and injected allocation
// failures, and compares every event (every flush, when batched) with it to
// the schedule's end.
//
// The rules, for an event with symbol flags F, key E and transition set T:
//
//  1. The candidates are the instances live before the event whose key is
//     compatible with E (no slot bound in both to different values), taken
//     in creation order. One evicted or killed earlier in the same event is
//     skipped.
//  2. A candidate in state q takes the first edge of T leaving q. Without
//     one, a cleanup event (T has a cleanup edge) reports it incomplete, a
//     strict symbol reports a bad transition and kills it, and any other
//     event leaves it alone.
//  3. If E binds a slot the candidate does not, the edge forks a clone keyed
//     by the union of both keys, unless an instance with that key is live
//     already or the clone is dropped (rule 8); either way the event counts
//     as consumed and the parent stays.
//  4. Otherwise the candidate moves along the edge in place.
//  5. An event no candidate consumed starts an instance along T's first
//     «init» edge, keyed by E restricted to that edge's key mask, unless that
//     key is live already. Without an «init» edge, a required symbol reports
//     a missing instance — but only while some instance is live: before its
//     first «init» an automaton ignores events.
//  6. Every edge taken is reported as a transition, and an edge carrying the
//     cleanup flag also as an accept.
//  7. A cleanup event finally empties the class.
//
// The degradation policy:
//
//  8. A new instance (a clone or an «init») first asks the fault injector,
//     then needs one of the class's limit places to be free. If either
//     refuses, that is an overflow, counted and reported with the
//     newcomer's key, and the overflow policy decides:
//     - DropNew drops the newcomer.
//     - EvictOldest evicts the oldest live instance whose key binds the
//     same slots as the newcomer's — or the oldest live instance if none
//     does — counting and reporting it; the newcomer then asks the
//     injector once more, and a refusal drops it. With nothing live,
//     the newcomer is dropped.
//     - QuarantineClass drops the newcomer and counts the consecutive
//     overflows; the QuarantineAfter-th quarantines the class, counted
//     and reported: every instance is gone and the event stops there.
//     A newcomer that finds a place ends the consecutive-overflow count.
//     Under FailStop a dropped newcomer is the event's error, unless a
//     violation came first in the same event.
//  9. Every violation is counted, and under FailStop is the event's error
//     unless an overflow came first.
// 10. A quarantined class suppresses, and counts, each event until
//     RearmEvents events have been suppressed; the next event re-arms it,
//     reported, and is processed normally. Reset and ResetClass empty the
//     class and re-arm it silently.

// modelInst is one live instance of the model: its state and creation order.
type modelInst struct {
	state uint32
	born  int
}

// modelPolicy is the degradation policy the model runs under: StoreOpts'
// Failure, Overflow, QuarantineAfter and RearmEvents, and the answer to
// "may this allocation succeed?" that AllocFail gives.
type modelPolicy struct {
	failStop        bool
	overflow        OverflowPolicy
	quarantineAfter int
	rearmEvents     int
	refuse          func() bool
}

// The model's health counters, in healthOf's order.
const (
	hViolations = iota
	hOverflows
	hEvictions
	hSuppressed
	hQuarantines
)

// lifecycleModel is the model's whole state for one class.
type lifecycleModel struct {
	cls   string
	limit int
	pol   modelPolicy
	live  map[Key]modelInst
	born  int
	notes []string

	quarantined bool
	overflows   int // consecutive, for QuarantineClass
	suppressed  int // since the quarantine began
	health      [5]uint64
	// err is the error the current event must return: "", "violation"
	// or "overflow".
	err string
}

func newLifecycleModel(cls string, limit int, pol modelPolicy) *lifecycleModel {
	return &lifecycleModel{cls: cls, limit: limit, pol: pol, live: map[Key]modelInst{}}
}

func (m *lifecycleModel) note(format string, args ...interface{}) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// modelCompatible reports whether no slot is bound in both keys to
// different values.
func modelCompatible(a, b Key) bool {
	for i := 0; i < KeySize; i++ {
		bit := uint32(1) << i
		if a.Mask&bit != 0 && b.Mask&bit != 0 && a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// modelUnion binds every slot bound in either of two compatible keys.
func modelUnion(a, b Key) Key {
	out := Key{Mask: a.Mask | b.Mask}
	for i := 0; i < KeySize; i++ {
		switch bit := uint32(1) << i; {
		case a.Mask&bit != 0:
			out.Data[i] = a.Data[i]
		case b.Mask&bit != 0:
			out.Data[i] = b.Data[i]
		}
	}
	return out
}

// modelRestrict keeps only the slots of k in mask.
func modelRestrict(k Key, mask uint32) Key {
	out := Key{Mask: k.Mask & mask}
	for i := 0; i < KeySize; i++ {
		if out.Mask&(1<<i) != 0 {
			out.Data[i] = k.Data[i]
		}
	}
	return out
}

// reset is Reset and ResetClass (rule 10).
func (m *lifecycleModel) reset() {
	m.live = map[Key]modelInst{}
	m.quarantined = false
	m.overflows, m.suppressed = 0, 0
}

// refused asks the fault injector whether the next allocation fails.
func (m *lifecycleModel) refused() bool {
	return m.pol.refuse != nil && m.pol.refuse()
}

// place runs rule 8 for a newcomer keyed k and starts it in state if it
// finds a place, reporting whether it did.
func (m *lifecycleModel) place(k Key, state uint32) bool {
	placed := !m.refused() && len(m.live) < m.limit
	if !placed {
		m.health[hOverflows]++
		m.note("overflow|%s|%s", m.cls, k)
		switch m.pol.overflow {
		case EvictOldest:
			if v, ok := m.victim(k.Mask); ok {
				m.health[hEvictions]++
				m.note("evict|%s|%s|%d", m.cls, v, m.live[v].state)
				delete(m.live, v)
				placed = !m.refused()
			}
		case QuarantineClass:
			m.overflows++
			if m.overflows == m.pol.quarantineAfter {
				m.health[hQuarantines]++
				m.note("quarantine|%s|true", m.cls)
				m.live = map[Key]modelInst{}
				m.quarantined = true
				m.overflows, m.suppressed = 0, 0
			}
		}
	}
	if !placed {
		m.failWith("overflow")
		return false
	}
	m.overflows = 0
	m.born++
	m.live[k] = modelInst{state: state, born: m.born}
	return true
}

// victim is EvictOldest's choice for a newcomer binding the slots in mask:
// the oldest live instance binding exactly those slots, else the oldest
// live instance.
func (m *lifecycleModel) victim(mask uint32) (Key, bool) {
	for _, sameMask := range []bool{true, false} {
		var best Key
		found := false
		for k, in := range m.live {
			if (!sameMask || k.Mask == mask) && (!found || in.born < m.live[best].born) {
				best, found = k, true
			}
		}
		if found {
			return best, true
		}
	}
	return Key{}, false
}

func (m *lifecycleModel) failWith(kind string) {
	if m.pol.failStop && m.err == "" {
		m.err = kind
	}
}

func (m *lifecycleModel) taken(k Key, tr Transition, symbol string) {
	m.note("trans|%s|%s|%d|%d|%s", m.cls, k, tr.From, tr.To, symbol)
	if tr.Flags&TransCleanup != 0 {
		m.note("accept|%s|%s|%d", m.cls, k, tr.To)
	}
}

func (m *lifecycleModel) fail(kind VerdictKind, k Key, state uint32, symbol string) {
	m.health[hViolations]++
	m.note("fail|%s|%s|%s|%d|%s", m.cls, kind, k, state, symbol)
	m.failWith("violation")
}

// step applies one event and returns the error it must produce: "",
// "violation" or "overflow".
func (m *lifecycleModel) step(symbol string, flags SymbolFlags, e Key, ts TransitionSet) string {
	m.err = ""
	if m.quarantined {
		if m.suppressed < m.pol.rearmEvents {
			m.suppressed++
			m.health[hSuppressed]++
			return ""
		}
		m.quarantined = false
		m.overflows, m.suppressed = 0, 0
		m.note("quarantine|%s|false", m.cls)
	}

	edge := func(q uint32) *Transition {
		for i := range ts {
			if ts[i].From == q {
				return &ts[i]
			}
		}
		return nil
	}
	cleanup := false
	var init *Transition
	for i := range ts {
		cleanup = cleanup || ts[i].Flags&TransCleanup != 0
		if init == nil && ts[i].Flags&TransInit != 0 {
			init = &ts[i]
		}
	}

	var cands []Key
	born := map[Key]int{}
	for k, in := range m.live {
		if modelCompatible(k, e) {
			cands = append(cands, k)
			born[k] = in.born
		}
	}
	sort.Slice(cands, func(i, j int) bool { return born[cands[i]] < born[cands[j]] })

	consumed := false
	for _, k := range cands {
		in, ok := m.live[k]
		if m.quarantined {
			break
		}
		if !ok || in.born != born[k] {
			continue
		}
		tr := edge(in.state)
		if tr == nil {
			switch {
			case cleanup:
				m.fail(VerdictIncomplete, k, in.state, symbol)
			case flags&SymStrict != 0:
				m.fail(VerdictBadTransition, k, in.state, symbol)
				delete(m.live, k)
			}
			continue
		}
		consumed = true
		if e.Mask&^k.Mask != 0 {
			u := modelUnion(k, e)
			if _, ok := m.live[u]; !ok && m.place(u, tr.To) {
				m.note("clone|%s|%s|%s|%d", m.cls, k, u, tr.To)
				m.taken(u, *tr, symbol)
			}
			continue
		}
		m.live[k] = modelInst{state: tr.To, born: in.born}
		m.taken(k, *tr, symbol)
	}

	if !consumed && !m.quarantined {
		if init != nil {
			k := modelRestrict(e, init.KeyMask)
			if _, ok := m.live[k]; !ok && m.place(k, init.To) {
				m.note("new|%s|%s|%d", m.cls, k, init.To)
				m.taken(k, *init, symbol)
			}
		} else if flags&SymRequired != 0 && len(m.live) > 0 {
			m.fail(VerdictNoInstance, e, 0, symbol)
		}
	}
	if cleanup && !m.quarantined {
		m.live = map[Key]modelInst{}
	}
	return m.err
}

// instances is the model's counterpart of instSet.
func (m *lifecycleModel) instances() []string {
	var out []string
	for k, in := range m.live {
		out = append(out, fmt.Sprintf("%s|%d", k, in.state))
	}
	sort.Strings(out)
	return out
}

func (m *lifecycleModel) sortedNotes() []string {
	out := append([]string(nil), m.notes...)
	sort.Strings(out)
	return out
}

// layout is one store configuration under test: the per-thread slot array,
// or the global striped store at a given stripe count.
type layout struct {
	ctx    Context
	shards int
}

// layouts is every layout the differentials sweep.
var layouts = []layout{{PerThread, 0}, {Global, 1}, {Global, 2}, {Global, 4}, {Global, 8}, {Global, 16}}

func (l layout) String() string {
	if l.ctx == PerThread {
		return "slots"
	}
	return fmt.Sprintf("stripes=%d", l.shards)
}

// store builds a store of this layout from o.
func (l layout) store(o StoreOpts) *Store {
	o.Context, o.Shards = l.ctx, l.shards
	return NewStoreOpts(o)
}

// failureFor maps a schedule's fail-fast switch onto the store's failure
// action.
func failureFor(failFast bool) FailureAction {
	if failFast {
		return FailStop
	}
	return FailReport
}

// planCache memoizes one schedule's lowered plans per (symbol, flags): the
// engine contract is link-time lowering, one plan reused for every event of
// that symbol — lowering per event would hide staleness bugs.
type planCache map[string]*SymbolPlan

func (pc planCache) plan(cls *Class, symbol string, flags SymbolFlags, ts TransitionSet) *SymbolPlan {
	id := symbol + string(rune('0'+flags))
	p, ok := pc[id]
	if !ok {
		p = NewSymbolPlan(cls, symbol, flags, ts)
		pc[id] = p
	}
	return p
}

// errKind names a store error the way the model does.
func errKind(err error) string {
	var v *Violation
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverflow):
		return "overflow"
	case errors.As(err, &v):
		return "violation"
	}
	return err.Error()
}

// checkAgainstModel compares a store's observable state with the model's:
// live count, instances, quarantine, health and the notification multiset.
func checkAgainstModel(t *testing.T, where string, s *Store, cls *Class, h *noteHandler, m *lifecycleModel) {
	t.Helper()
	if ls, lm := s.LiveCount(cls), len(m.live); ls != lm {
		t.Fatalf("%s: live count: store %d, model %d", where, ls, lm)
	}
	if is, im := instSet(s, cls), m.instances(); !reflect.DeepEqual(is, im) {
		t.Fatalf("%s: instances:\nstore: %v\nmodel: %v", where, is, im)
	}
	if qs, qm := s.Quarantined(cls), m.quarantined; qs != qm {
		t.Fatalf("%s: quarantined: store %v, model %v", where, qs, qm)
	}
	if hs, hm := healthOf(s, cls), m.health; hs != hm {
		t.Fatalf("%s: health [violations overflows evictions suppressed quarantines]: store %v, model %v", where, hs, hm)
	}
	if ns, nm := h.sorted(), m.sortedNotes(); !reflect.DeepEqual(ns, nm) {
		t.Fatalf("%s: notifications:\nstore: %v\nmodel: %v", where, ns, nm)
	}
}

// modelCase is one TestModelDifferential configuration.
type modelCase struct {
	seed     int64
	l        layout
	failStop bool
	batch    int // 0 = synchronous
	overflow OverflowPolicy
	rate     float64 // injected allocation-failure rate
	// quiet also runs the schedule on a twin store whose handler is the
	// no-op, and so builds no notifications, and holds it to the
	// listening store on everything but notifications.
	quiet bool
}

func (c modelCase) String() string {
	return fmt.Sprintf("seed %d %v failstop=%v batch %d %v allocfail=%v quiet=%v", c.seed, c.l, c.failStop, c.batch, c.overflow, c.rate, c.quiet)
}

// sameErr reports whether two stores returned the same event error: none,
// an overflow, or equal violations.
func sameErr(a, b error) bool {
	var va, vb *Violation
	if errors.As(a, &va) && errors.As(b, &vb) {
		return *va == *vb
	}
	return errors.Is(a, b)
}

// checkTwin holds the quiet store q to the listening store s: live count,
// instances in slot order, quarantine and health, everything but the
// notifications q does not build.
func checkTwin(t *testing.T, where string, s, q *Store, cls *Class) {
	t.Helper()
	if ls, lq := s.LiveCount(cls), q.LiveCount(cls); ls != lq {
		t.Fatalf("%s: live count: listening %d, quiet %d", where, ls, lq)
	}
	if is, iq := s.Instances(cls), q.Instances(cls); !reflect.DeepEqual(is, iq) {
		t.Fatalf("%s: instances:\nlistening: %v\nquiet:     %v", where, is, iq)
	}
	if qs, qq := s.Quarantined(cls), q.Quarantined(cls); qs != qq {
		t.Fatalf("%s: quarantined: listening %v, quiet %v", where, qs, qq)
	}
	if hs, hq := s.Health(cls), q.Health(cls); hs != hq {
		t.Fatalf("%s: health: listening %+v, quiet %+v", where, hs, hq)
	}
}

// runModelDifferential drives one schedule through a store of the case's
// layout and the model, one event at a time (batch == 0) or in UpdateBatch
// flushes of at most batch ops, comparing after every event or flush to the
// schedule's end. Store and model consult two fault injectors built from
// the same seed, so a store that consults its injector out of the policy's
// order diverges. It returns the model's final health.
func runModelDifferential(t *testing.T, c modelCase) [5]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	// Tight limits in half the schedules so overflow is common; roomy
	// ones in the rest so long clone chains run too.
	limit := 2 + rng.Intn(6)
	if c.seed%2 == 0 {
		limit = 24 + rng.Intn(40)
	}
	cls := &Class{Name: "model", States: 8, Limit: limit}
	states := uint32(3 + rng.Intn(3))
	// Small thresholds make quarantine and re-arm reachable inside one
	// schedule.
	quarAfter, rearm := 1+rng.Intn(3), 1+rng.Intn(6)

	injStore, injModel := faultinject.New(uint64(c.seed)), faultinject.New(uint64(c.seed))
	injStore.SetRate(faultinject.SiteAlloc, c.rate)
	injModel.SetRate(faultinject.SiteAlloc, c.rate)

	store := func(h Handler, inj *faultinject.Injector) *Store {
		s := c.l.store(StoreOpts{
			Handler: h, Failure: failureFor(c.failStop),
			Overflow: c.overflow, QuarantineAfter: quarAfter, RearmEvents: rearm,
			AllocFail: func(cls *Class) bool { return inj.Should(faultinject.SiteAlloc, cls.Name) },
		})
		s.Register(cls)
		return s
	}
	h := &noteHandler{}
	s := store(h, injStore)
	// The quiet twin consults its own injector, built from the same seed.
	var q *Store
	if c.quiet {
		injQuiet := faultinject.New(uint64(c.seed))
		injQuiet.SetRate(faultinject.SiteAlloc, c.rate)
		q = store(NopHandler{}, injQuiet)
	}
	m := newLifecycleModel(cls.Name, limit, modelPolicy{
		failStop: c.failStop, overflow: c.overflow, quarantineAfter: quarAfter, rearmEvents: rearm,
		refuse: func() bool { return injModel.Should(faultinject.SiteAlloc, cls.Name) },
	})

	plans := planCache{}
	var pending []BatchOp
	want := "" // the model's error for the pending flush
	flush := func(where string) {
		if len(pending) == 0 {
			return
		}
		err := s.UpdateBatch(pending)
		if q != nil {
			if errQ := q.UpdateBatch(pending); !sameErr(err, errQ) {
				t.Fatalf("%s: flush error: listening %v, quiet %v", where, err, errQ)
			}
			checkTwin(t, where, s, q, cls)
		}
		pending = pending[:0]
		if got := errKind(err); got != want {
			t.Fatalf("%s: flush error %q (%v), model %q", where, got, err, want)
		}
		want = ""
		checkAgainstModel(t, where, s, cls, h, m)
	}

	for i, ev := range randSchedule(rng, states, 48) {
		where := fmt.Sprintf("%v event %d (%s %s)", c, i, ev.op+" "+ev.symbol, ev.key)
		switch ev.op {
		case "reset", "resetclass":
			flush(where)
			for _, st := range []*Store{s, q} {
				if st == nil {
					continue
				}
				if ev.op == "reset" {
					st.Reset()
				} else {
					st.ResetClass(cls)
				}
			}
			m.reset()
			checkAgainstModel(t, where, s, cls, h, m)
			continue
		}
		p := plans.plan(cls, ev.symbol, ev.flags, ev.ts)
		got := m.step(ev.symbol, ev.flags, ev.key, ev.ts)
		if c.batch == 0 {
			err := s.UpdateStatePlan(p, ev.key)
			if errKind(err) != got {
				t.Fatalf("%s: error %q (%v), model %q", where, errKind(err), err, got)
			}
			if q != nil {
				if errQ := q.UpdateStatePlan(p, ev.key); !sameErr(err, errQ) {
					t.Fatalf("%s: error: listening %v, quiet %v", where, err, errQ)
				}
				checkTwin(t, where, s, q, cls)
			}
			checkAgainstModel(t, where, s, cls, h, m)
			continue
		}
		if want == "" {
			want = got
		}
		pending = append(pending, BatchOp{Plan: p, Key: ev.key})
		if len(pending) >= c.batch || rng.Intn(6) == 0 {
			flush(where)
		}
	}
	flush(fmt.Sprintf("%v final flush", c))
	if q != nil {
		checkTwin(t, fmt.Sprintf("%v end", c), s, q, cls)
	}
	if fs, fm := injStore.TotalFired(), injModel.TotalFired(); fs != fm {
		t.Fatalf("%v: injector fired %d times for the store, %d for the model", c, fs, fm)
	}
	return m.health
}

// TestModelDifferential holds every store layout to the lifecycle model:
// randomised schedules over the per-thread slot array and the global store
// at 1, 2, 4, 8 and 16 stripes, both failure actions, the synchronous plane
// and UpdateBatch at batch sizes 1, 7 and 64 (batchRunMax), all three
// overflow policies and injected allocation failures at 0, 10% and 50%,
// each compared on every event or flush to its end. Every seventh schedule
// also runs on a NopHandler twin, which builds no notifications; seven
// shares no factor with any sweep dimension, so the share takes every
// layout, policy, batch size, failure action and fault rate.
func TestModelDifferential(t *testing.T) {
	const reps = 5
	var cases []modelCase
	for r := 0; r < reps; r++ {
		for _, rate := range []float64{0, 0.1, 0.5} {
			for _, pol := range []OverflowPolicy{DropNew, EvictOldest, QuarantineClass} {
				for _, batch := range []int{0, 1, 7, 64} {
					for _, failStop := range []bool{false, true} {
						for _, l := range layouts {
							cases = append(cases, modelCase{l: l, failStop: failStop, batch: batch, overflow: pol, rate: rate})
						}
					}
				}
			}
		}
	}
	// seen counts, per health counter, the schedules that moved it: each
	// degradation path must actually be taken.
	var seen [5]int
	for i := range cases {
		cases[i].seed = int64(80000 + i)
		cases[i].quiet = i%7 == 0
		h := runModelDifferential(t, cases[i])
		for j := range h {
			if h[j] > 0 {
				seen[j]++
			}
		}
	}
	t.Logf("%d schedules compared event for event to their end; schedules with [violations overflows evictions suppressed quarantines]: %v", len(cases), seen)
	if len(cases) < 2000 {
		t.Fatalf("%d schedules, want >= 2000", len(cases))
	}
	for j, n := range seen {
		if n < len(cases)/20 {
			t.Fatalf("health counter %d moved in only %d of %d schedules", j, n, len(cases))
		}
	}
}
