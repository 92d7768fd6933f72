package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The lifecycle model: an executable statement of the §4.4.1 instance rules,
// written from the rules rather than from either store body. It keeps no
// slots, locks, plans or store helpers — only the live instances, as a map
// from key to state stamped with creation order — and emits the noteHandler
// lines (new, clone, trans, accept, fail) a store must emit for the same
// event. TestModelDifferential drives randomised schedules through every
// store layout on both dispatch planes and compares every event (every
// flush, when batched) with it, up to the schedule's first overflow: the
// model's capacity is unbounded, so overflow degradation is the business of
// the slot-array-vs-striped differentials (differential_test.go,
// chaos_test.go), not of the model.
//
// The rules, for an event with symbol flags F, key E and transition set T:
//
//  1. The candidates are the instances live before the event whose key is
//     compatible with E (no slot bound in both to different values), taken
//     in creation order.
//  2. A candidate in state q takes the first edge of T leaving q. Without
//     one, a cleanup event (T has a cleanup edge) reports it incomplete, a
//     strict symbol reports a bad transition and kills it, and any other
//     event leaves it alone.
//  3. If E binds a slot the candidate does not, the edge forks a clone keyed
//     by the union of both keys, unless an instance with that key is live
//     already; either way the event counts as consumed and the parent stays.
//  4. Otherwise the candidate moves along the edge in place.
//  5. An event no candidate consumed starts an instance along T's first
//     «init» edge, keyed by E restricted to that edge's key mask, unless that
//     key is live already. Without an «init» edge, a required symbol reports
//     a missing instance — but only while some instance is live: before its
//     first «init» an automaton ignores events.
//  6. Every edge taken is reported as a transition, and an edge carrying the
//     cleanup flag also as an accept.
//  7. A cleanup event finally empties the class.

// modelInst is one live instance of the model: its state and creation order.
type modelInst struct {
	state uint32
	born  int
}

// lifecycleModel is the model's whole state for one class.
type lifecycleModel struct {
	cls   string
	limit int
	live  map[Key]modelInst
	born  int
	notes []string
}

func newLifecycleModel(cls string, limit int) *lifecycleModel {
	return &lifecycleModel{cls: cls, limit: limit, live: map[Key]modelInst{}}
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

func (m *lifecycleModel) reset() { m.live = map[Key]modelInst{} }

// start creates an instance, or reports false when the store's preallocated
// block would already be full: the store overflows there.
func (m *lifecycleModel) start(k Key, state uint32) bool {
	if len(m.live) >= m.limit {
		return false
	}
	m.born++
	m.live[k] = modelInst{state: state, born: m.born}
	return true
}

func (m *lifecycleModel) taken(k Key, tr Transition, symbol string) {
	m.note("trans|%s|%s|%d|%d|%s", m.cls, k, tr.From, tr.To, symbol)
	if tr.Flags&TransCleanup != 0 {
		m.note("accept|%s|%s|%d", m.cls, k, tr.To)
	}
}

func (m *lifecycleModel) fail(kind VerdictKind, k Key, state uint32, symbol string) {
	m.note("fail|%s|%s|%s|%d|%s", m.cls, kind, k, state, symbol)
}

// step applies one event. It reports whether the event violated the
// automaton, and whether it overflowed — after which the model no longer
// predicts the store.
func (m *lifecycleModel) step(symbol string, flags SymbolFlags, e Key, ts TransitionSet) (violated, overflow bool) {
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
	for k := range m.live {
		if modelCompatible(k, e) {
			cands = append(cands, k)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return m.live[cands[i]].born < m.live[cands[j]].born })

	consumed := false
	for _, k := range cands {
		in := m.live[k]
		tr := edge(in.state)
		if tr == nil {
			switch {
			case cleanup:
				m.fail(VerdictIncomplete, k, in.state, symbol)
				violated = true
			case flags&SymStrict != 0:
				m.fail(VerdictBadTransition, k, in.state, symbol)
				delete(m.live, k)
				violated = true
			}
			continue
		}
		consumed = true
		if e.Mask&^k.Mask != 0 {
			u := modelUnion(k, e)
			if _, ok := m.live[u]; ok {
				continue
			}
			if !m.start(u, tr.To) {
				return violated, true
			}
			m.note("clone|%s|%s|%s|%d", m.cls, k, u, tr.To)
			m.taken(u, *tr, symbol)
			continue
		}
		m.live[k] = modelInst{state: tr.To, born: in.born}
		m.taken(k, *tr, symbol)
	}

	if !consumed {
		if init != nil {
			k := modelRestrict(e, init.KeyMask)
			if _, ok := m.live[k]; !ok {
				if !m.start(k, init.To) {
					return violated, true
				}
				m.note("new|%s|%s|%d", m.cls, k, init.To)
				m.taken(k, *init, symbol)
			}
		} else if flags&SymRequired != 0 && len(m.live) > 0 {
			m.fail(VerdictNoInstance, e, 0, symbol)
			violated = true
		}
	}
	if cleanup {
		m.reset()
	}
	return violated, false
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

// checkAgainstModel compares a store's observable state with the model's.
func checkAgainstModel(t *testing.T, where string, s *Store, cls *Class, h *noteHandler, m *lifecycleModel) {
	t.Helper()
	if ls, lm := s.LiveCount(cls), len(m.live); ls != lm {
		t.Fatalf("%s: live count: store %d, model %d", where, ls, lm)
	}
	if is, im := instSet(s, cls), m.instances(); !reflect.DeepEqual(is, im) {
		t.Fatalf("%s: instances:\nstore: %v\nmodel: %v", where, is, im)
	}
	if ns, nm := h.sorted(), m.sortedNotes(); !reflect.DeepEqual(ns, nm) {
		t.Fatalf("%s: notifications:\nstore: %v\nmodel: %v", where, ns, nm)
	}
}

// sawOverflow reports whether the store emitted an overflow notification.
func sawOverflow(h *noteHandler) bool {
	for _, n := range h.sorted() {
		if strings.HasPrefix(n, "overflow|") {
			return true
		}
	}
	return false
}

// runModelDifferential drives one schedule through a store of layout l and
// the model, one event at a time (batch == 0) or in UpdateBatch flushes of
// at most batch ops, comparing after every event or flush. It reports
// whether the schedule ran to its end without overflowing.
func runModelDifferential(t *testing.T, seed int64, l layout, failFast bool, batch int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Mostly roomy limits so most schedules run overflow-free to the end;
	// every fourth schedule gets a tight one so the model's overflow
	// prediction is exercised too.
	limit := 24 + rng.Intn(40)
	if seed%4 == 0 {
		limit = 2 + rng.Intn(6)
	}
	cls := &Class{Name: "model", States: 8, Limit: limit}
	states := uint32(3 + rng.Intn(3))

	h := &noteHandler{}
	s := l.store(StoreOpts{Handler: h, Failure: failureFor(failFast)})
	s.Register(cls)
	m := newLifecycleModel(cls.Name, limit)

	plans := planCache{}
	var pending []BatchOp
	violated, overflow := false, false
	// settle checks the store after an event or a flush. The model's first
	// overflow ends the comparison, once the store has reported it too.
	settle := func(where string, err error) bool {
		if overflow {
			if !sawOverflow(h) {
				t.Fatalf("%s: model overflowed, store did not", where)
			}
			return false
		}
		if (err != nil) != (failFast && violated) {
			t.Fatalf("%s: error %v, model violated=%v", where, err, violated)
		}
		violated = false
		checkAgainstModel(t, where, s, cls, h, m)
		return true
	}
	flush := func(i int) bool {
		if len(pending) == 0 {
			return true
		}
		err := s.UpdateBatch(pending)
		pending = pending[:0]
		return settle(fmt.Sprintf("seed %d %v failfast=%v batch %d flush at event %d", seed, l, failFast, batch, i), err)
	}

	for i, ev := range randSchedule(rng, states, 48) {
		where := fmt.Sprintf("seed %d %v failfast=%v batch %d event %d (%s %s)", seed, l, failFast, batch, i, ev.symbol, ev.key)
		switch ev.op {
		case "reset", "resetclass":
			if !flush(i) {
				return false
			}
			if ev.op == "reset" {
				s.Reset()
			} else {
				s.ResetClass(cls)
			}
			m.reset()
			checkAgainstModel(t, where, s, cls, h, m)
			continue
		}
		p := plans.plan(cls, ev.symbol, ev.flags, ev.ts)
		v, o := m.step(ev.symbol, ev.flags, ev.key, ev.ts)
		violated, overflow = violated || v, overflow || o
		if batch == 0 {
			if !settle(where, s.UpdateStatePlan(p, ev.key)) {
				return false
			}
			continue
		}
		pending = append(pending, BatchOp{Plan: p, Key: ev.key})
		if overflow || len(pending) >= batch || rng.Intn(6) == 0 {
			if !flush(i) {
				return false
			}
		}
	}
	return flush(48)
}

// TestModelDifferential sweeps randomised schedules over every store layout
// (the per-thread slot array and the global store at 1, 2, 4, 8 and 16
// stripes), both fail-fast modes, and the synchronous plane plus UpdateBatch
// at batch sizes 1, 7 and 64 (batchRunMax), against the lifecycle model.
func TestModelDifferential(t *testing.T) {
	const schedules = 1440
	clean := 0
	for i := 0; i < schedules; i++ {
		l := layouts[i%len(layouts)]
		failFast := (i/len(layouts))%2 == 0
		batch := []int{0, 1, 7, 64}[(i/(2*len(layouts)))%4]
		if runModelDifferential(t, int64(80000+i), l, failFast, batch) {
			clean++
		}
	}
	if clean < 1000 {
		t.Fatalf("only %d of %d schedules ran overflow-free to the end, want >= 1000", clean, schedules)
	}
	t.Logf("%d of %d schedules compared event for event to their end; the rest up to their first overflow", clean, schedules)
}
