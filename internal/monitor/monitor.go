package monitor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/spec"
)

// Options configures a Monitor.
type Options struct {
	// Handler receives lifecycle notifications (nil = discard).
	Handler core.Handler
	// Tap observes raw program events per thread (nil = no tracing).
	// Threads pay one nil check per event when no tap is installed.
	Tap Tap
	// Memory resolves indirect (&x) patterns (nil = raw values).
	Memory Memory
	// Naive disables the lazy-initialisation optimisation: every bound
	// event does work on every automaton sharing that bound, the
	// behaviour whose cost figure 13 quantifies. The optimised (default)
	// mode keeps a per-context record of common initialisation and
	// cleanup events and initialises instances lazily when they receive
	// their first non-initialisation event (§5.2.2).
	Naive bool
	// GlobalShards selects the global store's lock-stripe count, passed
	// through to core.StoreOpts.Shards: 0 sizes it to GOMAXPROCS.
	// Per-thread stores take no locks and are unaffected.
	GlobalShards int
	// BatchSize enables the batched per-thread event plane (batch.go):
	// each Thread stages up to this many program events in a ring and
	// applies them to the stores in runs, amortising stripe locking and
	// index lookups. 0 keeps the synchronous path — one store round-trip
	// per event — which is also the executable differential reference the
	// parity harness compares batched runs against. Verdict-observing
	// operations (Health, Drain, fail-stop verdict symbols, trace cuts)
	// force a flush, so observable verdicts are identical in both modes.
	BatchSize int

	// Failure is every automaton's failure action (§4.4.2's panic/printf
	// spectrum). FailStop propagates the first violation as an error from
	// the Thread event methods (TESLA's fail-stop behaviour); the zero
	// value reports.
	Failure core.FailureAction
	// Overflow is every automaton's degradation policy when its instance
	// table is full; the zero value drops the new instance.
	Overflow core.OverflowPolicy
	// QuarantineAfter and RearmEvents tune QuarantineClass (0 = core
	// defaults).
	QuarantineAfter int
	RearmEvents     int
	// AllocFail, when set, is consulted before every instance allocation
	// and forces an allocation failure when it returns true — the
	// fault-injection seam (internal/faultinject). Nil in production.
	AllocFail func(cls *core.Class) bool
}

// storeOpts translates the monitor options into core store options for the
// given context.
func (o Options) storeOpts(ctx core.Context) core.StoreOpts {
	return core.StoreOpts{
		Context:         ctx,
		Handler:         o.Handler,
		Shards:          o.GlobalShards,
		Failure:         o.Failure,
		Overflow:        o.Overflow,
		QuarantineAfter: o.QuarantineAfter,
		RearmEvents:     o.RearmEvents,
		AllocFail:       o.AllocFail,
	}
}

// Monitor owns the compiled automata, their shared global store and the
// hook plan that dispatches events to them. Create threads with NewThread;
// each simulated thread of the monitored program must use its own Thread.
type Monitor struct {
	opts   Options
	autos  []*automata.Automaton
	global *core.Store

	// hooks is the hook plan over autos: which automaton events fire at
	// each named program point and in what order, each automaton's bound
	// slot and its incallstack branches. The instrumenter and the static
	// checker read the same plan.
	hooks *automata.Plan
	// byName indexes autos by automaton (assertion) name.
	byName map[string]int

	// plans[idx][symID] is automaton idx's compiled engine plan for that
	// symbol (Automaton.Plans): every dispatch path routes
	// events through these.
	plans [][]*core.SymbolPlan

	// failStop records whether the failure action is fail-stop — the batch
	// plane then drains through on verdict-bearing ops so their violation
	// errors surface at the causing event call.
	failStop bool

	// globalLazy tracks bound epochs for global-context automata,
	// guarded by muGlobal (the analogue of the store's explicit
	// synchronisation for the global context).
	muGlobal   sync.Mutex
	globalLazy lazyState

	// nextThread numbers threads for trace attribution.
	nextThread atomic.Int32

	// threads tracks every Thread's store so Health can merge per-thread
	// degradation counters with the global store's.
	threadsMu sync.Mutex
	threads   []*Thread
}

// lazyState is the per-context record of initialisation/cleanup events.
type lazyState struct {
	epoch     []uint64     // per bound slot; bumped at bound entry
	inBound   []bool       // per bound slot
	lastEpoch []uint64     // per automaton; epoch at which init materialised
	touched   [][]lazyInit // per bound slot: automata initialised this epoch
}

// lazyInit is one materialised «init» awaiting its «cleanup»: the
// automaton and the thread whose event staged the init. In the shared
// global context the bound's close may come from another thread; in
// batched mode the cleanup then goes into the initialising thread's ring,
// behind its init.
type lazyInit struct {
	idx int
	by  *Thread
}

func newLazyState(bounds, autos int) lazyState {
	return lazyState{
		epoch:     make([]uint64, bounds),
		inBound:   make([]bool, bounds),
		lastEpoch: make([]uint64, autos),
		touched:   make([][]lazyInit, bounds),
	}
}

// New creates a monitor for the given compiled automata.
func New(opts Options, autos ...*automata.Automaton) (*Monitor, error) {
	m := &Monitor{
		opts:   opts,
		autos:  append([]*automata.Automaton(nil), autos...),
		global: core.NewStoreOpts(opts.storeOpts(core.Global)),
		hooks:  automata.NewPlan(autos, nil),
		byName: make(map[string]int, len(autos)),
	}
	for idx, a := range autos {
		if _, dup := m.byName[a.Name]; dup {
			return nil, fmt.Errorf("monitor: duplicate automaton name %q", a.Name)
		}
		m.byName[a.Name] = idx
		// Link-time engine lowering: the automaton lowers its plans once,
		// on first use, so no event pays for plan construction.
		m.plans = append(m.plans, a.Plans())
		if a.Spec.Context == spec.Global {
			m.global.Register(a.Class)
		}
	}
	m.globalLazy = newLazyState(m.hooks.Slots(), len(m.autos))
	// Every store is built from the same options, so the global store
	// answers for the per-thread ones too.
	m.failStop = m.global.FailStop()
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(opts Options, autos ...*automata.Automaton) *Monitor {
	m, err := New(opts, autos...)
	if err != nil {
		panic(err)
	}
	return m
}

// Automata returns the monitored automata.
func (m *Monitor) Automata() []*automata.Automaton { return m.autos }

// Thread is one simulated thread's view of the monitor: its per-thread
// store, call stack and lazy-init bookkeeping. A Thread must not be used
// concurrently; cross-thread behaviour belongs to global-context automata.
type Thread struct {
	m     *Monitor
	id    int
	store *core.Store
	stack []string
	lazy  lazyState
	tap   ThreadTap
	btap  BatchThreadTap // tap's batch extension, when it implements one
	batch *batchState    // staging ring; nil in synchronous mode
	clock func() int64

	// tapVals and tapStack are the thread-owned copies of an event's
	// borrowed slices that a synchronous tap sees (emit).
	tapVals  []core.Value
	tapStack []int
	// cleanups is boundEnd's scratch for the global inits it takes.
	cleanups []lazyInit

	// StackQuery, when set, answers incallstack queries instead of the
	// thread's own call stack — the IR interpreter supplies its frame
	// stack here so only instrumented events need explicit hooks.
	StackQuery func(fn string) bool
}

// NewThread creates a thread context, registering every per-thread
// automaton class in a fresh per-thread store.
func (m *Monitor) NewThread() *Thread {
	th := &Thread{
		m:     m,
		id:    int(m.nextThread.Add(1)) - 1,
		store: core.NewStoreOpts(m.opts.storeOpts(core.PerThread)),
		lazy:  newLazyState(m.hooks.Slots(), len(m.autos)),
	}
	if m.opts.Tap != nil {
		th.tap = m.opts.Tap.ThreadTap(th.id)
	}
	if m.opts.BatchSize > 0 {
		th.batch = newBatchState(m.opts.BatchSize)
		if bt, ok := th.tap.(BatchThreadTap); ok {
			th.btap = bt
		}
	}
	for _, a := range m.autos {
		if a.Spec.Context != spec.Global {
			th.store.Register(a.Class)
		}
	}
	m.threadsMu.Lock()
	m.threads = append(m.threads, th)
	m.threadsMu.Unlock()
	return th
}

// Health merges degradation accounting across the global store and every
// per-thread store: one entry per class name, counters summed, Live totalled,
// Quarantined set if the class is quarantined in any store. Entries are
// ordered by first appearance (global first, then threads in creation order).
// Health is a required-site drain: batched threads flush their staged rings
// first, so the counters reflect every event delivered to the monitor.
// Deferred fail-stop errors surfaced by that drain are not returned here —
// they are already counted in the violation totals; use Drain to collect
// them.
func (m *Monitor) Health() []core.ClassHealth {
	m.Drain()
	m.threadsMu.Lock()
	stores := make([]*core.Store, 0, 1+len(m.threads))
	stores = append(stores, m.global)
	for _, th := range m.threads {
		stores = append(stores, th.store)
	}
	m.threadsMu.Unlock()

	idx := map[string]int{}
	var out []core.ClassHealth
	for _, s := range stores {
		for _, ch := range s.HealthReport() {
			i, ok := idx[ch.Class]
			if !ok {
				idx[ch.Class] = len(out)
				out = append(out, ch)
				continue
			}
			out[i].Live += ch.Live
			out[i].Quarantined = out[i].Quarantined || ch.Quarantined
			out[i].Health.Merge(ch.Health)
		}
	}
	return out
}

// Degraded reports whether any class in any store has degradation counters.
func (m *Monitor) Degraded() bool {
	for _, ch := range m.Health() {
		if ch.Degraded() {
			return true
		}
	}
	return false
}

// SetClock installs a time source stamped onto tapped events; the VM
// supplies its step counter so trace records carry instruction time.
func (th *Thread) SetClock(f func() int64) { th.clock = f }

func (th *Thread) now() int64 {
	if th.clock != nil {
		return th.clock()
	}
	return 0
}

// storeFor picks the store an automaton's events go to.
func (th *Thread) storeFor(idx int) *core.Store {
	if th.m.autos[idx].Spec.Context == spec.Global {
		return th.m.global
	}
	return th.store
}

// lazyFor returns the lazy bookkeeping context for an automaton, plus the
// mutex guarding it (nil for per-thread automata).
func (th *Thread) lazyFor(idx int) (*lazyState, *sync.Mutex) {
	if th.m.autos[idx].Spec.Context == spec.Global {
		return &th.m.globalLazy, &th.m.muGlobal
	}
	return &th.lazy, nil
}

// observed reports whether something takes this thread's raw program
// events: a tap, or the batched ring, whose entries the matched ops attach
// to. Entry points build a ProgramEvent only when it holds, so an untapped
// synchronous thread builds, stamps and copies none.
func (th *Thread) observed() bool { return th.tap != nil || th.batch != nil }

// emit hands one raw program event to the thread's sink: the synchronous
// tap, or in batched mode a new ring entry for the event's matched ops to
// attach to. ev's own slices are nil; vals and inStack are the entry
// point's caller's, borrowed for this call and never retained, so they
// stay on the caller's stack. The tap sees thread-owned copies, valid
// until its callback returns; the ring copies them once into its entry. A
// full ring flushes first, which may surface a deferred fail-stop error —
// returned here for the entry point to report.
func (th *Thread) emit(ev ProgramEvent, vals []core.Value, inStack []int) error {
	if th.batch != nil {
		return th.stageEvent(ev, vals, inStack)
	}
	if len(vals) > 0 {
		th.tapVals = append(th.tapVals[:0], vals...)
		ev.Vals = th.tapVals
	}
	if len(inStack) > 0 {
		th.tapStack = append(th.tapStack[:0], inStack...)
		ev.InStack = th.tapStack
	}
	th.tap.ProgramEvent(ev)
	return nil
}

// values is what fire matches a program point's event hooks against: the
// point's arguments (a message's receiver first) and, at a return, its
// return value; or at a field store, {target, value} under op.
type values struct {
	vals   []core.Value
	ret    core.Value
	hasRet bool
	field  bool
	op     spec.AssignOp
}

// Call reports entry into fn with the given arguments: it pushes fn onto
// the thread's call stack for incallstack patterns and fires the plan's
// hooks at fn's entry — «init» for automata bounded by fn and entry-event
// symbols naming fn.
func (th *Thread) Call(fn string, args ...core.Value) error {
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgCall, Time: th.now(), Fn: fn}, args, nil)
	}
	th.stack = append(th.stack, fn)
	return th.fire(first, th.m.hooks.Hooks(automata.AtCall, fn), values{vals: args})
}

// Return reports return from fn: it fires the plan's hooks at fn's return —
// exit-event symbols (which may constrain arguments and the return value)
// and «cleanup» for automata bounded by fn — then pops fn off the stack.
func (th *Thread) Return(fn string, ret core.Value, args ...core.Value) error {
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgReturn, Time: th.now(), Fn: fn, Ret: ret, HasRet: true}, args, nil)
	}
	first = th.fire(first, th.m.hooks.Hooks(automata.AtReturn, fn), values{vals: args, ret: ret, hasRet: true})
	if n := len(th.stack); n > 0 && th.stack[n-1] == fn {
		th.stack = th.stack[:n-1]
	}
	return first
}

// sendArgs is how many message values (receiver and arguments) Send and
// SendReturn gather on the stack; longer messages spill to the heap.
const sendArgs = 8

// Send reports an Objective-C message send (selector with receiver).
func (th *Thread) Send(selector string, receiver core.Value, args ...core.Value) error {
	var buf [sendArgs]core.Value
	all := append(append(buf[:0], receiver), args...)
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgSend, Time: th.now(), Fn: selector}, all, nil)
	}
	return th.fire(first, th.m.hooks.Hooks(automata.AtSend, selector), values{vals: all})
}

// SendReturn reports the return of an Objective-C message.
func (th *Thread) SendReturn(selector string, ret core.Value, receiver core.Value, args ...core.Value) error {
	var buf [sendArgs]core.Value
	all := append(append(buf[:0], receiver), args...)
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgSendReturn, Time: th.now(), Fn: selector, Ret: ret, HasRet: true}, all, nil)
	}
	return th.fire(first, th.m.hooks.Hooks(automata.AtSendReturn, selector), values{vals: all, ret: ret, hasRet: true})
}

// Assign reports a structure-field assignment.
func (th *Thread) Assign(structName, field string, target core.Value, op spec.AssignOp, value core.Value) error {
	vals := []core.Value{target, value}
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgAssign, Time: th.now(), Fn: structName, Field: field, Op: op}, vals, nil)
	}
	return th.fire(first, th.m.hooks.Assign(structName, field, op), values{vals: vals, field: true, op: op})
}

// fire runs the hooks the plan places at a program point, in plan order.
// A bound hook opens or closes its slot, once however many automata share
// it; an event hook delivers its symbol when the point's values v match
// it. fire returns first if it is set, else the first error a hook
// reports.
func (th *Thread) fire(first error, hooks []automata.Hook, v values) error {
	for i := range hooks {
		h := &hooks[i]
		var err error
		switch h.Kind {
		case automata.HookBoundBegin:
			err = th.boundBegin(h.Slot)
		case automata.HookBoundEnd:
			err = th.boundEnd(h.Slot)
		default:
			var key core.Key
			var ok bool
			if v.field {
				key, ok = matchField(h.Sym, v.vals[0], v.op, v.vals[1], th.m.opts.Memory)
			} else {
				key, ok = matchFunc(h.Sym, v.vals, v.ret, v.hasRet, th.m.opts.Memory)
			}
			if ok {
				err = th.deliver(h.Auto, h.Sym, key)
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrUnknownSite is Site's error for a name no automaton has. It is one
// preallocated value: substrates report sites of assertion sets that are
// not loaded on every event and discard the error, so it must cost
// nothing to return.
var ErrUnknownSite = errors.New("monitor: unknown assertion site")

// Site reports execution reaching the named assertion's site, with the
// values of the assertion's scope variables in slot order. incallstack
// branches are evaluated against the thread's current call stack first.
func (th *Thread) Site(name string, vals ...core.Value) error {
	idx, ok := th.m.byName[name]
	if !ok {
		return ErrUnknownSite
	}
	return th.site(idx, vals)
}

// stackBranches is how many matched incallstack branches site gathers on
// the stack; more spill to the heap.
const stackBranches = 8

// site resolves incallstack branches against the live call stack, emits the
// tap event carrying the resolved branch IDs (so replay needs no stack),
// then dispatches.
func (th *Thread) site(autoIdx int, vals []core.Value) error {
	var buf [stackBranches]int
	inStack := buf[:0]
	for _, s := range th.m.hooks.InCallStack(autoIdx) {
		if th.InStack(s.Fn) {
			inStack = append(inStack, s.ID)
		}
	}
	return th.siteEvent(autoIdx, inStack, vals)
}

// siteEvent emits a site event whose incallstack branches are decided —
// inStack lists the symbol IDs that matched — then dispatches them and the
// site itself.
func (th *Thread) siteEvent(autoIdx int, inStack []int, vals []core.Value) error {
	auto := th.m.autos[autoIdx]
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: ProgSite, Time: th.now(), Fn: auto.Name, Auto: autoIdx}, vals, inStack)
	}
	for _, id := range inStack {
		if id < 0 || id >= len(auto.Symbols) {
			if first == nil {
				first = fmt.Errorf("monitor: symbol %d out of range for %s", id, auto.Name)
			}
			return first
		}
		if err := th.deliver(autoIdx, auto.Symbols[id], core.AnyKey); err != nil && first == nil {
			first = err
		}
	}
	if err := th.deliver(autoIdx, auto.Site(), siteKey(auto, vals)); err != nil && first == nil {
		first = err
	}
	return first
}

// SiteResolved replays a recorded site event without consulting any call
// stack: the trace already captured which incallstack branches fired.
func (th *Thread) SiteResolved(autoIdx int, inStack []int, vals ...core.Value) error {
	if autoIdx < 0 || autoIdx >= len(th.m.autos) {
		return fmt.Errorf("monitor: automaton index %d out of range", autoIdx)
	}
	return th.siteEvent(autoIdx, inStack, vals)
}

// InStack reports whether fn is on the thread's call stack.
func (th *Thread) InStack(fn string) bool {
	if th.StackQuery != nil {
		return th.StackQuery(fn)
	}
	for _, f := range th.stack {
		if f == fn {
			return true
		}
	}
	return false
}

// Deliver routes a pre-matched event — automaton autoIdx's symbol symID
// with the captured values in capture order — to the right store. This is
// the entry point for generated event translators (the IR instrumenter's
// hooks): their static checks have already passed, so only the key remains
// to be built.
func (th *Thread) Deliver(autoIdx, symID int, vals ...core.Value) error {
	if autoIdx < 0 || autoIdx >= len(th.m.autos) {
		return fmt.Errorf("monitor: automaton index %d out of range", autoIdx)
	}
	auto := th.m.autos[autoIdx]
	if symID < 0 || symID >= len(auto.Symbols) {
		return fmt.Errorf("monitor: symbol %d out of range for %s", symID, auto.Name)
	}
	var first error
	if th.observed() {
		ev := ProgramEvent{Kind: ProgDeliver, Time: th.now(), Fn: auto.Name, Auto: autoIdx, Sym: symID}
		if th.batch != nil {
			first = th.stageEvent(ev, vals, nil)
		} else {
			// Unlike emit, the tap is lent the caller's own slice, so vals
			// escapes: a caller that passes a slice on its own stack
			// heap-allocates it on every call. The VM passes one buffer it
			// owns and reuses, so its calls allocate nothing. Lending
			// Deliver emit's thread-owned copy waits for tesla-perf to
			// accept a zero allocation count: its global-ingest workload
			// is all Deliver from a stack slice, and its short test wants
			// every end-to-end metric above 0 (ROADMAP item 3).
			ev.Vals = vals
			th.tap.ProgramEvent(ev)
		}
	}
	sym := auto.Symbols[symID]
	key := core.AnyKey
	for i, c := range sym.Captures {
		if i < len(vals) {
			key = key.Set(c.Slot, vals[i])
		}
	}
	if err := th.deliver(autoIdx, sym, key); err != nil && first == nil {
		first = err
	}
	return first
}

// SiteByIndex reports reaching automaton autoIdx's assertion site, firing
// incallstack branches first (as Site does by name).
func (th *Thread) SiteByIndex(autoIdx int, vals ...core.Value) error {
	if autoIdx < 0 || autoIdx >= len(th.m.autos) {
		return fmt.Errorf("monitor: automaton index %d out of range", autoIdx)
	}
	return th.site(autoIdx, vals)
}

// AutoIndex returns the index of the named automaton, or -1.
func (m *Monitor) AutoIndex(name string) int {
	if idx, ok := m.byName[name]; ok {
		return idx
	}
	return -1
}

// BoundBegin drives bound-slot entry directly (IR hook entry point).
func (th *Thread) BoundBegin(slot int) error {
	return th.boundHook(ProgBoundBegin, slot)
}

// BoundEnd drives bound-slot exit directly (IR hook entry point).
func (th *Thread) BoundEnd(slot int) error {
	return th.boundHook(ProgBoundEnd, slot)
}

// boundHook is BoundBegin (kind ProgBoundBegin) or BoundEnd: a slot the
// plan does not have is an error, as an out-of-range automaton index is
// for Deliver, so a corrupt trace fails its replay instead of crashing it.
func (th *Thread) boundHook(kind ProgKind, slot int) error {
	if slot < 0 || slot >= th.m.hooks.Slots() {
		return fmt.Errorf("monitor: bound slot %d out of range", slot)
	}
	var first error
	if th.observed() {
		first = th.emit(ProgramEvent{Kind: kind, Time: th.now(), Slot: slot}, nil, nil)
	}
	var err error
	if kind == ProgBoundBegin {
		err = th.boundBegin(slot)
	} else {
		err = th.boundEnd(slot)
	}
	if err != nil && first == nil {
		first = err
	}
	return first
}

// sendOp routes one matched (automaton, symbol, key) op to store through the
// automaton's compiled engine plan: staged with the plan attached in batched
// mode (the batch run applies it through the engine body), else driven
// synchronously via UpdateStatePlan.
func (th *Thread) sendOp(store *core.Store, idx int, sym *automata.Symbol, key core.Key) error {
	p := th.m.plans[idx][sym.ID]
	if th.batch != nil {
		return th.stageOp(store, core.BatchOp{Plan: p, Key: key}, th.opDrains(p))
	}
	return store.UpdateStatePlan(p, key)
}

// deliver routes a matched event to the automaton's store, materialising a
// lazy «init» first if needed.
func (th *Thread) deliver(idx int, sym *automata.Symbol, key core.Key) error {
	store := th.storeFor(idx)
	if !th.m.opts.Naive {
		ls, mu := th.lazyFor(idx)
		if mu != nil {
			mu.Lock()
		}
		slot := th.m.hooks.Slot(idx)
		needInit := ls.inBound[slot] && ls.lastEpoch[idx] != ls.epoch[slot]
		drain := false
		if needInit {
			ls.lastEpoch[idx] = ls.epoch[slot]
			ls.touched[slot] = append(ls.touched[slot], lazyInit{idx, th})
			if mu != nil && th.batch != nil {
				// A shared init stages before the touched entry is
				// visible to other threads, so a cleanup that another
				// thread's bound exit stages behind it in this ring
				// (boundEnd) can never overtake it. The drain-through,
				// if any, runs after the lock is released.
				p := th.m.plans[idx][th.m.autos[idx].BoundBegin().ID]
				th.stageOp(store, core.BatchOp{Plan: p, Key: core.AnyKey}, false)
				needInit, drain = false, th.opDrains(p)
			}
		}
		if mu != nil {
			mu.Unlock()
		}
		if drain {
			if _, err := th.flushBatch(); err != nil {
				return err
			}
		}
		if needInit {
			// The lazy decision is made at stage time (under the same
			// bookkeeping lock as synchronous mode); in batched mode the
			// materialising «init» op stages in order before the event op
			// that triggered it.
			if err := th.sendOp(store, idx, th.m.autos[idx].BoundBegin(), core.AnyKey); err != nil {
				return err
			}
		}
	}
	return th.sendOp(store, idx, sym, key)
}

// boundBegin handles entry into a bound function. In naive mode every
// automaton sharing the bound does an «init» immediately; in optimised mode
// the context merely bumps the bound's epoch — O(1) regardless of how many
// automata share the bound.
func (th *Thread) boundBegin(slot int) error {
	var first error
	if th.m.opts.Naive {
		for idx, a := range th.m.autos {
			if th.m.hooks.Slot(idx) != slot {
				continue
			}
			if err := th.sendOp(th.storeFor(idx), idx, a.BoundBegin(), core.AnyKey); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	bump := func(ls *lazyState) {
		ls.epoch[slot]++
		ls.inBound[slot] = true
	}
	bump(&th.lazy)
	th.m.muGlobal.Lock()
	bump(&th.m.globalLazy)
	th.m.muGlobal.Unlock()
	return nil
}

// boundEnd handles return from a bound function: «cleanup» on every
// automaton that is live in this bound (all of them in naive mode, only the
// touched ones in optimised mode).
func (th *Thread) boundEnd(slot int) error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// cleanup sends automaton idx's «cleanup» through thread by: in
	// batched mode it stages in by's ring, behind the init by staged.
	cleanup := func(by *Thread, idx int) {
		note(by.sendOp(th.storeFor(idx), idx, th.m.autos[idx].BoundEnd(), core.AnyKey))
	}
	if th.m.opts.Naive {
		for idx := range th.m.autos {
			if th.m.hooks.Slot(idx) == slot {
				cleanup(th, idx)
			}
		}
		return first
	}
	flush := func(ls *lazyState) []lazyInit {
		touched := ls.touched[slot]
		ls.touched[slot] = ls.touched[slot][:0]
		ls.inBound[slot] = false
		return touched
	}
	for _, t := range flush(&th.lazy) {
		cleanup(th, t.idx)
	}
	// The shared list refills once the lock is released, so the taken
	// entries are copied out, into the thread's scratch. The loop owns
	// the scratch meanwhile: a re-entrant bound exit starts a fresh one.
	th.m.muGlobal.Lock()
	globalTouched := append(th.cleanups[:0], flush(&th.m.globalLazy)...)
	th.cleanups = nil
	th.m.muGlobal.Unlock()
	for _, t := range globalTouched {
		cleanup(t.by, t.idx)
		if t.by != th && t.by.batch != nil {
			// Another thread's ring now holds the cleanup: drain it, as
			// Drain would, so the bound's close takes effect now rather
			// than at that thread's next flush.
			_, err := t.by.flushBatch()
			note(err)
		}
	}
	th.cleanups = globalTouched[:0]
	return first
}
