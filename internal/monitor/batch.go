package monitor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tesla/internal/core"
)

// The batched per-thread event plane. With Options.BatchSize > 0 each Thread
// stages its program events in a fixed-size ring instead of taking one store
// round-trip per event: every entry point stages one ring entry (the raw
// event, copied once, for the trace tap) and appends the symbols it matched
// as deferred store ops. A flush steals the ring and applies it — tap events
// first, then ops in maximal same-store runs via core.UpdateBatch — so
// stripe locking, registration lookups and sink locking amortise across the
// batch while per-thread event order is preserved exactly.
//
// Verdicts stay exact through forced drains at the required sites:
//
//   - a verdict-bearing op (required/strict/cleanup symbol) on a fail-stop
//     automaton drains through inline, so the violation error returns from
//     the event call that caused it, as in synchronous mode;
//   - Monitor.Health and Monitor.Drain flush every thread before reading;
//   - a full ring flushes before accepting the next event — events are
//     never dropped;
//   - tesla-run drains after the program exits, before the trace is saved
//     and the verdict counted.
//
// The synchronous path (BatchSize == 0) is untouched and serves as the
// executable differential reference; the parity suites in
// parity_test.go and core/differential_test.go pin the two equal.

// stagedOp is one matched symbol waiting in the ring: the store it targets
// and the deferred UpdateStatePlan call.
type stagedOp struct {
	store *core.Store
	op    core.BatchOp
}

// stagedEvent is one ring slot: the program event as staged for the tap
// (owned copies of the borrowed slices) and every store op it matched. The
// ops backing array recycles across flushes.
type stagedEvent struct {
	ev    ProgramEvent
	hasEv bool
	ops   []stagedOp
}

// batchState is one thread's staging plane. The mutex guards the ring —
// uncontended in normal operation (only the owning thread stages; another
// goroutine takes it only to drain). The flushing flag serialises
// steal+apply, so staged order is applied order, and turns a drain that
// races an in-flight flush into a no-op instead of a deadlock.
type batchState struct {
	mu    sync.Mutex
	ring  []stagedEvent // active staging buffer; n entries staged
	spare []stagedEvent // the previous flush's buffer, reused at next steal
	n     int

	flushing atomic.Bool

	// evbuf and opbuf are the flusher's scratch (one flush at a time).
	evbuf []ProgramEvent
	opbuf []core.BatchOp
}

func newBatchState(size int) *batchState {
	return &batchState{
		ring:  make([]stagedEvent, size),
		spare: make([]stagedEvent, size),
	}
}

// stageEvent opens a ring entry for one program event; subsequent stageOp
// calls from the same entry point attach to it. ev carries no slices; vals
// and inStack are borrowed from the entry point's caller, and an entry
// that a tap will see copies them here, once. A full ring flushes first
// (never drops), which may surface deferred verdict errors — returned here
// so the entry point reports them.
func (th *Thread) stageEvent(ev ProgramEvent, vals []core.Value, inStack []int) error {
	b := th.batch
	var first error
	b.mu.Lock()
	spins := 0
	for b.n == len(b.ring) {
		b.mu.Unlock()
		flushed, err := th.flushBatch()
		if err != nil && first == nil {
			first = err
		}
		b.mu.Lock()
		if flushed {
			continue
		}
		// Another drain owns the ring mid-apply. Normally it empties the
		// ring and the loop exits; if it cannot (a handler re-entered the
		// monitor during its own flush and outran the ring), grow rather
		// than deadlock — order is still preserved.
		if spins++; spins > 64 {
			b.ring = append(b.ring, stagedEvent{})
			break
		}
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	e := &b.ring[b.n]
	b.n++
	e.ops = e.ops[:0]
	e.hasEv = th.tap != nil
	if e.hasEv {
		// Stage the event once: the borrowed slices are copied here,
		// and ownership passes to the tap sink at flush.
		e.ev = ev
		if len(vals) > 0 {
			e.ev.Vals = append([]core.Value(nil), vals...)
		}
		if len(inStack) > 0 {
			e.ev.InStack = append([]int(nil), inStack...)
		}
	}
	b.mu.Unlock()
	return first
}

// stageOp appends one matched symbol to the current ring entry. When
// drainThrough is set (verdict-bearing op on a fail-stop automaton) the ring
// flushes inline so the violation error surfaces from this event call,
// exactly as the synchronous path's UpdateState would.
func (th *Thread) stageOp(store *core.Store, op core.BatchOp, drainThrough bool) error {
	b := th.batch
	b.mu.Lock()
	if b.n == 0 {
		// A flush ran mid-event (an earlier op of this event drained
		// through, or a concurrent Drain stole the ring): continue in a
		// fresh event-less entry — the event itself was already staged.
		e := &b.ring[0]
		b.n = 1
		e.ops = e.ops[:0]
		e.hasEv = false
	}
	e := &b.ring[b.n-1]
	e.ops = append(e.ops, stagedOp{store: store, op: op})
	b.mu.Unlock()
	if drainThrough {
		_, err := th.flushBatch()
		return err
	}
	return nil
}

// opDrains reports whether a staged op must drain through synchronously:
// only verdict-bearing symbols (required, strict, or cleanup transitions)
// under a fail-stop monitor can turn into UpdateStatePlan errors, and only
// those pay the inline flush.
func (th *Thread) opDrains(p *core.SymbolPlan) bool {
	if !th.m.failStop {
		return false
	}
	return p.Flags&(core.SymRequired|core.SymStrict) != 0 || p.HasCleanup()
}

// flushBatch steals the staged ring and applies it: tap events first, in
// staged order (preserving the recorder's program-event-before-caused-
// lifecycle seq invariant), then store ops in maximal same-store runs via
// core.UpdateBatch. Double-buffering lets staging continue into the other
// buffer while this one applies; the flushing flag guarantees one
// steal+apply at a time, so the previous flush's buffer is free for reuse.
// Returns flushed=false without doing anything when another flush of this
// thread is in flight (including re-entrantly: a handler that calls back
// into Health/Drain during dispatch must not deadlock).
func (th *Thread) flushBatch() (bool, error) {
	b := th.batch
	if b == nil {
		return true, nil
	}
	if !b.flushing.CompareAndSwap(false, true) {
		return false, nil
	}
	defer b.flushing.Store(false)
	b.mu.Lock()
	n := b.n
	if n == 0 {
		b.mu.Unlock()
		return true, nil
	}
	b.ring, b.spare = b.spare, b.ring
	b.n = 0
	b.mu.Unlock()
	batch := b.spare[:n]

	var first error
	if th.btap != nil {
		evs := b.evbuf[:0]
		for i := range batch {
			if batch[i].hasEv {
				evs = append(evs, batch[i].ev)
			}
		}
		if len(evs) > 0 {
			th.btap.ProgramBatch(evs)
		}
		b.evbuf = evs[:0]
	} else if th.tap != nil {
		for i := range batch {
			if batch[i].hasEv {
				th.tap.ProgramEvent(batch[i].ev)
			}
		}
	}

	ops := b.opbuf[:0]
	var cur *core.Store
	apply := func() {
		if len(ops) == 0 {
			return
		}
		if err := cur.UpdateBatch(ops); err != nil && first == nil {
			first = err
		}
		ops = ops[:0]
	}
	for i := range batch {
		for k := range batch[i].ops {
			so := &batch[i].ops[k]
			if so.store != cur {
				apply()
				cur = so.store
			}
			ops = append(ops, so.op)
		}
	}
	apply()
	b.opbuf = ops[:0]
	return true, first
}

// Flush drains the thread's staged ring, returning the first deferred
// fail-stop error. A no-op in synchronous mode or when a flush is already
// in flight.
func (th *Thread) Flush() error {
	if th.batch == nil {
		return nil
	}
	_, err := th.flushBatch()
	return err
}

// Drain flushes every thread's staged ring — the required-site drain used
// before verdict reads, health reports, trace cuts and process exit. In
// synchronous mode it is a no-op. The returned error is the first deferred
// fail-stop violation surfaced by the flushes (also counted in Health).
func (m *Monitor) Drain() error {
	m.threadsMu.Lock()
	ths := append([]*Thread(nil), m.threads...)
	m.threadsMu.Unlock()
	var first error
	for _, th := range ths {
		if err := th.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
