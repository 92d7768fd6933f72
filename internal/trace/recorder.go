package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// Recorder captures a live run into ring buffers. It plugs into the runtime
// at both notification layers:
//
//   - as a monitor.Tap it sees every raw program event per thread, before
//     dispatch, and records it in that thread's own ring;
//   - as a core.Handler it sees every automaton lifecycle event and records
//     it in a shared lifecycle ring (handlers run store-side, where the
//     originating thread is unknown for the global context; those events
//     carry Thread == -1).
//
// One atomic sequence counter spans all rings, so a program event always
// carries a smaller Seq than the lifecycle events it causes, and Snapshot
// can merge the rings into a single totally-ordered trace. Install it with:
//
//	rec := trace.NewRecorder(build.Autos, 0)
//	rt, err := build.NewRuntime(monitor.Options{Tap: rec, Handler: rec})
//	...
//	tr := rec.Snapshot()
type Recorder struct {
	names []string
	cap   int

	// DropFault, when non-nil, is consulted for every lifecycle event;
	// returning true drops the event (counted in the trace's Dropped
	// total) as if the ring had overflowed. It is the fault-injection
	// seam used by internal/faultinject. Set before recording starts.
	DropFault func() bool

	seq atomic.Uint64

	mu    sync.Mutex // guards sinks (growth), life and injected
	life  *ring
	sinks []*threadSink
	// injected counts DropFault rejections separately from ring
	// overwrites, so a cut can attribute per-cut losses exactly.
	injected uint64
}

// threadSink is one thread's ring. Its mutex is uncontended during normal
// recording (only the owning thread pushes); it exists so Snapshot can read
// concurrently with live threads without a race.
type threadSink struct {
	rec *Recorder
	id  int

	mu   sync.Mutex
	ring *ring
}

// NewRecorder creates a recorder for a run over the given automata.
// perThreadCap bounds each thread's ring (and the shared lifecycle ring);
// <= 0 selects the default (65536 events).
func NewRecorder(autos []*automata.Automaton, perThreadCap int) *Recorder {
	names := make([]string, len(autos))
	for i, a := range autos {
		names[i] = a.Name
	}
	return &Recorder{
		names: names,
		cap:   perThreadCap,
		life:  newRing(perThreadCap),
	}
}

// ThreadTap implements monitor.Tap.
func (r *Recorder) ThreadTap(threadID int) monitor.ThreadTap {
	s := &threadSink{rec: r, id: threadID, ring: newRing(r.cap)}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
	return s
}

// ProgramEvent implements monitor.ThreadTap. The event's slices are the
// monitor thread's buffers, lent for this call only, so they are copied
// here.
func (s *threadSink) ProgramEvent(ev monitor.ProgramEvent) {
	rec := Event{
		Seq:    s.rec.seq.Add(1),
		Thread: s.id,
		Kind:   KindProgram,
		Time:   ev.Time,
		Prog:   ev.Kind,
		Fn:     ev.Fn,
		Field:  ev.Field,
		Op:     ev.Op,
		Auto:   ev.Auto,
		Sym:    ev.Sym,
		Slot:   ev.Slot,
		Ret:    ev.Ret,
		HasRet: ev.HasRet,
	}
	if len(ev.Vals) > 0 {
		rec.Vals = append([]core.Value(nil), ev.Vals...)
	}
	if len(ev.InStack) > 0 {
		rec.InStack = append([]int(nil), ev.InStack...)
	}
	s.mu.Lock()
	s.ring.push(rec)
	s.mu.Unlock()
}

// ProgramBatch implements monitor.BatchThreadTap: a batched thread's ring
// flush hands over its whole staged batch in one call. The events' Vals and
// InStack slices were already copied once by the staging ring and ownership
// transfers here — events are staged once, not re-copied — and the sink
// pays one lock round and one sequence-counter update per batch instead of
// per event. Seq assignment happens at flush time, before the batch's store
// ops run, so a program event still carries a smaller Seq than the
// lifecycle events it causes.
func (s *threadSink) ProgramBatch(evs []monitor.ProgramEvent) {
	if len(evs) == 0 {
		return
	}
	base := s.rec.seq.Add(uint64(len(evs))) - uint64(len(evs))
	s.mu.Lock()
	for i := range evs {
		ev := &evs[i]
		s.ring.push(Event{
			Seq:     base + uint64(i) + 1,
			Thread:  s.id,
			Kind:    KindProgram,
			Time:    ev.Time,
			Prog:    ev.Kind,
			Fn:      ev.Fn,
			Field:   ev.Field,
			Op:      ev.Op,
			Auto:    ev.Auto,
			Sym:     ev.Sym,
			Slot:    ev.Slot,
			Ret:     ev.Ret,
			HasRet:  ev.HasRet,
			Vals:    ev.Vals,
			InStack: ev.InStack,
		})
	}
	s.mu.Unlock()
}

// lifeEvent stamps and records one lifecycle event. Handlers are dispatched
// after the store has released its locks, so this only has to serialise
// against other recorder users. DropFault, when set, can reject the event
// before it reaches the ring — the fault-injection seam for simulated ring
// drops (counted like real ones).
func (r *Recorder) lifeEvent(ev Event) {
	ev.Seq = r.seq.Add(1)
	ev.Thread = -1
	r.mu.Lock()
	if r.DropFault != nil && r.DropFault() {
		r.injected++
	} else {
		r.life.push(ev)
	}
	r.mu.Unlock()
}

// InstanceNew implements core.Handler.
func (r *Recorder) InstanceNew(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindInit, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// InstanceClone implements core.Handler.
func (r *Recorder) InstanceClone(cls *core.Class, parent, clone *core.Instance) {
	r.lifeEvent(Event{Kind: KindClone, Class: cls.Name, Key: clone.Key, ParentKey: parent.Key, State: clone.State})
}

// Transition implements core.Handler.
func (r *Recorder) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	r.lifeEvent(Event{Kind: KindTransition, Class: cls.Name, Key: inst.Key, From: from, To: to, Symbol: symbol})
}

// Accept implements core.Handler.
func (r *Recorder) Accept(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindAccept, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Fail implements core.Handler.
func (r *Recorder) Fail(v *core.Violation) {
	r.lifeEvent(Event{Kind: KindFail, Class: v.Class.Name, Key: v.Key, State: v.State, Symbol: v.Symbol, Verdict: v.Kind})
}

// Overflow implements core.Handler.
func (r *Recorder) Overflow(cls *core.Class, key core.Key) {
	r.lifeEvent(Event{Kind: KindOverflow, Class: cls.Name, Key: key})
}

// Evict implements core.Handler.
func (r *Recorder) Evict(cls *core.Class, inst *core.Instance) {
	r.lifeEvent(Event{Kind: KindEvict, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Quarantine implements core.Handler.
func (r *Recorder) Quarantine(cls *core.Class, on bool) {
	r.lifeEvent(Event{Kind: KindQuarantine, Class: cls.Name, On: on})
}

// EventCount returns how many events have been recorded so far, including
// any that ring overflow has since discarded.
func (r *Recorder) EventCount() uint64 { return r.seq.Load() }

// Snapshot merges all rings into one Seq-ordered trace: the cut from the
// zero watermark, so its Dropped counts every event lost so far and it
// shares CutInto's cross-ring barrier. It may be called while threads are
// still recording.
func (r *Recorder) Snapshot() *Trace {
	tr, _ := r.CutSince(nil)
	tr.Automata = append([]string(nil), tr.Automata...)
	return tr
}

// Cut is a watermark over every ring of a Recorder, as returned by
// CutSince and advanced in place by CutInto. The zero value (or nil)
// means "the beginning of the run".
type Cut struct {
	life     uint64
	injected uint64
	// sinks[i] is the watermark of the i-th registered thread ring. Rings
	// are only ever appended to a recorder, so registration order is a
	// stable index; rings registered after the cut start at zero.
	sinks []uint64
}

// CutSince returns the events recorded after prev (nil for the start of
// the run) as a fresh delta trace, plus the new watermark to pass next
// time; prev is left unchanged. It is CutInto for callers that keep each
// delta: a streaming consumer that is done with a delta before the next
// cut should call CutInto and reuse one trace instead.
func (r *Recorder) CutSince(prev *Cut) (*Trace, *Cut) {
	next, tr := prev.clone(), &Trace{}
	r.CutInto(next, tr)
	return tr, next
}

// clone copies a watermark (nil clones to the start of the run).
func (c *Cut) clone() *Cut {
	if c == nil {
		return &Cut{}
	}
	return &Cut{life: c.life, injected: c.injected, sinks: append([]uint64(nil), c.sinks...)}
}

// CutInto refills tr with the events recorded after c's watermark, in Seq
// order, and advances c to the new watermark in place. tr.Events is
// truncated and appended to, so its backing array is reused across cuts:
// the steady-state cut copies each event once, into memory the caller
// already owns, and allocates nothing. tr.Automata is set to the
// recorder's own name list, which callers must treat as read-only.
//
// The delta's Dropped field counts only what was lost since c — ring
// overwrites of not-yet-cut events and injected drops — so a consumer
// summing delta lengths and delta Dropped fields accounts for every
// event the run emitted, exactly once. This is the producer side of live
// streaming to an aggregation service: flush deltas while the run is
// hot, with loss explicit, never silent.
//
// The cut is a cross-ring barrier: every ring is locked before any is
// read, so the watermark captures one instant. For a single-threaded run
// (where pushes are totally ordered in time and Seq order equals push
// order across rings) each cut is therefore an exact Seq-prefix of the
// run — the property the WAL trace spool's crash-recovery invariant
// ("a recovered spool is a verbatim prefix of the uncrashed run") rests
// on. Reading one ring at a time instead would let an event land in a
// not-yet-read ring while a causally-later event in an already-read ring
// is missed, punching a Seq hole through the final, never-followed-up
// cut of a killed process.
func (r *Recorder) CutInto(c *Cut, tr *Trace) {
	// Lock order: r.mu, then every sink. Push paths take a single sink
	// lock (never r.mu under it) and lifeEvent takes r.mu alone, so this
	// cannot deadlock against recording.
	r.mu.Lock()
	for _, s := range r.sinks {
		s.mu.Lock()
	}
	for len(c.sinks) < len(r.sinks) {
		c.sinks = append(c.sinks, 0)
	}
	events, dropped := r.life.cutSince(c.life, tr.Events[:0])
	c.life = r.life.pushed
	dropped += r.injected - c.injected
	c.injected = r.injected
	for i, s := range r.sinks {
		var lost uint64
		events, lost = s.ring.cutSince(c.sinks[i], events)
		c.sinks[i] = s.ring.pushed
		dropped += lost
	}
	for _, s := range r.sinks {
		s.mu.Unlock()
	}
	r.mu.Unlock()
	tr.FormatVersion = Version
	tr.Automata = r.names[:len(r.names):len(r.names)]
	tr.Dropped = dropped
	tr.Events = events
	sort.Sort((*bySeq)(&tr.Events))
}

// bySeq sorts a merged cut by sequence number. The pointer receiver lets
// sort.Sort take it without boxing a slice header on the heap.
type bySeq []Event

func (s *bySeq) Len() int           { return len(*s) }
func (s *bySeq) Less(i, j int) bool { return (*s)[i].Seq < (*s)[j].Seq }
func (s *bySeq) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
