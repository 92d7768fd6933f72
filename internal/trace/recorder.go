package trace

import (
	"slices"
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
// carries a smaller Seq than the lifecycle events it causes. Each event
// takes its Seq under the lock of the ring it goes to, so every ring is
// Seq-ordered and a cut merges them into a single totally-ordered trace
// (see CutInto). Install it with:
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

	mu    sync.Mutex // guards sinks (growth), life, injected and merge
	life  *ring[lifeSlot]
	sinks []*threadSink
	// injected counts DropFault rejections separately from ring
	// overwrites, so a cut can attribute per-cut losses exactly.
	injected uint64
	// merge is the cut's merge state, reused by every cut.
	merge merge
}

// threadSink is one thread's ring. Its mutex is uncontended during normal
// recording (only the owning thread pushes); it exists so Snapshot can read
// concurrently with live threads without a race.
type threadSink struct {
	rec *Recorder
	id  int

	mu   sync.Mutex
	ring *ring[progSlot]
}

// NewRecorder creates a recorder for a run over the given automata.
// perThreadCap bounds each thread's ring (and the shared lifecycle ring);
// <= 0 selects the default (65536 events). Each ring is allocated whole:
// at the default a ring's 144-byte slots take 9.4 MB, so a recorder with
// one thread tapped holds 18.9 MB of rings (with 312-byte Event slots it
// was 40.9 MB).
func NewRecorder(autos []*automata.Automaton, perThreadCap int) *Recorder {
	names := make([]string, len(autos))
	for i, a := range autos {
		names[i] = a.Name
	}
	return &Recorder{
		names: names,
		cap:   perThreadCap,
		life:  newRing[lifeSlot](perThreadCap),
	}
}

// ThreadTap implements monitor.Tap.
func (r *Recorder) ThreadTap(threadID int) monitor.ThreadTap {
	s := &threadSink{rec: r, id: threadID, ring: newRing[progSlot](r.cap)}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
	return s
}

// ProgramEvent implements monitor.ThreadTap. The event's slices are the
// monitor thread's buffers, lent for this call only, so they are copied
// here, before the ring lock is taken.
func (s *threadSink) ProgramEvent(ev monitor.ProgramEvent) {
	var vals []core.Value
	if len(ev.Vals) > 0 {
		vals = append([]core.Value(nil), ev.Vals...)
	}
	var inStack []int
	if len(ev.InStack) > 0 {
		inStack = append([]int(nil), ev.InStack...)
	}
	s.mu.Lock()
	s.fill(s.rec.seq.Add(1), &ev, vals, inStack)
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
	s.mu.Lock()
	base := s.rec.seq.Add(uint64(len(evs))) - uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		s.fill(base+uint64(i)+1, ev, ev.Vals, ev.InStack)
	}
	s.mu.Unlock()
}

// fill assigns a program event to the thread ring's next slot, whole.
// The caller holds s.mu and took seq under it, which keeps the ring
// Seq-ordered.
func (s *threadSink) fill(seq uint64, ev *monitor.ProgramEvent, vals []core.Value, inStack []int) {
	*s.ring.next() = progSlot{
		Seq: seq, Time: ev.Time, Fn: ev.Fn, Field: ev.Field, Op: ev.Op,
		Auto: ev.Auto, Sym: ev.Sym, Slot: ev.Slot, Ret: ev.Ret,
		Vals: vals, InStack: inStack, Prog: ev.Kind, HasRet: ev.HasRet,
	}
}

// record stamps l with the next Seq and assigns it to the lifecycle ring's
// next slot, whole, under r.mu. Handlers are dispatched after the store
// has released its locks, so this only has to serialise against other
// recorder users. Taking Seq under r.mu keeps the ring Seq-ordered.
//
// DropFault, when set, can reject the event before it reaches the ring —
// the fault-injection seam for simulated ring drops (counted like real
// ones). Its Seq is spent all the same.
func (r *Recorder) record(l lifeSlot) {
	r.mu.Lock()
	if r.DropFault != nil && r.DropFault() {
		r.injected++
		r.seq.Add(1)
	} else {
		l.Seq = r.seq.Add(1)
		*r.life.next() = l
	}
	r.mu.Unlock()
}

// InstanceNew implements core.Handler.
func (r *Recorder) InstanceNew(cls *core.Class, inst *core.Instance) {
	r.record(lifeSlot{Kind: KindInit, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// InstanceClone implements core.Handler.
func (r *Recorder) InstanceClone(cls *core.Class, parent, clone *core.Instance) {
	r.record(lifeSlot{Kind: KindClone, Class: cls.Name, Key: clone.Key, ParentKey: parent.Key, State: clone.State})
}

// Transition implements core.Handler.
func (r *Recorder) Transition(cls *core.Class, inst *core.Instance, from, to uint32, symbol string) {
	r.record(lifeSlot{Kind: KindTransition, Class: cls.Name, Key: inst.Key, From: from, To: to, Symbol: symbol})
}

// Accept implements core.Handler.
func (r *Recorder) Accept(cls *core.Class, inst *core.Instance) {
	r.record(lifeSlot{Kind: KindAccept, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Fail implements core.Handler.
func (r *Recorder) Fail(v *core.Violation) {
	r.record(lifeSlot{Kind: KindFail, Class: v.Class.Name, Key: v.Key, State: v.State, Symbol: v.Symbol, Verdict: v.Kind})
}

// Overflow implements core.Handler.
func (r *Recorder) Overflow(cls *core.Class, key core.Key) {
	r.record(lifeSlot{Kind: KindOverflow, Class: cls.Name, Key: key})
}

// Evict implements core.Handler.
func (r *Recorder) Evict(cls *core.Class, inst *core.Instance) {
	r.record(lifeSlot{Kind: KindEvict, Class: cls.Name, Key: inst.Key, State: inst.State})
}

// Quarantine implements core.Handler.
func (r *Recorder) Quarantine(cls *core.Class, on bool) {
	r.record(lifeSlot{Kind: KindQuarantine, Class: cls.Name, On: on})
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
// cut should call CutInto and reuse one trace instead, or AppendCut when
// it only needs the delta's encoding.
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
// Snapshot, CutSince and tesla-perf's traced fleet pass cut through here;
// a consumer that only encodes the delta calls AppendCut instead.
//
// The delta's Dropped field counts only what was lost since c — ring
// overwrites of not-yet-cut events and injected drops — so a consumer
// summing delta lengths and delta Dropped fields accounts for every
// event the run emitted, exactly once. This is the producer side of live
// streaming to an aggregation service: flush deltas while the run is
// hot, with loss explicit, never silent.
//
// The cut is a cross-ring barrier: every ring is locked before any is
// read, so the watermark captures one instant. Every recorder path takes
// an event's Seq under the lock of the ring it writes, and fills the slot
// before releasing it, so while all ring locks are held every Seq taken so
// far is in its ring (or counted dropped) and every later one will be
// larger. Each cut is therefore an exact Seq-prefix of the run, however
// many threads record — the property the WAL trace spool's
// crash-recovery invariant ("a recovered spool is a verbatim prefix of
// the uncrashed run") rests on, and what TestCutsArePrefixes checks under
// four recording goroutines. Each ring is Seq-ordered by the same token,
// so the delta is a linear merge of the rings, with no sort.
func (r *Recorder) CutInto(c *Cut, tr *Trace) {
	n, dropped := r.lockCut(c)
	events := slices.Grow(tr.Events[:0], int(n))
	for p, thread, l := r.merge.next(); p != nil || l != nil; p, thread, l = r.merge.next() {
		if p != nil {
			events = append(events, p.event(thread))
		} else {
			events = append(events, l.event())
		}
	}
	r.unlockCut()
	tr.FormatVersion = Version
	tr.Automata = r.names[:len(r.names):len(r.names)]
	tr.Dropped = dropped
	tr.Events = events
}

// AppendCut appends the binary encoding of the events recorded after c's
// watermark to dst and advances c in place: exactly AppendBinary(dst, tr)
// for the tr that CutInto(c, tr) would fill, but encoded straight from the
// ring slots, with no intermediate Trace. It returns the extended slice,
// the delta's event count and its Dropped. The rings stay locked while the
// events are encoded.
func (r *Recorder) AppendCut(dst []byte, c *Cut) (out []byte, events, dropped uint64) {
	enc := newEncoder(dst)
	events, dropped = r.lockCut(c)
	enc.header(dropped, r.names, events)
	for p, thread, l := r.merge.next(); p != nil || l != nil; p, thread, l = r.merge.next() {
		if p != nil {
			enc.program(thread, p)
		} else {
			enc.lifecycle(-1, 0, l)
		}
	}
	r.unlockCut()
	return enc.finish(), events, dropped
}

// lockCut locks every ring, advances c past everything they hold and
// loads r.merge with the slots after c's old watermark. It returns the
// delta's event count and Dropped; the caller drains r.merge, whose
// slots live in the rings, then calls unlockCut.
//
// Lock order: r.mu, then every sink. Push paths take a single sink lock
// (never r.mu under it) and record takes r.mu alone, so this cannot
// deadlock against recording.
func (r *Recorder) lockCut(c *Cut) (events, dropped uint64) {
	r.mu.Lock()
	for _, s := range r.sinks {
		s.mu.Lock()
	}
	for len(c.sinks) < len(r.sinks) {
		c.sinks = append(c.sinks, 0)
	}
	dropped = r.injected - c.injected
	c.injected = r.injected
	r.merge.n = 0
	dropped += r.merge.addLife(r.life, &c.life)
	for i, s := range r.sinks {
		dropped += r.merge.addThread(s.ring, s.id, &c.sinks[i])
	}
	return r.merge.n, dropped
}

func (r *Recorder) unlockCut() {
	for _, s := range r.sinks {
		s.mu.Unlock()
	}
	r.mu.Unlock()
}

// merge is a k-way merge of Seq-ordered slot runs. The thread rings' runs
// sit in a binary min-heap keyed on each one's first Seq; the lifecycle
// ring's run is interleaved against the heap's top. A ring contributes
// one run (two contiguous slices when its slots wrap), so a cut costs
// O(log k) per event over k rings instead of a sort.
type merge struct {
	runs []threadRun
	life run[lifeSlot]
	n    uint64 // events added since the last lockCut
}

// run is what is left of one ring's slots: a, then b. a is empty only
// once the run is done.
type run[T any] struct{ a, b []T }

// pop removes and returns the run's first slot.
func (r *run[T]) pop() *T {
	s := &r.a[0]
	if r.a = r.a[1:]; len(r.a) == 0 {
		r.a, r.b = r.b, nil
	}
	return s
}

// threadRun is a thread ring's run and the thread its slots belong to.
type threadRun struct {
	run[progSlot]
	thread int
}

// addLife loads the slots the lifecycle ring pushed after *mark, advances
// *mark to its write position and returns the slots it overwrote in
// between.
func (m *merge) addLife(rg *ring[lifeSlot], mark *uint64) uint64 {
	a, b, lost := rg.since(*mark)
	*mark = rg.pushed
	m.n += uint64(len(a) + len(b))
	m.life = run[lifeSlot]{a, b}
	return lost
}

// addThread is addLife for thread's ring.
func (m *merge) addThread(rg *ring[progSlot], thread int, mark *uint64) uint64 {
	a, b, lost := rg.since(*mark)
	*mark = rg.pushed
	m.n += uint64(len(a) + len(b))
	if len(a) > 0 {
		m.runs = append(m.runs, threadRun{run[progSlot]{a, b}, thread})
		m.up(len(m.runs) - 1)
	}
	return lost
}

// next returns the slot with the smallest Seq left: a thread ring's
// program slot with its thread, or a lifecycle slot. Both are nil when
// every run is done.
func (m *merge) next() (p *progSlot, thread int, l *lifeSlot) {
	if len(m.life.a) > 0 && (len(m.runs) == 0 || m.life.a[0].Seq < m.runs[0].a[0].Seq) {
		return nil, -1, m.life.pop()
	}
	if len(m.runs) == 0 {
		return nil, 0, nil
	}
	top := &m.runs[0]
	p, thread = top.pop(), top.thread
	if len(top.a) == 0 {
		last := len(m.runs) - 1
		m.runs[0] = m.runs[last]
		m.runs[last] = threadRun{} // keep no slice of a ring past the cut
		m.runs = m.runs[:last]
	}
	m.down(0)
	return p, thread, nil
}

func (m *merge) less(i, j int) bool { return m.runs[i].a[0].Seq < m.runs[j].a[0].Seq }
func (m *merge) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(i, p) {
			return
		}
		m.runs[i], m.runs[p] = m.runs[p], m.runs[i]
		i = p
	}
}

func (m *merge) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(m.runs) {
			return
		}
		if r := c + 1; r < len(m.runs) && m.less(r, c) {
			c = r
		}
		if !m.less(c, i) {
			return
		}
		m.runs[i], m.runs[c] = m.runs[c], m.runs[i]
		i = c
	}
}
