package trace

import (
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// ring is a bounded append-only slot buffer that overwrites its oldest
// entries when full. Bounding memory per thread is what makes always-on
// tracing viable in the kernel configurations the paper targets: a hot
// thread can emit millions of events, but debugging a violation only ever
// needs the recent window that led to it.
//
// A ring is Seq-ordered: its writers take each event's Seq under the lock
// that guards the ring and fill the slot before releasing it, so slots in
// push order carry ascending Seqs. A thread ring holds progSlots and the
// lifecycle ring lifeSlots: each slot carries only the payload its ring
// records, not a whole Event.
type ring[T any] struct {
	buf   []T
	start int // index of the oldest slot
	n     int // live slots
	// pushed counts every slot ever pushed, including those since
	// overwritten: it is the ring's logical write position, which lets a
	// cut (Recorder.CutInto) take exactly the events after a watermark
	// and account exactly for the ones the ring overwrote in between.
	pushed uint64
}

// defaultRingCap bounds each ring when the caller does not choose a size.
// A ring is allocated, and zeroed, whole when it is made: at this size a
// thread ring or the lifecycle ring is 2¹⁶ × 144 B ≈ 9.4 MB.
const defaultRingCap = 1 << 16

func newRing[T any](capacity int) *ring[T] {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &ring[T]{buf: make([]T, capacity)}
}

// next pushes one slot and returns it for the caller to assign whole. It
// still holds the slot it overwrote (or the zero slot).
func (r *ring[T]) next() *T {
	r.pushed++
	i := r.start + r.n
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
	}
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// since returns the slots pushed after the prevPushed watermark, oldest
// first, as up to two contiguous runs of the buffer (b is non-empty only
// when the slots wrap around its end), and the count of slots that were
// pushed after the watermark but already overwritten — exactly the loss a
// delta consumer must account for. Push order, not sequence order,
// defines the watermark, so an event can never land behind a cut and be
// skipped silently.
func (r *ring[T]) since(prevPushed uint64) (a, b []T, lost uint64) {
	oldest := r.pushed - uint64(r.n)
	from := prevPushed
	if from < oldest {
		lost = oldest - from
		from = oldest
	}
	if from >= r.pushed {
		return nil, nil, lost
	}
	i := r.start + int(from-oldest)
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	k := int(r.pushed - from)
	if i+k <= len(r.buf) {
		return r.buf[i : i+k], nil, lost
	}
	return r.buf[i:], r.buf[:i+k-len(r.buf)], lost
}

// progSlot is a thread ring's slot: a KindProgram event without its
// Thread, which is the ring's. Its fields are the program payload of
// Event at their Event widths, ordered to pack into 144 bytes.
type progSlot struct {
	Seq     uint64
	Time    int64
	Fn      string
	Field   string
	Op      spec.AssignOp
	Auto    int
	Sym     int
	Slot    int
	Ret     core.Value
	Vals    []core.Value
	InStack []int
	Prog    monitor.ProgKind
	HasRet  bool
}

// lifeSlot is the lifecycle ring's slot: a lifecycle event without its
// Thread (always -1) and Time (always 0). Its fields are the lifecycle
// payload of Event at their Event widths, ordered to pack into 144 bytes.
type lifeSlot struct {
	Seq       uint64
	Class     string
	Symbol    string
	Key       core.Key
	ParentKey core.Key
	Verdict   core.VerdictKind
	From      uint32
	To        uint32
	State     uint32
	Kind      Kind
	On        bool
}

// progSlotOf and lifeSlotOf take an Event's payload; event turns a slot
// back into the Event it records.
func progSlotOf(e *Event) progSlot {
	return progSlot{
		Seq: e.Seq, Time: e.Time, Fn: e.Fn, Field: e.Field, Op: e.Op,
		Auto: e.Auto, Sym: e.Sym, Slot: e.Slot, Ret: e.Ret,
		Vals: e.Vals, InStack: e.InStack, Prog: e.Prog, HasRet: e.HasRet,
	}
}

func lifeSlotOf(e *Event) lifeSlot {
	return lifeSlot{
		Seq: e.Seq, Class: e.Class, Symbol: e.Symbol, Key: e.Key, ParentKey: e.ParentKey,
		Verdict: e.Verdict, From: e.From, To: e.To, State: e.State, Kind: e.Kind, On: e.On,
	}
}

func (p *progSlot) event(thread int) Event {
	return Event{
		Seq: p.Seq, Thread: thread, Kind: KindProgram, Time: p.Time,
		Prog: p.Prog, Fn: p.Fn, Field: p.Field, Op: p.Op, Auto: p.Auto, Sym: p.Sym,
		Slot: p.Slot, Ret: p.Ret, HasRet: p.HasRet, Vals: p.Vals, InStack: p.InStack,
	}
}

func (l *lifeSlot) event() Event {
	return Event{
		Seq: l.Seq, Thread: -1, Kind: l.Kind,
		Class: l.Class, Key: l.Key, ParentKey: l.ParentKey, From: l.From, To: l.To,
		State: l.State, Symbol: l.Symbol, Verdict: l.Verdict, On: l.On,
	}
}
