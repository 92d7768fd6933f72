package trace

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// FuzzCutEncode holds the flush's one-pass encoder to the two-step path
// and both to an independent model of the rings. Fuzz bytes drive a
// recorder with 1–4 thread sinks and rings of 1–5 slots, so rings
// overwrite, through program events and program batches with every
// payload field set, lifecycle events of every kind with their keys,
// parent keys, states, symbols, verdicts and quarantine flags varied,
// DropFault rejections and cuts. At every cut, AppendCut must be
// byte-identical to AppendBinary of CutInto on a twin watermark and report
// the same event count and Dropped, and both the CutInto delta and the
// decoded AppendCut bytes must equal, field by field, the events the model
// expects: per ring, the newest events after the watermark that still
// fit, merged in Seq order, with the rest counted dropped.
func FuzzCutEncode(f *testing.F) {
	f.Add([]byte{0, 0, 4})
	f.Add([]byte{3, 4, 0, 1, 0, 2, 1, 2, 4, 2, 3, 2, 5, 4, 5})
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+r.Intn(192))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		nSinks, capacity := int(in.take()%4)+1, int(in.take()%5)+1
		rec := NewRecorder([]*automata.Automaton{{Name: "a"}, {Name: "b"}}, capacity)
		dropNext := 0
		rec.DropFault = func() bool {
			if dropNext > 0 {
				dropNext--
				return true
			}
			return false
		}
		sinks := make([]monitor.ThreadTap, nSinks)
		m := cutModel{capacity: capacity, rings: make([][]Event, nSinks+1), marks: make([]int, nSinks+1)}
		for i := range sinks {
			sinks[i] = rec.ThreadTap(i)
		}

		var cutA, cutB Cut
		var delta Trace
		var buf []byte
		cut := func() {
			var events, dropped uint64
			buf, events, dropped = rec.AppendCut(buf[:0], &cutA)
			rec.CutInto(&cutB, &delta)
			if want := AppendBinary(nil, &delta); !bytes.Equal(buf, want) {
				t.Fatalf("AppendCut bytes differ from AppendBinary(CutInto):\ngot:  %x\nwant: %x", buf, want)
			}
			if events != uint64(len(delta.Events)) || dropped != delta.Dropped {
				t.Fatalf("AppendCut reports %d events, %d dropped; CutInto cut %d, %d", events, dropped, len(delta.Events), delta.Dropped)
			}
			want, wantDropped := m.cut()
			if delta.Dropped != wantDropped {
				t.Fatalf("cut counts %d dropped; the ring model expects %d", delta.Dropped, wantDropped)
			}
			decoded, err := Read(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("AppendCut bytes do not decode: %v", err)
			}
			if len(delta.Events) != len(want) || len(decoded.Events) != len(want) {
				t.Fatalf("CutInto holds %d events and AppendCut %d; the ring model expects %d", len(delta.Events), len(decoded.Events), len(want))
			}
			for i := range want {
				w := normalized(want[i])
				if g := normalized(delta.Events[i]); !reflect.DeepEqual(g, w) {
					t.Fatalf("CutInto event %d:\ngot:  %#v\nwant: %#v", i, g, w)
				}
				if !w.HasRet {
					w.Ret = 0 // the format carries Ret only with HasRet
				}
				if g := normalized(decoded.Events[i]); !reflect.DeepEqual(g, w) {
					t.Fatalf("decoded AppendCut event %d:\ngot:  %#v\nwant: %#v", i, g, w)
				}
			}
		}

		classes := []*core.Class{{Name: "c"}, {Name: "d"}}
		for in.more() {
			switch in.take() % 6 {
			case 0:
				sink := int(in.take()) % nSinks
				ev := in.programEvent()
				sinks[sink].ProgramEvent(ev)
				m.push(sink+1, programModel(rec.EventCount(), sink, &ev))
			case 1:
				sink := int(in.take()) % nSinks
				evs := make([]monitor.ProgramEvent, in.take()%6)
				for i := range evs {
					evs[i] = in.programEvent()
				}
				sinks[sink].(monitor.BatchThreadTap).ProgramBatch(evs)
				for i := range evs {
					m.push(sink+1, programModel(rec.EventCount()-uint64(len(evs)-1-i), sink, &evs[i]))
				}
			case 2:
				dropped := dropNext > 0
				want := in.lifecycle(rec, classes)
				if dropped {
					m.injected++
				} else {
					want.Seq, want.Thread = rec.EventCount(), -1
					m.push(0, want)
				}
			case 3:
				dropNext = int(in.take() % 3)
			default:
				cut()
			}
		}
		cut()
	})
}

// fuzzInput reads a fuzz input one byte at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) more() bool { return len(*in) > 0 }

func (in *fuzzInput) take() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// programEvent builds a program event with every field set from the
// input: kind, clock, names, operator, automaton, symbol, slot, return
// value, values and instack list.
func (in *fuzzInput) programEvent() monitor.ProgramEvent {
	b, c := in.take(), in.take()
	ev := monitor.ProgramEvent{
		Kind:   monitor.ProgKind(b % 8),
		Fn:     [...]string{"open", "close", "site"}[int(b/8)%3],
		Field:  [...]string{"", "p_flag", "f_count"}[int(c)%3],
		Op:     spec.AssignOp(c / 3 % 4),
		Auto:   int(c / 12 % 3),
		Sym:    int(c/36) - 2,
		Time:   int64(in.take()),
		Slot:   int(b / 32),
		HasRet: b&1 != 0,
		Ret:    core.Value(b) - 100,
	}
	for i := 0; i < int(b%3); i++ {
		ev.Vals = append(ev.Vals, core.Value(in.take()))
	}
	if b%5 == 0 {
		ev.InStack = []int{int(b % 7), 1}
	}
	return ev
}

// lifecycle reports one lifecycle event of an input-chosen kind, class,
// key, parent key, state, symbol, verdict and quarantine flag to rec and
// returns the event the recorder must record for it, without its Seq and
// Thread.
func (in *fuzzInput) lifecycle(rec *Recorder, classes []*core.Class) Event {
	cls := classes[int(in.take())%len(classes)]
	key := core.AnyKey.Set(0, core.Value(in.take()))
	if b := in.take(); b%2 == 0 {
		key = key.Set(int(b/2)%core.KeySize, core.Value(b)-64)
	}
	parent := core.AnyKey.Set(int(in.take())%core.KeySize, core.Value(in.take()))
	b := in.take()
	state, symbol := uint32(b%4), [...]string{"sym", "site", ""}[int(b/4)%3]
	inst := &core.Instance{Key: key, State: state}
	ev := Event{Class: cls.Name}
	switch kind := in.take() % 8; kind {
	case 0:
		rec.InstanceNew(cls, inst)
		ev.Kind, ev.Key, ev.State = KindInit, key, state
	case 1:
		rec.InstanceClone(cls, &core.Instance{Key: parent}, inst)
		ev.Kind, ev.Key, ev.ParentKey, ev.State = KindClone, key, parent, state
	case 2:
		from, to := uint32(b/12%5), uint32(b/60)
		rec.Transition(cls, inst, from, to, symbol)
		ev.Kind, ev.Key, ev.From, ev.To, ev.Symbol = KindTransition, key, from, to, symbol
	case 3:
		rec.Accept(cls, inst)
		ev.Kind, ev.Key, ev.State = KindAccept, key, state
	case 4:
		verdict := core.VerdictKind(b / 12 % 6)
		rec.Fail(&core.Violation{Class: cls, Kind: verdict, Key: key, State: state, Symbol: symbol})
		ev.Kind, ev.Key, ev.State, ev.Symbol, ev.Verdict = KindFail, key, state, symbol, verdict
	case 5:
		rec.Overflow(cls, key)
		ev.Kind, ev.Key = KindOverflow, key
	case 6:
		rec.Evict(cls, inst)
		ev.Kind, ev.Key, ev.State = KindEvict, key, state
	case 7:
		on := b%2 == 0
		rec.Quarantine(cls, on)
		ev.Kind, ev.On = KindQuarantine, on
	}
	return ev
}

// programModel is the event a thread sink must record for ev.
func programModel(seq uint64, thread int, ev *monitor.ProgramEvent) Event {
	return Event{
		Seq: seq, Thread: thread, Kind: KindProgram, Time: ev.Time,
		Prog: ev.Kind, Fn: ev.Fn, Field: ev.Field, Op: ev.Op, Auto: ev.Auto, Sym: ev.Sym,
		Slot: ev.Slot, Ret: ev.Ret, HasRet: ev.HasRet,
		Vals: slices.Clone(ev.Vals), InStack: slices.Clone(ev.InStack),
	}
}

// normalized maps empty slices to nil, which the recorder and the decoder
// leave to either; every other field compares as it is.
func normalized(e Event) Event {
	if len(e.Vals) == 0 {
		e.Vals = nil
	}
	if len(e.InStack) == 0 {
		e.InStack = nil
	}
	return e
}

// cutModel is the reference for one cut: which events each ring was
// handed (ring 0 is the lifecycle ring, ring i+1 thread sink i), and how
// far the last cut read each.
type cutModel struct {
	capacity         int
	rings            [][]Event
	marks            []int
	injected, cutInj uint64
}

func (m *cutModel) push(ring int, ev Event) { m.rings[ring] = append(m.rings[ring], ev) }

// cut returns the events the next cut must hold, ascending by Seq, and its
// Dropped: what each ring overwrote since the last cut plus the injected
// drops.
func (m *cutModel) cut() (events []Event, dropped uint64) {
	for i, pushed := range m.rings {
		from := m.marks[i]
		if len(pushed)-from > m.capacity {
			dropped += uint64(len(pushed) - from - m.capacity)
			from = len(pushed) - m.capacity
		}
		events = append(events, pushed[from:]...)
		m.marks[i] = len(pushed)
	}
	dropped += m.injected - m.cutInj
	m.cutInj = m.injected
	slices.SortFunc(events, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return events, dropped
}
