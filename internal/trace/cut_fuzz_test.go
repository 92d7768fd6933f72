package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// FuzzCutEncode holds the flush's one-pass encoder to the two-step path.
// Fuzz bytes drive a recorder with 1–4 thread sinks and rings of 1–5
// slots, so rings overwrite, through program events, program batches,
// lifecycle events of every kind, DropFault rejections and cuts. At every
// cut, AppendCut must be byte-identical to AppendBinary of CutInto on a
// twin watermark and report the same event count and Dropped, and the
// delta must hold exactly the Seqs an independent model of the rings
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
		m := cutModel{capacity: capacity, rings: make([][]uint64, nSinks+1), marks: make([]int, nSinks+1)}
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
			wantSeqs, wantDropped := m.cut()
			var seqs []uint64
			for _, ev := range delta.Events {
				seqs = append(seqs, ev.Seq)
			}
			if !slices.Equal(seqs, wantSeqs) || delta.Dropped != wantDropped {
				t.Fatalf("cut holds Seqs %v, %d dropped; the ring model expects %v, %d", seqs, delta.Dropped, wantSeqs, wantDropped)
			}
		}

		cls := &core.Class{Name: "c"}
		for in.more() {
			switch in.take() % 6 {
			case 0:
				sink := int(in.take()) % nSinks
				sinks[sink].ProgramEvent(in.programEvent())
				m.push(sink+1, rec.EventCount())
			case 1:
				sink := int(in.take()) % nSinks
				evs := make([]monitor.ProgramEvent, in.take()%6)
				for i := range evs {
					evs[i] = in.programEvent()
				}
				sinks[sink].(monitor.BatchThreadTap).ProgramBatch(evs)
				for i := range evs {
					m.push(sink+1, rec.EventCount()-uint64(len(evs)-1-i))
				}
			case 2:
				dropped := dropNext > 0
				inst := &core.Instance{Key: core.AnyKey.Set(0, core.Value(in.take())), State: uint32(in.take() % 4)}
				switch in.take() % 8 {
				case 0:
					rec.InstanceNew(cls, inst)
				case 1:
					rec.InstanceClone(cls, &core.Instance{Key: core.AnyKey}, inst)
				case 2:
					rec.Transition(cls, inst, 1, 2, "sym")
				case 3:
					rec.Accept(cls, inst)
				case 4:
					rec.Fail(&core.Violation{Class: cls, Kind: core.VerdictNoInstance, Key: inst.Key, Symbol: "site"})
				case 5:
					rec.Overflow(cls, inst.Key)
				case 6:
					rec.Evict(cls, inst)
				case 7:
					rec.Quarantine(cls, inst.State%2 == 0)
				}
				if dropped {
					m.injected++
				} else {
					m.push(0, rec.EventCount())
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

// programEvent builds a program event whose shape (kind, name, values,
// instack list, return value) comes from the input.
func (in *fuzzInput) programEvent() monitor.ProgramEvent {
	b := in.take()
	ev := monitor.ProgramEvent{
		Kind:   monitor.ProgKind(b % 8),
		Fn:     [...]string{"open", "close", "site"}[int(b/8)%3],
		Time:   int64(in.take()),
		Slot:   int(b / 32),
		HasRet: b&1 != 0,
		Ret:    core.Value(b),
	}
	for i := 0; i < int(b%3); i++ {
		ev.Vals = append(ev.Vals, core.Value(in.take()))
	}
	if b%5 == 0 {
		ev.InStack = []int{int(b % 7), 1}
	}
	return ev
}

// cutModel is the reference for one cut: which Seqs each ring was handed
// (ring 0 is the lifecycle ring, ring i+1 thread sink i), and how far the
// last cut read each.
type cutModel struct {
	capacity         int
	rings            [][]uint64
	marks            []int
	injected, cutInj uint64
}

func (m *cutModel) push(ring int, seq uint64) { m.rings[ring] = append(m.rings[ring], seq) }

// cut returns the Seqs the next cut must hold, ascending, and its Dropped:
// what each ring overwrote since the last cut plus the injected drops.
func (m *cutModel) cut() (seqs []uint64, dropped uint64) {
	for i, pushed := range m.rings {
		from := m.marks[i]
		if len(pushed)-from > m.capacity {
			dropped += uint64(len(pushed) - from - m.capacity)
			from = len(pushed) - m.capacity
		}
		seqs = append(seqs, pushed[from:]...)
		m.marks[i] = len(pushed)
	}
	dropped += m.injected - m.cutInj
	m.cutInj = m.injected
	slices.Sort(seqs)
	return seqs, dropped
}
