package monitor

import (
	"fmt"
	"testing"

	"tesla/internal/core"
)

// FuzzBatchFlush explores interleavings of the batched event plane's staging
// operations — push, explicit flush, ring-overflow forced flush, required-site
// drain-through and the Health() verdict-read drain — and asserts the one
// property every interleaving must preserve: a thread's events reach the tap
// exactly once, in emission order. The ring size is fuzzed small (1..9) so
// overflow flushes land between any two events, and the tap is fuzzed between
// the batch-capable and per-event fallback delivery paths.

// orderTap records every delivered event label in arrival order. The batch
// flag selects whether the sink advertises ProgramBatch (ownership-transfer
// path) or only the per-event fallback.
type orderTap struct {
	batch bool
	got   []string
}

func (o *orderTap) ThreadTap(threadID int) ThreadTap {
	if o.batch {
		return (*orderBatchSink)(o)
	}
	return (*orderSink)(o)
}

type orderSink orderTap

func (s *orderSink) ProgramEvent(ev ProgramEvent) {
	s.got = append(s.got, labelOf(ev))
}

type orderBatchSink orderTap

func (s *orderBatchSink) ProgramEvent(ev ProgramEvent) {
	s.got = append(s.got, labelOf(ev))
}

func (s *orderBatchSink) ProgramBatch(evs []ProgramEvent) {
	for i := range evs {
		s.got = append(s.got, labelOf(evs[i]))
	}
}

func labelOf(ev ProgramEvent) string {
	return fmt.Sprintf("%s|%s|%v|%d", ev.Kind, ev.Fn, ev.Vals, ev.Auto)
}

func FuzzBatchFlush(f *testing.F) {
	f.Add(uint8(1), true, []byte{4, 4, 0, 4, 1, 4, 4, 4, 2, 4})
	f.Add(uint8(3), false, []byte{4, 4, 4, 4, 4, 4, 4, 4, 0})
	f.Add(uint8(7), true, []byte{3, 4, 1, 4, 3, 2, 4, 0, 4, 4, 4, 4, 4, 1})
	f.Add(uint8(0), true, []byte{4, 1, 4, 0, 4, 2})
	f.Fuzz(func(t *testing.T, bs uint8, batchTap bool, actions []byte) {
		size := int(bs)%9 + 1
		// FailStop makes the site's automaton fail-stop, so site events are
		// verdict-bearing and drain through the staging ring inline.
		auto := mustAuto(t, "fz", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil)
		tap := &orderTap{batch: batchTap}
		m := MustNew(Options{Tap: tap, BatchSize: size, Failure: core.FailStop}, auto)
		th := m.NewThread()

		var want []string
		n := core.Value(0)
		inBound := false
		for _, a := range actions {
			switch a % 8 {
			case 0: // explicit flush (a permuted flush point)
				if err := th.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
			case 1: // required-site event: drains through when fail-stop
				want = append(want, fmt.Sprintf("site|fz|%v|0", []core.Value{n}))
				th.Site("fz", n) // violation errors are expected, order is not
			case 2: // verdict read: Health is a required-site drain
				m.Health()
			case 3: // bound toggle: begin/end lifecycle ops ride the ring too
				if inBound {
					want = append(want, fmt.Sprintf("return|amd64_syscall|%v|0", []core.Value(nil)))
					th.Return("amd64_syscall", 0)
				} else {
					want = append(want, fmt.Sprintf("call|amd64_syscall|%v|0", []core.Value(nil)))
					th.Call("amd64_syscall")
				}
				inBound = !inBound
			default: // push: a distinct numbered event
				want = append(want, fmt.Sprintf("call|chk|%v|0", []core.Value{n}))
				th.Call("chk", n)
				n++
			}
		}
		if err := m.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}

		if len(tap.got) != len(want) {
			t.Fatalf("ring %d: %d events delivered, %d emitted\n got: %q\nwant: %q",
				size, len(tap.got), len(want), tap.got, want)
		}
		for i := range want {
			if tap.got[i] != want[i] {
				t.Fatalf("ring %d: event %d reordered: got %q want %q", size, i, tap.got[i], want[i])
			}
		}
	})
}
