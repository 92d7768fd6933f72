package trace

import (
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// TestCutSinceProgramBatch extends the exact-accounting contract to the
// batched delivery path: deltas cut between, during and long after
// ProgramBatch deliveries must account for every event exactly once —
// delivered + lost == recorded — with Seq-ordered deltas, exactly as the
// per-event path guarantees. Tiny rings force overwrites mid-batch, the
// regression the batched plane could plausibly introduce (one watermark
// update covering many pushes).
func TestCutSinceProgramBatch(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	for _, flushEvery := range []int{1, 2, 5, 100000} {
		rec := NewRecorder(autos, 8)
		sink := rec.ThreadTap(0)
		bsink, ok := sink.(monitor.BatchThreadTap)
		if !ok {
			t.Fatal("thread sink does not implement BatchThreadTap")
		}
		var cut *Cut
		var delivered, lost uint64
		flush := func() {
			tr, next := rec.CutSince(cut)
			cut = next
			delivered += uint64(len(tr.Events))
			lost += tr.Dropped
			for i := 1; i < len(tr.Events); i++ {
				if tr.Events[i].Seq <= tr.Events[i-1].Seq {
					t.Fatal("delta not Seq-ordered")
				}
			}
		}
		var total uint64
		n := core.Value(0)
		batches := 0
		for total < 400 {
			// Batch sizes sweep 1..13: smaller, equal to and past the ring
			// capacity, so a single ProgramBatch can overwrite its own
			// events before any cut sees them.
			size := batches%13 + 1
			evs := make([]monitor.ProgramEvent, size)
			for i := range evs {
				evs[i] = monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f", Vals: []core.Value{n}}
				n++
			}
			bsink.ProgramBatch(evs)
			total += uint64(size)
			// The per-event path interleaves with batches on the same sink
			// (a thread whose ring drained mid-event falls back to it).
			sink.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgReturn, Fn: "f"})
			total++
			batches++
			if batches%flushEvery == 0 {
				flush()
			}
		}
		flush()
		if delivered+lost != total {
			t.Fatalf("flushEvery=%d: delivered %d + lost %d != recorded %d",
				flushEvery, delivered, lost, total)
		}
		if rec.EventCount() != total {
			t.Fatalf("flushEvery=%d: EventCount %d != recorded %d", flushEvery, rec.EventCount(), total)
		}
		if flushEvery == 100000 && lost == 0 {
			t.Fatal("single final cut over a tiny ring lost nothing; batched overflow accounting untested")
		}
	}
}

// TestProgramBatchSeqInvariant pins the ordering contract the replayer and
// dtrace rely on: within one ProgramBatch delivery, assigned Seqs are
// consecutive and in slice order, and a later lifecycle event always gets a
// larger Seq than the whole batch flushed before it.
func TestProgramBatchSeqInvariant(t *testing.T) {
	autos := []*automata.Automaton{{Name: "a"}}
	cls := &core.Class{Name: "a", States: 4, Limit: 4}
	rec := NewRecorder(autos, 64)
	bsink := rec.ThreadTap(0).(monitor.BatchThreadTap)

	evs := make([]monitor.ProgramEvent, 5)
	for i := range evs {
		evs[i] = monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f", Vals: []core.Value{core.Value(i)}}
	}
	bsink.ProgramBatch(evs)
	rec.Transition(cls, &core.Instance{Key: core.AnyKey.Set(0, 1)}, 0, 1, "sym")

	tr := rec.Snapshot()
	if len(tr.Events) != 6 {
		t.Fatalf("%d events recorded, want 6", len(tr.Events))
	}
	for i := 0; i < 5; i++ {
		ev := tr.Events[i]
		if ev.Seq != uint64(i+1) || !ev.IsProgram() || len(ev.Vals) != 1 || ev.Vals[0] != core.Value(i) {
			t.Fatalf("batch event %d out of order: %+v", i, ev)
		}
	}
	if life := tr.Events[5]; life.Kind != KindTransition || life.Seq != 6 {
		t.Fatalf("lifecycle event did not sequence after the batch: %+v", life)
	}
}
