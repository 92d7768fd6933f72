package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tesla/internal/faultinject"
)

// Batched-vs-unbatched store differential: UpdateBatch must be
// observationally equivalent to the same ops applied one at a time with
// UpdateStatePlan — identical verdicts, live counts, instance sets, quarantine
// state, health counters and notification multisets at every flush point.
// Schedules are the randomised supervision sweeps from differential_test.go;
// flush points are permuted per schedule (a random flush probability rides
// on top of the forced batch-size boundary) so run splits land everywhere,
// including mid-quarantine, mid-overflow and across cleanup expunges. Both
// the per-thread batch loop and the striped lookahead batch path are swept,
// with and without injected allocation failures.

// runBatchDifferential drives one schedule through a sequential store of
// layout seqL and a batched store of layout batL (same injected fault
// schedule), comparing at every flush boundary. batchSize caps a batch;
// random early flushes split the same schedule differently across seeds.
func runBatchDifferential(t *testing.T, seed int64, seqL, batL layout, batchSize int, rate float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cls := &Class{Name: "batchdiff", States: 8, Limit: 2 + rng.Intn(8)}
	sup := StoreOpts{
		Overflow:        []OverflowPolicy{DropNew, EvictOldest, QuarantineClass}[rng.Intn(3)],
		QuarantineAfter: 1 + rng.Intn(3),
		RearmEvents:     1 + rng.Intn(8),
	}
	states := uint32(3 + rng.Intn(3))

	injSeq := faultinject.New(uint64(seed))
	injBat := faultinject.New(uint64(seed))
	if rate > 0 {
		injSeq.SetRate(faultinject.SiteAlloc, rate)
		injBat.SetRate(faultinject.SiteAlloc, rate)
	}

	hseq := &noteHandler{}
	hbat := &noteHandler{}
	sup.Handler = hseq
	sup.AllocFail = func(c *Class) bool { return injSeq.Should(faultinject.SiteAlloc, c.Name) }
	seq := seqL.store(sup)
	sup.Handler = hbat
	sup.AllocFail = func(c *Class) bool { return injBat.Should(faultinject.SiteAlloc, c.Name) }
	bat := batL.store(sup)
	seq.Register(cls)
	bat.Register(cls)

	plans := planCache{}
	var pending []BatchOp
	seqErrs := 0 // sequential errors in the pending chunk
	flushAt := -1
	flush := func(i int) {
		if len(pending) == 0 {
			return
		}
		err := bat.UpdateBatch(pending)
		if (err != nil) != (seqErrs > 0) {
			t.Fatalf("seed %d %v/%v batch %d event %d: verdict diverged: batch err=%v, sequential errors=%d",
				seed, seqL, batL, batchSize, i, err, seqErrs)
		}
		pending = pending[:0]
		seqErrs = 0
		flushAt = i
	}
	compare := func(i int) {
		if lr, lb := seq.LiveCount(cls), bat.LiveCount(cls); lr != lb {
			t.Fatalf("seed %d %v/%v batch %d event %d: live diverged: seq=%d batched=%d",
				seed, seqL, batL, batchSize, i, lr, lb)
		}
		if ir, ib := instSet(seq, cls), instSet(bat, cls); !reflect.DeepEqual(ir, ib) {
			t.Fatalf("seed %d %v/%v batch %d event %d: instances diverged:\nseq:     %v\nbatched: %v",
				seed, seqL, batL, batchSize, i, ir, ib)
		}
		if qr, qb := seq.Quarantined(cls), bat.Quarantined(cls); qr != qb {
			t.Fatalf("seed %d %v/%v batch %d event %d: quarantine diverged: seq=%v batched=%v",
				seed, seqL, batL, batchSize, i, qr, qb)
		}
		if hr, hb := healthOf(seq, cls), healthOf(bat, cls); hr != hb {
			t.Fatalf("seed %d %v/%v batch %d event %d: health diverged:\nseq:     %v\nbatched: %v",
				seed, seqL, batL, batchSize, i, hr, hb)
		}
		if nr, nb := hseq.sorted(), hbat.sorted(); !reflect.DeepEqual(nr, nb) {
			t.Fatalf("seed %d %v/%v batch %d event %d: notifications diverged:\nseq:     %v\nbatched: %v",
				seed, seqL, batL, batchSize, i, nr, nb)
		}
	}

	for i, ev := range randSchedule(rng, states, 48) {
		switch ev.op {
		case "reset":
			flush(i)
			seq.Reset()
			bat.Reset()
			compare(i)
		case "resetclass":
			flush(i)
			seq.ResetClass(cls)
			bat.ResetClass(cls)
			compare(i)
		default:
			if seq.UpdateStatePlan(NewSymbolPlan(cls, ev.symbol, ev.flags, ev.ts), ev.key) != nil {
				seqErrs++
			}
			pending = append(pending, BatchOp{Plan: plans.plan(cls, ev.symbol, ev.flags, ev.ts), Key: ev.key})
			if len(pending) >= batchSize || rng.Intn(6) == 0 {
				flush(i)
				compare(i)
			}
		}
	}
	flush(48)
	compare(48)
	if flushAt < 0 {
		t.Fatalf("seed %d: schedule produced no flush", seed)
	}
	if fs, fb := injSeq.TotalFired(), injBat.TotalFired(); fs != fb {
		t.Fatalf("seed %d: injectors diverged: seq fired %d, batched %d", seed, fs, fb)
	}
}

// TestBatchDifferentialStore sweeps ≥1000 schedules over batch sizes
// {1, 7, 64} (1 degenerates every batch to a single op — the batch plumbing
// alone; 64 is batchRunMax, so the 48-event schedules also exercise runs at
// and below the lookahead window cap) and every store layout.
func TestBatchDifferentialStore(t *testing.T) {
	n := 0
	for _, size := range []int{1, 7, 64} {
		for i := 0; i < 400; i++ {
			l := layouts[i%len(layouts)]
			runBatchDifferential(t, int64(20000+i), l, l, size, 0)
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("only %d schedules, want >= 1000", n)
	}
}

// TestBatchDifferentialInjected repeats the sweep with allocation failures
// injected at 1%, 10% and 50%: batch-window splits must not change which
// events a degraded class drops, suppresses or evicts.
func TestBatchDifferentialInjected(t *testing.T) {
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		for i := 0; i < 120; i++ {
			size := []int{1, 7, 64}[i%3]
			l := layouts[i%len(layouts)]
			runBatchDifferential(t, int64(30000+i), l, l, size, rate)
		}
	}
}
