package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tesla/internal/core"
	"tesla/internal/dtrace"
	"tesla/internal/trace"
)

// randomLifecycleTrace builds a trace of lifecycle events over a few
// classes — the multi-process merging corpus. seqBase keeps sequence
// numbers distinct across simulated processes.
func randomLifecycleTrace(r *rand.Rand, seqBase uint64, n int) *trace.Trace {
	classes := []string{"alpha", "beta", "gamma"}
	symbols := []string{"open", "close", "check", ""}
	verdicts := []core.VerdictKind{core.VerdictNoInstance, core.VerdictBadTransition}
	tr := &trace.Trace{FormatVersion: trace.Version, Automata: classes}
	for i := 0; i < n; i++ {
		ev := trace.Event{Seq: seqBase + uint64(i) + 1, Thread: -1}
		switch r.Intn(5) {
		case 0, 1:
			ev.Kind = trace.KindTransition
			ev.Class = classes[r.Intn(len(classes))]
			ev.From = uint32(r.Intn(3))
			ev.To = uint32(r.Intn(3))
			ev.Symbol = symbols[r.Intn(3)]
		case 2:
			ev.Kind = trace.KindAccept
			ev.Class = classes[r.Intn(len(classes))]
		case 3:
			ev.Kind = trace.KindFail
			ev.Class = classes[r.Intn(len(classes))]
			ev.Symbol = symbols[r.Intn(len(symbols))]
			ev.Verdict = verdicts[r.Intn(len(verdicts))]
		case 4:
			// Noise the aggregator must count but not aggregate.
			ev.Kind = trace.KindInit
			ev.Class = classes[r.Intn(len(classes))]
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// TestSummarizeParity is the multi-trace merging differential: ingesting
// N processes' traces into the fleet store and then asking it to
// Summarize must equal dtrace.Summarize over the concatenation of those
// traces — same keys, same counts, byte for byte. Fleet aggregation is
// dtrace scaled out, not a second opinion.
func TestSummarizeParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		store := NewStore(StoreOpts{Seed: int64(round)})
		merged := &trace.Trace{FormatVersion: trace.Version}
		nProcs := 1 + r.Intn(6)
		for p := 0; p < nProcs; p++ {
			tr := randomLifecycleTrace(r, uint64(p)*100000, r.Intn(400))
			store.IngestTrace(procName(p), tr)
			merged.Events = append(merged.Events, tr.Events...)
		}
		checkSummarize(t, fmt.Sprintf("round %d", round), store, merged)
	}
}

// checkSummarize fails t unless store.Summarize equals dtrace.Summarize
// over merged, the concatenation of every trace the store ingested.
func checkSummarize(t *testing.T, what string, store *Store, merged *trace.Trace) {
	t.Helper()
	want, got := dtrace.Summarize(merged), store.Summarize()
	for _, pair := range []struct {
		name      string
		want, got *dtrace.Aggregation
	}{
		{"transitions", want.Transitions, got.Transitions},
		{"accepts", want.Accepts, got.Accepts},
		{"failures", want.Failures, got.Failures},
	} {
		if w, g := pair.want.Snapshot(), pair.got.Snapshot(); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: %s diverge\ndtrace: %v\nfleet:  %v", what, pair.name, w, g)
		}
	}
}

// TestOneProducerTwoConnections: a producer that reconnects while its
// old connection still drains has frames applying on two connection
// workers at once. The seqs 1..2N are claimed in order, as the two
// readers would claim them, then 1..N and N+1..2N apply from two
// goroutines while a third queries the store. The producer's lock applies
// its frames one at a time, so its frame and event totals come out exact
// and Summarize equals dtrace.Summarize over the concatenated traces.
func TestOneProducerTwoConnections(t *testing.T) {
	const n = 40
	r := rand.New(rand.NewSource(9))
	store := NewStore(StoreOpts{Seed: 9})
	merged := &trace.Trace{FormatVersion: trace.Version}
	payloads := make([][]byte, 2*n)
	var events uint64
	for i := range payloads {
		tr := randomLifecycleTrace(r, uint64(i)*1000, 1+r.Intn(300))
		merged.Events = append(merged.Events, tr.Events...)
		events += uint64(len(tr.Events))
		payloads[i] = framePayload(tr)
		if !store.BeginSeqFrame("p", uint64(i+1), uint64(len(tr.Events))) {
			t.Fatalf("seq %d claimed as a duplicate", i+1)
		}
	}

	stop := make(chan struct{})
	queried := make(chan struct{})
	go func() {
		defer close(queried)
		for {
			select {
			case <-stop:
				return
			default:
			}
			store.Failures()
			store.Fleet()
			store.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for seq := first; seq < first+n; seq++ {
				if err := store.ApplySeqFrame("p", uint64(seq), payloads[seq-1]); err != nil {
					t.Error(err)
				}
			}
		}(1 + c*n)
	}
	wg.Wait()
	close(stop)
	<-queried

	sum := store.Fleet()
	if len(sum.Producers) != 1 {
		t.Fatalf("producers: %+v", sum.Producers)
	}
	if p := sum.Producers[0]; p.Frames != 2*n || p.Events != events || p.BadFrames != 0 {
		t.Fatalf("producer totals: %d frames, %d events, %d bad; want %d frames, %d events", p.Frames, p.Events, p.BadFrames, 2*n, events)
	}
	if got := store.AckSeq("p"); got != 2*n {
		t.Fatalf("applied watermark %d, want %d", got, 2*n)
	}
	checkSummarize(t, "two connections", store, merged)
}

func procName(p int) string { return string(rune('a'+p)) + "-proc" }

// TestFleetCounts checks the fleet rollup arithmetic and orderings.
func TestFleetCounts(t *testing.T) {
	store := NewStore(StoreOpts{})
	t1 := &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindTransition, Class: "c", From: 0, To: 1, Symbol: "s"},
		{Seq: 2, Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance},
	}, Dropped: 3}
	t2 := &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance},
		{Seq: 2, Kind: trace.KindAccept, Class: "c"},
	}}
	store.IngestTrace("p1", t1)
	store.IngestTrace("p2", t2)
	store.IngestTrace("p2", t1) // p2 sends a second frame

	sum := store.Fleet()
	if sum.TotalFrames != 3 || sum.TotalEvents != 6 {
		t.Fatalf("fleet totals: frames=%d events=%d", sum.TotalFrames, sum.TotalEvents)
	}
	if sum.RingDropped != 6 {
		t.Fatalf("ring dropped = %d, want 6", sum.RingDropped)
	}
	if sum.TotalFailures != 3 || sum.FailureSites != 2 {
		t.Fatalf("failures: total=%d sites=%d", sum.TotalFailures, sum.FailureSites)
	}
	if len(sum.Producers) != 2 || sum.Producers[0].Process != "p1" || sum.Producers[1].Events != 4 {
		t.Fatalf("producers: %+v", sum.Producers)
	}

	fails := store.Failures()
	if len(fails) != 1 {
		t.Fatalf("failure sites: %+v", fails)
	}
	f := fails[0]
	if f.Class != "c" || f.Total != 3 || len(f.PerProcess) != 2 {
		t.Fatalf("failure site: %+v", f)
	}
	if f.PerProcess[0].Process != "p2" || f.PerProcess[0].Count != 2 {
		t.Fatalf("per-process not count-descending: %+v", f.PerProcess)
	}

	top := store.TopK("c", 10)
	if len(top) != 1 || top[0].Site != "0->1 @ s" || top[0].Count != 2 {
		t.Fatalf("topk: %+v", top)
	}
}

// TestReservoirSamples: below the cap every failure window is kept with
// its leading context; above the cap the reservoir stays at the cap.
func TestReservoirSamples(t *testing.T) {
	store := NewStore(StoreOpts{SampleCap: 3, Window: 2, Seed: 1})
	var evs []trace.Event
	for i := 0; i < 40; i++ {
		evs = append(evs, trace.Event{Seq: uint64(i*2 + 1), Kind: trace.KindTransition, Class: "c", From: 0, To: 1, Symbol: "t"})
		evs = append(evs, trace.Event{Seq: uint64(i*2 + 2), Kind: trace.KindFail, Class: "c", Symbol: "site", Verdict: core.VerdictNoInstance})
	}
	store.IngestTrace("p", &trace.Trace{Events: evs})
	samples := store.Samples("c")
	if len(samples) != 3 {
		t.Fatalf("reservoir size %d, want cap 3", len(samples))
	}
	for _, s := range samples {
		last := s.Events[len(s.Events)-1]
		if last.Kind != trace.KindFail {
			t.Fatalf("sample does not end at the failure: %+v", s.Events)
		}
		if len(s.Events) > 3 {
			t.Fatalf("sample window exceeds Window+1: %d", len(s.Events))
		}
	}

	// Two failures only, cap 3: full capture, context preserved in order.
	store2 := NewStore(StoreOpts{SampleCap: 3, Window: 4})
	store2.IngestTrace("p", &trace.Trace{Events: []trace.Event{
		{Seq: 1, Kind: trace.KindTransition, Class: "c", Symbol: "a"},
		{Seq: 2, Kind: trace.KindFail, Class: "c", Symbol: "x", Verdict: core.VerdictNoInstance},
	}})
	got := store2.Samples("")
	if len(got) != 1 || len(got[0].Events) != 2 || got[0].Events[0].Symbol != "a" {
		t.Fatalf("context window wrong: %+v", got)
	}
}

// TestHealthRollup: latest-wins per producer, summed fleet-wide.
func TestHealthRollup(t *testing.T) {
	store := NewStore(StoreOpts{})
	store.MergeHealth("p1", []HealthRow{{Class: "c", Overflows: 1, Live: 2}})
	store.MergeHealth("p1", []HealthRow{{Class: "c", Overflows: 5, Live: 1}}) // cumulative update
	store.MergeHealth("p2", []HealthRow{{Class: "c", Overflows: 2, Quarantined: true}})
	hs := store.Health()
	if len(hs) != 1 || hs[0].Overflows != 7 || hs[0].Live != 1 || hs[0].Quarantined != 1 {
		t.Fatalf("health rollup: %+v", hs)
	}
}
