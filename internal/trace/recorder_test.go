package trace_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/faultinject"
	"tesla/internal/monitor"
	"tesla/internal/spec"
	"tesla/internal/trace"
)

func mustAuto(t *testing.T, name, src string) *automata.Automaton {
	t.Helper()
	a, err := spec.Parse(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// TestRecorderConcurrentThreads drives a global-context automaton from many
// goroutines with the recorder attached at both layers (tap + handler),
// snapshotting concurrently — the race-detector probe for the whole event
// path. The merged trace must be Seq-ordered with no duplicates, and every
// program event must be attributed to a real thread.
func TestRecorderConcurrentThreads(t *testing.T) {
	auto := mustAuto(t, "glob",
		`TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`)
	rec := trace.NewRecorder([]*automata.Automaton{auto}, 0)
	m := monitor.MustNew(monitor.Options{Handler: rec, Tap: rec}, auto)

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Snapshot() // must be safe mid-recording
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := m.NewThread()
			for r := 0; r < rounds; r++ {
				x := core.Value(g*rounds + r)
				th.Call("start_op")
				th.Call("prepare", x)
				th.Return("prepare", 0, x)
				th.Site("glob", x)
				th.Return("end_op", 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	tr := rec.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("%d events dropped with default ring capacity", tr.Dropped)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	seen := map[uint64]bool{}
	var prev uint64
	threads := map[int]bool{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Seq <= prev && i > 0 {
			t.Fatalf("event %d out of order: seq %d after %d", i, ev.Seq, prev)
		}
		prev = ev.Seq
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Kind == trace.KindProgram {
			if ev.Thread < 0 || ev.Thread >= goroutines {
				t.Fatalf("program event on impossible thread %d", ev.Thread)
			}
			threads[ev.Thread] = true
		} else if ev.Thread != -1 {
			t.Fatalf("lifecycle event with thread %d", ev.Thread)
		}
	}
	if len(threads) != goroutines {
		t.Fatalf("events from %d threads, want %d", len(threads), goroutines)
	}

	// The merged trace replays: the Seq order is a plausible linearisation,
	// so replay must complete and produce only verdicts the live run could
	// have produced (structural sanity, not exact equality, under races).
	if _, err := trace.Replay(tr, []*automata.Automaton{auto}); err != nil {
		t.Fatalf("concurrent trace does not replay: %v", err)
	}
}

// TestRecorderBoundedMemory overflows a tiny ring and checks the contract:
// newest events win, drops are counted, Snapshot stays Seq-sorted.
func TestRecorderBoundedMemory(t *testing.T) {
	auto := mustAuto(t, "syscall", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`)
	rec := trace.NewRecorder([]*automata.Automaton{auto}, 8)
	m := monitor.MustNew(monitor.Options{Handler: rec, Tap: rec}, auto)
	th := m.NewThread()
	for i := 0; i < 100; i++ {
		th.Call("amd64_syscall")
		th.Return("amd64_syscall", 0)
	}
	tr := rec.Snapshot()
	if tr.Dropped == 0 {
		t.Fatal("expected drops from a capacity-8 ring")
	}
	var prev uint64
	for i := range tr.Events {
		if tr.Events[i].Seq <= prev {
			t.Fatalf("snapshot not sorted at %d", i)
		}
		prev = tr.Events[i].Seq
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Seq != rec.EventCount() {
		t.Fatalf("newest event seq %d, recorder count %d", last.Seq, rec.EventCount())
	}

	// With injected drops on top of the overwrites, Snapshot is still
	// exactly the cut from the zero watermark, Dropped included.
	inj := faultinject.New(5)
	inj.SetEvery(faultinject.SiteTraceDrop, 3)
	rec.DropFault = func() bool { return inj.Should(faultinject.SiteTraceDrop, "life") }
	inst := &core.Instance{Active: true}
	for i := 0; i < 40; i++ {
		th.Call("amd64_syscall")
		rec.InstanceNew(auto.Class, inst)
		th.Return("amd64_syscall", 0)
	}
	if inj.Fired(faultinject.SiteTraceDrop, "life") == 0 {
		t.Fatal("injector never fired; the comparison lost its teeth")
	}
	snap := rec.Snapshot()
	cut, _ := rec.CutSince(nil)
	if !reflect.DeepEqual(snap, cut) {
		t.Fatalf("Snapshot != CutSince(nil):\n snapshot: %d events, %d dropped\n cut:      %d events, %d dropped",
			len(snap.Events), snap.Dropped, len(cut.Events), cut.Dropped)
	}
	if snap.Dropped+uint64(len(snap.Events)) != rec.EventCount() {
		t.Fatalf("held %d + dropped %d != recorded %d", len(snap.Events), snap.Dropped, rec.EventCount())
	}
}

// TestRecorderDropFault exercises the fault-injection seam: with every third
// lifecycle push rejected by DropFault, the snapshot's Dropped count matches
// the injector's fired count exactly and the surviving events are intact.
func TestRecorderDropFault(t *testing.T) {
	auto := mustAuto(t, "df", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`)
	rec := trace.NewRecorder([]*automata.Automaton{auto}, 0)
	inj := faultinject.New(9)
	inj.SetEvery(faultinject.SiteTraceDrop, 3)
	rec.DropFault = func() bool { return inj.Should(faultinject.SiteTraceDrop, "life") }

	cls := auto.Class
	inst := &core.Instance{Active: true}
	const pushes = 50
	for i := 0; i < pushes; i++ {
		rec.InstanceNew(cls, inst)
	}
	tr := rec.Snapshot()
	fired := inj.Fired(faultinject.SiteTraceDrop, "life")
	if fired == 0 {
		t.Fatal("injector never fired; test lost its teeth")
	}
	if tr.Dropped != fired {
		t.Fatalf("Dropped = %d, injector dropped %d", tr.Dropped, fired)
	}
	life := 0
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindInit {
			life++
		}
	}
	if life != pushes-int(fired) {
		t.Fatalf("%d lifecycle events survived, want %d", life, pushes-int(fired))
	}
}

// TestCutsArePrefixes checks that every cut is an exact Seq-prefix of the
// run when several goroutines record at once. Four goroutines record
// program events, program batches and lifecycle events into rings small
// enough to overwrite now and then, while a Flusher cuts and encodes
// concurrently. Across all decoded deltas Seq must rise strictly — a
// Seq taken before a cut but pushed after it would arrive in a later
// delta below one already sent — and every Seq in [1, EventCount] must
// arrive exactly once or be counted in some delta's Dropped.
func TestCutsArePrefixes(t *testing.T) {
	rec := trace.NewRecorder([]*automata.Automaton{{Name: "a"}}, 1024)
	// The send keeps a copy of each delta; they are decoded once recording
	// is over, so a flush costs little more than its cut.
	type delta struct {
		bin             []byte
		events, dropped uint64
	}
	var deltas []delta
	f := trace.NewFlusher(rec, 0, func(bin []byte, events, dropped uint64) error {
		deltas = append(deltas, delta{bytes.Clone(bin), events, dropped})
		return nil
	})

	const goroutines, rounds = 4, 4000
	var wg sync.WaitGroup
	done := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				flushed <- nil
				return
			default:
			}
			if err := f.Flush(); err != nil {
				flushed <- err
				return
			}
			runtime.Gosched()
		}
	}()
	cls := &core.Class{Name: "a"}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tap := rec.ThreadTap(g)
			batch := tap.(monitor.BatchThreadTap)
			for r := 0; r < rounds; r++ {
				inst := &core.Instance{Key: core.NewKey(core.Value(g*rounds + r))}
				tap.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgCall, Fn: "f", Vals: []core.Value{core.Value(r)}})
				rec.Transition(cls, inst, 0, 1, "f")
				if r%8 == 0 {
					batch.ProgramBatch([]monitor.ProgramEvent{{Kind: monitor.ProgSite, Fn: "a"}, {Kind: monitor.ProgReturn, Fn: "f"}})
					rec.Accept(cls, inst)
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	var last, delivered, dropped uint64
	for i, d := range deltas {
		tr, err := trace.Read(bytes.NewReader(d.bin))
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if uint64(len(tr.Events)) != d.events || tr.Dropped != d.dropped {
			t.Fatalf("delta %d decodes to %d events, %d dropped; the flusher reported %d, %d", i, len(tr.Events), tr.Dropped, d.events, d.dropped)
		}
		for _, ev := range tr.Events {
			if ev.Seq <= last {
				t.Fatalf("delta %d: Seq %d arrived after Seq %d", i, ev.Seq, last)
			}
			last = ev.Seq
		}
		delivered += d.events
		dropped += d.dropped
	}
	if n := rec.EventCount(); last > n || delivered+dropped != n {
		t.Fatalf("%d events recorded, but %d delivered (last Seq %d) + %d dropped", n, delivered, last, dropped)
	}
	if len(deltas) < 4 {
		t.Fatalf("only %d deltas: the flusher hardly cut mid-run", len(deltas))
	}
	t.Logf("%d deltas, %d events delivered, %d dropped", len(deltas), delivered, dropped)
}
