//go:build !race

package trace_test

import (
	"fmt"
	"runtime"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/trace"
)

// TestRecorderTapAllocs pins the copying of a tapped synchronous thread at
// the recorder alone. The monitor lends the recorder thread-owned copies
// of each event's values and allocates nothing itself (TestNameDrivenAllocs
// holds the untapped path to 0), so the only allocations per event are the
// recorder's own copies of non-empty value slices, kept in its
// preallocated ring: 2 for an unhooked Call+Return with arguments, and 3
// for a syscall whose checked call, its return and a site carry values
// while the bound's call and return do not. The file is excluded under
// -race, which adds allocations of its own.
func TestRecorderTapAllocs(t *testing.T) {
	var autos []*automata.Automaton
	for i := 0; i < 8; i++ {
		autos = append(autos, mustAuto(t, fmt.Sprintf("a%d", i),
			fmt.Sprintf(`TESLA_SYSCALL_PREVIOUSLY(check%d(ANY(ptr), so) == 0)`, i)))
	}
	rec := trace.NewRecorder(autos, 1024)
	th := monitor.MustNew(monitor.Options{Tap: rec}, autos...).NewThread()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"unhooked", 2, func() {
			must(th.Call("other", 1, 2))
			must(th.Return("other", 0, 1, 2))
		}},
		{"syscall", 3, func() {
			must(th.Call("amd64_syscall"))
			must(th.Call("check3", 99, 7))
			must(th.Return("check3", 0, 99, 7))
			must(th.Site("a3", 7))
			must(th.Return("amd64_syscall", 0))
		}},
	} {
		tc.run() // warm the store's instance tables and the tap buffers
		if got := testing.AllocsPerRun(200, tc.run); got != tc.want {
			t.Errorf("%s: %.1f allocations per run, want %.0f (the recorder's copies)", tc.name, got, tc.want)
		}
	}
	if n := rec.EventCount(); n == 0 {
		t.Fatal("the recorder saw no events")
	}
}

// TestFlusherSteadyAllocs: once its buffers have grown, a flush — cut,
// merge and encode straight from the rings — allocates nothing, for a
// 100-event delta and for a 4,000-event one. The events themselves (a
// program event without values and a transition, round after round)
// allocate nothing either, so any allocation counted is the flush's.
func TestFlusherSteadyAllocs(t *testing.T) {
	rec := trace.NewRecorder([]*automata.Automaton{{Name: "lock"}}, 1<<13)
	tap := rec.ThreadTap(0)
	var sent uint64
	f := trace.NewFlusher(rec, 0, func(_ []byte, events, _ uint64) error {
		sent += events
		return nil
	})
	cls := &core.Class{Name: "lock"}
	inst := &core.Instance{Key: core.AnyKey.Set(0, 1)}
	for _, n := range []int{100, 4000} {
		cycle := func() {
			for i := 0; i < n/2; i++ {
				tap.ProgramEvent(monitor.ProgramEvent{Kind: monitor.ProgBoundBegin, Fn: "lock"})
				rec.Transition(cls, inst, 0, 1, "acquire")
			}
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm up: the flusher's buffer and the merge grow once
		if got := testing.AllocsPerRun(50, cycle); got != 0 {
			t.Errorf("%d-event delta: %.1f allocations per flush, want 0", n, got)
		}
	}
	if sent != rec.EventCount() {
		t.Fatalf("flushed %d of %d events", sent, rec.EventCount())
	}
}

// TestRecorderFootprint: a recorder with one thread tapped allocates its
// two rings whole, up front, and little else. At the default 2¹⁶ slots of
// 144 bytes that is 2·2¹⁶·144 B = 18,874,368 B; with each slot a 312-byte
// Event it was 40,894,464 B. The lower bound holds the rings to being
// allocated (and zeroed) when they are made, not on the event path.
func TestRecorderFootprint(t *testing.T) {
	const slotBytes, ringSlots = 144, 1 << 16
	if trace.ProgSlotSize > slotBytes || trace.LifeSlotSize > slotBytes {
		t.Fatalf("slots are %d B (thread ring) and %d B (lifecycle ring), want at most %d", trace.ProgSlotSize, trace.LifeSlotSize, slotBytes)
	}
	autos := []*automata.Automaton{{Name: "a"}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := trace.NewRecorder(autos, 0)
	tap := rec.ThreadTap(0)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tap)
	got := after.TotalAlloc - before.TotalAlloc
	rings := uint64(trace.ProgSlotSize+trace.LifeSlotSize) * ringSlots
	if limit := uint64(2*ringSlots*slotBytes + 64<<10); got < rings || got > limit {
		t.Fatalf("NewRecorder and one ThreadTap allocate %d B; want the rings' %d B and at most %d B in all", got, rings, limit)
	}
	t.Logf("NewRecorder and one ThreadTap allocate %d B", got)
}
