//go:build !race

package monitor

import (
	"fmt"
	"testing"

	"tesla/internal/automata"
)

// TestNameDrivenAllocs pins the allocations of name-driven dispatch, the
// path the Go substrates (the kernel simulator among them) drive on every
// program event. Eight automata share amd64_syscall's bound slot, as the
// kernel's assertions do. The entry points borrow their variadic argument
// slices and never retain them, so the slices stay on the caller's stack:
// Call and Return of a function no automaton names, and a whole syscall
// with one checked call and one site, allocate nothing, however many
// automata share the slot. TestRecorderTapAllocs (internal/trace) pins a
// tapped thread's allocations at the recorder's own copies. The file is
// excluded under -race, which adds allocations of its own.
func TestNameDrivenAllocs(t *testing.T) {
	var autos []*automata.Automaton
	for i := 0; i < 8; i++ {
		autos = append(autos, mustAuto(t, fmt.Sprintf("a%d", i),
			fmt.Sprintf(`TESLA_SYSCALL_PREVIOUSLY(check%d(ANY(ptr), so) == 0)`, i), nil))
	}
	th := MustNew(Options{}, autos...).NewThread()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"unhooked", func() {
			must(th.Call("other", 1, 2))
			must(th.Return("other", 0, 1, 2))
		}},
		{"syscall", func() {
			must(th.Call("amd64_syscall"))
			must(th.Call("check3", 99, 7))
			must(th.Return("check3", 0, 99, 7))
			must(th.Site("a3", 7))
			must(th.Return("amd64_syscall", 0))
		}},
	} {
		tc.run() // warm the store's instance tables
		if got := testing.AllocsPerRun(200, tc.run); got != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", tc.name, got)
		}
	}
}
