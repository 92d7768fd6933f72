//go:build !race

package kernel_test

import (
	"testing"

	"tesla/internal/bench"
)

// TestFig11bOLTPAllocs pins what one OLTP transaction allocates in every
// figure 11b configuration. The kernel's TESLA hooks hand their arguments
// to the monitor without the slices escaping, a site of an assertion set
// that is not loaded costs a preallocated error, and the default no-op
// handler builds no notifications. So no configuration allocates more than
// Release, whose one allocation per transaction is the kernel's own File
// record for the table it opens. The file is excluded under -race, which
// adds allocations of its own.
func TestFig11bOLTPAllocs(t *testing.T) {
	const release = "Release"
	allocs := map[string]float64{}
	var names []string
	for _, c := range bench.Fig11bCases(bench.OLTP) {
		op, err := c.Setup()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		op(1) // warm the store's instance tables
		allocs[c.Name] = testing.AllocsPerRun(50, func() { op(1) })
		names = append(names, c.Name)
	}
	base, ok := allocs[release]
	if !ok {
		t.Fatalf("no %s configuration among %v", release, names)
	}
	if base > 1 {
		t.Errorf("%s: %.1f allocations per transaction, want at most 1", release, base)
	}
	for _, name := range names {
		if allocs[name] > base {
			t.Errorf("%s: %.1f allocations per transaction, more than %s's %.1f", name, allocs[name], release, base)
		}
	}
	if len(names) != 10 {
		t.Errorf("%d configurations, want figure 11b's 10", len(names))
	}
}
