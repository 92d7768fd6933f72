// Package bench is the harness that regenerates the paper's evaluation
// (§5). Table 1 and fig. 9 are printers over the kernel's assertion corpus;
// fig. 10 is one build-timing function, Fig10Measure. Figs. 11a–14b are
// each one list of named cases: a case's untimed set-up returns the
// figure's only timing loop, op(n). cmd/tesla-bench prints those cases as
// tables, and the root-level testing.B benchmarks run the same cases with
// b.N operations. Absolute numbers differ from the paper's FreeBSD/LLVM
// testbed, because the substrate here is a simulator. The shapes are the
// reproduction target: who wins, by roughly what factor, and where the
// crossovers fall.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tesla/internal/core"
	"tesla/internal/kernel"
	"tesla/internal/monitor"
)

// KernelConfig is one measured kernel configuration of §5.2.2.
type KernelConfig struct {
	Name string
	Mode kernel.Mode
	Sets kernel.Set
	// Naive disables the lazy-init optimisation (pre-optimisation state
	// for figure 13).
	Naive bool
}

// KernelConfigs are the configurations of figure 11, in display order:
// a release kernel, a standard-debug kernel (WITNESS + INVARIANTS), the
// TESLA instrumentation framework with test assertions only, then
// cumulative assertion sets, and everything plus debugging.
func KernelConfigs() []KernelConfig {
	return []KernelConfig{
		{Name: "Release", Mode: kernel.Release, Sets: 0},
		{Name: "Debug", Mode: kernel.Debug, Sets: 0},
		{Name: "Infrastructure", Mode: kernel.Release, Sets: kernel.SetInfra},
		{Name: "MP", Mode: kernel.Release, Sets: kernel.SetMP},
		{Name: "MP+MS", Mode: kernel.Release, Sets: kernel.SetMP | kernel.SetMS},
		{Name: "MF", Mode: kernel.Release, Sets: kernel.SetMF},
		{Name: "MF+MS", Mode: kernel.Release, Sets: kernel.SetMF | kernel.SetMS},
		{Name: "M", Mode: kernel.Release, Sets: kernel.SetM},
		{Name: "All", Mode: kernel.Release, Sets: kernel.SetAll},
		{Name: "All (Debug)", Mode: kernel.Debug, Sets: kernel.SetAll},
	}
}

// BootConfig boots a kernel for a configuration.
func BootConfig(c KernelConfig, bugs kernel.BugConfig) (*kernel.Kernel, error) {
	k, _, err := kernel.Boot(c.Mode, c.Sets, bugs, monitor.Options{
		Handler: core.NopHandler{},
		Naive:   c.Naive,
	})
	return k, err
}

// Row is one measurement.
type Row struct {
	Label string
	Value float64
	Unit  string
}

// Table prints rows with an optional normalisation baseline.
func Table(w io.Writer, title string, rows []Row, normaliseTo string) {
	fmt.Fprintf(w, "%s\n", title)
	var base float64
	for _, r := range rows {
		if r.Label == normaliseTo {
			base = r.Value
		}
	}
	for _, r := range rows {
		if base > 0 {
			fmt.Fprintf(w, "  %-16s %12.2f %-8s %8.2fx\n", r.Label, r.Value, r.Unit, r.Value/base)
		} else {
			fmt.Fprintf(w, "  %-16s %12.2f %-8s\n", r.Label, r.Value, r.Unit)
		}
	}
	fmt.Fprintln(w)
}

// Case is one named measurement of a figure. Setup does the untimed work
// and returns the figure's timing loop: op(n) runs n operations.
type Case struct {
	Name  string
	Setup func() (op func(n int), err error)
}

// timeCases sets every case up, then times iters operations of each,
// split over rounds interleaved rounds so that drift between cases does not
// bias one of them. It returns one row per case: the mean time per
// operation, in units of per.
func timeCases(cases []Case, iters, rounds int, unit string, per time.Duration) ([]Row, error) {
	if iters < 1 {
		return nil, fmt.Errorf("bench: %d iterations, want at least 1", iters)
	}
	ops := make([]func(int), len(cases))
	for i, c := range cases {
		op, err := c.Setup()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		ops[i] = op
	}
	rounds = min(rounds, iters)
	spent := make([]time.Duration, len(cases))
	for r := 0; r < rounds; r++ {
		n := iters / rounds
		if r < iters%rounds {
			n++
		}
		for i, op := range ops {
			start := time.Now()
			op(n)
			spent[i] += time.Since(start)
		}
	}
	rows := make([]Row, len(cases))
	for i, c := range cases {
		rows[i] = Row{Label: c.Name, Value: float64(spent[i]) / float64(iters) / float64(per), Unit: unit}
	}
	return rows, nil
}

// Percentile returns the p-quantile (0..1) of the sorted-in-place samples.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(p * float64(len(samples)-1))
	return samples[idx]
}
