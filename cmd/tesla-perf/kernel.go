package main

import (
	"io"
	"time"

	"tesla/internal/kernel"
	"tesla/internal/monitor"
)

// kernel-oltp: the paper's Fig. 11b socket-intensive macrobenchmark as a
// closed loop on a kernel booted with the full assertion set compiled in
// (Release + SetAll), so the synchronous monitor plane and the per-thread
// store do all TESLA work. One op is one OLTP transaction.
//
// One load goroutine: kernel.OLTPTransaction stores its result in a
// package-level sink, so two goroutines driving two kernels race on it
// (the race detector reports it), and the simulated kernel's VFS is
// single-threaded per instance anyway.

const (
	oltpGoroutines = 1
	oltpRep        = time.Second
	// oltpSetups is how many times each repetition boots: a boot costs a
	// few milliseconds, and the median of many is steadier than one.
	oltpSetups = 5
)

// oltpLoad is one booted kernel per load goroutine.
type oltpLoad struct {
	threads []*kernel.Thread
	pairs   []kernel.OLTPPair
	mons    []*monitor.Monitor
}

func bootOLTP(sets kernel.Set, opts monitor.Options) (*oltpLoad, error) {
	l := &oltpLoad{}
	for g := 0; g < oltpGoroutines; g++ {
		k, mon, err := kernel.Boot(kernel.Release, sets, kernel.BugConfig{}, opts)
		if err != nil {
			return nil, err
		}
		th := k.NewThread()
		p, err := kernel.SetupOLTP(th)
		if err != nil {
			return nil, err
		}
		l.threads = append(l.threads, th)
		l.pairs = append(l.pairs, p)
		if mon != nil {
			l.mons = append(l.mons, mon)
		}
	}
	return l, nil
}

func (l *oltpLoad) op(g int) error {
	kernel.OLTPTransaction(l.threads[g], l.pairs[g])
	return nil
}

// measureOLTP runs the OLTP loop on kernels booted with sets.
func measureOLTP(c *config, sets kernel.Set, opts monitor.Options, op func(l *oltpLoad, g int) error) (*sample, []*oltpLoad, error) {
	return closedReps(c, oltpRep, oltpSetups, oltpGoroutines, func(bool) (*oltpLoad, error) {
		return bootOLTP(sets, opts)
	}, op)
}

func checkOLTP(o *outcome, loads []*oltpLoad) {
	var h healthSum
	for _, l := range loads {
		h.add(l.mons...)
	}
	o.check("no violations", h.violations == 0, "%d violation(s) across %d transactions", h.violations, o.attempted)
	o.check("no overflows", h.overflows == 0 && h.evictions == 0, "%d overflow(s), %d eviction(s)", h.overflows, h.evictions)
	o.check("monitored", len(loads) > 0 && len(loads[0].mons) == oltpGoroutines, "every load goroutine's kernel has a monitor")
	o.failed += int64(h.violations + h.overflows)
}

func runKernelOLTP(c *config) (*outcome, error) {
	s, loads, err := measureOLTP(c, kernel.SetAll, monitor.Options{}, (*oltpLoad).op)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: s.endToEnd()}
	o.attempted, o.failed = s.ops()
	checkOLTP(o, loads)
	return o, nil
}

// traceKernelOLTP prices the monitor by ablation: the same transactions on
// a Release kernel with no assertions, then span-traced with SetAll. The
// monitor's work runs inside the kernel's calls, so its cost is the
// difference between the two rungs.
func traceKernelOLTP(c *config) (*outcome, error) {
	half := *c
	half.seconds = c.seconds / 2
	base, _, err := measureOLTP(&half, 0, monitor.Options{}, (*oltpLoad).op)
	if err != nil {
		return nil, err
	}

	lanes := []*lane{c.spans.lane()}
	var ops [oltpGoroutines]int64
	s, loads, err := measureOLTP(&half, kernel.SetAll, monitor.Options{}, func(l *oltpLoad, g int) error {
		ln := lanes[g]
		ops[g]++
		ln.setOp(ops[g])
		ln.begin("kernel", "kernel.OLTPTransaction")
		err := l.op(g)
		ln.end()
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: s.endToEnd()}
	o.attempted, o.failed = s.ops()
	checkOLTP(o, loads)

	// Mean cost per transaction on each rung.
	release := 1e6 / base.endToEnd()["ops_per_s"]
	all := 1e6 / o.metrics["ops_per_s"]
	events, err := oltpEventsPerTx()
	if err != nil {
		return nil, err
	}
	var h healthSum
	h.add(loads[0].mons...)
	o.layers = map[string]float64{
		"kernel.release_us_per_tx": release,
		"monitor.events_per_op":    events,
		"monitor.us_per_op":        all - release,
		"monitor.ns_per_event":     (all - release) * 1e3 / events,
		"monitor.overhead_x":       all / release,
	}
	h.layers(o.layers)
	traced := o.attempted
	o.ledger = func(w io.Writer) {
		printLedger(w, c.spans, traced, []ablationRow{
			{"kernel", release, "Release kernel, no assertions: mean per transaction"},
			{"monitor", all - release, "SetAll minus Release, mean per transaction"},
		})
	}
	return o, nil
}

// oltpEventsPerTx counts the program events one transaction feeds the
// monitor, on a kernel of its own with a counting tap.
func oltpEventsPerTx() (float64, error) {
	const n = 100
	tap := &countingTap{}
	l, err := bootOLTP(kernel.SetAll, monitor.Options{Tap: tap})
	if err != nil {
		return 0, err
	}
	before := tap.total() // the set-up's own events
	for i := 0; i < n; i++ {
		l.op(0)
	}
	return float64(tap.total()-before) / n, nil
}
