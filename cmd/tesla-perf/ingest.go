package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// global-ingest: the generated-translator path. A monitor.Thread opens the
// bound once and then delivers pre-matched keyed events into one
// TESLA_GLOBAL class, cycling over 24 seeded keys (24 live clones) with
// default monitor options. The striped global store and the compiled
// engines are almost the whole cost; vm, build, trace and agg are
// bypassed. One op is one delivered event.
//
// One load goroutine, not two: two threads delivering into one global
// class contend on the monitor's global lock on every event, and on two
// vCPUs that contention made per-event latency swing by a third from run
// to run, far beyond any usable regression bound.

const (
	ingestGoroutines = 1
	ingestKeysPerG   = 24
	ingestRep        = 500 * time.Millisecond
	// ingestSetups: compiling the automaton and building the monitor
	// takes well under a millisecond, so each repetition repeats it and
	// the run reports the median.
	ingestSetups = 9
	// ingestSeqLen is the length of each goroutine's seeded key sequence.
	ingestSeqLen = 16 * ingestKeysPerG

	ingestAssertion = `TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`
)

// ingestLoad is one monitor and its load threads.
type ingestLoad struct {
	mon      *monitor.Monitor
	threads  []*monitor.Thread
	idx, sym int
	keys     [][]core.Value
	next     []paddedCount
}

type paddedCount struct {
	n int64
	_ [56]byte
}

// ingestKeys draws each goroutine's disjoint key range from the seed and a
// seeded order in which to cycle through it.
func ingestKeys(seed int64) [][]core.Value {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1 << 40)
	keys := make([][]core.Value, ingestGoroutines)
	for g := range keys {
		for i := 0; i < ingestSeqLen; i++ {
			k := base + int64(g*ingestKeysPerG) + int64(i%ingestKeysPerG)
			keys[g] = append(keys[g], core.Value(k))
		}
		rng.Shuffle(len(keys[g]), func(i, j int) { keys[g][i], keys[g][j] = keys[g][j], keys[g][i] })
	}
	return keys
}

// setupIngest compiles the automaton, builds the monitor and opens the
// bound on every load thread. ln, when tracing, gets one span per stage.
func setupIngest(keys [][]core.Value, opts monitor.Options, ln *lane) (*ingestLoad, error) {
	ln.begin("spec", "spec.Parse")
	a, err := spec.Parse("ingest", ingestAssertion, nil)
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("automata", "automata.Compile")
	auto, err := automata.Compile(a)
	ln.end()
	if err != nil {
		return nil, err
	}
	l := &ingestLoad{keys: keys, next: make([]paddedCount, ingestGoroutines), sym: -1}
	for _, s := range auto.Symbols {
		if s.Fn == "prepare" {
			l.sym = s.ID
		}
	}
	if l.sym < 0 {
		return nil, fmt.Errorf("ingest automaton has no prepare symbol")
	}
	ln.begin("monitor", "monitor.New")
	l.mon, err = monitor.New(opts, auto)
	ln.end()
	if err != nil {
		return nil, err
	}
	l.idx = l.mon.AutoIndex("ingest")
	for g := 0; g < ingestGoroutines; g++ {
		th := l.mon.NewThread()
		ln.begin("monitor", "monitor.Thread.Call")
		err := th.Call("start_op")
		ln.end()
		if err != nil {
			return nil, err
		}
		l.threads = append(l.threads, th)
	}
	return l, nil
}

func (l *ingestLoad) op(g int) error {
	c := &l.next[g]
	k := l.keys[g][c.n%ingestSeqLen]
	c.n++
	return l.threads[g].Deliver(l.idx, l.sym, k)
}

// measureIngest runs the delivery loop, each repetition on a freshly
// set-up monitor.
func measureIngest(c *config, opts monitor.Options, op func(l *ingestLoad, g int) error) (*sample, []*ingestLoad, error) {
	keys := ingestKeys(c.seed)
	setupLane := c.spans.lane()
	return closedReps(c, ingestRep, ingestSetups, ingestGoroutines, func(last bool) (*ingestLoad, error) {
		ln := (*lane)(nil)
		if last {
			ln = setupLane // span only the set-ups that are kept
		}
		return setupIngest(keys, opts, ln)
	}, op)
}

func checkIngest(o *outcome, loads []*ingestLoad) {
	for i, l := range loads {
		var h healthSum
		h.add(l.mon)
		want := ingestGoroutines*ingestKeysPerG + 1 // every key's clone plus the parent
		o.check(fmt.Sprintf("rep %d verdicts", i+1), h.violations == 0 && h.overflows == 0 && h.live == want,
			"%d violation(s), %d overflow(s), %d live instance(s) (want 0, 0, %d)", h.violations, h.overflows, h.live, want)
		o.failed += int64(h.violations + h.overflows)
	}
}

func runGlobalIngest(c *config) (*outcome, error) {
	s, loads, err := measureIngest(c, monitor.Options{}, (*ingestLoad).op)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: s.endToEnd()}
	o.attempted, o.failed = s.ops()
	checkIngest(o, loads)
	return o, nil
}

// traceGlobalIngest spans every Deliver. All of an event's work happens
// inside that call, so the monitor layer's self time is the op's cost;
// the set-up's stages get spans of their own.
func traceGlobalIngest(c *config) (*outcome, error) {
	lanes := []*lane{c.spans.lane()}
	var ops [ingestGoroutines]int64
	s, loads, err := measureIngest(c, monitor.Options{}, func(l *ingestLoad, g int) error {
		ln := lanes[g]
		ops[g]++
		ln.setOp(ops[g])
		ln.begin("monitor", "monitor.Thread.Deliver")
		err := l.op(g)
		ln.end()
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: s.endToEnd()}
	o.attempted, o.failed = s.ops()
	checkIngest(o, loads)

	events, err := ingestEventsPerOp(c.seed)
	if err != nil {
		return nil, err
	}
	var h healthSum
	h.add(loads[0].mon)
	led := c.spans.ledger()
	var all int64
	for _, n := range ops {
		all += n
	}
	var deliver time.Duration // the op lanes' monitor time, without set-up spans
	for _, ln := range lanes {
		deliver += ln.selfOf("monitor")
	}
	perOp := float64(deliver.Nanoseconds()) / 1e3 / float64(all)
	o.layers = map[string]float64{
		"monitor.events_per_op": events,
		"monitor.us_per_op":     perOp,
		"monitor.ns_per_event":  perOp * 1e3 / events,
		"automata.compile_ms":   float64(led["automata"].self.Nanoseconds()) / 1e6,
	}
	h.layers(o.layers)
	o.ledger = func(w io.Writer) { printLedger(w, c.spans, all, nil) }
	return o, nil
}

// ingestEventsPerOp counts the program events one Deliver feeds the
// monitor, through a counting tap on a monitor of its own.
func ingestEventsPerOp(seed int64) (float64, error) {
	const n = 1000
	tap := &countingTap{}
	l, err := setupIngest(ingestKeys(seed), monitor.Options{Tap: tap}, nil)
	if err != nil {
		return 0, err
	}
	before := tap.total()
	for i := 0; i < n; i++ {
		if err := l.op(0); err != nil {
			return 0, err
		}
	}
	return float64(tap.total()-before) / n, nil
}
