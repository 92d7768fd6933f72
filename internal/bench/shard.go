package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tesla/internal/core"
)

// FigShard measures the global store with one lock stripe against eight on
// an OLTP-shaped workload: a pool of keyed sessions (mirroring the SysBench
// transaction mix of figure 11b, where every transaction drives events for
// one connection's binding) updated from a growing number of goroutines,
// with a required assertion-site event every few transactions. One stripe is
// §3.2's single explicit lock: every event serialises on it. Eight stripes
// let events for unrelated keys proceed in parallel. Both sides pay the same
// O(1) index lookups per event, so the figure isolates lock striping.
// Events go through plans lowered once, so the figure prices the event path,
// not plan construction.

const (
	// shardFigSessions is the live-session pool; it is deliberately much
	// smaller than shardFigLimit, as in the kernel workloads where
	// instance limits are sized for the worst case.
	shardFigSessions = 128
	shardFigLimit    = 1024
	shardFigKeysPerG = 16
)

// shardFigMeasure drives total events of the session workload through a
// store built from opts, from g goroutines on disjoint key ranges, and
// returns events/sec. The session automaton: «init» binds the connection
// (slot 0), work events toggle it between two mid states, and the required
// site event self-loops — reaching the assertion site with a live session is
// the success path.
func shardFigMeasure(opts core.StoreOpts, g, total int) float64 {
	cls := &core.Class{Name: "session", States: 8, Limit: shardFigLimit}
	s := core.NewStoreOpts(opts)
	s.Register(cls)
	enter := core.NewSymbolPlan(cls, "enter", 0, core.TransitionSet{{From: 0, To: 1, Flags: core.TransInit, KeyMask: 1}})
	work := core.NewSymbolPlan(cls, "work", 0, core.TransitionSet{{From: 1, To: 2, KeyMask: 1}, {From: 2, To: 1, KeyMask: 1}})
	site := core.NewSymbolPlan(cls, "site", core.SymRequired, core.TransitionSet{{From: 1, To: 1, KeyMask: 1}, {From: 2, To: 2, KeyMask: 1}})
	for k := 0; k < shardFigSessions; k++ {
		s.UpdateStatePlan(enter, core.NewKey(core.Value(k)))
	}

	perG := total / g
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			base := (t * shardFigKeysPerG) % shardFigSessions
			for i := 0; i < perG; i++ {
				key := core.NewKey(core.Value(base + i%shardFigKeysPerG))
				if i%8 == 7 {
					s.UpdateStatePlan(site, key)
				} else {
					s.UpdateStatePlan(work, key)
				}
			}
		}(t)
	}
	wg.Wait()
	return float64(perG*g) / time.Since(start).Seconds()
}

// FigShard prints events/sec against goroutine count for the global store at
// one stripe and at eight. The two stores are measured in
// interleaved rounds per goroutine count so scheduler drift does not bias
// either side; the best round is reported, as is conventional for
// throughput.
func FigShard(w io.Writer, iters int) error {
	total := iters * 8
	if total < 16000 {
		total = 16000
	}
	// The striped rung is fixed at 8 stripes across the ladder so the
	// figure varies exactly one thing (goroutines); 0 would track
	// GOMAXPROCS and confound the comparison on small hosts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	fmt.Fprintln(w, "Figure shard: global store throughput, 1 stripe vs 8 stripes (OLTP sessions)")
	fmt.Fprintf(w, "  %-12s %14s %14s %10s\n", "goroutines", "1-stripe ev/s", "8-stripe ev/s", "speedup")
	const rounds = 3
	for _, g := range []int{1, 2, 4, 8} {
		var one, eight float64
		for r := 0; r < rounds; r++ {
			if v := shardFigMeasure(core.StoreOpts{Context: core.Global, Shards: 1}, g, total); v > one {
				one = v
			}
			if v := shardFigMeasure(core.StoreOpts{Context: core.Global, Shards: 8}, g, total); v > eight {
				eight = v
			}
		}
		fmt.Fprintf(w, "  %-12d %14.0f %14.0f %9.2fx\n", g, one, eight, eight/one)
	}
	fmt.Fprintln(w, "  reproduction shape: one stripe serialises every event on §3.2's single")
	fmt.Fprintln(w, "  lock; eight stripes let unrelated keys proceed in parallel, so throughput")
	fmt.Fprintln(w, "  holds (or grows) with goroutines instead of queueing on one lock")
	fmt.Fprintln(w)
	return nil
}
