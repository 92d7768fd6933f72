package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// FigIngest measures the monitor's event ingest plane: the synchronous
// reference path (one global-store round trip per event) against the
// batched per-thread event plane (Options.BatchSize > 0, staged rings
// applied in runs via core.UpdateBatch). The workload is the generated-
// translator path — Thread.Deliver of pre-matched keyed events into a
// global-context automaton from a growing number of goroutines on disjoint
// key ranges — so the figure isolates exactly what batching amortises:
// stripe locking, lock planning and handler dispatch per event.
//
// Methodology differs from the other throughput figures on purpose: every
// rung runs under the shared noise gate (noise.go) — measured noiseIters
// times, best-of reported, failing on >10% trimmed cross-run spread after
// one retry with a doubled workload.

const (
	ingestKeysPerG = 16
	ingestBatch    = 256
	ingestShards   = 8
)

// ingestAutomaton compiles the global-context session automaton once per
// measurement (stores are not reusable across monitors).
func ingestAutomaton() (*automata.Automaton, int, error) {
	a, err := spec.Parse("ingest",
		`TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0))`, nil)
	if err != nil {
		return nil, 0, err
	}
	auto, err := automata.Compile(a)
	if err != nil {
		return nil, 0, err
	}
	for _, sym := range auto.Symbols {
		if sym.Fn == "prepare" {
			return auto, sym.ID, nil
		}
	}
	return nil, 0, fmt.Errorf("bench: ingest automaton has no prepare symbol")
}

// ingestRun drives total pre-matched events through one monitor from g
// goroutines (one monitor thread each, disjoint ranges of keysPerG keys)
// and returns aggregate events/sec. The timed region includes the final
// drain: the batched plane only gets credit for events the store has
// actually absorbed.
func ingestRun(o monitor.Options, g, keysPerG, total int) (float64, error) {
	auto, symID, err := ingestAutomaton()
	if err != nil {
		return 0, err
	}
	m, err := monitor.New(o, auto)
	if err != nil {
		return 0, err
	}
	idx := m.AutoIndex("ingest")

	ths := make([]*monitor.Thread, g)
	for t := range ths {
		ths[t] = m.NewThread()
		// Open the bound once per thread so instances are live and events
		// hit the store's update path, not the pre-init fast path.
		ths[t].Call("start_op")
	}

	perG := total / g
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			th := ths[t]
			base := t * keysPerG
			for i := 0; i < perG; i++ {
				th.Deliver(idx, symID, core.Value(base+i%keysPerG))
			}
		}(t)
	}
	wg.Wait()
	if err := m.Drain(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	return float64(perG*g) / elapsed.Seconds(), nil
}

// FigIngestMeasure is one ingest data point: batch == 0 selects the
// synchronous reference path.
func FigIngestMeasure(batch, g, total int) (float64, error) {
	return ingestRun(monitor.Options{BatchSize: batch, GlobalShards: ingestShards}, g, ingestKeysPerG, total)
}

// ingestRung measures one (batch, g) rung under the shared noise gate.
func ingestRung(batch, g, total int) (best, noise float64, err error) {
	return noiseRung(total, func(n int) (float64, error) {
		return FigIngestMeasure(batch, g, n)
	})
}

// FigIngest prints aggregate events/sec for the synchronous and batched
// event planes against goroutine count. It returns an error when any rung's
// cross-run noise exceeds 10% after a retry with a doubled workload — a
// figure that unstable is not evidence.
func FigIngest(w io.Writer, iters int) error {
	total := iters * 50
	if total < 100000 {
		total = 100000
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	fmt.Fprintln(w, "Figure ingest: monitor event ingest, synchronous vs batched event plane")
	fmt.Fprintf(w, "  (batch ring %d, %d stripes, %d keys/goroutine, best of %d runs, middle-3 noise <= 10%%)\n",
		ingestBatch, ingestShards, ingestKeysPerG, noiseIters)
	fmt.Fprintf(w, "  %-12s %14s %14s %10s %16s\n", "goroutines", "sync ev/s", "batched ev/s", "speedup", "noise sync/bat")

	var noisy []string
	var speedupAt8 float64
	for _, g := range []int{1, 2, 4, 8} {
		syncBest, syncNoise, err := ingestRung(0, g, total)
		if err != nil {
			return err
		}
		batBest, batNoise, err := ingestRung(ingestBatch, g, total)
		if err != nil {
			return err
		}
		syncBest, syncNoise = noiseRetry(syncBest, syncNoise, total, func(n int) (float64, error) {
			return FigIngestMeasure(0, g, n)
		})
		batBest, batNoise = noiseRetry(batBest, batNoise, total, func(n int) (float64, error) {
			return FigIngestMeasure(ingestBatch, g, n)
		})
		if syncNoise > noiseGate || batNoise > noiseGate {
			noisy = append(noisy, fmt.Sprintf("g=%d (sync %.1f%%, batched %.1f%%)",
				g, syncNoise*100, batNoise*100))
		}
		speedup := batBest / syncBest
		if g == 8 {
			speedupAt8 = speedup
		}
		fmt.Fprintf(w, "  %-12d %14.0f %14.0f %9.2fx %7.1f%% /%5.1f%%\n",
			g, syncBest, batBest, speedup, syncNoise*100, batNoise*100)
	}
	fmt.Fprintf(w, "  ingest: batched/sync at 8 goroutines = %.2fx (target >= 3x)\n", speedupAt8)
	fmt.Fprintln(w, "  reproduction shape: the synchronous path pays a stripe lock round and")
	fmt.Fprintln(w, "  a handler dispatch per event; the batched plane stages events in the")
	fmt.Fprintln(w, "  thread's ring and applies them in runs, so the per-event cost that is")
	fmt.Fprintln(w, "  left is the transition work itself and throughput scales with goroutines")
	fmt.Fprintln(w)
	if len(noisy) > 0 {
		return fmt.Errorf("bench: ingest figure too noisy (>10%% trimmed spread): %s",
			strings.Join(noisy, ", "))
	}
	return nil
}
