// tesla-bench regenerates the paper's evaluation tables and figures (§5)
// against the simulated substrates. Absolute numbers reflect this machine
// and the simulator; the within-figure comparisons are the reproduction
// target. See EXPERIMENTS.md for the recorded paper-vs-measured shapes.
//
// Usage:
//
//	tesla-bench -all
//	tesla-bench -table 1
//	tesla-bench -fig 9|10|11a|11b|12|13|14a|14b|elide|trace|shard|rebuild|faults|agg|ingest
//
// -fig elide (alias: elision) prints the hook/instruction counts of the
// three elision rungs: full instrumentation, safety-only elision, and
// elision with the liveness refinement.
package main

import (
	"flag"
	"fmt"
	"os"

	"tesla/internal/bench"
)

func main() {
	all := flag.Bool("all", false, "run everything")
	table := flag.String("table", "", "regenerate a table (1)")
	fig := flag.String("fig", "", "regenerate a figure (9, 10, 11a, 11b, 12, 13, 14a, 14b, elide, trace, shard, rebuild, faults, agg, ingest)")
	iters := flag.Int("iters", 2000, "iterations per measurement")
	files := flag.Int("files", 24, "files in the figure 10 synthetic codebase")
	flag.Parse()

	if !*all && *table == "" && *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: tesla-bench -all | -table 1 | -fig 9|10|11a|11b|12|13|14a|14b|elide|trace|shard|rebuild|faults|agg|ingest")
		os.Exit(2)
	}

	w := os.Stdout
	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "tesla-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	want := func(name string) bool { return *all || *table == name || *fig == name }

	if want("1") && *fig == "" {
		bench.Table1(w)
	}
	if want("9") && *table == "" {
		run("fig9", func() error { return bench.Fig9(w, *iters) })
	}
	if want("10") && *table == "" {
		run("fig10", func() error { return bench.Fig10(w, *files, 6) })
	}
	if want("11a") {
		run("fig11a", func() error { return bench.Fig11a(w, *iters) })
	}
	if want("11b") {
		run("fig11b", func() error { return bench.Fig11b(w, *iters) })
	}
	if want("12") {
		run("fig12", func() error { return bench.Fig12(w, *iters) })
	}
	if want("13") {
		run("fig13", func() error { return bench.Fig13(w, *iters) })
	}
	if want("14a") {
		bench.Fig14a(w, *iters*10)
	}
	if want("14b") {
		run("fig14b", func() error { return bench.Fig14b(w, 256) })
	}
	if want("elision") || want("elide") {
		run("elision", func() error { return bench.Elision(w, *files, 6) })
	}
	if want("trace") {
		run("trace", func() error { return bench.TraceOverhead(w, *iters) })
	}
	if want("shard") {
		run("shard", func() error { return bench.FigShard(w, *iters) })
	}
	if want("rebuild") {
		run("rebuild", func() error { return bench.FigRebuild(w, *files, 6) })
	}
	if want("faults") {
		run("faults", func() error { return bench.FigFaults(w, *iters) })
	}
	if want("agg") {
		run("agg", func() error { return bench.FigAgg(w, *iters) })
	}
	if want("ingest") {
		run("ingest", func() error { return bench.FigIngest(w, *iters) })
	}
}
