// tesla-bench regenerates the paper's evaluation tables and figures (§5)
// against the simulated substrates. Absolute numbers reflect this machine
// and the simulator; the within-figure comparisons are the reproduction
// target. See EXPERIMENTS.md for the recorded paper-vs-measured shapes.
//
// Usage:
//
//	tesla-bench -all
//	tesla-bench -table 1
//	tesla-bench -fig 9|10|11a|11b|12|13|14a|14b|elide|agg|ingest
//
// -fig elide (alias: elision) prints the hook/instruction counts of the
// three elision rungs: full instrumentation, safety-only elision, and
// elision with the liveness refinement. An unknown -table or -fig name, or
// an -iters below 1, exits 2 with the usage line. Each of figs. 11a-14b
// times -iters operations of every case in its internal/bench case list,
// the same cases the root-level BenchmarkFig* benchmarks run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tesla/internal/bench"
)

// params are the sizing flags every runner may read.
type params struct{ iters, files int }

// runner regenerates one table or figure.
type runner struct {
	name string
	run  func(w io.Writer, p params) error
}

var tables = []runner{
	{"1", func(w io.Writer, _ params) error { bench.Table1(w); return nil }},
}

// figures are listed in -all order.
var figures = []runner{
	{"9", func(w io.Writer, p params) error { return bench.Fig9(w, p.iters) }},
	{"10", func(w io.Writer, p params) error { return bench.Fig10(w, p.files, 6) }},
	{"11a", func(w io.Writer, p params) error { return bench.Fig11a(w, p.iters) }},
	{"11b", func(w io.Writer, p params) error { return bench.Fig11b(w, p.iters) }},
	{"12", func(w io.Writer, p params) error { return bench.Fig12(w, p.iters) }},
	{"13", func(w io.Writer, p params) error { return bench.Fig13(w, p.iters) }},
	{"14a", func(w io.Writer, p params) error { return bench.Fig14a(w, p.iters) }},
	{"14b", func(w io.Writer, p params) error { return bench.Fig14b(w, p.iters) }},
	{"elide", func(w io.Writer, p params) error { return bench.Elision(w, p.files, 6) }},
	{"agg", func(w io.Writer, p params) error { return bench.FigAgg(w, p.iters) }},
	{"ingest", func(w io.Writer, p params) error { return bench.FigIngest(w, p.iters) }},
}

func names(rs []runner) string {
	s := make([]string, len(rs))
	for i, r := range rs {
		s[i] = r.name
	}
	return strings.Join(s, "|")
}

func usage() string {
	return "usage: tesla-bench -all | -table " + names(tables) + " | -fig " + names(figures)
}

func lookup(rs []runner, name string) (runner, bool) {
	for _, r := range rs {
		if r.name == name {
			return r, true
		}
	}
	return runner{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns 2 on a usage error (including an
// unknown -table or -fig name or an -iters below 1), 1 when a runner fails
// and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tesla-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "run everything")
	table := fs.String("table", "", "regenerate a table ("+names(tables)+")")
	fig := fs.String("fig", "", "regenerate a figure ("+names(figures)+")")
	iters := fs.Int("iters", 2000, "iterations per measurement")
	files := fs.Int("files", 24, "files in the figure 10 synthetic codebase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *iters < 1 {
		fmt.Fprintf(stderr, "tesla-bench: -iters %d, want at least 1\n", *iters)
		fmt.Fprintln(stderr, usage())
		return 2
	}

	var todo []runner
	if *table != "" {
		r, ok := lookup(tables, *table)
		if !ok {
			fmt.Fprintf(stderr, "tesla-bench: unknown table %q\n", *table)
			fmt.Fprintln(stderr, usage())
			return 2
		}
		todo = append(todo, r)
	}
	if *fig != "" {
		name := *fig
		if name == "elision" { // the figure's older name
			name = "elide"
		}
		r, ok := lookup(figures, name)
		if !ok {
			fmt.Fprintf(stderr, "tesla-bench: unknown figure %q\n", *fig)
			fmt.Fprintln(stderr, usage())
			return 2
		}
		todo = append(todo, r)
	}
	if *all {
		todo = append(append([]runner(nil), tables...), figures...)
	}
	if len(todo) == 0 {
		fmt.Fprintln(stderr, usage())
		return 2
	}

	p := params{iters: *iters, files: *files}
	for _, r := range todo {
		if err := r.run(stdout, p); err != nil {
			fmt.Fprintf(stderr, "tesla-bench: %s: %v\n", r.name, err)
			return 1
		}
	}
	return 0
}
