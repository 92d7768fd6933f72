// tesla-trace works with recorded TESLA event traces (produced by
// `tesla-run -trace` or any trace.Recorder): inspect the timeline, replay
// it offline against the program's automata, delta-debug a violating trace
// to a minimal counterexample, and render the counterexample as the
// automaton path taken.
//
// Usage:
//
//	tesla-trace show trace.tr
//	tesla-trace replay [-overflow policy] trace.tr file.c...
//	tesla-trace shrink [-o min.tr] [-json] [-overflow policy] trace.tr file.c...
//	tesla-trace report [-dot] [-class name] trace.tr file.c...
//	tesla-trace convert [-json] [-o out.tr] trace.tr
//
// Subcommands that rebuild automata (replay, shrink, report) need the same
// csub sources the trace was recorded from; the trace file itself carries
// the automata names and is refused on mismatch. Runs recorded under a
// non-default overflow policy (`tesla-run -overflow ...`) replay and
// shrink faithfully only under the same policy: pass the matching
// -overflow/-quarantine-after/-rearm flags.
//
// Exit status mirrors tesla-run: 1 when a replay detects assertion
// violations, 2 for unusable input (bad usage, unreadable or mismatched
// traces, source build errors).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "show":
		cmdShow(args)
	case "replay":
		cmdReplay(args)
	case "shrink":
		cmdShrink(args)
	case "report":
		cmdReport(args)
	case "convert":
		cmdConvert(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tesla-trace show trace.tr
  tesla-trace replay [-overflow policy] trace.tr file.c...
  tesla-trace shrink [-o min.tr] [-json] [-overflow policy] trace.tr file.c...
  tesla-trace report [-dot] [-class name] trace.tr file.c...
  tesla-trace convert [-json] [-o out.tr] trace.tr

trace.tr may also be a -trace-spool directory from tesla-run: the spool
is recovered (a torn tail from a crash is truncated to the last complete
frame) and its delta cuts are merged into one trace.`)
	os.Exit(2)
}

func cmdShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	// A directory is a write-ahead trace spool (tesla-run -trace-spool):
	// recover it — torn tail and all — and show the merged trace.
	if fi, err := os.Stat(fs.Arg(0)); err == nil && fi.IsDir() {
		tr := loadTrace(fs.Arg(0))
		showHeader(tr.FormatVersion, len(tr.Events), tr.Automata, tr.Dropped)
		for i := range tr.Events {
			fmt.Println(tr.Events[i].String())
		}
		return
	}
	// Binary traces stream event by event (trace.StreamDecoder), so show
	// handles traces far larger than memory; JSON traces fall back to a
	// whole-file load.
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatalCode(2, err)
	}
	defer f.Close()
	sd, err := trace.NewStreamDecoder(f)
	if err != nil {
		// Not a binary trace (or corrupt): let the dual-format loader
		// decide, preserving its diagnostics.
		tr := loadTrace(fs.Arg(0))
		showHeader(tr.FormatVersion, len(tr.Events), tr.Automata, tr.Dropped)
		for i := range tr.Events {
			fmt.Println(tr.Events[i].String())
		}
		return
	}
	showHeader(trace.Version, sd.Len(), sd.Automata(), sd.Dropped())
	for {
		ev, err := sd.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			fatalCode(2, err)
		}
		fmt.Println(ev.String())
	}
}

func showHeader(version, events int, automata []string, dropped uint64) {
	fmt.Printf("trace: format v%d, %d events, %d automata", version, events, len(automata))
	if dropped > 0 {
		fmt.Printf(", %d dropped", dropped)
	}
	fmt.Println()
	for i, name := range automata {
		fmt.Printf("  automaton %d: %s\n", i, name)
	}
}

// policyFlags registers the supervision-policy flags shared by replay and
// shrink and returns a resolver. A run recorded under a non-default
// overflow policy can degrade differently on replay (an instance the live
// run evicted survives a drop-new replay), so reproducing its verdict
// means replaying under the same policy tesla-run used.
func policyFlags(fs *flag.FlagSet) func() monitor.Options {
	overflow := fs.String("overflow", "drop-new", "overflow policy the run was recorded under (drop-new, evict-oldest or quarantine)")
	quarAfter := fs.Int("quarantine-after", 0, "consecutive overflows before quarantine (0 = default)")
	rearm := fs.Int("rearm", 0, "suppressed events before a quarantined class re-arms (0 = default)")
	return func() monitor.Options {
		pol, err := core.ParseOverflowPolicy(*overflow)
		if err != nil {
			fatalCode(2, err)
		}
		return monitor.Options{Overflow: pol, QuarantineAfter: *quarAfter, RearmEvents: *rearm}
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	opts := policyFlags(fs)
	fs.Parse(args)
	if fs.NArg() < 2 {
		usage()
	}
	tr := loadTrace(fs.Arg(0))
	autos := buildAutos(fs.Args()[1:])
	res, err := trace.ReplayOpts(tr, autos, opts())
	if err != nil {
		fatalCode(2, err)
	}
	for name, n := range res.Accepts {
		fmt.Printf("%s: %d acceptance(s)\n", name, n)
	}
	if len(res.Violations) == 0 {
		fmt.Printf("replay of %d events: all assertions held\n", len(tr.Events))
		return
	}
	fmt.Printf("replay of %d events: %d violation(s):\n", len(tr.Events), len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  %v\n", v)
	}
	os.Exit(1)
}

func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	out := fs.String("o", "", "write the minimal trace here (default stdout)")
	asJSON := fs.Bool("json", false, "write the minimal trace as JSON")
	opts := policyFlags(fs)
	fs.Parse(args)
	if fs.NArg() < 2 {
		usage()
	}
	tr := loadTrace(fs.Arg(0))
	autos := buildAutos(fs.Args()[1:])
	res, err := trace.ShrinkOpts(tr, autos, opts())
	if err != nil {
		fatalCode(2, err)
	}
	fmt.Fprintf(os.Stderr, "shrink: %s: kept %d of %d program event(s)\n",
		res.Target, res.Kept, res.Kept+res.Removed)
	writeTrace(res.Trace, *out, *asJSON)
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dot := fs.Bool("dot", false, "emit the automaton path as Graphviz DOT")
	class := fs.String("class", "", "automaton to render (default: the first violation's)")
	fs.Parse(args)
	if fs.NArg() < 2 {
		usage()
	}
	tr := loadTrace(fs.Arg(0))
	autos := buildAutos(fs.Args()[1:])
	if *dot {
		g, err := trace.Dot(tr, autos, *class)
		if err != nil {
			fatalCode(2, err)
		}
		fmt.Print(g)
		return
	}
	if err := trace.Report(os.Stdout, tr, autos); err != nil {
		fatal(err)
	}
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output path (default stdout)")
	asJSON := fs.Bool("json", false, "write JSON instead of binary")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	writeTrace(loadTrace(fs.Arg(0)), *out, *asJSON)
}

// loadTrace reads a trace in any of its at-rest forms: binary file, JSON
// file, or a write-ahead spool directory left by tesla-run -trace-spool
// (recovered to the longest valid prefix, deltas merged in order; what the
// repair cut away is noted on stderr).
func loadTrace(path string) *trace.Trace {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		tr, rec, err := trace.ReadSpool(path)
		if note := rec.Note(); note != "" {
			fmt.Fprintf(os.Stderr, "tesla-trace: spool %s %s\n", path, note)
		}
		if err != nil {
			fatalCode(2, err)
		}
		return tr
	}
	f, err := os.Open(path)
	if err != nil {
		fatalCode(2, err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatalCode(2, err)
	}
	return tr
}

func writeTrace(tr *trace.Trace, path string, asJSON bool) {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	var err error
	if asJSON {
		err = trace.WriteJSON(w, tr)
	} else {
		err = trace.Write(w, tr)
	}
	if err != nil {
		fatal(err)
	}
}

func buildAutos(paths []string) []*automata.Automaton {
	sources := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatalCode(2, err)
		}
		sources[path] = string(data)
	}
	build, err := toolchain.BuildProgram(sources, true)
	if err != nil {
		fatalCode(2, err)
	}
	return build.Autos
}

func fatal(err error) { fatalCode(1, err) }

// fatalCode exits with the given status: 2 marks unusable input (bad trace,
// bad sources), distinct from 1 (violations found on replay).
func fatalCode(code int, err error) {
	fmt.Fprintln(os.Stderr, "tesla-trace:", err)
	os.Exit(code)
}
