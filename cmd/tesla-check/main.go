// tesla-check is the static model checker: it builds csub source files
// through the build graph, walks the linked program's control-flow graph
// against every assertion automaton, and classifies each assertion as
// PROVABLY-SAFE (its instrumentation can be elided), PROVABLY-FAILING (a
// compile-time error: the assertion cannot hold in any completing run) or
// NEEDS-RUNTIME.
//
// PROVABLY-SAFE now covers liveness too: «eventually» obligations whose
// discharge the refinement pass proves (counted-loop ranking, pruned
// infeasible branches) are reported with their proof lines. Where the
// proof fails, the missing □◇ fairness assumption is printed as an
// obligation line (and carried structurally in the -json output).
//
// Usage:
//
//	tesla-check [-entry main] [-dot] [-json] [-q] file.c...
//
// The exit status is 1 when any assertion is PROVABLY-FAILING, 2 on usage
// or compilation errors, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"tesla/internal/staticcheck"
	"tesla/internal/toolchain"
	"tesla/internal/toolchain/cli"
)

func main() {
	tool := cli.New("tesla-check", "[-entry main] [-dot] [-json] [-q] file.c...")
	entry := flag.String("entry", "main", "program entry point the analysis starts from")
	dot := flag.Bool("dot", false, "dump each assertion's explored product graph as Graphviz")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (stable field order) instead of text")
	quiet := flag.Bool("q", false, "only print non-SAFE assertions")
	sources := tool.LoadSources(tool.ParseSourceArgs())

	b, err := toolchain.BuildProgramOpts(sources, toolchain.BuildOptions{Check: true, Entry: *entry})
	if err != nil {
		tool.FatalCode(2, err)
	}
	rep := b.Report

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			tool.FatalCode(2, err)
		}
	} else if *dot {
		for _, r := range rep.Results {
			if *quiet && r.Verdict == staticcheck.Safe {
				continue
			}
			r.WriteText(os.Stdout)
			fmt.Print(r.Dot())
		}
		rep.Summary(os.Stdout)
	} else {
		rep.WriteText(os.Stdout, *quiet)
	}
	_, failing, _ := rep.Counts()
	if failing > 0 {
		os.Exit(1)
	}
}
