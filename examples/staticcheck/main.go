// Command staticcheck demonstrates the compile-time model checker: one
// assertion is proved safe (its instrumentation is elided), one is proved
// doomed (reported without ever running the program), and one carries a
// liveness obligation only the refinement pass can discharge (counted
// flush loop → PROVABLY-SAFE with proof lines, hooks elided).
//
//	go run ./examples/staticcheck
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tesla/internal/toolchain"
)

func main() {
	dir := "examples/staticcheck/testdata"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	for _, name := range []string{"safe.c", "doomed.c", "liveness.c"} {
		text, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sources := map[string]string{name: string(text)}

		// Build twice to show the elision payoff for the safe program; the
		// checked build carries the verdicts.
		full, err := toolchain.BuildProgramOpts(sources, toolchain.BuildOptions{Instrument: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		elided, err := toolchain.BuildProgramOpts(sources, toolchain.BuildOptions{
			Instrument: true, Check: true, Elide: true, Entry: "main",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("== %s\n", name)
		for _, r := range elided.Report.Results {
			fmt.Printf("  %-22s %s\n", r.Automaton.Name, r.Verdict)
			for _, reason := range r.Reasons {
				fmt.Printf("    - %s\n", reason)
			}
			for _, p := range r.Proof {
				fmt.Printf("    - %s\n", p)
			}
			for _, o := range r.Obligations {
				fmt.Printf("    - obligation: %s\n", o.Detail)
			}
		}
		fmt.Printf("  hooks: %d without checker, %d with elision (%d elided)\n",
			full.Stats.Hooks, elided.Stats.Hooks, elided.Stats.ElidedHooks)
	}
}
