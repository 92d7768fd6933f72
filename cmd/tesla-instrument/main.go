// tesla-instrument runs the TESLA instrumenter (§4.2) over csub sources:
// it compiles each file to IR, instruments it against the manifest analysed
// from the same sources, links, and reports what was inserted. With -dump
// the instrumented IR is printed.
//
// Usage:
//
//	tesla-instrument [-dump] [-strip] file.c...
package main

import (
	"flag"
	"fmt"

	"tesla/internal/toolchain"
	"tesla/internal/toolchain/cli"
)

func main() {
	tool := cli.New("tesla-instrument", "[-dump] [-strip] file.c...")
	dump := flag.Bool("dump", false, "print the linked instrumented IR")
	strip := flag.Bool("strip", false, "produce the uninstrumented (Default) build instead")
	sources := tool.LoadSources(tool.ParseSourceArgs())

	build, err := toolchain.BuildProgram(sources, !*strip)
	if err != nil {
		tool.Fatal(err)
	}

	fmt.Printf("modules: %d  functions: %d\n", len(build.Units), len(build.Program.Funcs))
	if !*strip {
		fmt.Printf("automata: %d  hooks: %d  translators: %d  sites: %d\n",
			len(build.Autos), build.Stats.Hooks, build.Stats.Translators, build.Stats.Sites)
	}
	if *dump {
		fmt.Print(build.Program.String())
	}
}
