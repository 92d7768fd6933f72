// tesla-analyse is the TESLA analyser (§4.1): it builds csub source files
// through the build graph, which extracts the TESLA assertions in them, and
// writes .tesla manifest files — one per source plus a combined program
// manifest. With -lint it also runs the static checker and reports
// assertions whose events can never occur or that provably fail.
//
// Usage:
//
//	tesla-analyse [-o combined.tesla] [-print] [-lint] [-entry main] file.c...
package main

import (
	"flag"
	"fmt"
	"os"

	"tesla/internal/analyse"
	"tesla/internal/build"
	"tesla/internal/manifest"
	"tesla/internal/toolchain/cli"
)

func main() {
	tool := cli.New("tesla-analyse", "[-o combined.tesla] [-print] [-lint] [-entry main] file.c...")
	out := flag.String("o", "", "path for the combined program manifest (default: program.tesla)")
	print := flag.Bool("print", false, "print manifests to stdout instead of writing files")
	lint := flag.Bool("lint", false, "also report assertions whose events can never occur")
	entry := flag.String("entry", "main", "entry point for the -lint static checker")
	sources := tool.LoadSources(tool.ParseSourceArgs())

	res, err := build.Run(sources, build.Options{Check: *lint, Entry: *entry})
	if err != nil {
		tool.Fatal(err)
	}

	if *lint {
		warnings, err := analyse.Lint(res)
		if err != nil {
			tool.Fatal(err)
		}
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "warning: %s\n", w)
		}
	}

	if *print {
		for i, name := range res.Names {
			m := res.Fragments[i]
			fmt.Printf("; %s (%d assertions)\n", name, len(m.Assertions))
			if err := m.Encode(os.Stdout); err != nil {
				tool.Fatal(err)
			}
		}
		fmt.Printf("; combined (%d assertions)\n", len(res.Manifest.Assertions))
		if err := res.Manifest.Encode(os.Stdout); err != nil {
			tool.Fatal(err)
		}
		return
	}

	for i, name := range res.Names {
		m := res.Fragments[i]
		path := name + manifest.Ext
		if err := m.Save(path); err != nil {
			tool.Fatal(err)
		}
		fmt.Printf("wrote %s (%d assertions)\n", path, len(m.Assertions))
	}
	target := *out
	if target == "" {
		target = "program" + manifest.Ext
	}
	if err := res.Manifest.Save(target); err != nil {
		tool.Fatal(err)
	}
	fmt.Printf("wrote %s (%d assertions)\n", target, len(res.Manifest.Assertions))
}
