package build_test

import (
	"fmt"
	"strings"
	"testing"

	"tesla/internal/bench"
	"tesla/internal/build"
)

// TestKeptGraphMatchesForgotten: a build on a cache that kept its last
// graph reports what a build on a cache made to forget it does — the same
// node IDs, statuses, keys and errors — and links the same program,
// through body and assertion edits, a revert and a no-op, a sources map
// mutated in place, a compile error and its fix, interface edits (a
// global added; the hooked function renamed away and back), a file added
// (empty, then filled, then emptied) and removed, and Check and Elide
// toggled. The forgetting
// cache wires a fresh graph for every build, each node deriving its key
// and looking it up; the keeping one visits only the nodes whose inputs
// changed.
func TestKeptGraphMatchesForgotten(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "disk"}[disk], func(t *testing.T) {
			cache := func() *build.Cache {
				if !disk {
					return build.NewCache()
				}
				c, err := build.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			kept, forgot := cache(), cache()
			instrument := build.Options{Instrument: true}
			checked := build.Options{Instrument: true, Check: true}
			elided := build.Options{Instrument: true, Check: true, Elide: true}

			base := threeFiles()
			sources := copySources(base)
			steps := []struct {
				what string
				opts build.Options
				edit func()
			}{
				{"cold", instrument, func() {}},
				{"body edit", instrument, func() {
					sources = copySources(sources)
					sources["lib.c"] = "\nint checksum(int x) { return x % 89; }\n"
				}},
				{"assertion edit", instrument, func() {
					sources = copySources(sources)
					sources["client.c"] = strings.Replace(sources["client.c"], "== 1", "== 0", 1)
				}},
				{"revert", instrument, func() { sources = copySources(base) }},
				{"no-op", instrument, func() {}},
				{"edit in place", instrument, func() {
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "return 0;", "return c;", 1)
				}},
				{"compile error", instrument, func() {
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "return c;", "nosuch = c; return c;", 1)
				}},
				{"fix", instrument, func() {
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "nosuch = c; return c;", "return c;", 1)
				}},
				{"interface edit", instrument, func() {
					sources["lib.c"] += "int salt = 5;\n"
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "checksum(sig);", "checksum(sig) + salt;", 1)
				}},
				{"hooked function undefined", instrument, func() {
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "int verify(", "int verify_v2(", 1)
				}},
				{"hooked function defined", instrument, func() {
					sources["crypto.c"] = strings.Replace(sources["crypto.c"], "int verify_v2(", "int verify(", 1)
				}},
				{"file added empty", instrument, func() { sources["extra.c"] = "" }},
				{"file filled", instrument, func() { sources["extra.c"] = "int extra(int x) { return checksum(x) + 1; }\n" }},
				{"file emptied", instrument, func() { sources["extra.c"] = "" }},
				{"file removed", instrument, func() { delete(sources, "extra.c") }},
				{"check", checked, func() {}},
				{"check no-op", checked, func() {}},
				{"elide", elided, func() {}},
				{"elide body edit", elided, func() {
					sources["lib.c"] = "\nint checksum(int x) { return x % 83; }\n"
				}},
				{"elide off", checked, func() {}},
				{"check off", instrument, func() {}},
			}
			for _, step := range steps {
				step.edit()
				opts := step.opts
				opts.Cache = kept
				got, gotErr := build.Run(sources, opts)
				forgot.ForgetGraph()
				opts.Cache = forgot
				want, wantErr := build.Run(sources, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: kept graph's error %v, a fresh graph's %v", step.what, gotErr, wantErr)
				}
				if g, w := reportLines(got), reportLines(want); g != w {
					t.Fatalf("%s: kept graph reported\n%s\na fresh graph\n%s", step.what, g, w)
				}
				if strings.HasSuffix(step.what, "no-op") {
					// The kept graph visits no node; the fresh one all.
					for i := range got.Nodes {
						if got.Nodes[i].Dur != 0 || want.Nodes[i].Dur == 0 {
							t.Fatalf("%s: %s took %v on the kept graph, %v on a fresh one", step.what, got.Nodes[i].ID, got.Nodes[i].Dur, want.Nodes[i].Dur)
						}
					}
				}
				if (gotErr != nil) != (step.what == "compile error") {
					t.Fatalf("%s: error %v", step.what, gotErr)
				}
				if gotErr != nil {
					continue
				}
				if g, w := got.Program.String(), want.Program.String(); g != w {
					t.Fatalf("%s: kept graph linked\n%s\na fresh graph\n%s", step.what, g, w)
				}
			}
		})
	}
}

// reportLines prints each node's ID, status, key and error, one a line.
func reportLines(res *build.Result) string {
	var b strings.Builder
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "%s %s %s %v\n", n.ID, n.Status, n.Key, n.Err)
	}
	return b.String()
}

// BenchmarkRebuild prices the rebuilds of the 26-file codebase on one
// memory cache, after a cold build: a no-op, a body edit to one library
// file and an assertion edit to the client. Each edit writes a value no
// earlier build saw, so every edited build does real work; the edited
// sources are made before the timer starts.
func BenchmarkRebuild(b *testing.B) {
	for _, bc := range []struct{ name, file, old, new string }{
		{"noop", "", "", ""},
		{"body", "ssl_s3_5.c", "x = a * 3 + b;", "x = a * %d + b;"},
		{"assert", "client.c", "== 1));", "== %d));"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sources := bench.OpenSSLCodebase(24, 8)
			opts := build.Options{Instrument: true, Cache: build.NewCache()}
			if _, err := build.Run(sources, opts); err != nil {
				b.Fatal(err)
			}
			edited := make([]string, b.N)
			for i := range edited {
				if bc.file != "" {
					edited[i] = strings.Replace(sources[bc.file], bc.old, fmt.Sprintf(bc.new, 4+i), 1)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.file != "" {
					sources[bc.file] = edited[i]
				}
				if _, err := build.Run(sources, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
