package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tesla/internal/toolchain"
)

var update = flag.Bool("update", false, "rewrite the JSON golden files")

// TestJSONGoldens pins the machine-readable report for every example
// program, byte for byte, under the same source names tesla-check would
// use from the repository root — so `tesla-check -json
// examples/staticcheck/testdata/x.c` matches `x.golden.json` exactly.
// Each report is rendered twice; any divergence between the runs is a
// determinism regression (map-ordered reasons or obligations).
func TestJSONGoldens(t *testing.T) {
	for _, name := range []string{"safe.c", "doomed.c", "liveness.c"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			key := "examples/staticcheck/" + filepath.ToSlash(path)
			render := func() []byte {
				b, err := toolchain.BuildProgramOpts(map[string]string{key: string(text)},
					toolchain.BuildOptions{Check: true, Entry: "main"})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := b.Report.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			got := render()
			if again := render(); !bytes.Equal(got, again) {
				t.Fatalf("JSON report not deterministic across runs:\n--- first\n%s\n--- second\n%s", got, again)
			}

			golden := filepath.Join("testdata", name[:len(name)-2]+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("JSON report drifted from %s (run with -update to regenerate):\n--- got\n%s\n--- want\n%s",
					golden, got, want)
			}
		})
	}
}
