//go:build !race

package build_test

// Allocation regressions for artifact encoding. The file is excluded under
// -race, where sync.Pool drops items at random, so neither the codec's
// pooled encoder nor the scheduler's pooled buffer can stay warm.

import (
	"testing"

	"tesla/internal/build"
	"tesla/internal/ir"
	"tesla/internal/toolchain"
)

// TestEncodeModuleAllocs: re-encoding a linked program into the buffer the
// last encode returned costs at most one allocation — the module codec
// appends without reflection or scratch buffers — and a built node's
// encode reuses the scheduler's pooled buffer, so running the largest
// corpus program's link node allocates no more than a one-function
// module's. ExecModuleNode gives the node a dependent, so it encodes on
// every run (a link node without one never encodes).
func TestEncodeModuleAllocs(t *testing.T) {
	var prog *ir.Module
	var size int
	for name, sources := range corpus(t) {
		b, err := toolchain.BuildProgramOpts(sources, toolchain.BuildOptions{Instrument: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := len(b.Program.AppendBinary(nil)); n > size {
			prog, size = b.Program, n
		}
	}

	t.Run("codec", func(t *testing.T) {
		encode := build.EncodeModuleArtifact(prog)
		buf, err := encode(nil) // warm-up: grows the buffer and the encoder pool
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			buf, err = encode(buf[:0])
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 1 {
			t.Fatalf("re-encoding a %d-byte program allocated %.1f times per run, want <= 1", size, allocs)
		}
	})

	t.Run("scheduler", func(t *testing.T) {
		tiny := &ir.Module{Name: "tiny", Funcs: []*ir.Func{{Name: "main", Blocks: []*ir.Block{{
			Name: "entry", Instrs: []ir.Instr{{Op: ir.OpRet}},
		}}}}}
		big, small := build.ExecModuleNode(prog), build.ExecModuleNode(tiny)
		big() // warm-up: grows the pooled buffer to the program's size
		bigAllocs, smallAllocs := testing.AllocsPerRun(20, big), testing.AllocsPerRun(20, small)
		if bigAllocs > smallAllocs {
			t.Fatalf("building a %d-byte program's node allocated %.1f times, a one-instruction module's %.1f: the encode buffer is not reused",
				size, bigAllocs, smallAllocs)
		}
	})
}
