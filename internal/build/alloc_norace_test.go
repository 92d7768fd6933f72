//go:build !race

package build_test

// Allocation regressions for artifact encoding, instrumentation and the
// build graph's own bookkeeping. The file is excluded under
// -race, where sync.Pool drops items at random, so neither the codec's
// pooled encoder nor the scheduler's pooled buffer can stay warm.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tesla/internal/bench"
	"tesla/internal/build"
	"tesla/internal/ir"
	"tesla/internal/toolchain"
)

// TestEncodeModuleAllocs: re-encoding a linked program into the buffer the
// last encode returned costs at most one allocation — the module codec
// appends without reflection or scratch buffers — and a built node's
// content sum hashes from pooled scratch buffers, so running the largest
// corpus program's link node allocates no more than a one-function
// module's. ExecModuleNode gives the node a dependent, so it hashes on
// every run (a link node without one never does).
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
		big() // warm-up: grows the pooled buffers to the program's size
		bigAllocs, smallAllocs := testing.AllocsPerRun(20, big), testing.AllocsPerRun(20, small)
		if bigAllocs > smallAllocs {
			t.Fatalf("building a %d-byte program's node allocated %.1f times, a one-instruction module's %.1f: the hashing buffers are not reused",
				size, bigAllocs, smallAllocs)
		}
	})
}

// TestInstrumentUntouchedAllocs: an instrument node over a unit the hook
// plan leaves alone copies none of the unit's functions. Instrumentation
// shares them with its input, and the node takes the compile artifact's
// memoized optimised copies, so it makes as many allocations for 8
// functions as for 64.
func TestInstrumentUntouchedAllocs(t *testing.T) {
	// The assertion hooks main, fetch and verify; the library units
	// define none of them and call none of them.
	prog, err := build.Run(map[string]string{"client.c": `
int fetch(int sig) {
	int ok = verify(sig);
	TESLA_WITHIN(main, previously(verify(ANY(int)) == 1));
	return ok;
}
int main(int sig) { return fetch(sig); }
`}, build.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := func(n int) *ir.Module {
		var src strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "int lib_%d(int x) {\n\tint y = x * %d;\n\tif (y > 100) { y = y %% 97; }\n\treturn y + lib_%d(x);\n}\n", i, i+2, (i+1)%n)
		}
		res, err := build.Run(map[string]string{"lib.c": src.String()}, build.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Units[0].Module
	}
	small, large := build.ExecInstrumentNode(lib(8), prog.Autos), build.ExecInstrumentNode(lib(64), prog.Autos)
	small() // warm-up: memoizes the optimised functions and their digests, and grows the pooled buffers
	large()
	smallAllocs, largeAllocs := testing.AllocsPerRun(20, small), testing.AllocsPerRun(20, large)
	if largeAllocs != smallAllocs {
		t.Fatalf("instrumenting an unhooked unit allocated %.1f times for 64 functions, %.1f for 8: untouched functions are copied",
			largeAllocs, smallAllocs)
	}
}

// TestWarmRebuildAllocs: a warm rebuild that changes nothing runs no
// stage and, on the graph its cache kept, visits no node: it hashes no
// source and derives no key, so what it allocates is the report and the
// result, the ready channel and the workers. The 26-file, 108-node
// program must rebuild within these bounds (it reads 11 objects and
// about 11.5 KB). A graph wired afresh for every build, with every node
// keyed and looked up, took 19 objects and about 47 KB; one that also
// allocated each node, ID, run closure, key-material slice and hex report
// key on its own took about 1,100 objects and 98 KB. Jobs is fixed so the
// number of worker goroutines does not follow the host's CPUs.
func TestWarmRebuildAllocs(t *testing.T) {
	const maxObjects, maxBytes = 16, 16 << 10
	sources := bench.OpenSSLCodebase(24, 8)
	opts := build.Options{Instrument: true, Jobs: 2, Cache: build.NewCache()}
	if _, err := build.Run(sources, opts); err != nil {
		t.Fatal(err)
	}
	rebuild := func() {
		res, err := build.Run(sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllCached() {
			t.Fatalf("warm rebuild did work: %s", res.Summary())
		}
	}
	rebuild() // warm-up: every hit artifact is hashed and every pool grown

	objects := testing.AllocsPerRun(20, rebuild)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rebuild()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm no-op rebuild: %.0f objects, %d B per build", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("warm no-op rebuild allocated %.0f objects and %d B per build, want at most %d and %d",
			objects, bytes, maxObjects, maxBytes)
	}
}
