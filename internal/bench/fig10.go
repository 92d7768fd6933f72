package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tesla/internal/compiler"
	"tesla/internal/csub"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
)

// OpenSSLCodebase synthesises a csub codebase with the shape of the §5.1
// case study: a libcrypto file defining EVP_VerifyFinal, many library files
// of plain C, and a client whose main carries the figure 6 assertion —
// which references a call in another compilation unit, the property that
// makes incremental rebuilds re-instrument everything.
func OpenSSLCodebase(files, fnsPerFile int) map[string]string {
	sources := map[string]string{}

	sources["crypto_p_verify.c"] = `
int EVP_VerifyFinal(int ctx, int sig, int siglen, int key) {
	int v = sig % 7;
	if (v == 0) { return 1; }
	if (v == 1) { return -1; }
	return 0;
}
`
	for i := 0; i < files; i++ {
		src := ""
		for j := 0; j < fnsPerFile; j++ {
			next := ""
			if j+1 < fnsPerFile {
				next = fmt.Sprintf("x = x + ssl_f_%d_%d(b, x);", i, j+1)
			} else if i+1 < files {
				next = fmt.Sprintf("x = x + ssl_f_%d_0(b, x);", i+1)
			}
			src += fmt.Sprintf(`
int ssl_f_%d_%d(int a, int b) {
	int x = a * 3 + b;
	int i = 0;
	while (i < 4) {
		x = x + i * a;
		i++;
	}
	if (x > 1000) {
		x = x %% 997;
	} else {
		%s
	}
	return x;
}
`, i, j, next)
		}
		sources[fmt.Sprintf("ssl_s3_%d.c", i)] = src
	}

	sources["client.c"] = `
int fetch_document(int sig) {
	int ok = EVP_VerifyFinal(1, sig, 64, 2);
	int body = ssl_f_0_0(sig, ok);
	TESLA_WITHIN(main, previously(
		EVP_VerifyFinal(ANY(ptr), ANY(ptr), ANY(int), ANY(ptr)) == 1));
	return body;
}
int main(int sig) { return fetch_document(sig); }
`
	return sources
}

// BuildTimes holds the four figure 10 measurements.
type BuildTimes struct {
	CleanDefault time.Duration
	CleanTESLA   time.Duration
	IncrDefault  time.Duration
	IncrTESLA    time.Duration
}

// buildState caches per-file artefacts between incremental builds.
type buildState struct {
	sources   map[string]string
	names     []string
	files     map[string]*csub.File
	units     map[string]*compiler.Unit
	manifests map[string]*manifest.File
	ctx       *compiler.Context
}

// compileAll parses every file, then compiles each.
func (bs *buildState) compileAll() error {
	bs.files = map[string]*csub.File{}
	var all []*csub.File
	for _, n := range bs.names {
		f, err := csub.Parse(n, bs.sources[n])
		if err != nil {
			return err
		}
		bs.files[n] = f
		all = append(all, f)
	}
	ctx, err := compiler.NewContext(all...)
	if err != nil {
		return err
	}
	bs.ctx = ctx
	bs.units = map[string]*compiler.Unit{}
	bs.manifests = map[string]*manifest.File{}
	for _, n := range bs.names {
		if err := bs.compileOne(n); err != nil {
			return err
		}
	}
	return nil
}

func (bs *buildState) compileOne(name string) error {
	u, err := compiler.CompileFile(bs.files[name], bs.ctx)
	if err != nil {
		return err
	}
	bs.units[name] = u
	bs.manifests[name] = manifest.FromAssertions(name, u.Assertions)
	return nil
}

// recompile re-parses and recompiles one edited file.
func (bs *buildState) recompile(name string) error {
	f, err := csub.Parse(name, bs.sources[name])
	if err != nil {
		return err
	}
	bs.files[name] = f
	return bs.compileOne(name)
}

// instrumentAll re-instruments every IR file against the combined
// manifest — the §5.1 behaviour: "when one C file changes, it changes the
// combined .tesla file; this causes re-instrumentation of all LLVM IR
// files".
func (bs *buildState) instrumentAll() ([]*ir.Module, error) {
	var all []*manifest.File
	for _, n := range bs.names {
		all = append(all, bs.manifests[n])
	}
	combined, err := manifest.Combine(all...)
	if err != nil {
		return nil, err
	}
	defined := bs.ctx.DefinedFns()
	var mods []*ir.Module
	for i, n := range bs.names {
		// The paper's conservative strategy (§7): the tool re-loads,
		// re-parses and re-interprets the same TESLA automaton
		// description for every IR file it instruments.
		autos, err := combined.Compile()
		if err != nil {
			return nil, err
		}
		m, _, err := instrument.Module(bs.units[n].Module, autos, instrument.Options{
			DefinedFns: defined,
			Suffix:     fmt.Sprintf("__m%d", i),
		})
		if err != nil {
			return nil, err
		}
		ir.Optimize(m)
		mods = append(mods, m)
	}
	return mods, nil
}

func (bs *buildState) stripAll() []*ir.Module {
	var mods []*ir.Module
	for _, n := range bs.names {
		m := instrument.Strip(bs.units[n].Module)
		ir.Optimize(m)
		mods = append(mods, m)
	}
	return mods
}

// Fig10Measure measures clean and incremental build times with and without
// the TESLA workflow stages, over the given codebase.
func Fig10Measure(sources map[string]string) (BuildTimes, error) {
	var bt BuildTimes
	bs := &buildState{sources: sources}
	for n := range sources {
		bs.names = append(bs.names, n)
	}
	sort.Strings(bs.names)

	// Clean default build: parse, compile, strip, link.
	start := time.Now()
	if err := bs.compileAll(); err != nil {
		return bt, err
	}
	mods := bs.stripAll()
	if _, err := ir.Link("program", mods...); err != nil {
		return bt, err
	}
	bt.CleanDefault = time.Since(start)

	// Clean TESLA build: parse, compile, analyse, instrument all, link.
	start = time.Now()
	if err := bs.compileAll(); err != nil {
		return bt, err
	}
	imods, err := bs.instrumentAll()
	if err != nil {
		return bt, err
	}
	if _, err := ir.Link("program", imods...); err != nil {
		return bt, err
	}
	bt.CleanTESLA = time.Since(start)

	// Incremental default: recompile one file, re-strip it, relink
	// cached modules.
	edited := "client.c"
	start = time.Now()
	if err := bs.recompile(edited); err != nil {
		return bt, err
	}
	// Only the changed module is re-stripped; others are cached.
	cached := append([]*ir.Module(nil), mods...)
	for i, n := range bs.names {
		if n == edited {
			cached[i] = instrument.Strip(bs.units[n].Module)
			ir.Optimize(cached[i])
		}
	}
	if _, err := ir.Link("program", cached...); err != nil {
		return bt, err
	}
	bt.IncrDefault = time.Since(start)

	// Incremental TESLA: recompile one file — and then, because its
	// assertions feed the combined manifest, re-instrument every module
	// and relink.
	start = time.Now()
	if err := bs.recompile(edited); err != nil {
		return bt, err
	}
	imods, err = bs.instrumentAll()
	if err != nil {
		return bt, err
	}
	if _, err := ir.Link("program", imods...); err != nil {
		return bt, err
	}
	bt.IncrTESLA = time.Since(start)

	return bt, nil
}

// Fig10 runs the experiment and prints the figure 10 table.
func Fig10(w io.Writer, files, fnsPerFile int) error {
	bt, err := Fig10Measure(OpenSSLCodebase(files, fnsPerFile))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 10: OpenSSL build times (%d files)\n", files+2)
	fmt.Fprintf(w, "  %-24s %12v\n", "Clean build, Default", bt.CleanDefault)
	fmt.Fprintf(w, "  %-24s %12v  (%.1fx)\n", "Clean build, TESLA", bt.CleanTESLA,
		ratio(bt.CleanTESLA, bt.CleanDefault))
	fmt.Fprintf(w, "  %-24s %12v\n", "Incremental, Default", bt.IncrDefault)
	fmt.Fprintf(w, "  %-24s %12v  (%.0fx)\n", "Incremental, TESLA", bt.IncrTESLA,
		ratio(bt.IncrTESLA, bt.IncrDefault))
	fmt.Fprintf(w, "  paper shape: clean ≈2.5x slower; incremental slowdown is far larger\n")
	fmt.Fprintf(w, "  (one-to-many re-instrumentation; ≈500x on the paper's codebase)\n\n")
	return nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
