// Package toolchain drives the complete TESLA workflow of §4 — analyse,
// compile, instrument, link, run — as one pipeline. The cmd/ tools, the
// examples and the build-time benchmarks (figure 10) are all built on it,
// staged exactly as the paper's build is: per-file compilation to IR,
// per-file analysis into .tesla manifests, combination into a program
// manifest, per-file instrumentation against the combined manifest (the
// one-to-many property behind the incremental-rebuild costs of §5.1),
// post-instrumentation optimisation, then linking. BuildProgram and
// BuildProgramOpts run those stages as the content-hash-cached parallel
// graph in internal/build.
package toolchain

import (
	"io"

	"tesla/internal/automata"
	"tesla/internal/build"
	"tesla/internal/compiler"
	"tesla/internal/csub"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
	"tesla/internal/monitor"
	"tesla/internal/staticcheck"
	"tesla/internal/vm"
)

// Build is the result of compiling a program with (or without) TESLA.
type Build struct {
	// Files are the parsed sources in deterministic (name) order. Graph
	// builds only parse files that miss the artifact cache, so entries
	// may be nil for fully cached files.
	Files []*csub.File
	// Units are the per-file compilation results, aligned with Files.
	Units []*compiler.Unit
	// Manifest is the combined program manifest.
	Manifest *manifest.File
	// Autos are the compiled automata, in manifest order; instrumented
	// code indexes into this slice.
	Autos []*automata.Automaton
	// Program is the linked module: instrumented when the build was made
	// with Instrument, stripped otherwise.
	Program *ir.Module
	// Stats aggregates instrumentation statistics across units.
	Stats instrument.Stats
	// Report is the static checker's verdict set, when the build ran with
	// BuildOptions.Check (nil otherwise).
	Report *staticcheck.Report
	// Graph is the build graph's execution report: per-node
	// hit/miss/rebuild statuses.
	Graph *build.Result
}

// BuildOptions selects pipeline stages beyond the plain compile.
type BuildOptions struct {
	// Instrument inserts hooks, translators and monitor wiring; false
	// strips the assertion pseudo-calls (the "Default" baseline build).
	Instrument bool
	// Check runs the static model checker over the linked pre-
	// instrumentation program and stores the verdicts in Build.Report.
	Check bool
	// Elide skips hook generation for PROVABLY-SAFE automata. Requires
	// Check and Instrument. Assertions the checker could not prove keep
	// their instrumentation.
	Elide bool
	// Entry is the program entry point for the checker; "" means main.
	Entry string
	// NoLiveness restricts the checker to the safety pass (no liveness
	// refinement); mirrors staticcheck.Options.NoLiveness. Used by the
	// elision benchmark to separate the safety and liveness rungs.
	NoLiveness bool

	// Jobs bounds the build graph's worker pool; <= 0 means GOMAXPROCS.
	Jobs int
	// CacheDir enables the on-disk artifact cache, shared across builds
	// and processes. "" builds with a fresh in-memory cache.
	CacheDir string
	// Cache supplies an existing cache (e.g. to share memory artifacts
	// across builds in one process); overrides CacheDir.
	Cache *build.Cache
	// Explain, when non-nil, receives the per-node hit/miss/rebuild
	// report after the build (even a failed one).
	Explain io.Writer
}

// BuildProgram runs the full pipeline over the sources (name → text).
// With instrumented=false the assertion pseudo-calls are stripped,
// producing the "Default" baseline build.
func BuildProgram(sources map[string]string, instrumented bool) (*Build, error) {
	return BuildProgramOpts(sources, BuildOptions{Instrument: instrumented})
}

// BuildProgramOpts is BuildProgram with stage selection. It executes the
// internal/build graph.
func BuildProgramOpts(sources map[string]string, opts BuildOptions) (*Build, error) {
	cache := opts.Cache
	if cache == nil && opts.CacheDir != "" {
		var err error
		cache, err = build.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	res, err := build.Run(sources, build.Options{
		Instrument: opts.Instrument,
		Check:      opts.Check,
		Elide:      opts.Elide,
		Entry:      opts.Entry,
		NoLiveness: opts.NoLiveness,
		Jobs:       opts.Jobs,
		Cache:      cache,
	})
	if res != nil && opts.Explain != nil {
		res.Explain(opts.Explain)
	}
	if err != nil {
		return nil, err
	}
	return &Build{
		Files:    res.Files,
		Units:    res.Units,
		Manifest: res.Manifest,
		Autos:    res.Autos,
		Program:  res.Program,
		Stats:    res.Stats,
		Report:   res.Report,
		Graph:    res,
	}, nil
}

// Runtime bundles an executable VM with its monitor, for instrumented
// builds (Monitor and Thread are nil for uninstrumented ones).
type Runtime struct {
	VM      *vm.VM
	Monitor *monitor.Monitor
	Thread  *monitor.Thread
}

// NewRuntime prepares a VM (and, for instrumented builds, a monitor wired
// to it) for the build.
func (b *Build) NewRuntime(opts monitor.Options) (*Runtime, error) {
	machine := vm.New(b.Program)
	rt := &Runtime{VM: machine}
	if len(b.Autos) > 0 {
		if opts.Memory == nil {
			opts.Memory = machine
		}
		m, err := monitor.New(opts, b.Autos...)
		if err != nil {
			return nil, err
		}
		rt.Monitor = m
		rt.Thread = m.NewThread()
		machine.AttachThread(rt.Thread)
	}
	return rt, nil
}

// Run executes main() (or the named entry point) on a fresh runtime.
func (b *Build) Run(entry string, opts monitor.Options, args ...int64) (int64, *Runtime, error) {
	if entry == "" {
		entry = "main"
	}
	rt, err := b.NewRuntime(opts)
	if err != nil {
		return 0, nil, err
	}
	ret, err := rt.VM.Run(entry, args...)
	return ret, rt, err
}
