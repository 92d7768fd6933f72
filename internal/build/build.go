// Package build is the TESLA toolchain's incremental build engine: the §4
// pipeline (parse, compile to IR, analyse to manifest fragments, combine,
// compile automata, instrument per unit, link) restructured as a content-
// hash-keyed dependency graph executed by a bounded worker pool.
//
// Every node's cache key is the hash of its literal inputs (source bytes,
// file names, pipeline options) plus its dependencies' artifact hashes, so
// the graph gets early cutoff for free: an edit that re-runs a stage but
// reproduces identical output stops invalidation right there. Two
// consequences reproduce the paper's §5.1 build behaviour measurably:
//
//   - Editing a function body re-compiles that file, but its manifest
//     fragment (and therefore the combined manifest) hashes the same, so
//     only that one unit re-instruments.
//   - Editing an assertion changes the combined manifest's hash, which is
//     an input to every instrument node — the one-to-many property: one
//     .tesla change re-instruments every unit in the program.
//
// With a disk-backed Cache (Open), artifacts persist across processes: an
// unchanged file is never re-parsed or re-compiled, because its interface
// summary, IR module and manifest fragment all load by key. Outputs are
// byte-identical to the sequential reference pipeline, which lives in this
// package's differential tests (buildSequential) and nowhere else.
package build

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tesla/internal/automata"
	"tesla/internal/compiler"
	"tesla/internal/csub"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
	"tesla/internal/staticcheck"
)

// Options selects pipeline stages and execution parameters.
type Options struct {
	// Instrument, Check, Elide and Entry mirror the sequential pipeline's
	// stage selection (toolchain.BuildOptions).
	Instrument bool
	Check      bool
	Elide      bool
	Entry      string
	// NoLiveness restricts the checker to the safety pass; part of the
	// check node's key, so toggling it re-runs the check and re-keys
	// every downstream instrument node exactly when the safe set moves.
	NoLiveness bool
	// Jobs bounds the worker pool; <= 0 means GOMAXPROCS.
	Jobs int
	// Cache supplies artifact reuse across builds; nil means a fresh
	// in-process cache (no reuse, but the graph still runs in parallel).
	Cache *Cache
}

// Result is a completed build plus the per-node execution report.
type Result struct {
	// Names are the source file names in the build's deterministic order.
	Names []string
	// Files holds parsed ASTs for the files this build actually parsed;
	// entries are nil for files served entirely from cache.
	Files []*csub.File
	// Units are the per-file compilation results, aligned with Names.
	Units []*compiler.Unit
	// Fragments are the per-file manifest fragments, aligned with Names.
	Fragments []*manifest.File
	// Manifest is the combined program manifest.
	Manifest *manifest.File
	// Autos are the compiled automata (instrumented builds only).
	Autos []*automata.Automaton
	// Program is the linked module.
	Program *ir.Module
	// Stats aggregates instrumentation statistics across units.
	Stats instrument.Stats
	// Report is the static checker's verdicts (Check builds only).
	Report *staticcheck.Report
	// Nodes reports every graph node's status, in pipeline order.
	Nodes []NodeReport
}

// NodeReport is one node's execution record, for -explain output.
type NodeReport struct {
	ID     string
	Status Status
	// Key is the node's content-hash key; zero for parse records and
	// skipped nodes.
	Key Digest
	// Dur is the node's own time: key, cache lookups, stage and hash.
	// Parse records read zero; a parse's time is part of the node that
	// demanded it.
	Dur time.Duration
	Err error
}

// graphState is one build: its node slab, the inputs node keys read, and
// the shared lazy singletons stages need: the parse memo (so a file
// demanded by both its interface and compile nodes parses once), the
// interfaces digest and the compilation context (both derived from the
// interface artifacts once every interface node has finished) and the
// hook plan every instrument node reads.
type graphState struct {
	opts    Options // Cache is set
	sources map[string]string
	names   []string
	digests []Digest // each source's SHA-256, in name order
	parsed  []parseEntry
	nodes   []node

	ifaceOnce sync.Once
	ifaceSum  Digest

	ctxOnce sync.Once
	ctx     *compiler.Context
	ctxErr  error

	planOnce sync.Once
	planVal  *automata.Plan
}

type parseEntry struct {
	once sync.Once
	file *csub.File
	err  error
}

// parse memoizes csub.Parse per file. It only ever runs for files whose
// interface or compile node missed the cache: an unchanged file with a
// warm disk cache is never re-parsed.
func (g *graphState) parse(unit int) (*csub.File, error) {
	e := &g.parsed[unit]
	e.once.Do(func() {
		name := g.names[unit]
		e.file, e.err = csub.Parse(name, g.sources[name])
	})
	return e.file, e.err
}

// interfaces returns the interfaces digest: SHA-256 over the interface
// artifact hashes in name order, computed once per build. Compile and
// defs nodes key on it; both depend on every interface node, so every
// hash is set when the first of them asks.
func (g *graphState) interfaces(ifaces []*node) Digest {
	g.ifaceOnce.Do(func() {
		h := sha256.New()
		for _, d := range ifaces {
			h.Write(d.hash[:])
		}
		h.Sum(g.ifaceSum[:0])
	})
	return g.ifaceSum
}

// context builds the cross-file compilation context from the interface
// artifacts. Callers are compile nodes, which depend on every interface
// node, so the artifacts are present.
func (g *graphState) context(ifaces []*node) (*compiler.Context, error) {
	g.ctxOnce.Do(func() {
		all := make([]*compiler.Interface, len(ifaces))
		for i, n := range ifaces {
			all[i] = n.art.(*compiler.Interface)
		}
		g.ctx, g.ctxErr = compiler.NewContextFromInterfaces(all...)
	})
	return g.ctx, g.ctxErr
}

// plan builds the hook plan once per build from the automata and defs
// artifacts; callers are instrument nodes, which depend on both.
func (g *graphState) plan(autos *autosArtifact, defs map[string]bool) *automata.Plan {
	g.planOnce.Do(func() {
		g.planVal = automata.NewPlan(autos.Autos, defs)
	})
	return g.planVal
}

// Run executes the build graph over the sources.
func Run(sources map[string]string, opts Options) (*Result, error) {
	if opts.Cache == nil {
		opts.Cache = NewCache()
	}
	names := make([]string, 0, len(sources))
	idLen := 0 // the bytes of each file's four per-file node IDs
	for n := range sources {
		names = append(names, n)
		idLen += len("iface:compile:analyse:instrument:") + 4*len(n)
	}
	sort.Strings(names)
	files := len(names)

	// Every node lives in one slab, in pipeline order: four per file
	// (interface, compile, analyse, instrument or strip), combine and
	// link, defs and automata for instrumented or checked builds, and
	// rawlink and check for checked ones. Dependency lists that are not a
	// whole stage are carved from one pointer slab.
	size := 4*files + 2
	if opts.Instrument || opts.Check {
		size += 2
	}
	if opts.Check {
		size += 2
	}
	g := &graphState{
		opts:    opts,
		sources: sources,
		names:   names,
		digests: hashSources(sources, names),
		parsed:  make([]parseEntry, files),
		nodes:   make([]node, size),
	}
	// A per-file record's ID is "kind:file", cut from one builder sized
	// for the node IDs (parse records, cold builds only, may grow it). A
	// builder never rewrites bytes it holds, so every cut stays valid.
	var ids strings.Builder
	ids.Grow(idLen)
	id := func(kind string, unit int) string {
		start := ids.Len()
		ids.WriteString(kind)
		ids.WriteByte(':')
		ids.WriteString(names[unit])
		return ids.String()[start:]
	}
	next := 0
	add := func(kind nodeKind, unit int, deps []*node) *node {
		n := &g.nodes[next]
		next++
		n.id, n.kind, n.unit, n.deps = kinds[kind].name, kind, unit, deps
		if unit >= 0 {
			n.id = id(n.id, unit)
		}
		return n
	}
	ptrs := make([]*node, 8*files+4)
	carve := func(k int) []*node {
		s := ptrs[:k:k]
		ptrs = ptrs[k:]
		return s
	}
	deps := func(ns ...*node) []*node { return append(carve(len(ns))[:0], ns...) }
	ifaces, compiles, analyses, units := carve(files), carve(files), carve(files), carve(files)

	// Stage 1: per-file interface summaries (parse on demand). Each source
	// is hashed once; the interface and compile nodes key on its digest.
	for i := range names {
		ifaces[i] = add(kindIface, i, nil)
	}

	// Stage 2: per-file compilation to IR + assertion extraction. The key
	// is the file's own digest plus the interfaces digest (the role of
	// header dependencies in a C build): editing one file's body leaves
	// its interface — and so every other file's compile key — unchanged.
	for i := range names {
		compiles[i] = add(kindCompile, i, ifaces)
	}

	// Stage 3: per-file manifest fragments. Re-running is cheap; the point
	// of the node is early cutoff — a body edit re-compiles the file but
	// reproduces the same fragment bytes, so downstream combine hits.
	for i := range names {
		analyses[i] = add(kindAnalyse, i, compiles[i:i+1:i+1])
	}

	// Stage 4: combine fragments into the program manifest. Its artifact
	// hash is the one-to-many pivot of §5.1: every instrument node keys on
	// it (via the automata node).
	combine := add(kindCombine, -1, analyses)

	// Stage 5: what checking and instrumentation read besides the units.
	// The program-wide defined-function set decides each function event's
	// caller or callee side; it depends on the interfaces alone, so it
	// hits whenever they all do. The automata compile from the combined
	// manifest.
	var defs, autos, check *node
	if opts.Instrument || opts.Check {
		defs = add(kindDefs, -1, ifaces)
		autos = add(kindAutomata, -1, deps(combine))
	}

	// Static checking: the raw (uninstrumented, sites in place) linked
	// program, then the checker. The check node's artifact hash is its
	// elision set, so downstream instrument keys change exactly when the
	// set of provably-safe automata does. Reports are not persisted: a
	// fresh process re-derives verdicts (cheap relative to their value,
	// and Report carries live graph state).
	if opts.Check {
		check = add(kindCheck, -1, deps(add(kindRawlink, -1, compiles), autos, defs))
	}

	// Stage 6: per-unit instrumentation (or stripping). Deps: the unit's
	// module, the automata and the defined-function set (for instrumented
	// builds), and — with elision — the checker's safe set. Each node
	// optimises only the functions its pass rewrote or generated; every
	// other function is the compile artifact's memoised optimised copy, so
	// re-instrumenting a unit after an assertion edit shares its untouched
	// functions, and their digests, with the previous build. Every
	// instrument node reads one hook plan, built once per build.
	for i := range names {
		switch {
		case !opts.Instrument:
			units[i] = add(kindStrip, i, compiles[i:i+1:i+1])
		case opts.Elide && check != nil:
			units[i] = add(kindInstrument, i, deps(compiles[i], autos, defs, check))
		default:
			units[i] = add(kindInstrument, i, deps(compiles[i], autos, defs))
		}
	}

	// Stage 7: link.
	link := add(kindLink, -1, units)

	g.runGraph()

	res := &Result{Names: names, Files: make([]*csub.File, files)}
	parsed := 0
	for i := range g.parsed {
		if e := &g.parsed[i]; e.file != nil && e.err == nil {
			res.Files[i] = e.file
			parsed++
		}
	}
	res.Nodes = make([]NodeReport, 0, parsed+len(g.nodes))
	for i, f := range res.Files {
		if f != nil {
			res.Nodes = append(res.Nodes, NodeReport{ID: id("parse", i), Status: StatusBuilt})
		}
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		r := NodeReport{ID: n.id, Status: n.status, Dur: n.dur, Err: n.err}
		if n.status != StatusSkipped {
			r.Key = n.key
		}
		res.Nodes = append(res.Nodes, r)
	}

	// Diagnostics: every failed node, deduplicated (shared singletons like
	// a context error surface once), in pipeline order.
	var errs []error
	seen := map[string]bool{}
	for i := range g.nodes {
		if n := &g.nodes[i]; n.status == StatusFailed && n.err != nil && !seen[n.err.Error()] {
			seen[n.err.Error()] = true
			errs = append(errs, n.err)
		}
	}
	if err := buildError(errs); err != nil {
		return res, err
	}

	// Assemble the result from the node artifacts.
	res.Units = make([]*compiler.Unit, files)
	res.Fragments = make([]*manifest.File, files)
	for i := range names {
		u, err := compiles[i].art.(*unitArtifact).unit()
		if err != nil {
			return res, err
		}
		res.Units[i] = u
		res.Fragments[i] = analyses[i].art.(*manifest.File)
	}
	res.Manifest = combine.art.(*manifest.File)
	if opts.Instrument {
		res.Autos = autos.art.(*autosArtifact).Autos
		for _, n := range units {
			s := n.art.(*moduleArtifact).Stats
			res.Stats.Hooks += s.Hooks
			res.Stats.Translators += s.Translators
			res.Stats.Sites += s.Sites
			res.Stats.ElidedHooks += s.ElidedHooks
			res.Stats.ElidedSites += s.ElidedSites
		}
	}
	if check != nil {
		res.Report = check.art.(*staticcheck.Report)
	}
	res.Program = link.art.(*moduleArtifact).Module
	return res, nil
}

// run is every stage's body: it produces n's artifact from its
// dependencies' artifacts, which the scheduler has resolved.
func (g *graphState) run(n *node) (any, error) {
	switch n.kind {
	case kindIface:
		f, err := g.parse(n.unit)
		if err != nil {
			return nil, err
		}
		return compiler.InterfaceOf(f), nil
	case kindCompile:
		f, err := g.parse(n.unit)
		if err != nil {
			return nil, err
		}
		ctx, err := g.context(n.deps)
		if err != nil {
			return nil, err
		}
		u, err := compiler.CompileFile(f, ctx)
		if err != nil {
			return nil, err
		}
		frag, err := encodeManifest(manifest.FromAssertions(g.names[n.unit], u.Assertions), nil)
		if err != nil {
			return nil, err
		}
		return &unitArtifact{Module: u.Module, Fragment: frag}, nil
	case kindAnalyse:
		return n.deps[0].art.(*unitArtifact).fragment()
	case kindCombine:
		frags := make([]*manifest.File, len(n.deps))
		for i, d := range n.deps {
			frags[i] = d.art.(*manifest.File)
		}
		return manifest.Combine(frags...)
	case kindDefs:
		defs := map[string]bool{}
		for _, d := range n.deps {
			for _, fn := range d.art.(*compiler.Interface).Fns {
				defs[fn] = true
			}
		}
		return defs, nil
	case kindAutomata:
		m := n.deps[0].art.(*manifest.File)
		autos, err := m.Compile()
		if err != nil {
			return nil, err
		}
		data, err := encodeManifest(m, nil)
		if err != nil {
			return nil, err
		}
		return &autosArtifact{Autos: autos, Manifest: data}, nil
	case kindCheck:
		return staticcheck.Check(
			n.deps[0].art.(*moduleArtifact).Module,
			n.deps[1].art.(*autosArtifact).Autos,
			staticcheck.Options{Entry: g.opts.Entry, DefinedFns: n.deps[2].art.(map[string]bool), NoLiveness: g.opts.NoLiveness},
		), nil
	case kindInstrument:
		unit, autos, defs := n.deps[0].art.(*unitArtifact), n.deps[1].art.(*autosArtifact), n.deps[2].art.(map[string]bool)
		var elide map[string]bool
		if len(n.deps) > 3 {
			elide = n.deps[3].art.(*staticcheck.Report).SafeSet()
		}
		m, stats, err := instrument.Module(unit.Module, autos.Autos, instrument.Options{
			DefinedFns: defs, Suffix: fmt.Sprintf("__m%d", n.unit), Elide: elide, Plan: g.plan(autos, defs)})
		if err != nil {
			return nil, err
		}
		return unit.optimize(m, stats), nil
	case kindStrip:
		unit := n.deps[0].art.(*unitArtifact)
		return unit.optimize(instrument.Strip(unit.Module), instrument.Stats{}), nil
	case kindRawlink, kindLink:
		mods := make([]*ir.Module, len(n.deps))
		for i, d := range n.deps {
			switch a := d.art.(type) {
			case *unitArtifact:
				mods[i] = a.Module
			case *moduleArtifact:
				mods[i] = a.Module
			}
		}
		m, err := ir.Link("program", mods...)
		if err != nil {
			return nil, err
		}
		return &moduleArtifact{Module: m}, nil
	}
	panic(fmt.Sprintf("build: node %s has no stage", n.id))
}

// hashSources returns the SHA-256 of each named source, in order. The
// sources stream through one hasher and a fixed buffer, so hashing
// copies no source whole.
func hashSources(sources map[string]string, names []string) []Digest {
	sums := make([]Digest, len(names))
	h := sha256.New()
	var buf [4096]byte
	for i, name := range names {
		src := sources[name]
		h.Reset()
		for len(src) > 0 {
			n := copy(buf[:], src)
			h.Write(buf[:n])
			src = src[n:]
		}
		h.Sum(sums[i][:0])
	}
	return sums
}
