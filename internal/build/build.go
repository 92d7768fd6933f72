// Package build is the TESLA toolchain's incremental build engine: the §4
// pipeline (parse, compile to IR, analyse to manifest fragments, combine,
// compile automata, instrument per unit, link) restructured as a content-
// hash-keyed dependency graph executed by a bounded worker pool.
//
// Every node's cache key is the hash of its literal inputs (source bytes,
// file names, pipeline options) plus its dependencies' artifact hashes, so
// the graph gets early cutoff for free: an edit that re-runs a stage but
// reproduces byte-identical output stops invalidation right there. Two
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
	"sync"

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
	Key    string // content-hash key (hex), "" for parse records
	Err    error
}

// graphState carries the shared lazy singletons node run functions need:
// the parse memo (so a file demanded by both its interface and compile
// nodes parses once) and the compilation context (built from interface
// artifacts only after every interface node has finished).
type graphState struct {
	sources map[string]string
	names   []string

	parseMu sync.Mutex
	parsed  map[string]*parseEntry

	ifaceNodes []*node
	ctxOnce    sync.Once
	ctx        *compiler.Context
	ctxErr     error

	defsOnce sync.Once
	defs     map[string]bool
	defsFp   []byte
}

type parseEntry struct {
	once sync.Once
	file *csub.File
	err  error
}

// parse memoizes csub.Parse per file. It only ever runs for files whose
// interface or compile node missed the cache: an unchanged file with a
// warm disk cache is never re-parsed.
func (g *graphState) parse(name string) (*csub.File, error) {
	g.parseMu.Lock()
	e, ok := g.parsed[name]
	if !ok {
		e = &parseEntry{}
		g.parsed[name] = e
	}
	g.parseMu.Unlock()
	e.once.Do(func() {
		e.file, e.err = csub.Parse(name, g.sources[name])
	})
	return e.file, e.err
}

// context builds the cross-file compilation context from the interface
// artifacts. Callers run only after every interface node completed
// successfully (compile nodes depend on all of them), so the artifacts are
// present.
func (g *graphState) context() (*compiler.Context, error) {
	g.ctxOnce.Do(func() {
		ifaces := make([]*compiler.Interface, len(g.ifaceNodes))
		for i, n := range g.ifaceNodes {
			ifaces[i] = n.art.(*compiler.Interface)
		}
		g.ctx, g.ctxErr = compiler.NewContextFromInterfaces(ifaces...)
	})
	return g.ctx, g.ctxErr
}

// defined returns the program-wide defined-function set and its
// fingerprint (the hash of a deterministic serialisation, used as
// instrument/check key material). Same availability precondition as
// context.
func (g *graphState) defined() (map[string]bool, []byte) {
	g.defsOnce.Do(func() {
		g.defs = map[string]bool{}
		for _, n := range g.ifaceNodes {
			for _, fn := range n.art.(*compiler.Interface).Fns {
				g.defs[fn] = true
			}
		}
		names := make([]string, 0, len(g.defs))
		for fn := range g.defs {
			names = append(names, fn)
		}
		sort.Strings(names)
		var fp []byte
		for _, fn := range names {
			fp = append(fp, fn...)
			fp = append(fp, 0)
		}
		sum := sha256.Sum256(fp)
		g.defsFp = sum[:]
	})
	return g.defs, g.defsFp
}

// Run executes the build graph over the sources.
func Run(sources map[string]string, opts Options) (*Result, error) {
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}

	g := &graphState{
		sources: sources,
		parsed:  map[string]*parseEntry{},
	}
	for n := range sources {
		g.names = append(g.names, n)
	}
	sort.Strings(g.names)

	var nodes []*node
	add := func(n *node) *node {
		nodes = append(nodes, n)
		return n
	}

	// Stage 1: per-file interface summaries (parse on demand). Each source
	// is hashed once; the interface and compile nodes key on its digest.
	digests := make([][]byte, len(g.names))
	for i, name := range g.names {
		name := name
		sum := sha256.Sum256([]byte(sources[name]))
		digests[i] = sum[:]
		g.ifaceNodes = append(g.ifaceNodes, add(&node{
			id:        "iface:" + name,
			kind:      "iface",
			extra:     [][]byte{[]byte(name), digests[i]},
			cacheable: true,
			run: func() (any, error) {
				f, err := g.parse(name)
				if err != nil {
					return nil, err
				}
				return compiler.InterfaceOf(f), nil
			},
			encode: encodeIface,
			decode: decodeIface,
		}))
	}

	// Stage 2: per-file compilation to IR + assertion extraction. The key
	// is the file's own digest plus every interface artifact hash (the
	// role of header dependencies in a C build): editing one file's body
	// leaves its interface — and so every other file's compile key —
	// unchanged.
	compileNodes := make([]*node, len(g.names))
	for i, name := range g.names {
		name := name
		compileNodes[i] = add(&node{
			id:        "compile:" + name,
			kind:      "compile",
			deps:      g.ifaceNodes,
			extra:     [][]byte{[]byte(name), digests[i]},
			cacheable: true,
			run: func() (any, error) {
				f, err := g.parse(name)
				if err != nil {
					return nil, err
				}
				ctx, err := g.context()
				if err != nil {
					return nil, err
				}
				u, err := compiler.CompileFile(f, ctx)
				if err != nil {
					return nil, err
				}
				frag, err := encodeManifest(manifest.FromAssertions(name, u.Assertions), nil)
				if err != nil {
					return nil, err
				}
				return &unitArtifact{Module: u.Module, Fragment: frag}, nil
			},
			encode: encodeUnit,
			decode: decodeUnit,
		})
	}

	// Stage 3: per-file manifest fragments. Re-running is cheap; the point
	// of the node is early cutoff — a body edit re-compiles the file but
	// reproduces the same fragment bytes, so downstream combine hits.
	analyseNodes := make([]*node, len(g.names))
	for i, name := range g.names {
		i := i
		analyseNodes[i] = add(&node{
			id:        "analyse:" + name,
			kind:      "analyse",
			deps:      []*node{compileNodes[i]},
			cacheable: true,
			run: func() (any, error) {
				return compileNodes[i].art.(*unitArtifact).fragment()
			},
			encode: encodeManifest,
			decode: decodeManifest,
		})
	}

	// Stage 4: combine fragments into the program manifest. Its artifact
	// hash is the one-to-many pivot of §5.1: every instrument node keys on
	// it (via the automata node).
	combineNode := add(&node{
		id:        "combine",
		kind:      "combine",
		deps:      analyseNodes,
		cacheable: true,
		run: func() (any, error) {
			frags := make([]*manifest.File, len(analyseNodes))
			for i, n := range analyseNodes {
				frags[i] = n.art.(*manifest.File)
			}
			return manifest.Combine(frags...)
		},
		encode: encodeManifest,
		decode: decodeManifest,
	})

	// Stage 5: automata compilation from the combined manifest.
	var autosNode *node
	if opts.Instrument || opts.Check {
		autosNode = add(&node{
			id:        "automata",
			kind:      "automata",
			deps:      []*node{combineNode},
			cacheable: true,
			run: func() (any, error) {
				m := combineNode.art.(*manifest.File)
				autos, err := m.Compile()
				if err != nil {
					return nil, err
				}
				data, err := encodeManifest(m, nil)
				if err != nil {
					return nil, err
				}
				return &autosArtifact{Autos: autos, Manifest: data}, nil
			},
			encode: encodeAutos,
			decode: decodeAutos,
		})
	}

	// Static checking: the raw (uninstrumented, sites in place) linked
	// program, then the checker. The check node's artifact hash is its
	// elision set, so downstream instrument keys change exactly when the
	// set of provably-safe automata does. Reports are not persisted: a
	// fresh process re-derives verdicts (cheap relative to their value,
	// and Report carries live graph state).
	var checkNode *node
	if opts.Check {
		rawLink := add(&node{
			id:        "rawlink",
			kind:      "rawlink",
			deps:      compileNodes,
			cacheable: true,
			run: func() (any, error) {
				mods := make([]*ir.Module, len(compileNodes))
				for i, n := range compileNodes {
					mods[i] = n.art.(*unitArtifact).Module
				}
				m, err := ir.Link("program", mods...)
				if err != nil {
					return nil, err
				}
				return &moduleArtifact{Module: m}, nil
			},
			encode: encodeModule,
			decode: decodeModule,
		})
		checkNode = add(&node{
			id:      "check",
			kind:    "check",
			deps:    []*node{rawLink, autosNode},
			extra:   [][]byte{[]byte(opts.Entry), []byte(fmt.Sprintf("liveness=%t", !opts.NoLiveness))},
			extraFn: func() [][]byte { _, fp := g.defined(); return [][]byte{fp} },
			run: func() (any, error) {
				defs, _ := g.defined()
				return staticcheck.Check(
					rawLink.art.(*moduleArtifact).Module,
					autosNode.art.(*autosArtifact).Autos,
					staticcheck.Options{Entry: opts.Entry, DefinedFns: defs, NoLiveness: opts.NoLiveness},
				), nil
			},
			encode: func(art any, dst []byte) ([]byte, error) {
				return appendSafeSet(dst, art.(*staticcheck.Report)), nil
			},
		})
	}

	// Stage 6: per-unit instrumentation (or stripping). Deps: the unit's
	// module, the automata (for instrumented builds), and — with elision —
	// the checker's safe set.
	unitNodes := make([]*node, len(g.names))
	for i, name := range g.names {
		i := i
		if opts.Instrument {
			deps := []*node{compileNodes[i], autosNode}
			elide := opts.Elide && checkNode != nil
			if elide {
				deps = append(deps, checkNode)
			}
			suffix := fmt.Sprintf("__m%d", i)
			unitNodes[i] = add(&node{
				id:        "instrument:" + name,
				kind:      "instrument",
				deps:      deps,
				extra:     [][]byte{[]byte(suffix)},
				extraFn:   func() [][]byte { _, fp := g.defined(); return [][]byte{fp} },
				cacheable: true,
				run: func() (any, error) {
					defs, _ := g.defined()
					var elideSet map[string]bool
					if elide {
						elideSet = checkNode.art.(*staticcheck.Report).SafeSet()
					}
					m, stats, err := instrument.Module(
						compileNodes[i].art.(*unitArtifact).Module,
						autosNode.art.(*autosArtifact).Autos,
						instrument.Options{DefinedFns: defs, Suffix: suffix, Elide: elideSet},
					)
					if err != nil {
						return nil, err
					}
					ir.Optimize(m)
					return &moduleArtifact{Module: m, Stats: stats}, nil
				},
				encode: encodeModule,
				decode: decodeModule,
			})
		} else {
			unitNodes[i] = add(&node{
				id:        "strip:" + name,
				kind:      "strip",
				deps:      []*node{compileNodes[i]},
				cacheable: true,
				run: func() (any, error) {
					m := instrument.Strip(compileNodes[i].art.(*unitArtifact).Module)
					ir.Optimize(m)
					return &moduleArtifact{Module: m}, nil
				},
				encode: encodeModule,
				decode: decodeModule,
			})
		}
	}

	// Stage 7: link.
	linkNode := add(&node{
		id:        "link",
		kind:      "link",
		deps:      unitNodes,
		cacheable: true,
		run: func() (any, error) {
			mods := make([]*ir.Module, len(unitNodes))
			for i, n := range unitNodes {
				mods[i] = n.art.(*moduleArtifact).Module
			}
			m, err := ir.Link("program", mods...)
			if err != nil {
				return nil, err
			}
			return &moduleArtifact{Module: m}, nil
		},
		encode: encodeModule,
		decode: decodeModule,
	})

	x := &exec{cache: cache, jobs: opts.Jobs}
	x.runGraph(nodes)

	res := &Result{Names: g.names}
	for _, name := range g.names {
		g.parseMu.Lock()
		e := g.parsed[name]
		g.parseMu.Unlock()
		if e != nil && e.err == nil {
			res.Files = append(res.Files, e.file)
			res.Nodes = append(res.Nodes, NodeReport{ID: "parse:" + name, Status: StatusBuilt})
		} else {
			res.Files = append(res.Files, nil)
		}
	}
	for _, n := range nodes {
		res.Nodes = append(res.Nodes, NodeReport{ID: n.id, Status: n.status, Key: n.key, Err: n.err})
	}

	// Diagnostics: every failed node, deduplicated (shared singletons like
	// a context error surface once), in pipeline order.
	var errs []error
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.status == StatusFailed && n.err != nil && !seen[n.err.Error()] {
			seen[n.err.Error()] = true
			errs = append(errs, n.err)
		}
	}
	if err := buildError(errs); err != nil {
		return res, err
	}

	// Assemble the result from the node artifacts.
	for i := range g.names {
		u, err := compileNodes[i].art.(*unitArtifact).unit()
		if err != nil {
			return res, err
		}
		res.Units = append(res.Units, u)
		res.Fragments = append(res.Fragments, analyseNodes[i].art.(*manifest.File))
	}
	res.Manifest = combineNode.art.(*manifest.File)
	if opts.Instrument {
		res.Autos = autosNode.art.(*autosArtifact).Autos
		for _, n := range unitNodes {
			s := n.art.(*moduleArtifact).Stats
			res.Stats.Hooks += s.Hooks
			res.Stats.Translators += s.Translators
			res.Stats.Sites += s.Sites
			res.Stats.ElidedHooks += s.ElidedHooks
			res.Stats.ElidedSites += s.ElidedSites
		}
	}
	if checkNode != nil {
		res.Report = checkNode.art.(*staticcheck.Report)
	}
	res.Program = linkNode.art.(*moduleArtifact).Module
	return res, nil
}

// appendSafeSet serialises a report's provably-safe automata names — the
// only part of a check verdict downstream instrumentation keys on.
func appendSafeSet(dst []byte, r *staticcheck.Report) []byte {
	var names []string
	for name := range r.SafeSet() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		dst = append(dst, n...)
		dst = append(dst, 0)
	}
	return dst
}
