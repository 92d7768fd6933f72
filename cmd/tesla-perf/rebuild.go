package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"tesla/internal/automata"
	"tesla/internal/build"
	"tesla/internal/compiler"
	"tesla/internal/csub"
	"tesla/internal/instrument"
	"tesla/internal/ir"
	"tesla/internal/manifest"
	"tesla/internal/toolchain"
)

// rebuild: §5.1's incremental rebuild cost on the cached build graph. A
// seeded 26-file OpenSSL-shaped codebase is rebuilt in a closed loop on
// one goroutine against one artifact cache, cycling through body edits
// (40%), assertion edits (20%), reverts to the original sources (20%) and
// no-op rebuilds (20%). The runtime is absent; the build graph, csub,
// compiler and instrument stages are the whole cost. Assertion edits
// re-instrument every unit and add many cache entries; no-ops only read.
// One op is one toolchain.BuildProgramOpts call.
//
// The cache is the in-process one (BuildOptions.Cache), not an on-disk
// CacheDir: on the 2-vCPU VM this was tuned on, writing one artifact file
// took 0.3-0.6 ms and drifted twofold over minutes, so filesystem latency
// rather than the stages set the build times, and their spread from run
// to run exceeded any usable regression bound.

const (
	rebuildLibFiles = 24 // plus the crypto and client files: 26 in all
	rebuildFns      = 8  // functions per library file
	rebuildSetups   = 3  // cold builds per repetition; the last one's cache is used
	// rebuildChecked is how many body and how many assertion edits of
	// each repetition have their linked IR checked against an uncached
	// build. Every edit makes sources no build has seen, and an uncached
	// build costs several cached ones, so checking them all would
	// multiply the run's length.
	rebuildChecked = 3
)

type editKind int

const (
	editBody editKind = iota
	editAssert
	editRevert
	editNoop
)

var editNames = [...]string{"body edit", "assertion edit", "revert", "no-op"}

// editCycle is one cycle's mix; each cycle runs it in a seeded order.
var editCycle = []editKind{editBody, editBody, editBody, editBody, editAssert, editAssert, editRevert, editRevert, editNoop, editNoop}

// codebase is the generator's model of the sources: each library
// function's multiplier and loop bound, and the value the client's
// assertion expects. Edits change the model; files render from it.
type codebase struct {
	mult, loop [][]int64
	verdict    int64
}

func newCodebase(rng *rand.Rand) *codebase {
	cb := &codebase{verdict: 1}
	for i := 0; i < rebuildLibFiles; i++ {
		var mult, loop []int64
		for j := 0; j < rebuildFns; j++ {
			mult = append(mult, 2+rng.Int63n(8))
			loop = append(loop, 2+rng.Int63n(5))
		}
		cb.mult = append(cb.mult, mult)
		cb.loop = append(cb.loop, loop)
	}
	return cb
}

func (cb *codebase) clone() *codebase {
	out := &codebase{verdict: cb.verdict}
	for i := range cb.mult {
		out.mult = append(out.mult, append([]int64(nil), cb.mult[i]...))
		out.loop = append(out.loop, append([]int64(nil), cb.loop[i]...))
	}
	return out
}

func (cb *codebase) sources() map[string]string {
	src := map[string]string{
		"crypto_p_verify.c": `
int EVP_VerifyFinal(int ctx, int sig, int siglen, int key) {
	int v = sig % 7;
	if (v == 0) { return 1; }
	if (v == 1) { return -1; }
	return 0;
}
`,
		"client.c": fmt.Sprintf(`
int fetch_document(int sig) {
	int ok = EVP_VerifyFinal(1, sig, 64, 2);
	int body = ssl_f_0_0(sig, ok);
	TESLA_WITHIN(main, previously(
		EVP_VerifyFinal(ANY(ptr), ANY(ptr), ANY(int), ANY(ptr)) == %d));
	return body;
}
int main(int sig) { return fetch_document(sig); }
`, cb.verdict),
	}
	for i := range cb.mult {
		var b strings.Builder
		for j := range cb.mult[i] {
			next := ""
			if j+1 < len(cb.mult[i]) {
				next = fmt.Sprintf("x = x + ssl_f_%d_%d(b, x);", i, j+1)
			} else if i+1 < len(cb.mult) {
				next = fmt.Sprintf("x = x + ssl_f_%d_0(b, x);", i+1)
			}
			fmt.Fprintf(&b, `
int ssl_f_%d_%d(int a, int b) {
	int x = a * %d + b;
	int i = 0;
	while (i < %d) {
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
`, i, j, cb.mult[i][j], cb.loop[i][j], next)
		}
		src[fmt.Sprintf("ssl_s3_%d.c", i)] = b.String()
	}
	return src
}

// rebuildState is one repetition's codebase, artifact cache and edit
// stream.
type rebuildState struct {
	rng       *rand.Rand
	base, cur *codebase
	cache     *build.Cache
	fresh     int64 // makes every edit's content new, so it does real work
	order     []editKind
	step      int
}

func (st *rebuildState) nextEdit() editKind {
	if st.step%len(editCycle) == 0 {
		st.order = append(st.order[:0], editCycle...)
		st.rng.Shuffle(len(st.order), func(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] })
	}
	k := st.order[st.step%len(editCycle)]
	st.step++
	switch k {
	case editBody:
		st.fresh++
		st.cur.mult[st.rng.Intn(rebuildLibFiles)][st.rng.Intn(rebuildFns)] = 10 + st.fresh
	case editAssert:
		st.fresh++
		st.cur.verdict = 10 + st.fresh
	case editRevert:
		st.cur = st.base.clone()
	}
	return k
}

func buildCached(srcs map[string]string, cache *build.Cache) (*toolchain.Build, error) {
	return toolchain.BuildProgramOpts(srcs, toolchain.BuildOptions{Instrument: true, Cache: cache})
}

// setupRebuild makes rebuildSetups cold builds, each into a fresh
// artifact cache, timing each, and keeps the last one's cache.
func setupRebuild(rng *rand.Rand, base *codebase, s *sample) (*rebuildState, *toolchain.Build, error) {
	srcs := base.sources()
	var cache *build.Cache
	var b *toolchain.Build
	for i := 0; i < rebuildSetups; i++ {
		cache = build.NewCache()
		secs, err := timeSetup(func() (err error) {
			b, err = buildCached(srcs, cache)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		s.setups = append(s.setups, secs)
	}
	return &rebuildState{rng: rng, base: base, cur: base.clone(), cache: cache}, b, nil
}

// instrumentBuilt counts the instrument nodes a build actually ran.
func instrumentBuilt(b *toolchain.Build) int {
	n := 0
	for _, nd := range b.Graph.Nodes {
		if strings.HasPrefix(nd.ID, "instrument:") && nd.Status == build.StatusBuilt {
			n++
		}
	}
	return n
}

// checkCounts compares what the build graph rebuilt with what the edit
// kind must rebuild.
func checkCounts(k editKind, files int, b *toolchain.Build) error {
	switch k {
	case editNoop, editRevert:
		if n := b.Graph.Counts().Built; n != 0 {
			return fmt.Errorf("%s rebuilt %d node(s), want 0", editNames[k], n)
		}
	case editBody:
		if n := instrumentBuilt(b); n != 1 {
			return fmt.Errorf("body edit re-instrumented %d unit(s), want 1", n)
		}
	case editAssert:
		if n := instrumentBuilt(b); n != files {
			return fmt.Errorf("assertion edit re-instrumented %d unit(s), want %d", n, files)
		}
	}
	return nil
}

// unseen is a source set a repetition built for the first time, kept so
// its linked IR can be checked against an uncached build after the
// repetition, away from the timed builds.
type unseen struct {
	what string
	srcs map[string]string
	ir   [sha256.Size]byte
}

func irHash(b *toolchain.Build) [sha256.Size]byte { return sha256.Sum256([]byte(b.Program.String())) }

// checkUnseen builds each unseen source set without a cache and compares
// the linked IR.
func checkUnseen(o *outcome, sets []unseen) {
	for _, u := range sets {
		ref, err := toolchain.BuildProgramOpts(u.srcs, toolchain.BuildOptions{Instrument: true})
		if err == nil && irHash(ref) != u.ir {
			err = fmt.Errorf("linked IR differs from an uncached build")
		}
		if err != nil {
			o.check(u.what, false, "%v", err)
			o.failed++
		}
	}
}

// rebuildOp is one timed rebuild and what it did.
type rebuildOp struct {
	kind  editKind
	took  time.Duration
	built int
	nodes int
	hits  int
}

// runRebuildRep runs one repetition: warm-up edits, then edits until
// window of build time and at least one whole edit cycle have been
// measured. Only the builds are timed; ln, when tracing, spans every
// build.
func runRebuildRep(st *rebuildState, warm, window time.Duration, o *outcome, ln *lane) (rep, []rebuildOp, []unseen) {
	r := rep{lat: newHist()}
	var ops []rebuildOp
	var sets []unseen
	checked := map[editKind]int{}
	var warmed time.Duration
	for r.used.wall < window || r.ops < int64(len(editCycle)) {
		k := st.nextEdit()
		srcs := st.cur.sources()
		ln.setOp(int64(st.step))
		ln.begin("build", "toolchain.BuildProgramOpts")
		before := readUsage()
		b, err := buildCached(srcs, st.cache)
		used := before.until(readUsage())
		ln.end()
		if err == nil {
			err = checkCounts(k, len(srcs), b)
		}
		if err != nil {
			r.errs++
			o.check(editNames[k], false, "%v", err)
		} else if (k == editBody || k == editAssert) && checked[k] < rebuildChecked {
			checked[k]++
			sets = append(sets, unseen{what: editNames[k], srcs: srcs, ir: irHash(b)})
		}
		if warmed < warm {
			warmed += used.wall
			if warmed >= warm {
				runtime.GC() // start the timed builds from a collected heap
			}
			continue
		}
		r.used.add(used)
		r.ops++
		r.lat.record(used.wall)
		if err == nil {
			c := b.Graph.Counts()
			ops = append(ops, rebuildOp{kind: k, took: used.wall, built: c.Built, nodes: len(b.Graph.Nodes), hits: c.MemHits + c.DiskHits})
		}
	}
	return r, ops, sets
}

func measureRebuild(c *config, ln *lane) (*sample, []rebuildOp, *outcome, error) {
	rng := rand.New(rand.NewSource(c.seed))
	base := newCodebase(rng)
	s := &sample{}
	o := &outcome{}
	var ops []rebuildOp
	reps, window := repsFor(c, time.Second)
	for i := 0; i < reps; i++ {
		st, cold, err := setupRebuild(rng, base, s)
		if err != nil {
			return nil, nil, nil, err
		}
		r, repOps, sets := runRebuildRep(st, warmup(window), window, o, ln)
		s.reps = append(s.reps, r)
		ops = append(ops, repOps...)
		checkUnseen(o, append(sets, unseen{what: "cold build", srcs: base.sources(), ir: irHash(cold)}))
	}
	kinds := map[editKind]int{}
	for _, op := range ops {
		kinds[op.kind]++
	}
	o.check("edits checked", len(kinds) == len(editNames) && o.failed == 0,
		"%d body, %d assertion, %d revert and %d no-op rebuild(s): built-node counts match the edit kind; the cold builds' and the first edits' linked IR match an uncached build",
		kinds[editBody], kinds[editAssert], kinds[editRevert], kinds[editNoop])
	o.metrics = s.endToEnd()
	n, errs := s.ops()
	o.attempted = n
	o.failed += errs
	return s, ops, o, nil
}

func runRebuild(c *config) (*outcome, error) {
	_, _, o, err := measureRebuild(c, nil)
	return o, err
}

// traceRebuild spans every rebuild by edit kind, then calls the pipeline's
// stage functions directly on the original sources to price each stage; a
// cold build's time beyond the stages' sum is the graph's own overhead.
func traceRebuild(c *config) (*outcome, error) {
	ln := c.spans.lane()
	s, ops, o, err := measureRebuild(c, ln)
	if err != nil {
		return nil, err
	}
	perKind := map[editKind][]float64{}
	var built, nodes, hits int
	for _, op := range ops {
		perKind[op.kind] = append(perKind[op.kind], float64(op.took.Nanoseconds())/1e6)
		built += op.built
		nodes += op.nodes
		hits += op.hits
	}
	stages, err := stageTimes(newCodebase(rand.New(rand.NewSource(c.seed))).sources(), c.spans.lane())
	if err != nil {
		return nil, err
	}
	cold := median(s.setups) * 1e3
	var stageSum float64
	for _, v := range stages {
		stageSum += v
	}
	o.layers = map[string]float64{
		"build.cold_ms":            cold,
		"build.graph_overhead_ms":  cold - stageSum,
		"build.noop_ms":            median(perKind[editNoop]),
		"build.body_edit_ms":       median(perKind[editBody]),
		"build.assert_edit_ms":     median(perKind[editAssert]),
		"build.nodes_built_per_op": float64(built) / float64(max(len(ops), 1)),
		"build.cache_hit_ratio":    float64(hits) / float64(max(nodes, 1)),
		"csub.parse_ms":            stages["csub"],
		"compiler.compile_ms":      stages["compiler"],
		"manifest.combine_ms":      stages["manifest"],
		"automata.compile_ms":      stages["automata"],
		"instrument.module_ms":     stages["instrument"],
		"ir.optimize_ms":           stages["ir.optimize"],
		"ir.link_ms":               stages["ir.link"],
	}
	traced := o.attempted
	o.ledger = func(w io.Writer) {
		printLedger(w, c.spans, traced, nil)
		fmt.Fprintf(w, "    stage calls on the original sources (median of %d): ", stageRuns)
		for _, k := range sortedKeys(stages) {
			fmt.Fprintf(w, "%s %.3f ms  ", k, stages[k])
		}
		fmt.Fprintf(w, "\n    cold graph build %.3f ms = stages %.3f ms + graph overhead %.3f ms\n", cold, stageSum, cold-stageSum)
	}
	return o, nil
}

const stageRuns = 5

// stageTimes runs the pipeline's stages one call at a time over the
// sources — parse, compile, manifest combine, automata compile,
// instrument, optimise, link — and returns each stage's median total in
// milliseconds over stageRuns passes.
func stageTimes(srcs map[string]string, ln *lane) (map[string]float64, error) {
	samples := map[string][]float64{}
	names := sortedKeys(srcs)
	for run := 0; run < stageRuns; run++ {
		spent := map[string]time.Duration{}
		var err error
		stage := func(key, layer, name string, fn func() error) {
			if err == nil {
				spent[key] += timed(ln, layer, name, func() { err = fn() })
			}
		}
		var files []*csub.File
		for _, n := range names {
			stage("csub", "csub", "csub.Parse", func() error {
				f, err := csub.Parse(n, srcs[n])
				files = append(files, f)
				return err
			})
		}
		var ctx *compiler.Context
		var frags []*manifest.File
		var units []*compiler.Unit
		stage("compiler", "compiler", "compiler.CompileFile", func() (err error) {
			if ctx, err = compiler.NewContext(files...); err != nil {
				return err
			}
			for _, f := range files {
				u, err := compiler.CompileFile(f, ctx)
				if err != nil {
					return err
				}
				units = append(units, u)
				frags = append(frags, manifest.FromAssertions(f.Name, u.Assertions))
			}
			return nil
		})
		var combined *manifest.File
		stage("manifest", "manifest", "manifest.Combine", func() (err error) {
			combined, err = manifest.Combine(frags...)
			return err
		})
		var autos []*automata.Automaton
		stage("automata", "automata", "manifest.File.Compile", func() (err error) {
			autos, err = combined.Compile()
			return err
		})
		var mods []*ir.Module
		for i, u := range units {
			var m *ir.Module
			stage("instrument", "instrument", "instrument.Module", func() (err error) {
				m, _, err = instrument.Module(u.Module, autos, instrument.Options{
					DefinedFns: ctx.DefinedFns(), Suffix: fmt.Sprintf("__m%d", i),
				})
				return err
			})
			stage("ir.optimize", "ir", "ir.Optimize", func() error {
				ir.Optimize(m)
				return nil
			})
			mods = append(mods, m)
		}
		stage("ir.link", "ir", "ir.Link", func() error {
			_, err := ir.Link("program", mods...)
			return err
		})
		if err != nil {
			return nil, err
		}
		for key, d := range spent {
			samples[key] = append(samples[key], float64(d.Nanoseconds())/1e6)
		}
	}
	out := map[string]float64{}
	for key, xs := range samples {
		out[key] = median(xs)
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
