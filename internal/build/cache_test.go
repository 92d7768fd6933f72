package build_test

// Cache-behaviour tests: what re-runs after an edit. These pin down the
// §5.1 rebuild semantics the graph exists to reproduce — a body edit
// re-instruments one unit, an assertion edit re-instruments all of them —
// plus cache robustness (corrupt objects) and diagnostic collection.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tesla/internal/bench"
	"tesla/internal/build"
	"tesla/internal/ir"
	"tesla/internal/toolchain"
)

// threeFiles is a small cross-file program: lib defines the event, crypto
// uses it, client asserts it.
func threeFiles() map[string]string {
	return map[string]string{
		"lib.c": `
int checksum(int x) { return x % 97; }
`,
		"crypto.c": `
int verify(int sig) {
	int c = checksum(sig);
	if (c == 0) { return 1; }
	return 0;
}
`,
		"client.c": `
int fetch(int sig) {
	int ok = verify(sig);
	TESLA_WITHIN(main, previously(verify(ANY(int)) == 1));
	return ok;
}
int main(int sig) { return fetch(sig); }
`,
	}
}

// statuses maps node ID → status for a build's report.
func statuses(b *toolchain.Build) map[string]build.Status {
	out := map[string]build.Status{}
	for _, n := range b.Graph.Nodes {
		out[n.ID] = n.Status
	}
	return out
}

func mustBuild(t *testing.T, sources map[string]string, opts toolchain.BuildOptions) *toolchain.Build {
	t.Helper()
	b, err := toolchain.BuildProgramOpts(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSecondBuildAllHits(t *testing.T) {
	dir := t.TempDir()
	opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
	cold := mustBuild(t, threeFiles(), opts)
	if c := cold.Graph.Counts(); c.Built == 0 {
		t.Fatalf("cold build should build: %s", cold.Graph.Summary())
	}
	warm := mustBuild(t, threeFiles(), opts)
	c := warm.Graph.Counts()
	if !warm.Graph.AllCached() || c.DiskHits == 0 {
		t.Fatalf("warm build not fully cached: %s", warm.Graph.Summary())
	}
	// No file may have been re-parsed.
	for _, n := range warm.Graph.Nodes {
		if strings.HasPrefix(n.ID, "parse:") {
			t.Errorf("warm build re-parsed: %s", n.ID)
		}
	}
	if cold.Program.String() != warm.Program.String() {
		t.Fatal("warm program differs from cold")
	}
}

// TestBodyEditReinstrumentsOneUnit: editing a function body leaves the
// manifest fragments unchanged, so only the edited unit re-compiles and
// re-instruments; every other unit's artifacts are reused.
func TestBodyEditReinstrumentsOneUnit(t *testing.T) {
	dir := t.TempDir()
	opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
	mustBuild(t, threeFiles(), opts)

	edited := threeFiles()
	edited["lib.c"] = `
int checksum(int x) { return x % 89; }
`
	incr := mustBuild(t, edited, opts)
	st := statuses(incr)

	for id, want := range map[string]build.Status{
		"compile:lib.c":       build.StatusBuilt,
		"instrument:lib.c":    build.StatusBuilt,
		"analyse:lib.c":       build.StatusBuilt, // re-runs, reproduces same bytes
		"combine":             build.StatusDiskHit,
		"automata":            build.StatusDiskHit,
		"compile:crypto.c":    build.StatusDiskHit,
		"compile:client.c":    build.StatusDiskHit,
		"instrument:crypto.c": build.StatusDiskHit,
		"instrument:client.c": build.StatusDiskHit,
		"link":                build.StatusBuilt,
	} {
		if st[id] != want {
			t.Errorf("%s: status %s, want %s", id, st[id], want)
		}
	}
	// Only the edited file was parsed.
	for _, n := range incr.Graph.Nodes {
		if strings.HasPrefix(n.ID, "parse:") && n.ID != "parse:lib.c" {
			t.Errorf("incremental build parsed %s", n.ID)
		}
	}
}

// TestAssertionEditReinstrumentsEverything reproduces the paper's
// one-to-many property: touching one file's assertion changes the combined
// manifest, which every unit's instrumentation keys on — all of them
// rebuild, even though only one source changed.
func TestAssertionEditReinstrumentsEverything(t *testing.T) {
	dir := t.TempDir()
	opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
	mustBuild(t, threeFiles(), opts)

	edited := threeFiles()
	edited["client.c"] = strings.Replace(edited["client.c"],
		"verify(ANY(int)) == 1", "verify(ANY(int)) == 0", 1)
	incr := mustBuild(t, edited, opts)
	st := statuses(incr)

	for id, want := range map[string]build.Status{
		"compile:client.c":    build.StatusBuilt,
		"analyse:client.c":    build.StatusBuilt,
		"combine":             build.StatusBuilt,
		"automata":            build.StatusBuilt,
		"instrument:lib.c":    build.StatusBuilt, // unchanged source, re-instrumented
		"instrument:crypto.c": build.StatusBuilt, // unchanged source, re-instrumented
		"instrument:client.c": build.StatusBuilt,
		"compile:lib.c":       build.StatusDiskHit, // but never re-compiled
		"compile:crypto.c":    build.StatusDiskHit,
		"link":                build.StatusBuilt,
	} {
		if st[id] != want {
			t.Errorf("%s: status %s, want %s", id, st[id], want)
		}
	}
}

// TestAssertionEditSharesUntouchedFuncs: an assertion edit re-instruments
// every unit, but each instrument node rebuilds only the functions the hook
// plan touches. Every function the plan leaves alone, in this build and the
// previous one, is the same *ir.Func in both: the compile artifact's
// memoized optimised copy, shared instead of copied.
func TestAssertionEditSharesUntouchedFuncs(t *testing.T) {
	opts := build.Options{Instrument: true, Jobs: 4, Cache: build.NewCache()}
	sources := bench.OpenSSLCodebase(6, 4)
	// Functions with dead code: the optimiser copies these, so only the
	// compile artifact's memoized copy keeps them shared across builds.
	sources["util.c"] = `
int util_scale(int a) {
	int unused = a * 99;
	return a * 2;
}
int util_mix(int a, int b) {
	int t = a + b;
	int dead = t * t;
	return t % 1009;
}
`
	prev, err := build.Run(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources["client.c"] = strings.Replace(sources["client.c"], ") == 1));", ") == 0));", 1)
	next, err := build.Run(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range next.Nodes {
		if strings.HasPrefix(n.ID, "instrument:") && n.Status != build.StatusBuilt {
			t.Errorf("%s: status %s after an assertion edit, want %s", n.ID, n.Status, build.StatusBuilt)
		}
	}
	hooked := func(f *ir.Func) bool {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && strings.HasPrefix(in.Sym, "__tesla") {
					return true
				}
			}
		}
		return false
	}
	shared, rebuilt := 0, 0
	for _, f := range next.Program.Funcs {
		old := prev.Program.Func(f.Name)
		switch {
		case strings.HasPrefix(f.Name, "__tesla"): // generated translators
		case hooked(f):
			rebuilt++
			if f == old {
				t.Errorf("%s: hooked, but the previous build's function", f.Name)
			}
		case old != nil && !hooked(old):
			shared++
			if f != old {
				t.Errorf("%s: the plan leaves it alone, but this build copied it", f.Name)
			}
		}
	}
	if rebuilt == 0 || shared < len(next.Program.Funcs)/2 {
		t.Fatalf("%d shared and %d rebuilt of %d functions: the edit does not exercise sharing", shared, rebuilt, len(next.Program.Funcs))
	}
	// Sharing changes no byte of the program.
	cold, err := build.Run(sources, build.Options{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Program.String() != next.Program.String() {
		t.Fatal("the edited program differs from an uncached build")
	}
}

// TestInterfaceEditRecompilesDependents: adding a #define changes the
// file's interface summary, which every compile keys on (the role of a
// header edit) — but unchanged files still early-cut at instrumentation
// because their recompiled modules hash identically.
func TestInterfaceEditRecompilesDependents(t *testing.T) {
	dir := t.TempDir()
	opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
	mustBuild(t, threeFiles(), opts)

	edited := threeFiles()
	edited["lib.c"] = `
#define MODULUS 97
int checksum(int x) { return x % MODULUS; }
`
	incr := mustBuild(t, edited, opts)
	st := statuses(incr)
	for _, id := range []string{"compile:lib.c", "compile:crypto.c", "compile:client.c"} {
		if st[id] != build.StatusBuilt {
			t.Errorf("%s: status %s, want %s (interface change must recompile)", id, st[id], build.StatusBuilt)
		}
	}
	// crypto.c and client.c recompile to identical modules: early cutoff
	// keeps their instrumentation cached.
	for _, id := range []string{"instrument:crypto.c", "instrument:client.c"} {
		if st[id] != build.StatusDiskHit {
			t.Errorf("%s: status %s, want %s (early cutoff)", id, st[id], build.StatusDiskHit)
		}
	}
}

// TestCorruptCacheObjectRebuilds: a truncated or garbage object is a miss,
// not an error.
func TestCorruptCacheObjectRebuilds(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"overwrite": func([]byte) []byte { return []byte("not an artifact") },
		"truncate":  func(data []byte) []byte { return data[:len(data)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
			cold := mustBuild(t, threeFiles(), opts)

			objects := filepath.Join(dir, "objects")
			var clobbered int
			err := filepath.Walk(objects, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				clobbered++
				return os.WriteFile(path, corrupt(data), 0o644)
			})
			if err != nil || clobbered == 0 {
				t.Fatalf("clobber failed: %d objects, %v", clobbered, err)
			}

			rebuilt := mustBuild(t, threeFiles(), opts)
			if c := rebuilt.Graph.Counts(); c.DiskHits != 0 {
				t.Errorf("%d corrupt object(s) served as hits: %s", c.DiskHits, rebuilt.Graph.Summary())
			}
			if cold.Program.String() != rebuilt.Program.String() {
				t.Fatal("rebuild over corrupt cache produced different program")
			}
			warm := mustBuild(t, threeFiles(), opts)
			if !warm.Graph.AllCached() {
				t.Fatalf("cache did not repair itself: %s", warm.Graph.Summary())
			}
		})
	}
}

// TestDiskRebuildMatchesMemory: an incremental build whose unchanged
// artifacts are decoded from disk behaves exactly like one served from
// memory — same node keys, statuses, IR and stats. Instrument and link
// nodes rebuild from decoded modules, and their outputs feed downstream
// keys, so this pins that a decoded module re-encodes to the bytes it was
// decoded from: early cutoff works the same from disk as from memory.
func TestDiskRebuildMatchesMemory(t *testing.T) {
	base := threeFiles()
	base["rec.c"] = structUnit
	edits := map[string]func(map[string]string){
		"body edit": func(s map[string]string) {
			s["lib.c"] = "\nint checksum(int x) { return x % 89; }\n"
		},
		"assertion edit": func(s map[string]string) {
			s["client.c"] = strings.Replace(s["client.c"], "verify(ANY(int)) == 1", "verify(ANY(int)) == 0", 1)
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			edited := copySources(base)
			edit(edited)
			rebuild := func(first, second *build.Cache) *build.Result {
				t.Helper()
				if _, err := build.Run(base, build.Options{Instrument: true, Cache: first}); err != nil {
					t.Fatal(err)
				}
				res, err := build.Run(edited, build.Options{Instrument: true, Cache: second})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			mc := build.NewCache()
			mem := rebuild(mc, mc)
			dir := t.TempDir()
			cold, err := build.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := build.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			disk := rebuild(cold, fresh)

			if c := disk.Counts(); c.MemHits != 0 || c.DiskHits == 0 {
				t.Fatalf("second build not served from disk: %s", disk.Summary())
			}
			hit := func(s build.Status) build.Status {
				if s == build.StatusDiskHit {
					return build.StatusMemHit
				}
				return s
			}
			if len(mem.Nodes) != len(disk.Nodes) {
				t.Fatalf("%d nodes from memory, %d from disk", len(mem.Nodes), len(disk.Nodes))
			}
			for i, m := range mem.Nodes {
				d := disk.Nodes[i]
				if m.ID != d.ID || m.Key != d.Key || hit(m.Status) != hit(d.Status) {
					t.Errorf("node %d: memory %s %s %.12s, disk %s %s %.12s", i, m.ID, m.Status, m.Key, d.ID, d.Status, d.Key)
				}
			}
			if mem.Program.String() != disk.Program.String() {
				t.Error("linked IR differs between memory and disk rebuilds")
			}
			if mem.Stats != disk.Stats {
				t.Errorf("stats: memory %+v, disk %+v", mem.Stats, disk.Stats)
			}
		})
	}
}

// TestContentSumsAgree: unit and module artifacts hash by content sum,
// from memoized per-function digests when built and from scratch when
// decoded, so the sum must be a pure function of content for early
// cutoff to behave the same from memory and from disk. Over the corpus,
// and over an edit sequence shaped like the rebuild workload (body edit,
// assertion edit, revert, no-op), every node key must be equal across a
// memory-cache build, a cold disk-backed build and a warm one that decodes
// every artifact; and every hashed artifact's stored sum must equal one
// recomputed from scratch.
func TestContentSumsAgree(t *testing.T) {
	type step struct {
		name    string
		sources map[string]string
	}
	var seqs [][]step
	for name, sources := range corpus(t) {
		seqs = append(seqs, []step{{name, sources}, {name + " no-op", sources}})
	}
	base := threeFiles()
	base["rec.c"] = structUnit
	body := copySources(base)
	body["lib.c"] = "\nint checksum(int x) { return x % 89; }\n"
	assert := copySources(body)
	assert["client.c"] = strings.Replace(assert["client.c"], "verify(ANY(int)) == 1", "verify(ANY(int)) == 0", 1)
	seqs = append(seqs, []step{
		{"base", base}, {"body edit", body}, {"assertion edit", assert}, {"revert", base}, {"no-op", base},
	})

	for _, opts := range []build.Options{{}, {Instrument: true}, {Instrument: true, Check: true, Elide: true}} {
		for _, seq := range seqs {
			dir := t.TempDir()
			mem := build.NewCache()
			cold, err := build.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range seq {
				label := fmt.Sprintf("%s (instrument=%t check=%t)", st.name, opts.Instrument, opts.Check)
				run := func(c *build.Cache) *build.Result {
					t.Helper()
					o := opts
					o.Cache = c
					res, err := build.Run(st.sources, o)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res
				}
				warmCache, err := build.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				m, c := run(mem), run(cold)
				w := run(warmCache)
				for _, n := range w.Nodes {
					if n.Status == build.StatusBuilt && !strings.HasPrefix(n.ID, "parse:") && n.ID != "check" {
						t.Errorf("%s: warm disk build rebuilt %s", label, n.ID)
					}
				}
				mn, cn, wn := stageNodes(m), stageNodes(c), stageNodes(w)
				if len(mn) != len(cn) || len(mn) != len(wn) {
					t.Fatalf("%s: %d nodes from memory, %d cold disk, %d warm disk", label, len(mn), len(cn), len(wn))
				}
				for i := range mn {
					if mn[i].ID != cn[i].ID || mn[i].Key != cn[i].Key || mn[i].ID != wn[i].ID || mn[i].Key != wn[i].Key {
						t.Errorf("%s: node %d: memory %s %.12s, cold disk %s %.12s, warm disk %s %.12s",
							label, i, mn[i].ID, mn[i].Key, cn[i].ID, cn[i].Key, wn[i].ID, wn[i].Key)
					}
				}
				if m.Program.String() != w.Program.String() {
					t.Errorf("%s: linked IR differs between memory and warm disk builds", label)
				}
				for _, cache := range []*build.Cache{mem, cold, warmCache} {
					if stale := cache.StaleSums(); len(stale) > 0 {
						t.Errorf("%s: stored sums differ from sums recomputed from scratch: %v", label, stale)
					}
				}
			}
		}
	}
}

// structUnit is a struct-using unit, so interned layouts cross the disk
// and the content sums too.
const structUnit = `
struct rec { int sig; int ok; };
int record(int sig) {
	struct rec *r = alloc(rec);
	r->sig = sig;
	r->ok = verify(sig);
	return r->ok;
}
`

func copySources(src map[string]string) map[string]string {
	out := make(map[string]string, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// reportKey returns the report's key for the node with the given ID.
func reportKey(t *testing.T, res *build.Result, id string) string {
	t.Helper()
	for _, n := range res.Nodes {
		if n.ID == id {
			return n.Key
		}
	}
	t.Fatalf("no %s node in %s", id, res.Summary())
	return ""
}

// stageNodes is the report without its parse records.
func stageNodes(res *build.Result) []build.NodeReport {
	var out []build.NodeReport
	for _, n := range res.Nodes {
		if !strings.HasPrefix(n.ID, "parse:") {
			out = append(out, n)
		}
	}
	return out
}

// TestLinkEncodedOnlyForDisk: the compile, instrument, strip and link
// nodes hash their artifacts by content sum, so a memory-only cache never
// needs their bytes: neither a build nor an assertion edit rebuilt on
// that cache encodes one, and the link artifact, whose hash nothing reads
// (no node depends on it), is not even hashed. With a disk layer the
// bytes are the stored object, so a cold build encodes each persisted
// artifact exactly once and writes the link object.
func TestLinkEncodedOnlyForDisk(t *testing.T) {
	opts := build.Options{Instrument: true, Cache: build.NewCache()}
	encodes := opts.Cache.CountEncodes()
	res, err := build.Run(threeFiles(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hashed, ok := opts.Cache.Hashed(reportKey(t, res, "link")); !ok || hashed {
		t.Errorf("memory-only build: link artifact cached %t, hashed %t; want cached and not hashed", ok, hashed)
	}
	if hashed, ok := opts.Cache.Hashed(reportKey(t, res, "instrument:lib.c")); !ok || !hashed {
		t.Errorf("memory-only build: instrument artifact cached %t, hashed %t; want both (link keys on it)", ok, hashed)
	}
	edited := threeFiles()
	edited["client.c"] = strings.Replace(edited["client.c"], "verify(ANY(int)) == 1", "verify(ANY(int)) == 0", 1)
	if res, err = build.Run(edited, opts); err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if strings.HasPrefix(n.ID, "instrument:") && n.Status != build.StatusBuilt {
			t.Fatalf("assertion edit: %s %s, want built", n.ID, n.Status)
		}
	}
	for id, n := range encodes() {
		if moduleNode(id) {
			t.Errorf("memory-only build and assertion edit encoded %s %d time(s); want none", id, n)
		}
	}

	dir := t.TempDir()
	if opts.Cache, err = build.Open(dir); err != nil {
		t.Fatal(err)
	}
	encodes = opts.Cache.CountEncodes()
	if res, err = build.Run(threeFiles(), opts); err != nil {
		t.Fatal(err)
	}
	got := encodes()
	for _, n := range stageNodes(res) {
		if got[n.ID] != 1 {
			t.Errorf("disk-backed build encoded %s %d time(s); want once", n.ID, got[n.ID])
		}
	}
	if len(got) != len(stageNodes(res)) {
		t.Errorf("disk-backed build encoded %d artifacts for %d nodes: %v", len(got), len(stageNodes(res)), got)
	}
	key := reportKey(t, res, "link")
	if hashed, ok := opts.Cache.Hashed(key); !ok || !hashed {
		t.Errorf("disk-backed build: link artifact cached %t, hashed %t; want both", ok, hashed)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", key[:2], key[2:])); err != nil {
		t.Errorf("disk-backed build did not write the link object: %v", err)
	}
}

// moduleNode reports whether a node ID names a node whose artifact is an
// IR module hashed by content sum.
func moduleNode(id string) bool {
	for _, p := range []string{"compile:", "instrument:", "strip:"} {
		if strings.HasPrefix(id, p) {
			return true
		}
	}
	return id == "rawlink" || id == "link"
}

// TestCheckThenElideSharesCache: the check node has dependents only when
// instrumentation elides, and its key does not include Elide, so a Check
// build leaves its artifact unhashed in the memory cache and a following
// Check+Elide build hits it. That hit must hash the artifact: every node
// key and the linked program must equal a cold Check+Elide build's.
func TestCheckThenElideSharesCache(t *testing.T) {
	for name, sources := range corpus(t) {
		cache := build.NewCache()
		checked := build.Options{Instrument: true, Check: true, Cache: cache}
		if _, err := build.Run(sources, checked); err != nil {
			t.Fatalf("%s: check build: %v", name, err)
		}
		elided := checked
		elided.Elide = true
		warm, err := build.Run(sources, elided)
		if err != nil {
			t.Fatalf("%s: elide build on the shared cache: %v", name, err)
		}
		elided.Cache = nil
		cold, err := build.Run(sources, elided)
		if err != nil {
			t.Fatalf("%s: cold elide build: %v", name, err)
		}
		// Parse records differ (the warm build parses nothing); stage
		// nodes must match one for one.
		wn, cn := stageNodes(warm), stageNodes(cold)
		if len(wn) != len(cn) {
			t.Fatalf("%s: %d nodes on the shared cache, %d cold", name, len(wn), len(cn))
		}
		for i, w := range wn {
			if c := cn[i]; w.ID != c.ID || w.Key != c.Key {
				t.Errorf("%s: node %d: shared cache %s %.12s, cold %s %.12s", name, i, w.ID, w.Key, c.ID, c.Key)
			}
		}
		if warm.Program.String() != cold.Program.String() {
			t.Errorf("%s: linked IR differs between the shared-cache and cold elide builds", name)
		}
	}
}

// TestAllParseErrorsReported: the build must surface every failing file's
// diagnostics with positions, not stop at the first.
func TestAllParseErrorsReported(t *testing.T) {
	_, err := toolchain.BuildProgram(map[string]string{
		"good.c": "int main(int x) { return x; }\n",
		"bad1.c": "int f( { return 0; }\n",
		"bad2.c": "int g() { return 0\n",
	}, true)
	if err == nil {
		t.Fatal("want parse errors")
	}
	msg := err.Error()
	for _, want := range []string{"bad1.c:", "bad2.c:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing diagnostics for %s", msg, want)
		}
	}
	var list *build.ErrorList
	if !asErrorList(err, &list) || len(list.Errs) != 2 {
		t.Fatalf("want ErrorList with 2 entries, got %T: %v", err, err)
	}
}

// TestAllCompileErrorsReported: same for the compile stage — both files'
// errors, each with file:line.
func TestAllCompileErrorsReported(t *testing.T) {
	_, err := toolchain.BuildProgram(map[string]string{
		"bad1.c": "int f(int x) { y = 3; return x; }\n",
		"bad2.c": "int g(int x) { z = 4; return x; }\n",
		"main.c": "int main(int x) { return x; }\n",
	}, true)
	if err == nil {
		t.Fatal("want compile errors")
	}
	msg := err.Error()
	for _, want := range []string{"bad1.c:1", "bad2.c:1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing positioned diagnostic %s", msg, want)
		}
	}
}

func asErrorList(err error, target **build.ErrorList) bool {
	if l, ok := err.(*build.ErrorList); ok {
		*target = l
		return true
	}
	return false
}

// TestSummaryCountsFailures pins the summary line's format: a build with
// one compile error reports it as failed=1 at the end of the line, after
// the counters CI gates grep for.
func TestSummaryCountsFailures(t *testing.T) {
	res, err := build.Run(map[string]string{
		"bad.c":  "int f(int x) { y = 3; return x; }\n",
		"main.c": "int main(int x) { return x; }\n",
	}, build.Options{Instrument: true})
	if err == nil {
		t.Fatal("want a compile error")
	}
	const want = "graph: 14 nodes  built=7 mem=0 disk=0 skipped=6 failed=1"
	if got := res.Summary(); got != want {
		t.Fatalf("summary\n got %q\nwant %q", got, want)
	}
}
