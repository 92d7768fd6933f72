package build

import (
	"sync"

	"tesla/internal/automata"
	"tesla/internal/ir"
)

// EncodeModuleArtifact returns the module artifact encoder bound to m, as
// execNode calls it to persist instrument, strip and link nodes.
func EncodeModuleArtifact(m *ir.Module) func(dst []byte) ([]byte, error) {
	art := &moduleArtifact{Module: m}
	return func(dst []byte) ([]byte, error) { return encodeModule(art, dst) }
}

// ExecModuleNode returns a function that runs a link node whose artifact
// is m through execNode. Before each call the memory cache holds that
// artifact unhashed under the node's key, as a link node without
// dependents leaves it; this node is given a dependent, so every call
// hits and takes the module's content sum.
func ExecModuleNode(m *ir.Module) func() {
	g := &graphState{opts: Options{Cache: NewCache()}, nodes: []node{{id: "link", kind: kindLink, unit: -1}}}
	n := &g.nodes[0]
	n.dependents = []*node{{id: "consumer"}}
	key, art := g.nodeKey(n), &moduleArtifact{Module: m}
	return func() {
		g.opts.Cache.mem[key] = memEntry{art: art}
		g.execNode(n)
		if n.err != nil {
			panic(n.err)
		}
		if !g.opts.Cache.mem[n.key].hashed {
			panic("link node with a dependent did not hash its artifact")
		}
	}
}

// ExecInstrumentNode returns a function that runs an instrument node over
// a compile artifact holding m, against autos, through execNode, on a
// memory cache emptied before each call so every call misses. Every
// function m defines counts as defined in the program. The node is given
// a dependent, so it hashes on every call, as in a build.
func ExecInstrumentNode(m *ir.Module, autos []*automata.Automaton) func() {
	defs := map[string]bool{}
	for _, f := range m.Funcs {
		defs[f.Name] = true
	}
	g := &graphState{opts: Options{Cache: NewCache()}, nodes: []node{
		{id: "compile:" + m.Name, kind: kindCompile, art: &unitArtifact{Module: m}},
		{id: "automata", kind: kindAutomata, unit: -1, art: &autosArtifact{Autos: autos}},
		{id: "defs", kind: kindDefs, unit: -1, art: defs},
		{id: "instrument:" + m.Name, kind: kindInstrument},
	}}
	n := &g.nodes[3]
	n.deps = []*node{&g.nodes[0], &g.nodes[1], &g.nodes[2]}
	n.dependents = []*node{{id: "link"}}
	return func() {
		clear(g.opts.Cache.mem)
		g.execNode(n)
		if n.err != nil {
			panic(n.err)
		}
	}
}

// CountEncodes makes every build over c count the artifacts it encodes, by
// node ID, until the returned function is called; that function returns
// the counts.
func (c *Cache) CountEncodes() func() map[string]int {
	var mu sync.Mutex
	counts := map[string]int{}
	c.encoded = func(id string) {
		mu.Lock()
		counts[id]++
		mu.Unlock()
	}
	return func() map[string]int {
		c.encoded = nil
		mu.Lock()
		defer mu.Unlock()
		return counts
	}
}

// StaleSums recomputes, from scratch, the content sum of every hashed unit
// and module artifact in the memory cache, with no memoized digest, and
// returns the hex keys of those whose stored hash differs.
func (c *Cache) StaleSums() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stale []string
	for k, e := range c.mem {
		if !e.hashed {
			continue
		}
		var sum Digest
		switch a := e.art.(type) {
		case *unitArtifact:
			sum = sumUnit(&unitArtifact{Module: a.Module, Fragment: a.Fragment})
		case *moduleArtifact:
			sum = sumModule(&moduleArtifact{Module: a.Module, Stats: a.Stats})
		default:
			continue
		}
		if sum != e.hash {
			stale = append(stale, k.String())
		}
	}
	return stale
}

// Hashed reports whether the memory cache holds an artifact under the
// node key, and whether that artifact has been encoded and hashed.
func (c *Cache) Hashed(key Digest) (hashed, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	return e.hashed, ok
}

// AllCached reports whether the build did no stage work at all — every
// node was served from the memory or disk cache.
func (r *Result) AllCached() bool {
	c := r.Counts()
	return c.Built == 0 && c.Failed == 0 && c.Skipped == 0
}

// ForgetGraph drops the graph c kept from its last build, so the next
// build over c wires a fresh one.
func (c *Cache) ForgetGraph() { c.swapGraph(nil) }
