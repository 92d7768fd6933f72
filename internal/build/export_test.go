package build

import (
	"sync"

	"tesla/internal/automata"
	"tesla/internal/instrument"
	"tesla/internal/ir"
)

// EncodeModuleArtifact returns the module artifact encoder bound to m, as
// execNode calls it to persist instrument, strip and link nodes.
func EncodeModuleArtifact(m *ir.Module) func(dst []byte) ([]byte, error) {
	art := &moduleArtifact{Module: m}
	return func(dst []byte) ([]byte, error) { return encodeModule(art, dst) }
}

// ExecModuleNode returns a function that runs one link node producing m
// through execNode, on a memory cache emptied before each call so every
// call misses. The node is given a dependent, so its hash is needed and
// every call takes the module's content sum.
func ExecModuleNode(m *ir.Module) func() {
	art := &moduleArtifact{Module: m}
	x := &exec{cache: NewCache()}
	n := &node{id: "link", kind: "link", encode: encodeModule, decode: decodeModule, sum: sumModule,
		run: func() (any, error) { return art, nil }}
	n.dependents = []*node{{id: "consumer"}}
	return func() {
		clear(x.cache.mem)
		x.execNode(n)
		if n.err != nil {
			panic(n.err)
		}
		if !x.cache.mem[n.key].hashed {
			panic("link node with a dependent did not hash its artifact")
		}
	}
}

// ExecInstrumentNode returns a function that runs one instrument node over
// a compile artifact holding m, against autos, through execNode, on a
// memory cache emptied before each call so every call misses. Every
// function m defines counts as defined in the program. The node is given
// a dependent, so it hashes on every call, as in a build.
func ExecInstrumentNode(m *ir.Module, autos []*automata.Automaton) func() {
	unit := &unitArtifact{Module: m}
	defs := map[string]bool{}
	for _, f := range m.Funcs {
		defs[f.Name] = true
	}
	x := &exec{cache: NewCache()}
	n := &node{id: "instrument:" + m.Name, kind: "instrument", encode: encodeModule, decode: decodeModule, sum: sumModule,
		run: func() (any, error) {
			return instrumentUnit(unit, autos, instrument.Options{DefinedFns: defs, Suffix: "__m0"})
		}}
	n.dependents = []*node{{id: "link"}}
	return func() {
		clear(x.cache.mem)
		x.execNode(n)
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
		var sum digest
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
// hex node key (as NodeReport.Key prints it), and whether that artifact
// has been encoded and hashed.
func (c *Cache) Hashed(key string) (hashed, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.mem {
		if k.String() == key {
			return e.hashed, true
		}
	}
	return false, false
}
