package build

import (
	"crypto/sha256"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Status classifies how a node's artifact was obtained.
type Status int

const (
	// StatusBuilt: the node ran its stage.
	StatusBuilt Status = iota
	// StatusMemHit: served from this process's memory cache.
	StatusMemHit
	// StatusDiskHit: decoded from the on-disk artifact cache.
	StatusDiskHit
	// StatusSkipped: an upstream dependency failed, so the node never ran.
	StatusSkipped
	// StatusFailed: the node ran and produced an error.
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusBuilt:
		return "built"
	case StatusMemHit:
		return "hit (mem)"
	case StatusDiskHit:
		return "hit (disk)"
	case StatusSkipped:
		return "skipped"
	case StatusFailed:
		return "error"
	}
	return "?"
}

// errSkipped marks nodes that never ran because an upstream node failed.
var errSkipped = errors.New("build: skipped: upstream stage failed")

// nodeKind is a node's stage. It indexes kinds.
type nodeKind uint8

const (
	kindIface nodeKind = iota
	kindCompile
	kindAnalyse
	kindCombine
	kindDefs
	kindAutomata
	kindRawlink
	kindCheck
	kindInstrument
	kindStrip
	kindLink
)

// kindInfo is what every node of a kind shares. name is the key namespace
// and the ID (a per-file node's ID is "name:file"). encode appends the
// artifact's bytes to dst, a buffer the scheduler reuses (see
// artifact.go); decode reads them back. sum, when set, is the artifact's
// content hash, and the bytes are encoded only for the disk layer; when
// nil, the hash is SHA-256 over the bytes. cacheable gates the on-disk
// layer; in-memory caching always applies.
type kindInfo struct {
	name      string
	cacheable bool
	encode    func(art any, dst []byte) ([]byte, error)
	decode    func([]byte) (any, error)
	sum       func(art any) Digest
}

var kinds = [...]kindInfo{
	kindIface:      {"iface", true, encodeIface, decodeIface, nil},
	kindCompile:    {"compile", true, encodeUnit, decodeUnit, sumUnit},
	kindAnalyse:    {"analyse", true, encodeManifest, decodeManifest, nil},
	kindCombine:    {"combine", true, encodeManifest, decodeManifest, nil},
	kindDefs:       {"defs", true, encodeDefs, decodeDefs, nil},
	kindAutomata:   {"automata", true, encodeAutos, decodeAutos, nil},
	kindRawlink:    {"rawlink", true, encodeModule, decodeModule, sumModule},
	kindCheck:      {"check", false, encodeSafeSet, nil, nil},
	kindInstrument: {"instrument", true, encodeModule, decodeModule, sumModule},
	kindStrip:      {"strip", true, encodeModule, decodeModule, sumModule},
	kindLink:       {"link", true, encodeModule, decodeModule, sumModule},
}

// node is one stage instance in the build graph; Run places every node
// of a build in one slab. All scheduling state is written by the single
// worker that executes the node; dependents observe it only after the
// dependency counter reaches zero, which the ready channel orders.
type node struct {
	id   string // display name, e.g. "compile:client.c"
	kind nodeKind
	unit int // the file's index in name order; -1 for program-wide nodes

	// deps are the nodes whose artifacts this node's stage reads and
	// whose hashes feed its key, in a fixed order.
	deps []*node

	// Scheduler state.
	pending    int32
	dependents []*node
	status     Status
	key        Digest
	hash       Digest // zero unless a dependent or the disk layer needed it
	art        any
	err        error
	dur        time.Duration
}

// runGraph runs the build's nodes over a bounded worker pool. Nodes are
// released in dependency order; independent nodes run concurrently on up
// to Options.Jobs workers. Every node's dependents are carved from one
// slab, counted first.
func (g *graphState) runGraph() {
	nodes := g.nodes
	jobs := g.opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(nodes))

	// pending counts each node's dependents until it is set to its
	// number of dependencies below.
	edges := 0
	for i := range nodes {
		for _, d := range nodes[i].deps {
			d.pending++
		}
		edges += len(nodes[i].deps)
	}
	slab := make([]*node, edges)
	for i := range nodes {
		n := &nodes[i]
		n.dependents, slab = slab[:0:n.pending], slab[n.pending:]
		n.pending = int32(len(n.deps))
	}
	ready := make(chan *node, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		for _, d := range n.deps {
			d.dependents = append(d.dependents, n)
		}
		if n.pending == 0 {
			ready <- n
		}
	}

	var done int32
	total := int32(len(nodes))
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range ready {
				start := time.Now()
				g.execNode(n)
				n.dur = time.Since(start)
				for _, dep := range n.dependents {
					if atomic.AddInt32(&dep.pending, -1) == 0 {
						ready <- dep
					}
				}
				if atomic.AddInt32(&done, 1) == total {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
}

// execNode resolves one node: propagate upstream failure, derive the
// content-hash key, consult the memory and disk caches, and only then run
// the stage. An artifact is hashed only when something reads the hash or
// the bytes: a dependent's key incorporates the hash, and the disk layer
// stores the bytes. A node with neither (the link node, and the check
// node unless instrumentation elides) leaves its artifact in the memory
// cache unhashed; a later hit from a node that has dependents hashes it
// then.
func (g *graphState) execNode(n *node) {
	for _, d := range n.deps {
		if d.err != nil {
			n.status, n.err = StatusSkipped, errSkipped
			return
		}
	}
	k := &kinds[n.kind]
	n.key = g.nodeKey(n)
	persist := k.cacheable && g.opts.Cache.dir != ""
	needHash := persist || len(n.dependents) > 0

	if e, ok := g.opts.Cache.getMem(n.key); ok {
		n.art, n.hash, n.status = e.art, e.hash, StatusMemHit
		if needHash && !e.hashed {
			if err := g.store(n, persist); err != nil {
				n.status, n.err = StatusFailed, err
			}
		}
		return
	}
	if k.cacheable {
		if data, ok := g.opts.Cache.getDisk(n.key); ok {
			// A corrupt or undecodable object is treated as a miss and
			// rebuilt over.
			if art, err := k.decode(data); err == nil {
				n.art, n.status = art, StatusDiskHit
				if k.sum != nil {
					n.hash = k.sum(art)
				} else {
					n.hash = sha256.Sum256(data)
				}
				g.opts.Cache.putMem(n.key, memEntry{art: n.art, hash: n.hash, hashed: true})
				return
			}
		}
	}

	art, err := g.run(n)
	if err != nil {
		n.status, n.err = StatusFailed, err
		return
	}
	n.art, n.status = art, StatusBuilt
	if !needHash {
		g.opts.Cache.putMem(n.key, memEntry{art: art})
		return
	}
	if err := g.store(n, persist); err != nil {
		n.status, n.err = StatusFailed, err
	}
}

// nodeKey derives a node's cache key from its kind, its literal inputs
// and its dependencies' raw artifact hashes. The literal inputs are the
// file's name and source digest (iface, compile), the unit's function
// suffix (instrument), or the checker's entry and liveness (check).
// Compile and defs nodes key on the interfaces digest in place of their
// dependencies' hashes. Every component is length-prefixed so distinct
// input vectors can never collide by concatenation, and all of them are
// gathered in a stack buffer and hashed in one call, so a key costs no
// allocation unless its material outgrows the buffer.
func (g *graphState) nodeKey(n *node) Digest {
	var stack [2048]byte
	buf := appendComponent(stack[:0], keyVersion)
	buf = appendComponent(buf, kinds[n.kind].name)
	switch n.kind {
	case kindIface, kindCompile:
		buf = appendComponent(buf, g.names[n.unit])
		buf = appendComponent(buf, g.digests[n.unit][:])
	case kindInstrument:
		var suffix [24]byte
		buf = appendComponent(buf, strconv.AppendInt(append(suffix[:0], "__m"...), int64(n.unit), 10))
	case kindCheck:
		var live [16]byte
		buf = appendComponent(buf, g.opts.Entry)
		buf = appendComponent(buf, strconv.AppendBool(append(live[:0], "liveness="...), !g.opts.NoLiveness))
	}
	if n.kind == kindCompile || n.kind == kindDefs {
		ifaces := g.interfaces(n.deps)
		return sha256.Sum256(appendComponent(buf, ifaces[:]))
	}
	for _, d := range n.deps {
		buf = appendComponent(buf, d.hash[:])
	}
	return sha256.Sum256(buf)
}

// store sets n.hash, stores the artifact in the memory cache as hashed
// and, with persist, writes its bytes to the disk layer. The artifact is
// encoded, into a pooled buffer, only if the hash or the disk needs the
// bytes: a node with a content sum on a memory-only cache encodes nothing.
func (g *graphState) store(n *node, persist bool) error {
	k := &kinds[n.kind]
	var data []byte
	if k.sum == nil || persist {
		buf := encodeBufs.Get().(*[]byte)
		defer encodeBufs.Put(buf)
		var err error
		if *buf, err = k.encode(n.art, (*buf)[:0]); err != nil {
			return err
		}
		data = *buf
		if g.opts.Cache.encoded != nil {
			g.opts.Cache.encoded(n.id)
		}
	}
	if k.sum != nil {
		n.hash = k.sum(n.art)
	} else {
		n.hash = sha256.Sum256(data)
	}
	g.opts.Cache.putMem(n.key, memEntry{art: n.art, hash: n.hash, hashed: true})
	if persist {
		// Failing to persist is not a build failure; the artifact is in
		// hand and the next build simply rebuilds it.
		_ = g.opts.Cache.putDisk(n.key, data)
	}
	return nil
}

// encodeBufs holds the buffers artifacts are encoded into. A buffer is
// only needed until its bytes are hashed and written to disk, so it goes
// back to the pool as store returns and the next encode appends into
// memory the last one grew.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}
