package build

import (
	"errors"
	"runtime"
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

// node is one stage instance in the build graph. All scheduling state is
// written by the single worker that executes the node; dependents observe
// it only after the dependency counter reaches zero, which the ready
// channel orders.
type node struct {
	id   string // display name, e.g. "compile:client.c"
	kind string // key namespace, e.g. "compile"

	// deps are the nodes whose artifact hashes feed this node's key, in a
	// fixed order. extra is the literal key material (source digests, file
	// names, pipeline options); extraFn supplies key material that is only
	// derivable after the deps completed (it must not fail).
	deps    []*node
	extra   [][]byte
	extraFn func() [][]byte

	// cacheable gates the on-disk layer; in-memory caching always applies.
	cacheable bool

	// run produces the artifact; encode appends its bytes to dst, a
	// buffer execNode reuses (see artifact.go); decode reads them back.
	run    func() (any, error)
	encode func(art any, dst []byte) ([]byte, error)
	decode func([]byte) (any, error)

	// Scheduler state.
	pending    int32
	dependents []*node
	status     Status
	key        string
	hash       string
	art        any
	err        error
	dur        time.Duration
}

// exec runs a node set over a bounded worker pool. Nodes are released in
// dependency order; independent nodes run concurrently on up to jobs
// workers.
type exec struct {
	cache *Cache
	jobs  int
}

func (x *exec) runGraph(nodes []*node) {
	if len(nodes) == 0 {
		return
	}
	jobs := x.jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(nodes) {
		jobs = len(nodes)
	}

	ready := make(chan *node, len(nodes))
	for _, n := range nodes {
		n.pending = int32(len(n.deps))
		for _, d := range n.deps {
			d.dependents = append(d.dependents, n)
		}
	}
	for _, n := range nodes {
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
				x.execNode(n)
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
// the stage. Built artifacts are encoded immediately — their bytes are the
// artifact hash downstream keys depend on.
func (x *exec) execNode(n *node) {
	start := time.Now()
	defer func() { n.dur = time.Since(start) }()

	depHashes := make([]string, len(n.deps))
	for i, d := range n.deps {
		if d.err != nil {
			n.status = StatusSkipped
			n.err = errSkipped
			return
		}
		depHashes[i] = d.hash
	}
	extra := n.extra
	if n.extraFn != nil {
		extra = append(append([][]byte{}, extra...), n.extraFn()...)
	}
	n.key = nodeKey(n.kind, extra, depHashes)

	if art, hash, ok := x.cache.getMem(n.key); ok {
		n.art, n.hash, n.status = art, hash, StatusMemHit
		return
	}
	if n.cacheable {
		if data, ok := x.cache.getDisk(n.key); ok {
			// A corrupt or undecodable object is treated as a miss and
			// rebuilt over.
			if art, err := n.decode(data); err == nil {
				n.art, n.hash, n.status = art, hashBytes(data), StatusDiskHit
				x.cache.putMem(n.key, n.art, n.hash)
				return
			}
		}
	}

	art, err := n.run()
	if err != nil {
		n.status = StatusFailed
		n.err = err
		return
	}
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	*buf, err = n.encode(art, (*buf)[:0])
	if err != nil {
		n.status = StatusFailed
		n.err = err
		return
	}
	n.art = art
	n.hash = hashBytes(*buf)
	n.status = StatusBuilt
	x.cache.putMem(n.key, n.art, n.hash)
	if n.cacheable {
		// Failing to persist is not a build failure; the artifact is in
		// hand and the next build simply rebuilds it.
		_ = x.cache.putDisk(n.key, *buf)
	}
}

// encodeBufs holds the buffers built artifacts are encoded into. A buffer
// is only needed until its bytes are hashed and written to disk, so it
// goes back to the pool as execNode returns and the next node's encode
// appends into memory the last one grew.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}
