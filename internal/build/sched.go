package build

import (
	"crypto/sha256"
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
	// names, pipeline options).
	deps  []*node
	extra [][]byte

	// cacheable gates the on-disk layer; in-memory caching always applies.
	cacheable bool

	// run produces the artifact; encode appends its bytes to dst, a
	// buffer the scheduler reuses (see artifact.go); decode reads them
	// back. sum, when set, is the artifact's content hash, and the bytes
	// are encoded only for the disk layer; when nil, the hash is SHA-256
	// over the bytes.
	run    func() (any, error)
	encode func(art any, dst []byte) ([]byte, error)
	decode func([]byte) (any, error)
	sum    func(art any) digest

	// Scheduler state.
	pending    int32
	dependents []*node
	status     Status
	key        digest
	hash       digest // zero unless a dependent or the disk layer needed it
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
// the stage. An artifact is hashed only when something reads the hash or
// the bytes: a dependent's key incorporates the hash, and the disk layer
// stores the bytes. A node with neither (the link node, and the check
// node unless instrumentation elides) leaves its artifact in the memory
// cache unhashed; a later hit from a node that has dependents hashes it
// then.
func (x *exec) execNode(n *node) {
	start := time.Now()
	defer func() { n.dur = time.Since(start) }()

	for _, d := range n.deps {
		if d.err != nil {
			n.status = StatusSkipped
			n.err = errSkipped
			return
		}
	}
	n.key = nodeKey(n.kind, n.extra, n.deps)
	persist := n.cacheable && x.cache.dir != ""
	needHash := persist || len(n.dependents) > 0

	if e, ok := x.cache.getMem(n.key); ok {
		n.art, n.hash, n.status = e.art, e.hash, StatusMemHit
		if needHash && !e.hashed {
			if err := x.store(n, persist); err != nil {
				n.status = StatusFailed
				n.err = err
			}
		}
		return
	}
	if n.cacheable {
		if data, ok := x.cache.getDisk(n.key); ok {
			// A corrupt or undecodable object is treated as a miss and
			// rebuilt over.
			if art, err := n.decode(data); err == nil {
				n.art, n.status = art, StatusDiskHit
				if n.sum != nil {
					n.hash = n.sum(art)
				} else {
					n.hash = sha256.Sum256(data)
				}
				x.cache.putMem(n.key, memEntry{art: n.art, hash: n.hash, hashed: true})
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
	n.art, n.status = art, StatusBuilt
	if !needHash {
		x.cache.putMem(n.key, memEntry{art: art})
		return
	}
	if err := x.store(n, persist); err != nil {
		n.status = StatusFailed
		n.err = err
	}
}

// store sets n.hash, stores the artifact in the memory cache as hashed
// and, with persist, writes its bytes to the disk layer. The artifact is
// encoded, into a pooled buffer, only if the hash or the disk needs the
// bytes: a node with a content sum on a memory-only cache encodes nothing.
func (x *exec) store(n *node, persist bool) error {
	var data []byte
	if n.sum == nil || persist {
		buf := encodeBufs.Get().(*[]byte)
		defer encodeBufs.Put(buf)
		var err error
		if *buf, err = n.encode(n.art, (*buf)[:0]); err != nil {
			return err
		}
		data = *buf
		if x.cache.encoded != nil {
			x.cache.encoded(n.id)
		}
	}
	if n.sum != nil {
		n.hash = n.sum(n.art)
	} else {
		n.hash = sha256.Sum256(data)
	}
	x.cache.putMem(n.key, memEntry{art: n.art, hash: n.hash, hashed: true})
	if persist {
		// Failing to persist is not a build failure; the artifact is in
		// hand and the next build simply rebuilds it.
		_ = x.cache.putDisk(n.key, data)
	}
	return nil
}

// encodeBufs holds the buffers artifacts are encoded into. A buffer is
// only needed until its bytes are hashed and written to disk, so it goes
// back to the pool as store returns and the next encode appends into
// memory the last one grew.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}
