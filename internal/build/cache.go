package build

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Cache is the two-level artifact store behind the build graph: a memory
// map for artifacts produced or loaded during this process, and an
// optional on-disk object store for artifacts that survive it. Both levels
// are addressed by node key — the content hash of everything that went
// into producing the artifact — so a lookup never returns a stale object:
// if any input changed, the key changed.
type Cache struct {
	dir string

	mu  sync.Mutex
	mem map[digest]memEntry

	// encoded, when set, is called with the ID of every node whose
	// artifact a build over this cache encodes (tests count encodes).
	encoded func(id string)
}

// digest is a SHA-256 sum: a node key or an artifact hash. It stays raw
// inside the graph and is hex-encoded only for object paths and reports.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:]) }

// memEntry is one artifact in the memory cache. hashed is false while the
// artifact has never been hashed: the node that stored it had no
// dependent and no disk layer, so nothing read its hash or bytes. The
// first memory hit that needs the hash computes it and stores it back.
type memEntry struct {
	art    any
	hash   digest
	hashed bool
}

// NewCache returns a memory-only cache.
func NewCache() *Cache {
	return &Cache{mem: map[digest]memEntry{}}
}

// Open returns a cache backed by the given directory, creating it if
// needed. Objects are stored content-addressed under dir/objects.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("build: cache: %w", err)
	}
	return &Cache{dir: dir, mem: map[digest]memEntry{}}, nil
}

// Dir reports the backing directory ("" for memory-only caches).
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) getMem(key digest) (memEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	return e, ok
}

func (c *Cache) putMem(key digest, e memEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = e
}

func (c *Cache) objectPath(key digest) string {
	h := key.String()
	return filepath.Join(c.dir, "objects", h[:2], h[2:])
}

// getDisk loads an object's bytes, or reports a miss. A file that cannot
// be read is a miss, never an error: the caller rebuilds and overwrites.
func (c *Cache) getDisk(key digest) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.objectPath(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// putDisk stores an object atomically (write-to-temp then rename), so a
// concurrent or crashed build can never leave a truncated object behind.
func (c *Cache) putDisk(key digest, data []byte) error {
	if c.dir == "" {
		return nil
	}
	path := c.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// keyVersion salts every node key; bump it when artifact encodings,
// pipeline semantics or the key derivation change so stale caches
// invalidate wholesale.
const keyVersion = "tesla-build-v5"

// nodeKey derives a node's cache key from its kind, its literal inputs
// (source digests, file names, pipeline options) and its dependencies'
// raw artifact hashes. Every component is length-prefixed so distinct
// input vectors can never collide by concatenation. The components are
// gathered in a stack buffer and hashed in one call, so a key costs no
// allocation unless its material outgrows the buffer.
func nodeKey(kind string, extra [][]byte, deps []*node) digest {
	var stack [2048]byte
	buf := appendComponent(stack[:0], keyVersion)
	buf = appendComponent(buf, kind)
	for _, e := range extra {
		buf = appendComponent(buf, e)
	}
	for _, d := range deps {
		buf = appendComponent(buf, d.hash[:])
	}
	return sha256.Sum256(buf)
}

func appendComponent[T string | []byte](dst []byte, data T) []byte {
	dst = strconv.AppendInt(dst, int64(len(data)), 10)
	dst = append(dst, ':')
	return append(dst, data...)
}
