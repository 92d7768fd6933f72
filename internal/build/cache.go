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
	mem map[Digest]memEntry

	// encoded, when set, is called with the ID of every node whose
	// artifact a build over this cache encodes (tests count encodes).
	encoded func(id string)
}

// Digest is a SHA-256 sum: a node key or an artifact hash. It stays raw
// inside the graph and in NodeReport, and is hex-encoded only for object
// paths and Explain.
type Digest [sha256.Size]byte

func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// memEntry is one artifact in the memory cache. hashed is false while the
// artifact has never been hashed: the node that stored it had no
// dependent and no disk layer, so nothing read its hash or bytes. The
// first memory hit that needs the hash computes it and stores it back.
type memEntry struct {
	art    any
	hash   Digest
	hashed bool
}

// NewCache returns a memory-only cache.
func NewCache() *Cache {
	return &Cache{mem: map[Digest]memEntry{}}
}

// Open returns a cache backed by the given directory, creating it if
// needed. Objects are stored content-addressed under dir/objects.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("build: cache: %w", err)
	}
	return &Cache{dir: dir, mem: map[Digest]memEntry{}}, nil
}

func (c *Cache) getMem(key Digest) (memEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	return e, ok
}

func (c *Cache) putMem(key Digest, e memEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = e
}

func (c *Cache) objectPath(key Digest) string {
	h := key.String()
	return filepath.Join(c.dir, "objects", h[:2], h[2:])
}

// getDisk loads an object's bytes, or reports a miss. A file that cannot
// be read is a miss, never an error: the caller rebuilds and overwrites.
func (c *Cache) getDisk(key Digest) ([]byte, bool) {
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
func (c *Cache) putDisk(key Digest, data []byte) error {
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
// invalidate wholesale. v6: compile and defs nodes key on the interfaces
// digest, not on each interface artifact's hash.
const keyVersion = "tesla-build-v6"

func appendComponent[T string | []byte](dst []byte, data T) []byte {
	dst = strconv.AppendInt(dst, int64(len(data)), 10)
	dst = append(dst, ':')
	return append(dst, data...)
}
