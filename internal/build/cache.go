package build

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
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
	mem map[string]memEntry
}

type memEntry struct {
	art  any
	hash string
}

// NewCache returns a memory-only cache.
func NewCache() *Cache {
	return &Cache{mem: map[string]memEntry{}}
}

// Open returns a cache backed by the given directory, creating it if
// needed. Objects are stored content-addressed under dir/objects.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("build: cache: %w", err)
	}
	return &Cache{dir: dir, mem: map[string]memEntry{}}, nil
}

// Dir reports the backing directory ("" for memory-only caches).
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) getMem(key string) (any, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	return e.art, e.hash, ok
}

func (c *Cache) putMem(key string, art any, hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = memEntry{art: art, hash: hash}
}

func (c *Cache) objectPath(key string) string {
	return filepath.Join(c.dir, "objects", key[:2], key[2:])
}

// getDisk loads an object's bytes, or reports a miss. A file that cannot
// be read is a miss, never an error: the caller rebuilds and overwrites.
func (c *Cache) getDisk(key string) ([]byte, bool) {
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
func (c *Cache) putDisk(key string, data []byte) error {
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

// hashBytes is the content hash used for both artifact bytes and node
// keys.
func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// keyVersion salts every node key; bump it when artifact encodings or
// pipeline semantics change so stale caches invalidate wholesale.
const keyVersion = "tesla-build-v2"

// nodeKey derives a node's cache key from its kind, its literal inputs
// (source digests, file names, pipeline options) and its dependencies'
// artifact hashes. Every component is length-prefixed so distinct input
// vectors can never collide by concatenation.
func nodeKey(kind string, extra [][]byte, depHashes []string) string {
	h := sha256.New()
	writeComponent(h, []byte(keyVersion))
	writeComponent(h, []byte(kind))
	for _, e := range extra {
		writeComponent(h, e)
	}
	for _, d := range depHashes {
		writeComponent(h, []byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeComponent(h hash.Hash, data []byte) {
	var prefix [24]byte
	h.Write(append(strconv.AppendInt(prefix[:0], int64(len(data)), 10), ':'))
	h.Write(data)
}
