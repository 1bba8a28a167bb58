package svc

import (
	"os"
	"path/filepath"
	"sync"
)

// ResultCache is a two-level byte cache keyed by opaque,
// filesystem-safe strings (the server only feeds it validated scenario
// keys): a bounded in-memory map in front of an optional on-disk
// directory. Disk entries survive restarts — a result computed last
// week is still one read away — while the memory tier keeps repeat hot
// cells free of filesystem traffic. Values are immutable once stored:
// callers must not modify returned slices.
type ResultCache struct {
	mu    sync.Mutex
	mem   map[string][]byte
	order []string // insertion order; evicted oldest-first
	max   int
	dir   string // "" = memory only
}

// NewResultCache returns a cache holding at most maxEntries values in
// memory (<= 0 picks a default of 4096), persisting every value under
// dir when non-empty.
func NewResultCache(dir string, maxEntries int) (*ResultCache, error) {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &ResultCache{mem: make(map[string][]byte), max: maxEntries, dir: dir}, nil
}

// Get returns the cached value for key. A memory miss falls through to
// disk and, on a hit there, repopulates the memory tier.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if v, ok := c.mem[key]; ok {
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	v, err := os.ReadFile(filepath.Join(c.dir, key))
	if err != nil {
		return nil, false
	}
	c.put(key, v)
	return v, true
}

// Put stores val under key in memory and, when disk-backed, durably on
// disk (see writeFileAtomic: a crashed write never leaves a torn entry
// for Get to serve).
func (c *ResultCache) Put(key string, val []byte) error {
	c.put(key, val)
	if c.dir == "" {
		return nil
	}
	return writeFileAtomic(c.dir, key, val)
}

func (c *ResultCache) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[key]; !ok {
		c.order = append(c.order, key)
	}
	c.mem[key] = val
	for len(c.mem) > c.max && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.mem, old)
	}
}

// Len reports how many entries the memory tier currently holds.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// writeFileAtomic writes data to dir/name through a temp file in dir
// and a rename, so a crash mid-write leaves either the old file or the
// new one, never a torn mix. Temp names ("put-*") never collide with
// the stores' digest or key names, so readers skip leftovers.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "put-*")
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
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}
