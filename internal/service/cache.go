package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// CacheKey returns the content hash of one optimization submission:
// SHA-256 over the canonicalized netlist (parse → Write normalizes
// whitespace, comments and declaration order), the canonicalized cell
// library, and the normalized parameters. Two submissions that differ
// only in formatting therefore share a key, while any semantic change to
// circuit, library or knobs produces a new one.
func CacheKey(c *netlist.Circuit, lib *celllib.Library, p Params) (string, error) {
	h := sha256.New()
	var buf bytes.Buffer
	if err := netlist.Write(&buf, c); err != nil {
		return "", fmt.Errorf("service: hashing netlist: %w", err)
	}
	// Each emitted line is self-contained (INPUT(x), OUTPUT(z),
	// name = KIND(fanins)), so hashing them sorted makes the key
	// insensitive to declaration order too. Comment lines carry the
	// circuit name — a label, not content — and are dropped.
	lines := bytes.Split(buf.Bytes(), []byte{'\n'})
	sorted := make([][]byte, 0, len(lines))
	for _, ln := range lines {
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		sorted = append(sorted, ln)
	}
	sort.Slice(sorted, func(a, b int) bool { return bytes.Compare(sorted[a], sorted[b]) < 0 })
	for _, ln := range sorted {
		h.Write(ln)
		h.Write([]byte{'\n'})
	}
	if err := celllib.WriteLibrary(h, lib); err != nil {
		return "", fmt.Errorf("service: hashing library: %w", err)
	}
	// The deadline shapes job scheduling, not the optimization result,
	// so it stays out of the key.
	fmt.Fprintf(h, "params|step=%g|frac=%g|latches=%v|replace=%v|skipbase=%v|verify=%d|lanes=%d\n",
		p.StepFrac, p.SelectFrac, *p.UseLatches, *p.BufferReplace, p.SkipBaseline, p.VerifyCycles, p.VerifyLanes)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache is a bounded LRU map from content-hash keys to finished job
// results. Results are stored and returned by pointer and must be
// treated as immutable by every reader.
type Cache struct {
	mu      sync.Mutex
	entries *lru[string, *JobResult]
}

// NewCache returns an LRU cache holding at most capacity results
// (minimum 1).
func NewCache(capacity int) *Cache {
	return &Cache{entries: newLRU[string, *JobResult](capacity, nil)}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.get(key)
}

// Put stores res under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) Put(key string, res *JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, res)
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
