package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/stats"
)

// store.go is the node's one cell-result cache (cellCache, at the end)
// and the content-addressed result store under its in-memory front: one
// JSON file per completed cell, named by the SHA-256 of the cell's
// content address (harness.CellKey). Simulations are deterministic, so
// the store doubles as a cross-restart, cross-node cache AND as a
// correctness audit: two nodes writing different bytes under the same
// key can only mean nondeterminism (or corruption), which Put surfaces
// as a conflict instead of silently overwriting. First write wins;
// writes are temp+rename so readers never observe a torn file.

// storeRecord is the on-disk document. Key is stored inside the file so
// an auditor (scripts/soak_smoke.sh) can recompute the address and verify
// file name ↔ content agreement without a reverse index.
type storeRecord struct {
	Key   string            `json:"key"`
	Value harness.MemoValue `json:"value"`
}

// resultStore is safe for concurrent use.
type resultStore struct {
	dir string
}

func openStore(dir string) (*resultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	return &resultStore{dir: dir}, nil
}

func (st *resultStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:])+".json")
}

// Get returns the stored value for key, if present and intact. A corrupt
// or mismatched file reads as a miss — the cell is simply re-executed.
func (st *resultStore) Get(key string) (harness.MemoValue, bool) {
	data, err := os.ReadFile(st.path(key))
	if err != nil {
		return harness.MemoValue{}, false
	}
	var rec storeRecord
	if json.Unmarshal(data, &rec) != nil || rec.Key != key {
		return harness.MemoValue{}, false
	}
	return rec.Value, true
}

// Put stores the value under key. When the key already exists the
// existing result is kept (first write wins) and, if the bytes disagree,
// Put reports a conflict: a determinism violation for the audit.
// Returned errors are I/O problems; callers treat the store as a cache
// and may continue without it.
func (st *resultStore) Put(key string, v harness.MemoValue) (conflict bool, err error) {
	blob, err := json.Marshal(storeRecord{Key: key, Value: v})
	if err != nil {
		return false, err
	}
	path := st.path(key)
	if old, err := os.ReadFile(path); err == nil {
		return !bytes.Equal(bytes.TrimSpace(old), blob), nil
	}
	tmp, err := os.CreateTemp(st.dir, ".cell-*")
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	// A concurrent writer may have landed first; content under one key is
	// identical by construction (same deterministic simulation), so the
	// rename race is benign — but check anyway to feed the audit.
	if old, err := os.ReadFile(path); err == nil && !bytes.Equal(bytes.TrimSpace(old), blob) {
		return true, nil
	}
	return false, os.Rename(tmp.Name(), path)
}

// Len counts stored results (scrape-time only; walks the directory).
func (st *resultStore) Len() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n
}

// cellCache is the node's one cell-result cache: an optional bounded
// in-memory front (Config.CacheCells) written through to the optional
// content-addressed store (Config.StoreDir). Every role runs its jobs
// with it as harness.Options.Memo and direct cell execution
// (POST /v1/cells) reads and writes it too, so the cache alone keeps the
// hit, store and determinism-audit accounting.
type cellCache struct {
	front *cache.LRU[harness.MemoValue] // nil: no in-memory front
	store *resultStore                  // nil: no store
	svc   *stats.Service
	log   *log.Logger
}

func newCellCache(cfg Config, svc *stats.Service) (cellCache, error) {
	c := cellCache{svc: svc, log: cfg.Log}
	if cfg.CacheCells > 0 {
		c.front = cache.NewLRU[harness.MemoValue](cfg.CacheCells)
	}
	if cfg.StoreDir != "" {
		st, err := openStore(cfg.StoreDir)
		if err != nil {
			return c, err
		}
		c.store = st
	}
	return c, nil
}

// lookup returns the cached result for key and the tier that served it,
// "memo" or "store". A store hit backfills the front.
func (c *cellCache) lookup(key string) (harness.MemoValue, string, bool) {
	if c.front != nil {
		if v, ok := c.front.Get(key); ok {
			c.svc.CellsFromCache.Add(1)
			return v, "memo", true
		}
	}
	if c.store != nil {
		if v, ok := c.store.Get(key); ok {
			if c.front != nil {
				c.front.Put(key, v)
			}
			c.svc.StoreHits.Add(1)
			c.svc.CellsFromCache.Add(1)
			return v, "store", true
		}
	}
	return harness.MemoValue{}, "", false
}

func (c *cellCache) Get(key string) (harness.MemoValue, bool) {
	v, _, ok := c.lookup(key)
	return v, ok
}

// Put writes v through to the store, then to the front. A store conflict
// keeps the first-written result in both tiers and is logged as a
// determinism violation; a store I/O error only costs the durable copy.
func (c *cellCache) Put(key string, v harness.MemoValue) {
	if c.store != nil {
		conflict, err := c.store.Put(key, v)
		switch {
		case err != nil:
			c.log.Printf("polyserve: store put %s: %v", key, err)
		case conflict:
			c.svc.StoreConflicts.Add(1)
			c.log.Printf("polyserve: DETERMINISM VIOLATION: store conflict on %s", key)
			return
		default:
			c.svc.StorePuts.Add(1)
		}
	}
	if c.front != nil {
		c.front.Put(key, v)
	}
}
