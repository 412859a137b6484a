package server

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestStandaloneStoreConflictAudited: a divergent write through a
// standalone node's cell cache is counted and logged as a determinism
// violation, and the first-written result stays in both tiers.
func TestStandaloneStoreConflictAudited(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := New(Config{StoreDir: t.TempDir(), CacheCells: 8, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	v := harness.MemoValue{IPC: 1.25, Stats: stats.Sim{Committed: 1000, Cycles: 800}}
	v2 := v
	v2.IPC = 9.99
	s.cache.Put("cell-a", v)
	s.cache.Put("cell-a", v2)

	snap := s.Stats()
	if snap.StoreConflicts != 1 || snap.StorePuts != 1 {
		t.Fatalf("store_conflicts=%d store_puts=%d, want 1/1", snap.StoreConflicts, snap.StorePuts)
	}
	if got, ok := s.cache.Get("cell-a"); !ok || got.IPC != v.IPC {
		t.Fatalf("cache serves %+v (ok=%v), want the first-written value", got, ok)
	}
	if got, ok := s.cache.store.Get("cell-a"); !ok || got.IPC != v.IPC {
		t.Fatalf("store holds %+v (ok=%v), want the first-written value", got, ok)
	}
	if n := strings.Count(logBuf.String(), "DETERMINISM VIOLATION"); n != 1 {
		t.Fatalf("%d DETERMINISM VIOLATION log lines, want 1:\n%s", n, logBuf.String())
	}
}

// TestCellCacheTiers sends the same cell to POST /v1/cells twice under
// each cache configuration and checks which tier answers the repeat —
// and, with a store, which tiers answer a fresh node on the same
// directory — against the /v1/stats counters.
func TestCellCacheTiers(t *testing.T) {
	cfg := core.ConfigSEE()
	blob, err := pipeline.EncodeConfigV2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := pipeline.CanonicalHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := workload.ByName("compress", 3000)
	if err != nil {
		t.Fatal(err)
	}
	req := CellRequest{Benchmark: "compress", Seed: bm.Spec.Seed, Insts: 3000, Config: blob, ConfigHash: hash}

	for _, front := range []int{0, 8} {
		for _, withStore := range []bool{false, true} {
			t.Run(fmt.Sprintf("cache=%d/store=%v", front, withStore), func(t *testing.T) {
				// warm is the tier that answers a cell this node has seen.
				warm, dir := "", ""
				if withStore {
					warm, dir = "store", t.TempDir()
				}
				if front > 0 {
					warm = "memo"
				}
				// One node per row, in order, all on the same StoreDir.
				nodes := [][]string{{"", warm}}
				if withStore {
					nodes = append(nodes, []string{"store", warm})
				}
				var first CellResponse
				for n, answers := range nodes {
					_, ts := newTestServer(t, Config{CacheCells: front, StoreDir: dir})
					caller := httpCaller{base: ts.URL}
					var memoHits, storeHits uint64
					for call, want := range answers {
						resp, err := caller.RunCell(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						if resp.Cached != want {
							t.Fatalf("node %d call %d: cached %q, want %q", n, call, resp.Cached, want)
						}
						if n == 0 && call == 0 {
							first = resp
						} else if resp.IPC != first.IPC || !reflect.DeepEqual(resp.Stats, first.Stats) {
							t.Fatalf("node %d call %d: result differs from the simulated one", n, call)
						}
						switch want {
						case "memo":
							memoHits++
						case "store":
							storeHits++
						}
					}
					var wantHits, wantMisses uint64
					if front > 0 {
						wantHits, wantMisses = memoHits, uint64(len(answers))-memoHits
					}
					snap := getStats(t, ts)
					if snap.CacheHits != wantHits || snap.CacheMisses != wantMisses ||
						snap.CellsFromCache != memoHits+storeHits || snap.StoreHits != storeHits {
						t.Fatalf("node %d stats: cache_hits=%d cache_misses=%d cells_from_cache=%d store_hits=%d, want %d/%d/%d/%d",
							n, snap.CacheHits, snap.CacheMisses, snap.CellsFromCache, snap.StoreHits,
							wantHits, wantMisses, memoHits+storeHits, storeHits)
					}
				}
			})
		}
	}
}
