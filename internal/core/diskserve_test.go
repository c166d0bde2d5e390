package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"sling/internal/graph"
)

// saveTestIndex builds an index and writes it to a temp file, returning
// the index and the path.
func saveTestIndex(t *testing.T, g *graph.Graph, o *Options) (*Index, string) {
	t.Helper()
	x, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.slix"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return x, path
}

func TestEntryCacheLRU(t *testing.T) {
	// One entry costs 16*100 + overhead = 1696 bytes; pick a per-shard
	// budget (above the minShardBytes floor) that fits three entries but
	// not four, so the fourth insert must evict.
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = float64(i) / 10
	}
	per := int64(16*len(keys) + cacheEntryOverhead)
	budget := per*3 + per/2 // three fit, four do not
	if budget < minShardBytes {
		t.Fatalf("test budget %d below shard floor; grow the entries", budget)
	}
	c := NewEntryCache(budget * cacheShardCount)
	if c == nil {
		t.Fatal("cache unexpectedly disabled")
	}
	// All in shard 0 (multiples of cacheShardCount) so eviction is forced.
	ids := []int32{0, 16, 32, 48}
	for _, id := range ids[:3] {
		c.Put(id, keys, vals)
	}
	if _, _, ok := c.Get(0); !ok {
		t.Fatal("freshly cached node missing")
	}
	// 0 is now most recent; inserting a fourth entry must evict 16.
	c.Put(ids[3], keys, vals)
	if _, _, ok := c.Get(16); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, _, ok := c.Get(0); !ok {
		t.Fatal("recently used entry evicted instead of LRU")
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.Bytes != 3*per {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 3*per)
	}
	// The cached copy must not alias the caller's slices.
	k, _, ok := c.Get(0)
	if !ok {
		t.Fatal("entry vanished")
	}
	keys[0] = 999
	if k[0] == 999 {
		t.Fatal("cache aliases caller buffers")
	}
}

func TestEntryCacheBudgetEdgeCases(t *testing.T) {
	if c := NewEntryCache(0); c != nil {
		t.Fatal("zero-budget cache not disabled")
	}
	if c := NewEntryCache(-1); c != nil {
		t.Fatal("negative-budget cache not disabled")
	}
	// A tiny positive budget must yield a working (floored) cache, not a
	// silent no-op.
	c := NewEntryCache(10)
	if c == nil {
		t.Fatal("tiny positive budget silently disabled the cache")
	}
	if st := c.Stats(); st.MaxBytes < cacheShardCount*minShardBytes {
		t.Fatalf("floored budget %d below minimum", st.MaxBytes)
	}
	c.Put(3, []uint64{1}, []float64{0.5})
	if _, _, ok := c.Get(3); !ok {
		t.Fatal("floored cache does not cache")
	}
	var nilCache *EntryCache
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
}

// Disk answers — single-pair, single-source, top-k, source-top, batch,
// and the shard shapes (fragment, source slice, top slice) — must be
// byte-identical to the in-memory index under every fetch mode: ReadAt
// without and with the entry cache, and mmap.
func TestDiskServeMatchesMemory(t *testing.T) {
	g := randomGraph(60, 360, 31)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 31, Enhance: true})
	modes := []string{"readat", "readat+cache"}
	if MmapSupported() {
		modes = append(modes, "mmap")
	}
	xpool := x.NewScratchPool()
	for _, mode := range modes {
		var d *DiskIndex
		var err error
		if mode == "mmap" {
			d, err = OpenDiskIndexMmap(path, g)
		} else {
			d, err = OpenDiskIndex(path, g)
		}
		if err != nil {
			t.Fatal(err)
		}
		if mode == "readat+cache" {
			d.EnableCache(1 << 20)
		}
		pool := d.Meta().NewScratchPool()
		s, dss := d.Meta().NewScratch(), d.Meta().NewSourceScratch()
		ss := x.NewSourceScratch()
		for u := graph.NodeID(0); u < 60; u += 7 {
			for v := graph.NodeID(0); v < 60; v += 5 {
				got, err := d.SimRank(u, v, s)
				if err != nil {
					t.Fatal(err)
				}
				if want := x.SimRank(u, v, nil); got != want {
					t.Fatalf("%s: disk s(%d,%d)=%v, memory %v", mode, u, v, got, want)
				}
			}
			wantVec := x.SingleSource(u, ss, nil)
			gotVec, err := d.SingleSource(u, dss, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, mode+" SingleSource", gotVec, wantVec)
			gotTop, err := d.TopK(u, 7, dss)
			if err != nil {
				t.Fatal(err)
			}
			sameTop(t, mode+" TopK", gotTop, x.TopK(u, 7, ss, nil))
			gotSrc, err := d.SourceTop(u, 5, dss)
			if err != nil {
				t.Fatal(err)
			}
			sameTop(t, mode+" SourceTop", gotSrc, SelectTop(wantVec, 5, -1))

			keys, vals, dvals, err := d.FragmentOf(u, s)
			if err != nil {
				t.Fatal(err)
			}
			wk, wv, wd := x.FragmentOf(u, nil)
			if len(keys) != len(wk) {
				t.Fatalf("%s: fragment of %d has %d entries, memory %d", mode, u, len(keys), len(wk))
			}
			for i := range wk {
				if keys[i] != wk[i] {
					t.Fatalf("%s: fragment of %d differs at key %d", mode, u, i)
				}
			}
			sameBits(t, mode+" fragment vals", vals, wv)
			sameBits(t, mode+" fragment dvals", dvals, wd)
			for _, r := range [][2]int{{0, 20}, {20, 60}} {
				lo, hi := r[0], r[1]
				got, want := make([]float64, hi-lo), make([]float64, hi-lo)
				pool.SourceSlice(keys, vals, lo, hi, got)
				xpool.SourceSlice(wk, wv, lo, hi, want)
				sameBits(t, mode+" SourceSlice", got, want)
				sameTop(t, mode+" TopSlice", pool.TopSlice(keys, vals, 4, u, lo, hi), xpool.TopSlice(wk, wv, 4, u, lo, hi))
			}
		}
		us := []graph.NodeID{3, 1, 4, 1, 5, 9, 2, 6}
		for _, workers := range []int{1, 4} {
			rows, err := d.SingleSourceBatch(nil, us, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range us {
				sameBits(t, mode+" batch row", rows[i], x.SingleSource(u, ss, nil))
			}
		}
		d.Close()
	}
}

// TestDiskReadErrorsAtQueryTime: when positioned reads fail after open
// (here the file is truncated to the start of its entries regions),
// every disk query shape returns an error wrapping the read failure and
// a nil result, at any batch worker count, and nothing panics.
func TestDiskReadErrorsAtQueryTime(t *testing.T) {
	g := randomGraph(30, 150, 3)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.1, Seed: 3, Enhance: true})
	d, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := os.Truncate(path, d.entriesOff); err != nil {
		t.Fatal(err)
	}
	check := func(shape string, err error, isNil bool) {
		t.Helper()
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%s: err = %v, want a wrapped io.EOF", shape, err)
		}
		if !isNil {
			t.Fatalf("%s: non-nil result alongside %v", shape, err)
		}
	}
	score, err := d.SimRank(3, 17, nil)
	check("SimRank", err, score == 0)
	vec, err := d.SingleSource(3, nil, nil)
	check("SingleSource", err, vec == nil)
	top, err := d.TopK(3, 5, nil)
	check("TopK", err, top == nil)
	top, err = d.SourceTop(3, 5, nil)
	check("SourceTop", err, top == nil)
	keys, vals, dvals, err := d.FragmentOf(3, nil)
	check("FragmentOf", err, keys == nil && vals == nil && dvals == nil)
	for _, workers := range []int{1, 4} {
		rows, err := d.SingleSourceBatch(nil, []graph.NodeID{3, 1, 4, 1, 5}, workers)
		check(fmt.Sprintf("SingleSourceBatch(workers=%d)", workers), err, rows == nil)
	}
}

// Cached answers must equal uncached answers, and re-queries must hit.
func TestDiskCacheHitEquivalence(t *testing.T) {
	g := randomGraph(50, 300, 33)
	_, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 33})
	plain, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cached, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	cached.EnableCache(4 << 20)
	ps, cs := plain.Meta().NewScratch(), cached.Meta().NewScratch()
	for pass := 0; pass < 2; pass++ {
		for u := graph.NodeID(0); u < 50; u += 3 {
			for v := graph.NodeID(0); v < 50; v += 7 {
				want, err := plain.SimRank(u, v, ps)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.SimRank(u, v, cs)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("pass %d: cached s(%d,%d)=%v, uncached %v", pass, u, v, got, want)
				}
			}
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after repeated queries: %+v", st)
	}
	if st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("cache empty after queries: %+v", st)
	}
	if plainSt := plain.CacheStats(); plainSt != (CacheStats{}) {
		t.Fatalf("uncached index reports cache activity: %+v", plainSt)
	}
}

// Concurrent mixed disk queries drawing scratch from the meta index's
// shared ScratchPool must match memory exactly (run under -race in CI).
func TestDiskScratchPoolConcurrent(t *testing.T) {
	g := randomGraph(50, 300, 35)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 35, Enhance: true})
	d, err := OpenDiskIndex(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.EnableCache(1 << 20)
	pool := d.Meta().NewScratchPool()
	simRank := func(u, v graph.NodeID) (float64, error) {
		s := pool.Scratch()
		defer pool.PutScratch(s)
		return d.SimRank(u, v, s)
	}
	singleSource := func(u graph.NodeID) ([]float64, error) {
		ss := pool.Source()
		defer pool.PutSource(ss)
		return d.SingleSource(u, ss, nil)
	}
	topK := func(u graph.NodeID, k int) ([]TopEntry, error) {
		ss := pool.Source()
		defer pool.PutSource(ss)
		return d.TopK(u, k, ss)
	}
	ss := x.NewSourceScratch()
	wantPair := x.SimRank(3, 9, nil)
	wantVec := append([]float64(nil), x.SingleSource(7, ss, nil)...)
	wantTop := x.TopK(5, 6, ss, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := simRank(3, 9)
				if err != nil || got != wantPair {
					errs <- "disk SimRank drift under concurrency"
					return
				}
				vec, err := singleSource(7)
				if err != nil {
					errs <- err.Error()
					return
				}
				for v := range wantVec {
					if vec[v] != wantVec[v] {
						errs <- "disk SingleSource drift under concurrency"
						return
					}
				}
				top, err := topK(5, 6)
				if err != nil || len(top) != len(wantTop) {
					errs <- "disk TopK drift under concurrency"
					return
				}
				for j := range top {
					if top[j] != wantTop[j] {
						errs <- "disk TopK entry drift under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// marksRegionOffset returns the byte offset of the marks array in a
// serialized index with n nodes (see the format comment in serialize.go).
func marksRegionOffset(n int) int {
	return 92 + 8*n + (n+7)/8 + 2*8*(n+1)
}

// corruptFirstMark returns a copy of data with the first mark value
// overwritten by raw (little-endian uint32).
func corruptFirstMark(t *testing.T, data []byte, n int, raw uint32) []byte {
	t.Helper()
	off := marksRegionOffset(n)
	if off+4 > len(data) {
		t.Fatalf("marks offset %d beyond file size %d", off, len(data))
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], raw)
	return out
}

// A SLIX file whose marks point outside the owning node's entry range
// must be rejected at load, not panic at query time.
func TestReadMetaRejectsOutOfRangeMarks(t *testing.T) {
	g := randomGraph(30, 200, 37)
	x, err := Build(g, &Options{Eps: 0.08, Seed: 37, Enhance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.marks) == 0 {
		t.Skip("build produced no marks; cannot exercise validation")
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(valid), g); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	n := g.NumNodes()
	for _, raw := range []uint32{0xffffffff /* -1 */, 0x7fffffff /* >> entry count */} {
		bad := corruptFirstMark(t, valid, n, raw)
		if _, err := ReadIndex(bytes.NewReader(bad), g); err == nil {
			t.Fatalf("mark %#x accepted by ReadIndex", raw)
		}
		path := t.TempDir() + "/bad.slix"
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskIndex(path, g); err == nil {
			t.Fatalf("mark %#x accepted by OpenDiskIndex", raw)
		}
	}
}
