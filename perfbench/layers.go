package main

// Per-layer reference rows for the traced run: the workload's own input
// stream replayed in a closed loop, one goroutine, through each layer's
// public surface in turn: core.Index, the sling facade, the mmap'd
// DiskIndex, ReadAt plus a 4 MiB entry cache, the 2-shard router, and
// the HTTP handler without the wire. Ratios are to the core row.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sling"
	"sling/internal/core"
	"sling/internal/server"
	"sling/internal/shard"
)

// sink keeps replayed results live so the calls cannot be elided.
var sink float64

// splitOps takes up to np pairs and ns top-k sources from a read
// stream, in stream order, for the closed-loop replays.
func splitOps(ops []readOp, np, ns int) ([][2]sling.NodeID, []sling.NodeID) {
	var pairs [][2]sling.NodeID
	var sources []sling.NodeID
	for _, op := range ops {
		if op.topk && len(sources) < ns {
			sources = append(sources, op.u)
		} else if !op.topk && len(pairs) < np {
			pairs = append(pairs, [2]sling.NodeID{op.u, op.v})
		}
	}
	return pairs, sources
}

// perOp times fn on every index in [0, n) after one untimed warm-up
// pass, and returns the per-call latencies in ns.
func perOp(n int, fn func(i int)) samples {
	for i := 0; i < n; i++ {
		fn(i)
	}
	out := make(samples, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0).Nanoseconds())
	}
	return out
}

// allocsPer runs fn over [0, n) and returns heap allocations and bytes
// allocated per call.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func (r *run) buildRow(st sling.BuildStats, buildS float64, ix *sling.Index) {
	r.put("core.build_s", buildS, "s", 0)
	r.put("core.build_walk_pairs", float64(st.WalkPairs), "count", 0)
	r.put("core.build_hp_pushes", float64(st.HPPushes), "count", 0)
	r.put("core.index_entries", float64(ix.Stats().Entries), "count", 0)
}

// layerRows replays pairs and sources through every layer below the
// wire. ix is the workload's index and path its SLIX file; serving is
// the backend its handler serves (for the server row).
func (r *run) layerRows(g *sling.Graph, labels []int64, ix *sling.Index, path string, serving sling.Querier, pairs [][2]sling.NodeID, sources []sling.NodeID) error {
	ctx := context.Background()
	n := g.NumNodes()
	np, ns := len(pairs), len(sources)

	cx, err := core.LoadFile(path, g)
	if err != nil {
		return err
	}
	sc, ss, out := cx.NewScratch(), cx.NewSourceScratch(), make([]float64, n)
	corePair := perOp(np, func(i int) { sink += cx.SimRank(pairs[i][0], pairs[i][1], sc) })
	r.put("core.pair_p50_ns", corePair.q(0.5), "ns", np)
	r.put("core.pair_p99_ns", corePair.q(0.99), "ns", np)
	a, _ := allocsPer(np, func(i int) { sink += cx.SimRank(pairs[i][0], pairs[i][1], sc) })
	r.put("core.allocs_per_pair", a, "count", 0)
	var entries int
	for _, p := range pairs {
		ku, _, _ := cx.FragmentOf(p[0], sc)
		kv, _, _ := cx.FragmentOf(p[1], sc)
		entries += len(ku) + len(kv)
	}
	r.put("core.entries_per_pair", float64(entries)/float64(np), "count", 0)
	coreSource := perOp(ns, func(i int) { sink += cx.SingleSource(sources[i], ss, out)[0] })
	r.put("core.source_p50_ns", coreSource.q(0.5), "ns", ns)
	a, _ = allocsPer(ns, func(i int) { sink += cx.SingleSource(sources[i], ss, out)[0] })
	r.put("core.allocs_per_source", a, "count", 0)
	coreTop := perOp(ns, func(i int) { cx.TopK(sources[i], 10, ss, out) })
	r.put("core.topk_p50_ns", coreTop.q(0.5), "ns", ns)

	facadePair := perOp(np, func(i int) {
		s, _ := ix.SimRank(ctx, pairs[i][0], pairs[i][1])
		sink += s
	})
	r.put("sling.pair_ratio_to_core", facadePair.q(0.5)/corePair.q(0.5), "ratio", np)
	facadeSource := perOp(ns, func(i int) {
		v, _ := ix.SingleSource(ctx, sources[i], out)
		sink += v[0]
	})
	r.put("sling.source_ratio_to_core", facadeSource.q(0.5)/coreSource.q(0.5), "ratio", ns)

	if err := r.diskRows(ctx, g, path, pairs); err != nil {
		return err
	}
	if err := r.shardRow(ctx, ix, sources, coreSource.q(0.5)); err != nil {
		return err
	}
	return r.serverRow(labels, serving, pairs, sources)
}

func (r *run) diskRows(ctx context.Context, g *sling.Graph, path string, pairs [][2]sling.NodeID) error {
	np := len(pairs)
	mm, err := sling.OpenDiskWithOptions(path, g, &sling.DiskOptions{Mmap: true})
	if err != nil {
		return err
	}
	defer mm.Close()
	pair := func(q sling.Querier) func(i int) {
		return func(i int) {
			s, err := q.SimRank(ctx, pairs[i][0], pairs[i][1])
			if err != nil {
				r.fail("disk pair: %v", err)
			}
			sink += s
		}
	}
	lat := perOp(np, pair(mm))
	r.put("disk.pair_p50_ns", lat.q(0.5), "ns", np)
	r.put("disk.pair_p99_ns", lat.q(0.99), "ns", np)
	a, _ := allocsPer(np, pair(mm))
	r.put("disk.allocs_per_pair", a, "count", 0)

	ra, err := sling.OpenDiskWithOptions(path, g, &sling.DiskOptions{CacheBytes: 4 << 20})
	if err != nil {
		return err
	}
	defer ra.Close()
	lat = perOp(np, pair(ra))
	r.put("disk.readat_cached_pair_p50_ns", lat.q(0.5), "ns", np)
	cs := ra.CacheStats()
	r.put("disk.cache_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses), "ratio", 0)
	return nil
}

// shardRow replays sources through a shards-way in-process router whose
// clients are traced, so each op splits into router self time, the
// fragment fetch and the per-shard slices.
func (r *run) shardRow(ctx context.Context, ix *sling.Index, sources []sling.NodeID, coreSourceNs float64) error {
	ns := len(sources)
	m, clients := shard.InProcess(ix, shards)
	plain, err := shard.New(m, clients, nil)
	if err != nil {
		return err
	}
	defer plain.Close()
	tr := newTracer()
	traced := make([]shard.Client, len(clients))
	for i, c := range clients {
		traced[i] = traceClient{c, tr}
	}
	tq, err := shard.New(m, traced, nil)
	if err != nil {
		return err
	}
	out := make([]float64, ix.Graph().NumNodes())
	source := func(q sling.Querier) func(i int) {
		return func(i int) {
			v, err := q.SingleSource(ctx, sources[i], out)
			if err != nil {
				r.fail("shard source: %v", err)
				return
			}
			sink += v[0]
		}
	}
	lat := perOp(ns, source(plain))
	r.put("shard.source_p50_ns", lat.q(0.5), "ns", ns)
	r.put("shard.ratio_to_core", lat.q(0.5)/coreSourceNs, "ratio", ns)
	a, b := allocsPer(ns, source(plain))
	r.put("shard.allocs_per_source", a, "count", 0)
	r.put("shard.bytes_per_source", b, "bytes", 0)

	tr.on.Store(true)
	for i := range sources {
		c, end := tr.begin(ctx, "op")
		if _, err := tq.SingleSource(c, sources[i], out); err != nil {
			r.fail("shard source: %v", err)
		}
		end()
	}
	tr.on.Store(false)
	dur, self := tr.selfTimes()
	r.put("shard.router_self_ns", self["op"].q(0.5), "ns", ns)
	r.put("shard.fragment_ns", dur["shard.fragment"].q(0.5), "ns", len(dur["shard.fragment"]))
	r.put("shard.slice_p50_ns", dur["shard.slice"].q(0.5), "ns", len(dur["shard.slice"]))
	r.put("shard.calls_per_op", float64(len(dur["shard.fragment"])+len(dur["shard.slice"]))/float64(ns), "count", 0)
	return nil
}

// serverRow drives the HTTP handler directly (no listener, no wire)
// with pre-built requests and recorders, so its allocation count is the
// handler's own plus the backend's.
func (r *run) serverRow(labels []int64, backend sling.Querier, pairs [][2]sling.NodeID, sources []sling.NodeID) error {
	var paths []string
	for _, p := range pairs[:min(len(pairs), 500)] {
		paths = append(paths, fmt.Sprintf("/simrank?u=%d&v=%d", p[0], p[1]))
	}
	for _, u := range sources {
		paths = append(paths, fmt.Sprintf("/topk?u=%d&k=10", u))
	}
	n := len(paths)
	h, err := server.NewQuerier(backend, labels, server.Config{})
	if err != nil {
		return err
	}
	prep := func() ([]*http.Request, []*httptest.ResponseRecorder) {
		reqs, recs := make([]*http.Request, n), make([]*httptest.ResponseRecorder, n)
		for i, p := range paths {
			reqs[i], recs[i] = httptest.NewRequest(http.MethodGet, p, nil), httptest.NewRecorder()
		}
		return reqs, recs
	}
	reqs, recs := prep()
	a, _ := allocsPer(n, func(i int) { h.ServeHTTP(recs[i], reqs[i]) })
	r.put("server.allocs_per_req", a, "count", 0)
	var body int
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			r.fail("server row %s: status %d", paths[i], rec.Code)
		}
		body += rec.Body.Len()
	}
	r.put("server.resp_bytes", float64(body)/float64(n), "bytes", 0)

	tr := newTracer()
	th, err := server.NewQuerier(traceQuerier{backend, tr}, labels, server.Config{})
	if err != nil {
		return err
	}
	traced := traceHandler(tr, th)
	reqs, recs = prep()
	tr.on.Store(true)
	for i := range reqs {
		traced.ServeHTTP(recs[i], reqs[i])
	}
	tr.on.Store(false)
	dur, self := tr.selfTimes()
	r.put("server.pair_p50_ns", dur["handler/simrank"].q(0.5), "ns", len(dur["handler/simrank"]))
	r.put("server.topk_p50_ns", dur["handler/topk"].q(0.5), "ns", len(dur["handler/topk"]))
	r.put("server.self_ns", append(self["handler/simrank"], self["handler/topk"]...).q(0.5), "ns", n)
	return nil
}

// traceReport derives per-layer self times from the live traced window,
// reports tracing overhead as the traced over the untraced median of
// the workload's read of record, and writes the spans out.
func (r *run) traceReport(tr *tracer, plainP50, tracedP50 float64, ops int) error {
	dur, self := tr.selfTimes()
	var root samples
	for name, s := range self {
		if strings.HasPrefix(name, "gen") {
			root = append(root, s...)
		}
	}
	r.put("trace.root_self_p50_ns", root.q(0.5), "ns", len(root))
	r.put("trace.querier_p50_ns", dur["querier"].q(0.5), "ns", len(dur["querier"]))
	r.put("trace.querier_self_p50_ns", self["querier"].q(0.5), "ns", len(self["querier"]))
	if r.name != "analytics-uniform" {
		// Client latency minus handler time: HTTP/JSON on the wire.
		r.put("wire.overhead_p50_ns", root.q(0.5), "ns", len(root))
		r.put("wire.overhead_p99_ns", root.q(0.99), "ns", len(root))
	}
	tr.mu.Lock()
	spans := len(tr.spans)
	tr.mu.Unlock()
	r.put("trace.spans_per_op", float64(spans)/float64(ops), "count", 0)
	r.put("trace.overhead_ratio", tracedP50/plainP50, "ratio", 0)
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
	logf("spans written to %s\n", path)
	return tr.write(path)
}
