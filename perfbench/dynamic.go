package main

// dynamic-rw: the `slingserver -dynamic -durable -rebuild-threshold`
// shape. server.NewDynamic serves a durable DynamicIndex (fsync on) on
// loopback; one writer sends /update batches at a fixed interval while
// one reader sends Zipf reads, on a Poisson schedule for the first half
// of the window and back to back for the second, and the threshold
// triggers background rebuilds throughout.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sling"
	"sling/internal/rng"
	"sling/internal/server"
)

type dynamicDep struct {
	dx  *sling.DynamicIndex
	s   *served
	dir string
}

func (r *run) dynamicOptions(dir string, threshold int) *sling.DynamicOptions {
	return &sling.DynamicOptions{RebuildThreshold: threshold, NumWalks: r.cfg.DynWalks, DurableDir: dir}
}

// swap is one observed epoch swap: when it became visible and how many
// applied ops the new epoch's index reflects.
type swap struct {
	at       time.Time
	included uint64
}

// watcher polls the index for epoch swaps; in the traced run it also
// samples staleness, rebuild activity, the affected frontier and WAL
// growth for the dynamic and durable layer metrics.
type watcher struct {
	end              time.Time // when polling stopped
	swaps            []swap
	staleMax         int
	rebuildRuns      samples
	frontiers        []frontier
	walBytes, walOps float64
}

type frontier struct {
	at  time.Time
	set map[sling.NodeID]bool
}

func watch(dx *sling.DynamicIndex, detailed bool, stop <-chan struct{}) *watcher {
	w := &watcher{}
	epoch := dx.Epoch()
	prev := dx.Stats()
	var runStart time.Time
	lastFrontier := time.Time{}
	for {
		select {
		case <-stop:
			w.end = time.Now()
			return w
		case <-time.After(time.Millisecond):
		}
		now := time.Now()
		if e := dx.Epoch(); e != epoch {
			epoch = e
			// Stats reads the view and the op counter separately; an
			// update landing between them overstates what the swap
			// includes, so keep the smaller of two reads.
			a, b := dx.Stats(), dx.Stats()
			inc := min(a.TotalOps-uint64(a.StaleOps), b.TotalOps-uint64(b.StaleOps))
			w.swaps = append(w.swaps, swap{at: now, included: inc})
		}
		if !detailed {
			continue
		}
		st := dx.Stats()
		w.staleMax = max(w.staleMax, st.StaleOps)
		switch {
		case st.RebuildRunning && runStart.IsZero():
			runStart = now
		case !st.RebuildRunning && !runStart.IsZero():
			w.rebuildRuns = append(w.rebuildRuns, now.Sub(runStart).Seconds())
			runStart = time.Time{}
		}
		if st.Durable.WALSegments == prev.Durable.WALSegments && st.Durable.WALBytes > prev.Durable.WALBytes {
			w.walBytes += float64(st.Durable.WALBytes - prev.Durable.WALBytes)
			w.walOps += float64(st.TotalOps - prev.TotalOps)
		}
		prev = st
		if now.Sub(lastFrontier) >= 20*time.Millisecond {
			lastFrontier = now
			set := map[sling.NodeID]bool{}
			for _, v := range dx.AffectedNodes() {
				set[v] = true
			}
			w.frontiers = append(w.frontiers, frontier{now, set})
		}
	}
}

type updateResp struct {
	Results []struct {
		Applied bool   `json:"applied"`
		Error   string `json:"error"`
	} `json:"results"`
	Applied  int `json:"applied"`
	Affected int `json:"affected"`
}

func updateBody(ops []sling.EdgeOp) []byte {
	type op struct {
		Op   string `json:"op"`
		From int64  `json:"from"`
		To   int64  `json:"to"`
	}
	out := make([]op, len(ops))
	for i, e := range ops {
		out[i] = op{Op: "remove", From: int64(e.From), To: int64(e.To)}
		if e.Add {
			out[i].Op = "add"
		}
	}
	b, _ := json.Marshal(out)
	return b
}

// checkSample sends count reads one at a time and compares every answer
// bitwise with ref.
func (r *run) checkSample(c *http.Client, base string, src *rng.Source, z *zipf, count int, ref sling.Querier) {
	ops := readMix(src, z, r.cfg.Mix.PairShare, count)
	sched := make([]float64, count)
	reqs := readReqs(ops, sched, 0, r.cfg.Mix.TopK)
	res := sendOpen(c, base, time.Now(), reqs, 1, nil)
	checkReads(r, ops, res, ref, 1, r.cfg.Mix.TopK)
}

func runDynamic(r *run) error {
	cfg := r.cfg
	g, labels, err := datasetGraph(cfg.Dataset, cfg.Scale)
	if err != nil {
		return err
	}
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var ref *sling.DynamicIndex
	d, err := timed(r, func(i int) (dynamicDep, error) {
		dep := dynamicDep{dir: filepath.Join(r.work, fmt.Sprintf("durable-%d", i))}
		var err error
		if dep.dx, err = sling.NewDynamic(g, r.dynamicOptions(dep.dir, cfg.RebuildThreshold), r.build.options()...); err != nil {
			return dep, err
		}
		var h http.Handler
		if h, err = server.NewDynamic(dep.dx, labels, server.Config{}); err != nil {
			return dep, err
		}
		if r.trace {
			// Reads go through a traced Querier; /update keeps the
			// dynamic server, which needs the concrete index.
			q, err := server.NewQuerier(traceQuerier{dep.dx, tr}, labels, server.Config{})
			if err != nil {
				return dep, err
			}
			mux := http.NewServeMux()
			mux.Handle("/", q)
			mux.Handle("/update", h)
			mux.Handle("/rebuild", h)
			h = traceHandler(tr, mux)
		}
		if dep.s, err = serveHTTP(h); err != nil {
			return dep, err
		}
		if i == 0 {
			ref = dep.dx
		}
		return dep, waitReady(client, dep.s.base)
	}, nil, func(d dynamicDep) {
		d.s.close()
		if d.dx != ref {
			d.dx.Close()
			os.RemoveAll(d.dir)
		}
	})
	if err != nil {
		return err
	}
	defer d.dx.Close()
	defer d.s.close()
	if ref != d.dx {
		defer ref.Close()
	}

	src := rng.New(r.seed)
	// The closed loop draws as many reads as it has time for, from a
	// stream of its own, so the other inputs do not depend on it.
	closedSrc := src.Split()
	z := newZipf(g.NumNodes(), cfg.Mix.ZipfS)
	// Before any update the served index must answer exactly like an
	// identically built one.
	r.checkSample(client, d.s.base, src, z, 200, ref)
	logf("set up; epoch-1 answers checked\n")

	edges := newEdgeOps(g, src, z, cfg.Mix.EdgeWindow)
	// window runs the writer for warm-up plus open plus closed seconds.
	// For the first warm-up plus open seconds one reader sends the read
	// mix on a Poisson schedule; for the last closed seconds it sends
	// back to back instead, so the read rate the server sustains beside
	// the same writes is measured.
	window := func(open, closed float64) *dynWindow {
		total := cfg.WarmupS + open + closed
		dw := &dynWindow{}
		var (
			upOps  [][]sling.EdgeOp
			upReqs []httpReq
			upRes  []httpRes
		)
		for t := 0.0; t < total; t += 1 / cfg.UpdateBatchesPerS {
			batch := make([]sling.EdgeOp, cfg.Mix.UpdateBatch)
			for k := range batch {
				batch[k] = edges.next()
			}
			upOps = append(upOps, batch)
			upReqs = append(upReqs, httpReq{due: time.Duration(t * float64(time.Second)), method: http.MethodPost,
				path: "/update", body: updateBody(batch), measured: t >= cfg.WarmupS && t < cfg.WarmupS+open})
		}
		sched := poissonSchedule(src, cfg.ReadRateQPS, cfg.WarmupS+open)
		dw.readOps = readMix(src, z, cfg.Mix.PairShare, len(sched))
		dw.readReqs = readReqs(dw.readOps, sched, cfg.WarmupS, cfg.Mix.TopK)

		stop := make(chan struct{})
		wdone := make(chan *watcher)
		go func() { wdone <- watch(d.dx, r.trace, stop) }()
		start := time.Now().Add(5 * time.Millisecond)
		dw.start = start
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			upRes = sendOpen(client, d.s.base, start, upReqs, 1, tr)
		}()
		readRes := sendOpen(client, d.s.base, start, dw.readReqs, 1, tr)
		var closedN int
		if closed > 0 {
			until := start.Add(time.Duration(total * float64(time.Second)))
			dw.capacity, closedN = r.closedReads(client, d.s.base, closedSrc, z, 1, until, nil, 1)
		}
		wg.Wait()
		close(stop)
		dw.w = <-wdone
		logf("window done: %d open-loop reads, %d closed-loop reads, %d updates, %d swaps\n",
			len(dw.readReqs), closedN, len(upReqs), len(dw.w.swaps))

		checkReads(r, dw.readOps, readRes, nil, 1, cfg.Mix.TopK)
		dw.reads = splitReads(dw.readReqs, dw.readOps, readRes)
		var applied uint64
		for j, q := range upReqs {
			r.attempted.Add(1)
			rs := upRes[j]
			var u updateResp
			if rs.err != nil || rs.status != http.StatusOK || json.Unmarshal(rs.body, &u) != nil || u.Applied != len(upOps[j]) {
				r.fail("update %d: status %d err %v body %.120s", j, rs.status, rs.err, rs.body)
				continue
			}
			applied += uint64(u.Applied)
			if !q.measured {
				continue
			}
			dw.upd = append(dw.upd, micros(rs.lat))
			// An update no swap in the window includes is censored at
			// the window's end, so slower rebuilds raise the figure.
			fresh := dw.w.end.Sub(rs.done).Seconds()
			for _, s := range dw.w.swaps {
				if s.included >= applied {
					fresh = max(0, s.at.Sub(rs.done).Seconds())
					break
				}
			}
			dw.fresh = append(dw.fresh, fresh)
		}
		return dw
	}

	var replay []readOp
	if r.trace {
		plain := window(r.seconds/2, 0)
		tr.on.Store(true)
		traced := window(r.seconds/2, 0)
		tr.on.Store(false)
		if err := r.traceReport(tr, plain.reads.pair.q(0.5), traced.reads.pair.q(0.5), len(traced.readReqs)+len(traced.upd)); err != nil {
			return err
		}
		_, self := tr.selfTimes()
		r.put("server.update_p50_ns", self["handler/update"].q(0.5), "ns", len(self["handler/update"]))
		r.dynamicLayers(d.dx, traced)
		replay = traced.readOps
	} else {
		// One pooled window: the rebuild cycle is longer than a round
		// would be. The open-loop half gives the latencies, the
		// closed-loop half the sustained read rate.
		dw := window(r.seconds/2, r.seconds/2)
		r.roundLatency("pair", []samples{dw.reads.pair})
		r.put("update_p50_ms", dw.upd.q(0.5)/1000, "ms", len(dw.upd))
		r.put("update_p99_ms", dw.upd.q(0.99)/1000, "ms", len(dw.upd))
		r.put("fresh_p50_s", dw.fresh.q(0.5), "s", len(dw.fresh))
		r.put("work_per_s", dw.capacity, "1/s", 0)
	}

	// Quiesce, rebuild, and hold the result to a fresh build of the
	// graph every acknowledged update implies.
	resp, err := client.Post(d.s.base+"/rebuild", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	r.attempted.Add(1)
	if resp.StatusCode != http.StatusOK {
		r.fail("final rebuild: status %d", resp.StatusCode)
	}
	want := edges.graphWith()
	got := d.dx.Graph()
	r.attempted.Add(1)
	if got.NumEdges() != want.NumEdges() {
		r.fail("served graph has %d edges, acknowledged updates imply %d", got.NumEdges(), want.NumEdges())
	} else {
		missing := 0
		want.Edges(func(from, to sling.NodeID) bool {
			if !got.HasEdge(from, to) {
				missing++
			}
			return true
		})
		if missing > 0 {
			r.fail("%d acknowledged edges missing from the served graph", missing)
		}
	}
	fx, err := sling.NewDynamic(want, r.dynamicOptions("", 0), r.build.options()...)
	if err != nil {
		return err
	}
	defer fx.Close()
	r.checkSample(client, d.s.base, src, z, 200, fx)
	r.put("index_bytes", float64(d.dx.Meta().Bytes), "bytes", 0)
	if r.trace {
		t0 := time.Now()
		ix, st, err := sling.BuildWithStats(want, r.build.options()...)
		if err != nil {
			return err
		}
		r.buildRow(st, time.Since(t0).Seconds(), ix)
		path := filepath.Join(r.work, "index.slix")
		if err := ix.Save(path); err != nil {
			return err
		}
		// The replay is the workload's own read stream; its pairs'
		// first endpoints serve as the single-source and top-k sources.
		pairs, _ := splitOps(replay, 2000, 0)
		sources := make([]sling.NodeID, 200)
		for i := range sources {
			sources[i] = pairs[i][0]
		}
		return r.layerRows(want, labels, ix, path, d.dx, pairs, sources)
	}
	return nil
}

// dynWindow is what one measured window of dynamic-rw produced.
type dynWindow struct {
	start    time.Time
	reads    readStats
	readOps  []readOp
	readReqs []httpReq
	upd      samples // measured /update latencies, µs
	fresh    samples // ack-to-swap seconds of measured updates
	capacity float64 // closed-loop reads completed per second beside the writes
	w        *watcher
}

// dynamicLayers reports the dynamic and durable layer metrics of the
// traced window.
func (r *run) dynamicLayers(dx *sling.DynamicIndex, dw *dynWindow) {
	w := dw.w
	st := dx.Stats()
	r.put("dynamic.rebuilds", float64(st.Rebuilds), "count", 0)
	r.put("dynamic.rebuild_s", w.rebuildRuns.mean(), "s", len(w.rebuildRuns))
	r.put("dynamic.stale_ops_max", float64(w.staleMax), "count", 0)
	var affected float64
	for _, f := range w.frontiers {
		affected += float64(len(f.set))
	}
	r.put("dynamic.affected_share", affected/float64(max(len(w.frontiers), 1))/float64(dx.NumNodes()), "ratio", len(w.frontiers))
	// A read falls back to Monte Carlo when an endpoint is in the
	// frontier; judge each by the frontier sampled last before it was due.
	var fallback int
	f := 0
	for i, q := range dw.readReqs {
		due := dw.start.Add(q.due)
		for f+1 < len(w.frontiers) && !w.frontiers[f+1].at.After(due) {
			f++
		}
		if f < len(w.frontiers) && !w.frontiers[f].at.After(due) {
			set, op := w.frontiers[f].set, dw.readOps[i]
			if set[op.u] || (!op.topk && set[op.v]) {
				fallback++
			}
		}
	}
	r.put("dynamic.fallback_share", float64(fallback)/float64(max(len(dw.readReqs), 1)), "ratio", len(dw.readReqs))
	r.put("durable.appends", float64(st.Durable.Appends), "count", 0)
	r.put("durable.snapshots_written", float64(st.Durable.SnapshotsWritten), "count", 0)
	r.put("durable.wal_bytes_per_op", w.walBytes/max(w.walOps, 1), "bytes", 0)
}
