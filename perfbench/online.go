package main

// online-zipf: the `slingserver -disk -mmap` front door. The index is
// built, saved as SLIX, memory-mapped and served by server.NewDisk on a
// loopback listener; an open-loop Poisson generator offers the
// Zipf-by-ID read mix at three frozen rates.

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"time"

	"sling"
	"sling/internal/rng"
	"sling/internal/server"
	"sling/internal/workload"
)

func datasetGraph(name string, scale float64) (*sling.Graph, []int64, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
	g := spec.Generate(scale)
	// slingserver always serves through a label map; identity labels
	// keep that lookup on the request path.
	labels := make([]int64, g.NumNodes())
	for i := range labels {
		labels[i] = int64(i)
	}
	return g, labels, nil
}

type onlineDep struct {
	path string
	di   *sling.DiskIndex
	s    *served
}

func runOnline(r *run) error {
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
	var (
		ref    *sling.Index
		bst    sling.BuildStats
		buildS float64
	)
	src := rng.New(r.seed)
	// The closed loops draw as many reads as they have time for, from a
	// stream of their own, so the open-loop inputs do not depend on it.
	closedSrc := src.Split()
	z := newZipf(g.NumNodes(), cfg.Mix.ZipfS)
	segment := func(base string, rate, secs float64) ([]httpReq, []readOp, []httpRes) {
		sched := poissonSchedule(src, rate, cfg.WarmupS+secs)
		ops := readMix(src, z, cfg.Mix.PairShare, len(sched))
		reqs := readReqs(ops, sched, cfg.WarmupS, cfg.Mix.TopK)
		res := sendOpen(client, base, time.Now().Add(5*time.Millisecond), reqs, 2, tr)
		checkReads(r, ops, res, ref, 4, cfg.Mix.TopK)
		return reqs, ops, res
	}

	// Each round visits the open-loop rates in turn, then measures the
	// closed-loop capacity of the two connections on the same mix for as
	// long as all the rates together. Each figure is the median of its
	// per-round values, so a burst of host noise moves one round, not
	// the figure.
	secs := r.seconds / float64(rounds*2*len(cfg.RatesQPS))
	capSecs := secs * float64(len(cfg.RatesQPS))
	per := make([][]readStats, len(cfg.RatesQPS))
	var capacity samples
	measure := func(d onlineDep) error {
		for j := range roundsPerSetup {
			if j > 0 {
				// Each round from a clean heap, as timed starts the first.
				debug.FreeOSMemory()
			}
			for k, rate := range cfg.RatesQPS {
				reqs, ops, res := segment(d.s.base, rate, secs)
				per[k] = append(per[k], splitReads(reqs, ops, res))
			}
			// The server is warm from the rates, so the loop needs no
			// warm-up.
			until := time.Now().Add(time.Duration(capSecs * float64(time.Second)))
			rate, _ := r.closedReads(client, d.s.base, closedSrc, z, 2, until, ref, 4)
			capacity = append(capacity, rate)
		}
		return nil
	}
	if r.trace {
		measure = nil
	}

	d, err := timed(r, func(i int) (onlineDep, error) {
		var dep onlineDep
		t0 := time.Now()
		ix, st, err := sling.BuildWithStats(g, r.build.options()...)
		if err != nil {
			return dep, err
		}
		if i == 0 {
			ref, bst, buildS = ix, st, time.Since(t0).Seconds()
		}
		dep.path = filepath.Join(r.work, fmt.Sprintf("index-%d.slix", i))
		if err := ix.Save(dep.path); err != nil {
			return dep, err
		}
		if dep.di, err = sling.OpenDiskWithOptions(dep.path, g, &sling.DiskOptions{Mmap: true}); err != nil {
			return dep, err
		}
		if !dep.di.Mapped() {
			return dep, fmt.Errorf("mmap serving unavailable on this platform")
		}
		var h http.Handler
		if r.trace {
			h, err = server.NewQuerier(traceQuerier{dep.di, tr}, labels, server.Config{})
			h = traceHandler(tr, h)
		} else {
			h, err = server.NewDisk(dep.di, labels, server.Config{})
		}
		if err != nil {
			return dep, err
		}
		if dep.s, err = serveHTTP(h); err != nil {
			return dep, err
		}
		return dep, waitReady(client, dep.s.base)
	}, measure, func(d onlineDep) {
		d.s.close()
		d.di.Close()
	})
	if err != nil {
		return err
	}
	defer d.di.Close()
	defer d.s.close()
	r.put("index_bytes", float64(d.di.Meta().Bytes), "bytes", 0)

	if r.trace {
		rate := cfg.RatesQPS[0]
		reqs, ops, res := segment(d.s.base, rate, r.seconds/2)
		plain := splitReads(reqs, ops, res)
		tr.on.Store(true)
		reqs, ops, res = segment(d.s.base, rate, r.seconds/2)
		tr.on.Store(false)
		traced := splitReads(reqs, ops, res)
		if err := r.traceReport(tr, plain.pair.q(0.5), traced.pair.q(0.5), len(reqs)); err != nil {
			return err
		}
		pairs, sources := splitOps(ops, 2000, 200)
		r.buildRow(bst, buildS, ref)
		return r.layerRows(g, labels, ref, d.path, d.di, pairs, sources)
	}

	logf("closed-loop capacity per round (req/s): %.0f\n", capacity)
	limit := cfg.P99LimitMs * 1000
	best := 0.0
	for k, rate := range cfg.RatesQPS {
		var all, tail, pairRounds []samples
		var completed int
		var span float64
		for _, st := range per[k] {
			all, pairRounds = append(all, st.all), append(pairRounds, st.pair)
			// The backlog grows when the generator falls ever further
			// behind its schedule: judge by how late the last tenth of
			// each round's sends ran.
			tail = append(tail, st.late[len(st.late)*9/10:])
			completed += st.completed
			// Requests that finish after the window stretch it, so an
			// overloaded rate reports what the server actually sustained.
			span += max(secs, st.span)
		}
		achieved := float64(completed) / span
		p99, lateP50 := medianOver(all, 0.99), medianOver(tail, 0.5)
		pass := p99 <= limit && lateP50 <= limit
		logf("rate %g req/s: achieved %.1f; all-read p99 %.1f µs (limit %.0f); tail lateness p50 %.1f µs; pass=%v\n",
			rate, achieved, p99, limit, lateP50, pass)
		r.put(fmt.Sprintf("rate%d_all_p99_us", k), p99, "us", count(all))
		r.put(fmt.Sprintf("rate%d_pair_p50_us", k), medianOver(pairRounds, 0.5), "us", count(pairRounds))
		if pass {
			best = achieved
		}
		if k == len(cfg.RatesQPS)/2 { // the middle rate
			var pair, topk, lateAll []samples
			for _, st := range per[k] {
				pair, topk, lateAll = append(pair, st.pair), append(topk, st.topk), append(lateAll, st.late)
			}
			r.roundLatency("pair", pair)
			r.roundLatency("topk", topk)
			r.put("wire.gen_late_p99_us", medianOver(lateAll, 0.99), "us", count(lateAll))
		}
	}
	r.put("max_rate_qps", best, "req/s", 0)
	r.put("work_per_s", capacity.q(0.5), "1/s", rounds)
	return nil
}
