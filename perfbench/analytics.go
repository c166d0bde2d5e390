package main

// analytics-uniform: the `slingserver -shards` shape called as a
// library. The Google index is split by shard.InProcess into 2
// byte-balanced shards behind shard.New; two closed-loop callers
// alternate SingleSource with SingleSourceBatch over uniform sources.

import (
	"context"
	"hash/fnv"
	"math"
	"path/filepath"
	"sync"
	"time"

	"sling"
	"sling/internal/rng"
	"sling/internal/shard"
)

// sourceOp is one analytics call: a single source, or a batch.
type sourceOp struct {
	batch bool
	us    []sling.NodeID
}

type sourceCheck struct {
	u    sling.NodeID
	hash uint64
}

func rowHash(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// opStream hands out the alternating single/batch ops from one shared
// seeded source permutation, so the stream is the same however the two
// callers interleave.
type opStream struct {
	mu    sync.Mutex
	src   *sourceStream
	batch int
	n     int
}

func (s *opStream) next() sourceOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n%2 == 1 {
		return sourceOp{us: []sling.NodeID{s.src.next()}}
	}
	us := make([]sling.NodeID, s.batch)
	for i := range us {
		us[i] = s.src.next()
	}
	return sourceOp{batch: true, us: us}
}

// analyticsStats holds one closed-loop window's measurements, split
// into rounds by completion time.
type analyticsStats struct {
	single, batch []samples // µs per round
	sources       []int     // sources completed per round
	checks        []sourceCheck
}

func newAnalyticsStats(parts int) analyticsStats {
	return analyticsStats{single: make([]samples, parts), batch: make([]samples, parts), sources: make([]int, parts)}
}

// closedLoop runs two callers for warm+secs seconds; ops completing in
// the last secs seconds are measured, in parts equal slices of it.
// Every 16th op's rows are hashed for the answer check.
func (r *run) closedLoop(q sling.Querier, ops *opStream, tr *tracer, n int, warm, secs float64, parts int) analyticsStats {
	start := time.Now()
	measureFrom := start.Add(time.Duration(warm * float64(time.Second)))
	end := measureFrom.Add(time.Duration(secs * float64(time.Second)))
	var (
		mu  sync.Mutex
		agg = newAnalyticsStats(parts)
		wg  sync.WaitGroup
	)
	partLen := end.Sub(measureFrom) / time.Duration(parts)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newAnalyticsStats(parts)
			buf := make([]float64, n)
			for i := 0; time.Now().Before(end); i++ {
				op := ops.next()
				r.attempted.Add(1)
				ctx, endSpan := tr.begin(context.Background(), "gen")
				t0 := time.Now()
				var rows [][]float64
				var err error
				if op.batch {
					rows, err = q.SingleSourceBatch(ctx, op.us)
				} else {
					var row []float64
					row, err = q.SingleSource(ctx, op.us[0], buf)
					rows = [][]float64{row}
				}
				done := time.Now()
				endSpan()
				if err != nil || len(rows) != len(op.us) {
					r.fail("source op %v: %v (%d rows)", op.us, err, len(rows))
					continue
				}
				if !done.Before(measureFrom) && !done.After(end) {
					lat := micros(done.Sub(t0))
					k := min(int(done.Sub(measureFrom)/partLen), parts-1)
					if op.batch {
						st.batch[k] = append(st.batch[k], lat)
					} else {
						st.single[k] = append(st.single[k], lat)
					}
					st.sources[k] += len(op.us)
				}
				if i%16 == 0 {
					for k, u := range op.us {
						st.checks = append(st.checks, sourceCheck{u, rowHash(rows[k])})
					}
				}
			}
			mu.Lock()
			for k := range parts {
				agg.single[k] = append(agg.single[k], st.single[k]...)
				agg.batch[k] = append(agg.batch[k], st.batch[k]...)
				agg.sources[k] += st.sources[k]
			}
			agg.checks = append(agg.checks, st.checks...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return agg
}

// verifySources compares each checked row bitwise with the unsharded
// reference index.
func (r *run) verifySources(ref *sling.Index, checks []sourceCheck) {
	buf := make([]float64, ref.Graph().NumNodes())
	for _, c := range checks {
		want, err := ref.SingleSource(context.Background(), c.u, buf)
		if err != nil || rowHash(want) != c.hash {
			r.fail("source %d: sharded row differs from the unsharded reference (%v)", c.u, err)
		}
	}
}

func runAnalytics(r *run) error {
	cfg := r.cfg
	g, labels, err := datasetGraph(cfg.Dataset, cfg.Scale)
	if err != nil {
		return err
	}
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}
	var (
		ref    *sling.Index
		bst    sling.BuildStats
		buildS float64
	)
	n := g.NumNodes()
	ops := &opStream{src: newSourceStream(g, rng.New(r.seed)), batch: cfg.Mix.Batch}
	// Each figure is the median over rounds, so a burst of host noise
	// moves one round, not the figure.
	var st analyticsStats
	measure := func(q *shard.Querier) error {
		part := r.closedLoop(q, ops, nil, n, cfg.WarmupS, r.seconds/setups, roundsPerSetup)
		st.single = append(st.single, part.single...)
		st.sources = append(st.sources, part.sources...)
		st.checks = append(st.checks, part.checks...)
		return nil
	}
	if r.trace {
		measure = nil
	}
	router, err := timed(r, func(i int) (*shard.Querier, error) {
		t0 := time.Now()
		ix, st, err := sling.BuildWithStats(g, r.build.options()...)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref, bst, buildS = ix, st, time.Since(t0).Seconds()
		}
		m, clients := shard.InProcess(ix, shards)
		if r.trace {
			for k, c := range clients {
				clients[k] = traceClient{c, tr}
			}
		}
		return shard.New(m, clients, nil)
	}, measure, func(q *shard.Querier) { q.Close() })
	if err != nil {
		return err
	}
	defer router.Close()
	r.put("index_bytes", float64(router.Meta().Bytes), "bytes", 0)

	if r.trace {
		plain := r.closedLoop(router, ops, tr, n, cfg.WarmupS, r.seconds/2, 1)
		tr.on.Store(true)
		traced := r.closedLoop(traceQuerier{router, tr}, ops, tr, n, 0, r.seconds/2, 1)
		tr.on.Store(false)
		r.verifySources(ref, append(plain.checks, traced.checks...))
		if err := r.traceReport(tr, plain.single[0].q(0.5), traced.single[0].q(0.5), len(traced.single[0])+len(traced.batch[0])); err != nil {
			return err
		}
		// The replayed stream is the workload's own: the same seeded
		// permutation, consecutive sources paired for the pair rows.
		replay := newSourceStream(g, rng.New(r.seed))
		pairs := make([][2]sling.NodeID, 2000)
		for i := range pairs {
			pairs[i] = [2]sling.NodeID{replay.next(), replay.next()}
		}
		sources := make([]sling.NodeID, 200)
		for i := range sources {
			sources[i] = replay.next()
		}
		path := filepath.Join(r.work, "index.slix")
		if err := ref.Save(path); err != nil {
			return err
		}
		r.buildRow(bst, buildS, ref)
		return r.layerRows(g, labels, ref, path, router, pairs, sources)
	}

	r.verifySources(ref, st.checks)
	r.roundLatency("source", st.single)
	rates := make(samples, rounds)
	for k, n := range st.sources {
		rates[k] = float64(n) / (r.seconds / float64(rounds))
	}
	logf("sources/s per round: %.0f\n", rates)
	r.put("source_per_s", rates.q(0.5), "sources/s", rounds)
	r.put("work_per_s", rates.q(0.5), "1/s", rounds)
	return nil
}
