package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"sling/internal/graph"
	"sling/internal/power"
)

// Single-source queries (Section 6 of the paper).
//
// Algorithm 6 avoids touching every node's H(v): for each step ℓ present
// in H(u) it seeds temporary scores ρ^(0)(k) = h̃^(ℓ)(u,k)·d̃_k and
// propagates them ℓ steps forward along out-edges (the same local-update
// rule as Algorithm 2, with the pruning threshold scaled down to
// (√c)^ℓ·θ because the seeds start at (√c)^ℓ rather than 1). After ℓ
// steps, ρ^(ℓ)(j) is the step-ℓ slice of Equation (13) for every j at
// once. Total cost O(m·log²(1/ε)) with ε worst-case error (Lemma 12).

// SourceScratch holds the per-query buffers of SingleSource.
//
// The propagation touches few nodes (a source at ε = 0.025 reaches tens
// to hundreds of an n-node graph), so its result is kept sparse: acc is
// the score accumulator and hits lists the nodes holding a nonzero
// score, in first-touch order without duplicates. Between calls acc is
// all-zero and hits empty; every consumer of a propagation (scatter,
// top) resets exactly the hit entries, so only the caller's own output
// vector ever costs O(n).
type SourceScratch struct {
	q                 *Scratch
	cur, next         []float64
	curList, nextList []int32
	acc               []float64
	hits              []int32
}

// NewSourceScratch sizes a SourceScratch for the index's graph.
func (x *Index) NewSourceScratch() *SourceScratch {
	n := x.g.NumNodes()
	return &SourceScratch{
		q:    x.NewScratch(),
		cur:  make([]float64, n),
		next: make([]float64, n),
		acc:  make([]float64, n),
	}
}

// SingleSource computes s̃(u, v) for every node v with Algorithm 6,
// writing into out if it has capacity n and allocating otherwise.
// A nil scratch allocates one.
func (x *Index) SingleSource(u graph.NodeID, s *SourceScratch, out []float64) []float64 {
	if s == nil {
		s = x.NewSourceScratch()
	}
	keys, vals := x.gather(u, s.q, &s.q.ka, &s.q.va)
	return x.SingleSourceFrom(keys, vals, s, out)
}

// SingleSourceFrom runs the Algorithm 6 propagation from an already
// gathered HP entry list instead of a node: the seeds are h values
// (pre-correction; d̃ is applied here), sorted by key. It is the shared
// step-group loop behind the in-memory and disk single-source paths, and
// the shard-side half of scatter/gather single-source — propagation needs
// only the graph, d̃, and the parameters, all of which every shard holds
// in full, so a shard can propagate any node's fragment exactly.
//
// out is overwritten in full: cleared once (skipped when it is freshly
// allocated here), then the touched nodes are scattered into it.
func (x *Index) SingleSourceFrom(keys []uint64, vals []float64, s *SourceScratch, out []float64) []float64 {
	if s == nil {
		s = x.NewSourceScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
		clear(out)
	}
	x.propagate(keys, vals, s)
	s.scatter(out, 0, n)
	return out
}

// propagate runs Algorithm 6 from a gathered entry list into s's sparse
// accumulator. Entries are sorted by (step, node); each step-group is
// propagated in turn.
func (x *Index) propagate(keys []uint64, vals []float64, s *SourceScratch) {
	for lo := 0; lo < len(keys); {
		l := keyStep(keys[lo])
		hi := lo
		for hi < len(keys) && keyStep(keys[hi]) == l {
			hi++
		}
		x.propagateStep(keys[lo:hi], vals[lo:hi], l, s)
		lo = hi
	}
}

// propagateStep seeds ρ^(0)(k) = h̃^(ℓ)(u,k)·d̃_k for one step group and
// runs ℓ local-update steps, accumulating ρ^(ℓ) into s.acc. Every
// contribution is positive, so a node enters s.hits exactly once: when
// its first nonzero contribution lands.
func (x *Index) propagateStep(keys []uint64, vals []float64, l int, s *SourceScratch) {
	s.curList = s.curList[:0]
	for i, key := range keys {
		k := keyNode(key)
		if s.cur[k] == 0 {
			s.curList = append(s.curList, k)
		}
		s.cur[k] += vals[i] * x.d[k]
	}
	threshold := math.Pow(x.prm.sqrtC, float64(l)) * x.prm.theta
	for t := 0; t < l; t++ {
		s.nextList = s.nextList[:0]
		for _, v := range s.curList {
			rho := s.cur[v]
			s.cur[v] = 0
			if rho <= threshold {
				continue
			}
			for _, y := range x.g.OutNeighbors(v) {
				add := x.prm.sqrtC * rho / float64(x.g.InDegree(y))
				if s.next[y] == 0 {
					s.nextList = append(s.nextList, y)
				}
				s.next[y] += add
			}
		}
		s.cur, s.next = s.next, s.cur
		s.curList, s.nextList = s.nextList, s.curList
	}
	for _, v := range s.curList {
		rho := s.cur[v]
		s.cur[v] = 0
		if rho == 0 {
			continue
		}
		if s.acc[v] == 0 {
			s.hits = append(s.hits, v)
		}
		s.acc[v] += rho
	}
}

// scatter writes the accumulated scores of the touched nodes in [lo, hi)
// into dst[v-lo] (dst is assumed zero there otherwise) and resets the
// accumulator, in range or not.
func (s *SourceScratch) scatter(dst []float64, lo, hi int) {
	for _, v := range s.hits {
		if int(v) >= lo && int(v) < hi {
			dst[int(v)-lo] = s.acc[v]
		}
		s.acc[v] = 0
	}
	s.hits = s.hits[:0]
}

// top selects the k best touched nodes in [lo, hi) under SelectTop's
// order (skip excluded; a negative skip keeps every node) and resets the
// accumulator. Untouched nodes score exactly 0 and SelectTop drops
// non-positive scores, so this equals a dense selection over the range.
func (s *SourceScratch) top(k int, skip graph.NodeID, lo, hi int) []TopEntry {
	h := newTopHeap(k, len(s.hits))
	for _, v := range s.hits {
		if int(v) >= lo && int(v) < hi && v != skip {
			h.offer(TopEntry{Node: v, Score: s.acc[v]})
		}
		s.acc[v] = 0
	}
	s.hits = s.hits[:0]
	return h.sorted()
}

// SingleSourceNaive answers a single-source query by running the
// Algorithm 3 single-pair join once per node — the O(n/ε) straightforward
// method the paper compares Algorithm 6 against in Figure 2.
func (x *Index) SingleSourceNaive(u graph.NodeID, s *Scratch, out []float64) []float64 {
	if s == nil {
		s = x.NewScratch()
	}
	n := x.g.NumNodes()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	ku, vu := x.gather(u, s, &s.ka, &s.va)
	// gather(u) may alias index storage; gathering v below can reuse only
	// the second buffer pair so u's view stays valid.
	for v := 0; v < n; v++ {
		kv, vv := x.gather(graph.NodeID(v), s, &s.kb, &s.vb)
		out[v] = joinScore(ku, vu, kv, vv, x.d)
	}
	return out
}

// CtxErr reports a cancelled or expired context, tolerating nil
// (treated as context.Background(): never cancelled). It is the one
// shared helper behind every cancellation check in the query stack —
// core, dynamic, and the public facade.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ForEach calls fn(i) for every i in [0, count), fanned across at most
// workers goroutines (workers <= 1 runs on the calling goroutine). It is
// the one fan-out of the query stack and of the build: the in-memory,
// disk and dynamic batches and the per-target-node build phases all run
// on it. worker is called once per goroutine and returns that
// goroutine's fn, so per-worker state such as scratch is set up there. Items are claimed from a shared atomic counter so
// stragglers don't idle a worker; each item is independent, so results
// are identical at any worker count.
//
// ctx (nil means never cancelled) is checked after an item is claimed
// and before it runs: once it is cancelled no new item starts (in-flight
// items finish) and ctx.Err() is returned, so an abandoned batch stops
// burning CPU at item granularity. A ctx cancelled only after the last
// item was claimed does not fail the batch — completed work is
// returned, not discarded. The first error an item returns stops the
// batch the same way and is returned.
func ForEach(ctx context.Context, count, workers int, worker func() func(i int) error) error {
	workers = min(workers, count)
	if workers <= 1 {
		fn := worker()
		for i := 0; i < count; i++ {
			if err := CtxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := worker()
			for firstErr.Load() == nil {
				// Claim before checking ctx: a worker that finds the work
				// exhausted returns cleanly, so a ctx cancelled after the
				// last item leaves a fully-computed batch intact.
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				err := CtxErr(ctx)
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					// Copied before its address is taken, so the happy
					// path never heap-allocates an error variable.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// SingleSourceBatch answers one single-source query per source in us,
// fanning the sources across workers goroutines (Options.Workers when
// workers <= 0) with per-worker scratch. Row i equals
// SingleSource(us[i], ...) exactly — per-source computation is untouched,
// so batch results are byte-identical to serial execution. A cancelled
// ctx (nil means never) stops the fan-out between sources and returns
// ctx.Err().
func (x *Index) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	if workers <= 0 {
		workers = x.prm.workers
	}
	out := make([][]float64, len(us))
	if err := ForEach(ctx, len(us), workers, func() func(int) error {
		s := x.NewSourceScratch()
		return func(i int) error {
			out[i] = x.SingleSource(us[i], s, nil)
			return nil
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// AllPairs materializes the full score matrix by running Algorithm 6 from
// every node — the procedure behind the paper's accuracy experiments
// (Figures 5-7) — parallel across Options.Workers. It needs O(n²) output
// memory; callers own sizing checks. Cancellation is observed between
// sources.
func (x *Index) AllPairs(ctx context.Context) (*power.Scores, error) {
	n := x.g.NumNodes()
	s := &power.Scores{N: n, Data: make([]float64, n*n)}
	if err := ForEach(ctx, n, x.prm.workers, func() func(int) error {
		ss := x.NewSourceScratch()
		return func(u int) error {
			x.SingleSource(graph.NodeID(u), ss, s.Data[u*n:(u+1)*n])
			return nil
		}
	}); err != nil {
		return nil, err
	}
	return s, nil
}
