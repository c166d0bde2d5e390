package main

// Seeded input generation shared by every workload. All draws come from
// sling/internal/rng, so one --seed reproduces a workload's whole input
// stream: query keys, send schedule and edge-update stream.

import (
	"math"
	"sort"

	"sling"
	"sling/internal/rng"
)

// zipf draws node IDs with P(i) ∝ 1/(i+1)^s. In the preferential-
// attachment stand-ins low IDs are the oldest, highest in-degree nodes,
// so a Zipf-by-ID stream concentrates on the hubs.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng.Source) sling.NodeID {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return sling.NodeID(i)
}

// sourceStream yields nodes with non-zero in-degree (the only sources
// with a non-trivial single-source vector) in a fresh random permutation
// per pass.
type sourceStream struct {
	r     *rng.Source
	nodes []sling.NodeID
	pos   int
}

func newSourceStream(g *sling.Graph, r *rng.Source) *sourceStream {
	s := &sourceStream{r: r}
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(sling.NodeID(v)) > 0 {
			s.nodes = append(s.nodes, sling.NodeID(v))
		}
	}
	s.pos = len(s.nodes)
	return s
}

func (s *sourceStream) next() sling.NodeID {
	if s.pos == len(s.nodes) {
		s.r.Shuffle(len(s.nodes), func(i, j int) { s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i] })
		s.pos = 0
	}
	s.pos++
	return s.nodes[s.pos-1]
}

// poissonSchedule returns send offsets in seconds of a Poisson process
// at rate per second over [0, dur).
func poissonSchedule(r *rng.Source, rate, dur float64) []float64 {
	var out []float64
	for t := -math.Log(1-r.Float64()) / rate; t < dur; t += -math.Log(1-r.Float64()) / rate {
		out = append(out, t)
	}
	return out
}

// readOp is one query of the online read mix: a /simrank pair, or a
// /topk source when topk is set (v unused).
type readOp struct {
	topk bool
	u, v sling.NodeID
}

// readMix draws count reads: pairShare of them /simrank with both
// endpoints Zipf, the rest /topk with a Zipf source.
func readMix(r *rng.Source, z *zipf, pairShare float64, count int) []readOp {
	ops := make([]readOp, count)
	for i := range ops {
		if r.Float64() < pairShare {
			ops[i] = readOp{u: z.draw(r), v: z.draw(r)}
		} else {
			ops[i] = readOp{topk: true, u: z.draw(r)}
		}
	}
	return ops
}

// edgeOps is a balanced add/remove stream over a base graph: it adds
// edges absent from the graph (uniform source, Zipf target) until window
// adds are outstanding, then alternates removing a random earlier add
// with adding a new one, so the edge count never drifts more than window
// from the base. Every op changes the graph, so a correct server applies
// every one.
type edgeOps struct {
	r      *rng.Source
	z      *zipf
	n      int
	base   *sling.Graph
	window int
	live   map[uint64]struct{}
	added  []sling.Edge
}

func newEdgeOps(g *sling.Graph, r *rng.Source, z *zipf, window int) *edgeOps {
	return &edgeOps{r: r, z: z, n: g.NumNodes(), base: g, window: window, live: map[uint64]struct{}{}}
}

func edgeKey(from, to sling.NodeID) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

func (e *edgeOps) next() sling.EdgeOp {
	if len(e.added) >= e.window {
		i := e.r.Intn(len(e.added))
		ed := e.added[i]
		e.added[i] = e.added[len(e.added)-1]
		e.added = e.added[:len(e.added)-1]
		delete(e.live, edgeKey(ed.From, ed.To))
		return sling.EdgeOp{From: ed.From, To: ed.To}
	}
	for {
		from, to := sling.NodeID(e.r.Intn(e.n)), e.z.draw(e.r)
		k := edgeKey(from, to)
		if from == to || e.base.HasEdge(from, to) {
			continue
		}
		if _, dup := e.live[k]; dup {
			continue
		}
		e.live[k] = struct{}{}
		e.added = append(e.added, sling.Edge{From: from, To: to})
		return sling.EdgeOp{Add: true, From: from, To: to}
	}
}

// graphWith returns the base graph plus the outstanding adds: the graph
// a server that applied every op so far must hold.
func (e *edgeOps) graphWith() *sling.Graph {
	b := sling.NewGraphBuilder(e.n)
	e.base.Edges(func(from, to sling.NodeID) bool {
		b.AddEdge(from, to)
		return true
	})
	for _, ed := range e.added {
		b.AddEdge(ed.From, ed.To)
	}
	return b.Build()
}
