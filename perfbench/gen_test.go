package main

import (
	"slices"
	"testing"

	"sling"
	"sling/internal/rng"
	"sling/internal/workload"
)

// streams draws every kind of generated input from one seed.
type streams struct {
	reads   []readOp
	sched   []float64
	sources []sling.NodeID
	edges   []sling.EdgeOp
}

func draw(g *sling.Graph, seed uint64) streams {
	src := rng.New(seed)
	z := newZipf(g.NumNodes(), 1)
	var s streams
	s.sched = poissonSchedule(src, 1000, 0.5)
	s.reads = readMix(src, z, 0.85, len(s.sched))
	ss := newSourceStream(g, src)
	for i := 0; i < 3*g.NumNodes(); i++ {
		s.sources = append(s.sources, ss.next())
	}
	e := newEdgeOps(g, src, z, 16)
	for i := 0; i < 200; i++ {
		s.edges = append(s.edges, e.next())
	}
	return s
}

func testGraph(t *testing.T) *sling.Graph {
	spec, ok := workload.ByName("AS")
	if !ok {
		t.Fatal("no AS stand-in")
	}
	return spec.Generate(0.25)
}

func TestInputsDeterministic(t *testing.T) {
	g := testGraph(t)
	a, b, c := draw(g, 7), draw(g, 7), draw(g, 8)
	if !slices.Equal(a.reads, b.reads) || !slices.Equal(a.sched, b.sched) ||
		!slices.Equal(a.sources, b.sources) || !slices.Equal(a.edges, b.edges) {
		t.Fatal("one seed produced two different input streams")
	}
	if slices.Equal(a.reads, c.reads) || slices.Equal(a.edges, c.edges) {
		t.Fatal("different seeds produced the same stream")
	}
}

func TestSourceStreamPermutes(t *testing.T) {
	g := testGraph(t)
	s := draw(g, 3).sources
	var want []sling.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(sling.NodeID(v)) > 0 {
			want = append(want, sling.NodeID(v))
		}
	}
	for pass := 0; pass+len(want) <= len(s); pass += len(want) {
		got := slices.Clone(s[pass : pass+len(want)])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("pass at %d is not a permutation of the non-zero in-degree nodes", pass)
		}
	}
}

// Every op changes the graph, and replaying them leaves exactly the
// outstanding adds on top of the base graph.
func TestEdgeOpsBalanced(t *testing.T) {
	g := testGraph(t)
	src := rng.New(5)
	e := newEdgeOps(g, src, newZipf(g.NumNodes(), 1), 16)
	live := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		op := e.next()
		k := edgeKey(op.From, op.To)
		if op.Add == (live[k] || g.HasEdge(op.From, op.To)) || op.From == op.To {
			t.Fatalf("op %d %+v does not change the graph", i, op)
		}
		live[k] = op.Add
		if len(e.added) > 16 {
			t.Fatalf("%d adds outstanding, window 16", len(e.added))
		}
	}
	if got := e.graphWith().NumEdges(); got != g.NumEdges()+len(e.added) {
		t.Fatalf("replayed graph has %d edges, want %d", got, g.NumEdges()+len(e.added))
	}
}

func TestZipfFavoursLowIDs(t *testing.T) {
	src := rng.New(1)
	z := newZipf(1000, 1)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.draw(src)]++
	}
	// P(0)/P(9) = 10 under s = 1.
	if r := float64(counts[0]) / float64(counts[9]); r < 8 || r > 12 {
		t.Fatalf("P(0)/P(9) = %.2f, want about 10", r)
	}
}

func TestQuantiles(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if s.q(0.5) != 3 || s.q(1) != 5 || s.q(0.01) != 1 {
		t.Fatalf("q = %v %v %v", s.q(0.5), s.q(1), s.q(0.01))
	}
	if topPercentile(1000) != 99 || topPercentile(100) != 90 || topPercentile(10) != 0 {
		t.Fatal("topPercentile")
	}
}

func TestUnionLen(t *testing.T) {
	ss := []span{{Start: 5, End: 8}, {Start: 0, End: 3}, {Start: 2, End: 4}, {Start: 9, End: 20}}
	if got := unionLen(ss, 0, 10); got != 4+3+1 {
		t.Fatalf("unionLen = %d, want 8", got)
	}
}
