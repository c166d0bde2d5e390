package core

import (
	"math"
	"testing"

	"sling/internal/graph"
	"sling/internal/workload"
)

// denseSingleSource is the reference Algorithm 6: the dense formulation
// the sparse accumulator replaced, with every step group's final ρ added
// straight into a zeroed n-vector in the same order. The sparse paths
// must reproduce it bit for bit.
func denseSingleSource(x *Index, u graph.NodeID) []float64 {
	n := x.g.NumNodes()
	out := make([]float64, n)
	cur, next := make([]float64, n), make([]float64, n)
	var curList, nextList []int32
	q := x.NewScratch()
	keys, vals := x.gather(u, q, &q.ka, &q.va)
	for lo := 0; lo < len(keys); {
		l := keyStep(keys[lo])
		hi := lo
		for hi < len(keys) && keyStep(keys[hi]) == l {
			hi++
		}
		curList = curList[:0]
		for i, key := range keys[lo:hi] {
			k := keyNode(key)
			if cur[k] == 0 {
				curList = append(curList, k)
			}
			cur[k] += vals[lo+i] * x.d[k]
		}
		threshold := math.Pow(x.prm.sqrtC, float64(l)) * x.prm.theta
		for t := 0; t < l; t++ {
			nextList = nextList[:0]
			for _, v := range curList {
				rho := cur[v]
				cur[v] = 0
				if rho <= threshold {
					continue
				}
				for _, y := range x.g.OutNeighbors(v) {
					if next[y] == 0 {
						nextList = append(nextList, y)
					}
					next[y] += x.prm.sqrtC * rho / float64(x.g.InDegree(y))
				}
			}
			cur, next = next, cur
			curList, nextList = nextList, curList
		}
		for _, v := range curList {
			out[v] += cur[v]
			cur[v] = 0
		}
		lo = hi
	}
	return out
}

// rangeOnly zeroes scores outside [lo, hi): the dense reference for a
// shard's local top-k.
func rangeOnly(scores []float64, lo, hi int) []float64 {
	r := make([]float64, len(scores))
	copy(r[lo:hi], scores[lo:hi])
	return r
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func sameTop(t *testing.T, what string, got, want []TopEntry) {
	t.Helper()
	if !equalTop(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// checkClean asserts the between-calls invariant of a SourceScratch: an
// all-zero accumulator and an empty hit list.
func checkClean(t *testing.T, what string, s *SourceScratch) {
	t.Helper()
	if len(s.hits) != 0 {
		t.Fatalf("%s: %d hits left in scratch", what, len(s.hits))
	}
	for v, a := range s.acc {
		if a != 0 {
			t.Fatalf("%s: acc[%d] = %v left in scratch", what, v, a)
		}
	}
}

// TestSparseSourceMatchesDense holds every sparse consumer of an
// Algorithm 6 propagation — SingleSource, TopK, SourceTop, SourceSlice
// and TopSlice over a 3-way range split, in memory and on mmap — to
// bitwise equality with SelectTop or a range filter over the dense
// reference vector, for every node of every workload family, with
// enhancement on and off. One scratch serves all the interleaved calls
// and must be clean after each. Under the race detector, which slows the
// sweep about 20x and adds nothing to this single-goroutine test, every
// fifth source is checked.
func TestSparseSourceMatchesDense(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 5
	}
	for _, fam := range workload.Families() {
		for _, enhance := range []bool{false, true} {
			g := fam.Gen(48, 5)
			x, path := saveTestIndex(t, g, &Options{Eps: 0.08, Seed: 5, Enhance: enhance})
			dm := openMapped(t, path, g)
			n := g.NumNodes()
			cuts := []int{0, n / 3, 2 * n / 3, n}
			ss, pool, dpool := x.NewSourceScratch(), x.NewScratchPool(), dm.Meta().NewScratchPool()
			for u := graph.NodeID(0); int(u) < n; u += graph.NodeID(stride) {
				name := func(op string) string {
					return fam.Name + "/enhance=" + map[bool]string{false: "0", true: "1"}[enhance] + "/" + op
				}
				want := denseSingleSource(x, u)
				sameBits(t, name("SingleSource"), x.SingleSource(u, ss, nanVec(n)), want)
				checkClean(t, name("SingleSource"), ss)
				got, err := dm.SingleSource(u, ss, nanVec(n))
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, name("mmap SingleSource"), got, want)
				for _, k := range []int{1, 5, n + 1} {
					sameTop(t, name("TopK"), x.TopK(u, k, ss, nil), SelectTop(want, k, u))
					sameTop(t, name("SourceTop"), x.top(u, k, -1, ss), SelectTop(want, k, -1))
					checkClean(t, name("TopK/SourceTop"), ss)
					sameTop(t, name("pool TopK"), pool.TopK(u, k), SelectTop(want, k, u))
					sameTop(t, name("pool SourceTop"), pool.SourceTop(u, k), SelectTop(want, k, -1))
					top, err := dm.TopK(u, k, ss)
					if err != nil {
						t.Fatal(err)
					}
					sameTop(t, name("mmap TopK"), top, SelectTop(want, k, u))
					top, err = dm.SourceTop(u, k, ss)
					if err != nil {
						t.Fatal(err)
					}
					sameTop(t, name("mmap SourceTop"), top, SelectTop(want, k, -1))
					checkClean(t, name("mmap TopK/SourceTop"), ss)
				}
				keys, vals, _ := x.FragmentOf(u, nil)
				for i := 0; i+1 < len(cuts); i++ {
					lo, hi := cuts[i], cuts[i+1]
					dst := nanVec(hi - lo)
					x.sourceSlice(keys, vals, ss, lo, hi, dst)
					checkClean(t, name("sourceSlice"), ss)
					sameBits(t, name("SourceSlice"), dst, want[lo:hi])
					dst = nanVec(hi - lo)
					pool.SourceSlice(keys, vals, lo, hi, dst)
					sameBits(t, name("pool SourceSlice"), dst, want[lo:hi])
					dst = nanVec(hi - lo)
					dpool.SourceSlice(keys, vals, lo, hi, dst)
					sameBits(t, name("disk SourceSlice"), dst, want[lo:hi])
					for _, k := range []int{1, 5, n + 1} {
						ref := SelectTop(rangeOnly(want, lo, hi), k, u)
						sameTop(t, name("TopSlice"), pool.TopSlice(keys, vals, k, u, lo, hi), ref)
						sameTop(t, name("disk TopSlice"), dpool.TopSlice(keys, vals, k, u, lo, hi), ref)
					}
				}
			}
		}
	}
}

// TestSparseHitList checks the hit list of one propagation: no
// duplicates, and exactly the nodes with a nonzero dense score.
func TestSparseHitList(t *testing.T) {
	for _, fam := range workload.Families() {
		g := fam.Gen(48, 9)
		x := buildIndex(t, g, &Options{Eps: 0.08, Seed: 9, Enhance: true})
		ss := x.NewSourceScratch()
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			want := denseSingleSource(x, u)
			keys, vals, _ := x.FragmentOf(u, nil)
			x.propagate(keys, vals, ss)
			seen := make(map[int32]bool, len(ss.hits))
			for _, v := range ss.hits {
				if seen[v] {
					t.Fatalf("%s u=%d: node %d twice in the hit list", fam.Name, u, v)
				}
				seen[v] = true
			}
			for v, sc := range want {
				if (sc != 0) != seen[int32(v)] {
					t.Fatalf("%s u=%d: node %d score %v, in hit list %v", fam.Name, u, v, sc, seen[int32(v)])
				}
			}
			ss.scatter(nil, 0, 0) // drains the accumulator
			checkClean(t, fam.Name, ss)
		}
	}
}

// TestSparseTopAllocs pins the pooled top-k paths, in memory and on
// mmap, at one allocation per query: the k-element result.
func TestSparseTopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	g := randomGraph(200, 1200, 3)
	x, path := saveTestIndex(t, g, &Options{Eps: 0.05, Seed: 3})
	dm := openMapped(t, path, g)
	pool, dpool := x.NewScratchPool(), dm.Meta().NewScratchPool()
	if top := pool.TopK(7, 10); len(top) == 0 {
		t.Fatal("node 7 has no similar nodes; pick another source")
	}
	if a := testing.AllocsPerRun(200, func() { pool.TopK(7, 10) }); a != 1 {
		t.Fatalf("pooled Index.TopK allocates %v times per op, want 1", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		ss := dpool.Source()
		defer dpool.PutSource(ss)
		if _, err := dm.TopK(7, 10, ss); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("mmap DiskIndex.TopK allocates %v times per op, want 1", a)
	}
}

func openMapped(t *testing.T, path string, g *graph.Graph) *DiskIndex {
	t.Helper()
	if !MmapSupported() {
		d, err := OpenDiskIndex(path, g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	d, err := OpenDiskIndexMmap(path, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}
