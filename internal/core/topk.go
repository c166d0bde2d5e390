package core

import (
	"slices"

	"sling/internal/graph"
)

// Top-k selection over a single-source score vector.
//
// A similarity service overwhelmingly asks "who are the k most similar
// nodes to u" for k ≪ n, so materializing and fully sorting an n-element
// candidate list per query (O(n log n) time, O(n) garbage) is the wrong
// shape. SelectTop keeps a size-k min-heap over the vector instead:
// O(n log k) time, O(k) space, and the only allocation is the k-element
// result the caller keeps. The index's own top-k paths go further and
// offer the heap only the nodes the propagation touched (SourceScratch
// hits), so they never scan or hold an n-length vector.

// TopEntry is one (node, score) result of a top-k selection.
type TopEntry struct {
	Node  graph.NodeID
	Score float64
}

// WorseThan reports whether a ranks strictly behind b in top-k order.
// Ordering is total and deterministic: higher score first, ties broken by
// smaller node ID. It is exported so scatter/gather layers can merge
// per-shard top-k lists with exactly the selection order used here.
func (a TopEntry) WorseThan(b TopEntry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// SelectTop returns the k highest-scoring entries of scores in descending
// score order (ties broken by ascending node ID). The node skip is
// excluded (pass a negative skip to keep every node), as are entries with
// non-positive score, so fewer than k entries may be returned.
func SelectTop(scores []float64, k int, skip graph.NodeID) []TopEntry {
	h := newTopHeap(k, len(scores))
	for v, sc := range scores {
		// Most of a score vector is zero; skip it before the call.
		if sc > 0 && graph.NodeID(v) != skip {
			h.offer(TopEntry{Node: graph.NodeID(v), Score: sc})
		}
	}
	return h.sorted()
}

// topHeap is a size-k min-heap (root = worst kept entry) of the best
// positive-score entries offered so far. Its result depends only on the
// set of entries offered, not their order, because WorseThan is total.
type topHeap struct {
	h []TopEntry
	k int
}

// newTopHeap returns a heap keeping the best k of at most m candidates.
// k <= 0 keeps nothing and yields a nil result; otherwise the result is
// non-nil even when empty, so it encodes as [] rather than null.
func newTopHeap(k, m int) topHeap {
	if k <= 0 {
		return topHeap{}
	}
	k = min(k, m)
	return topHeap{h: make([]TopEntry, 0, k), k: k}
}

// offer considers e, dropping it when its score is not positive or it
// ranks behind every kept entry of a full heap.
func (t *topHeap) offer(e TopEntry) {
	switch {
	case e.Score <= 0 || t.k == 0:
	case len(t.h) < t.k:
		t.h = append(t.h, e)
		siftUp(t.h, len(t.h)-1)
	case t.h[0].WorseThan(e):
		t.h[0] = e
		siftDown(t.h, 0)
	}
}

// sorted returns the kept entries best first. slices.SortFunc, unlike
// sort.Slice, allocates nothing, so the result is the only allocation.
func (t *topHeap) sorted() []TopEntry {
	slices.SortFunc(t.h, func(a, b TopEntry) int {
		switch {
		case b.WorseThan(a):
			return -1
		case a.WorseThan(b):
			return 1
		}
		return 0
	})
	return t.h
}

// siftUp restores min-heap order (root = worst kept entry) after
// appending at position i.
func siftUp(h []TopEntry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].WorseThan(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores min-heap order after replacing the root.
func siftDown(h []TopEntry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].WorseThan(h[m]) {
			m = l
		}
		if r < n && h[r].WorseThan(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, running one single-source propagation and a
// heap selection over the nodes it touched. out is unused (the scores
// stay in the scratch's sparse accumulator); it is kept so existing
// callers compile. A nil scratch allocates one.
func (x *Index) TopK(u graph.NodeID, k int, s *SourceScratch, out []float64) []TopEntry {
	if k <= 0 {
		return nil
	}
	return x.top(u, k, u, s)
}

// top returns the k highest-scoring nodes for source u in
// descending score order, ties broken by ascending node ID, excluding
// skip (a negative skip keeps every node, u included). Only the k-element
// result is allocated. A nil scratch allocates one.
func (x *Index) top(u graph.NodeID, k int, skip graph.NodeID, s *SourceScratch) []TopEntry {
	if s == nil {
		s = x.NewSourceScratch()
	}
	keys, vals := x.gather(u, s.q, &s.q.ka, &s.q.va)
	x.propagate(keys, vals, s)
	return s.top(k, skip, 0, x.g.NumNodes())
}
